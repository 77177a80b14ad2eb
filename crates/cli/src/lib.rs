//! The `tstorm` command-line front end.
//!
//! ```text
//! tstorm run     --topology wordcount --system t-storm --gamma 1.8 --duration 600
//! tstorm compare --topology throughput --gamma 1.7
//! tstorm schedulers
//! ```
//!
//! `run` executes one workload under one system and prints the 1-minute
//! series plus a percentile summary (optionally CSV to a file);
//! `compare` runs plain Storm and T-Storm back to back and prints the
//! speedup row. Everything is driven through the same public library API
//! a downstream user would call.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod scenario;

pub use args::{Command, ParseError, RunOptions};
pub use scenario::{run_scenario, ScenarioOutcome, Topology as ScenarioTopology};
