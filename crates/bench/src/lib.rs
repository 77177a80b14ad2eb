//! Experiment harness reproducing Section V of the T-Storm paper.
//!
//! Every table and figure of the evaluation has a runner here and a
//! target of the `repro` binary that prints the corresponding
//! series/rows; `results/<target>.txt` holds each target's output at
//! its defaults (see DESIGN.md's per-experiment index):
//!
//! | Experiment | Runner | `repro` target |
//! |---|---|---|
//! | Table II (settings) | [`experiments::table2`] | `table2` |
//! | Fig. 2 (traffic impact) | [`experiments::fig2`] | `fig2` |
//! | Fig. 3 (overload impact) | [`experiments::fig3`] | `fig3` |
//! | Fig. 5 (Throughput Test) | [`experiments::run_app`] | `fig5` |
//! | Fig. 6 (Word Count) | [`experiments::run_app`] | `fig6` |
//! | Fig. 8 (Log Stream) | [`experiments::run_app`] | `fig8` |
//! | Fig. 9 (overload recovery, WC) | [`experiments::fig9`] | `fig9` |
//! | Fig. 10 (overload recovery, LS) | [`experiments::fig10`] | `fig10` |
//! | §V headline numbers | [`experiments::headline`] | `summary` |
//! | Scheduler baselines (§III/§VI) | `tstorm_cli::run_scenario` | `baselines` |
//! | Multi-topology scheduling (§IV-C's "M topologies") | — | `multi` |
//!
//! `sweep` re-runs the application figures across seeds, `alg1bench`
//! times every scheduler on the paper-sized problem and Algorithm 1's
//! full solve at scale, and `benchguard` checks the repository
//! benchmark's fresh records against the committed `BENCH_sim.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod experiments;
pub mod repro;
pub mod sweep;

pub use experiments::{ExperimentOutcome, PAPER_RUN_SECS};
