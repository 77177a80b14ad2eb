//! Experiment harness reproducing Section V of the T-Storm paper.
//!
//! Every table and figure of the evaluation has a runner here and a
//! binary under `src/bin/` that prints the corresponding series/rows
//! (see DESIGN.md's per-experiment index):
//!
//! | Experiment | Runner | Binary |
//! |---|---|---|
//! | Fig. 2 (traffic impact) | [`experiments::fig2`] | `fig2` |
//! | Fig. 3 (overload impact) | [`experiments::fig3`] | `fig3` |
//! | Fig. 5 (Throughput Test) | [`experiments::fig5`] | `fig5` |
//! | Fig. 6 (Word Count) | [`experiments::fig6`] | `fig6` |
//! | Fig. 8 (Log Stream) | [`experiments::fig8`] | `fig8` |
//! | Fig. 9 (overload recovery, WC) | [`experiments::fig9`] | `fig9` |
//! | Fig. 10 (overload recovery, LS) | [`experiments::fig10`] | `fig10` |
//! | Table II (settings) | [`experiments::table2`] | `tables` |
//! | §V headline numbers | [`experiments::headline`] | `summary` |
//! | Scheduler baselines (§III/§VI) | — | `baselines` |
//! | Multi-topology scheduling (§IV-C's "M topologies") | — | `multi` |
//!
//! `alg1bench` times every scheduler on the paper-sized problem and
//! Algorithm 1's full versus incremental solve at scale; `simbench`
//! measures the simulator's event throughput.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod experiments;
pub mod sweep;

pub use args::{fig_args_or_exit, FigArgs};
pub use experiments::{ExperimentOutcome, PAPER_RUN_SECS};
