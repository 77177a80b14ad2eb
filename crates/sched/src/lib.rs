//! Scheduling algorithms for the T-Storm reproduction.
//!
//! This crate contains the paper's core contribution — the traffic-aware
//! online scheduling algorithm (Algorithm 1, Section IV-C) — together with
//! the baselines it is evaluated against:
//!
//! * [`TStormScheduler`] — Algorithm 1: sort executors by total traffic,
//!   greedily assign each to the slot with minimum incremental inter-node
//!   traffic, subject to (1) one slot per topology per node, (2) node
//!   capacity, (3) at most `γ·Ne/K` executors per node;
//! * [`RoundRobinScheduler`] — Storm 0.8.2's default scheduler (executors
//!   round-robin over `Nu` workers, workers spread evenly over nodes), with
//!   a variant implementing T-Storm's modified initial assignment
//!   (`N*_w = min(Nu, Nw)`, one worker per node);
//! * [`AnielloOnlineScheduler`] / [`AnielloOfflineScheduler`] — the
//!   DEBS'13 adaptive schedulers (the paper's reference 11) it compares against.
//!
//! All schedulers implement the object-safe [`Scheduler`] trait, and the
//! [`SchedulerRegistry`] of named factories provides the hot-swap
//! mechanism T-Storm exposes ("the current scheduling algorithm can be
//! replaced by a new one at runtime without shutting down the cluster"):
//! Nimbus swaps its boxed algorithm for a fresh one from the registry.
//!
//! # Example
//!
//! ```
//! use tstorm_cluster::ClusterSpec;
//! use tstorm_sched::{Scheduler, SchedulingInput, SchedParams, TStormScheduler,
//!                    ExecutorInfo, TrafficMatrix};
//! use tstorm_types::{ExecutorId, Mhz, TopologyId, ComponentId};
//!
//! let cluster = ClusterSpec::homogeneous(2, 2, Mhz::new(4000.0))?;
//! let executors = vec![
//!     ExecutorInfo::new(ExecutorId::new(0), TopologyId::new(0), ComponentId::new(0), Mhz::new(100.0)),
//!     ExecutorInfo::new(ExecutorId::new(1), TopologyId::new(0), ComponentId::new(1), Mhz::new(100.0)),
//! ];
//! let mut traffic = TrafficMatrix::new();
//! traffic.add(ExecutorId::new(0), ExecutorId::new(1), 1000.0);
//! // γ = 2 lets one node host both executors (the cap is ⌈γ·Ne/K⌉).
//! let params = SchedParams::default().with_gamma(2.0);
//! let input = SchedulingInput::new(cluster, executors, traffic, params);
//!
//! let mut sched = TStormScheduler::new();
//! let assignment = sched.schedule(&input)?;
//! // Heavily communicating executors land on the same slot.
//! assert_eq!(
//!     assignment.slot_of(ExecutorId::new(0)),
//!     assignment.slot_of(ExecutorId::new(1)),
//! );
//! # Ok::<(), tstorm_types::TStormError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aniello;
pub mod explain;
pub mod local_search;
pub mod optimal;
pub mod problem;
pub mod quality;
pub mod registry;
pub mod roundrobin;
pub mod tstorm;

pub use aniello::{AnielloOfflineScheduler, AnielloOnlineScheduler};
pub use explain::{PlacementDecision, ScheduleExplanation};
pub use local_search::LocalSearchScheduler;
pub use optimal::{optimal_assignment, optimality_gap};
pub use problem::{ExecutorInfo, SchedParams, SchedulingInput, TrafficMatrix};
pub use quality::AssignmentQuality;
pub use registry::SchedulerRegistry;
pub use roundrobin::RoundRobinScheduler;
pub use tstorm::TStormScheduler;

use tstorm_cluster::Assignment;
use tstorm_types::Result;

/// An executor-to-slot scheduling algorithm.
///
/// Object-safe so algorithms can be hot-swapped at runtime: Nimbus holds
/// the active one as a `Box<dyn Scheduler>`.
pub trait Scheduler: Send {
    /// Short stable name used in the registry and in reports.
    fn name(&self) -> &'static str;

    /// Computes an assignment of every executor in `input` to a slot.
    ///
    /// # Errors
    ///
    /// Returns [`tstorm_types::TStormError::Infeasible`] when no assignment
    /// satisfying the scheduler's hard constraints exists (e.g. more
    /// topologies than slots).
    fn schedule(&mut self, input: &SchedulingInput) -> Result<Assignment>;

    /// Turns per-placement decision recording on or off. Off by default;
    /// schedulers that do not record decisions ignore the flag.
    fn set_explain(&mut self, _on: bool) {}

    /// Takes the decision records of the most recent
    /// [`Scheduler::schedule`] call. Returns `None` when explanation is
    /// disabled, unsupported, or already taken.
    fn take_explanation(&mut self) -> Option<ScheduleExplanation> {
        None
    }
}
