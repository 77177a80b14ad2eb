//! A deterministic discrete-event simulator of the Storm 0.8 execution
//! model — the substrate on which this reproduction evaluates T-Storm's
//! scheduling (DESIGN.md explains the substitution: the paper modified
//! Apache Storm on a physical cluster; we rebuild the execution model so
//! the schedulers see the same world).
//!
//! The simulator models, at tuple granularity:
//!
//! * **executors** as queueing servers running user logic
//!   ([`SpoutLogic`]/[`BoltLogic`]) with per-tuple CPU cost;
//! * **workers/slots/nodes** with processor-sharing CPU contention and
//!   context-switch overhead when many workers share a node;
//! * **the network**: intra-worker hand-off ≪ inter-process loopback ≪
//!   inter-node hops over a shared 1 Gbps NIC per node (Observation 1 of
//!   the paper);
//! * **reliability**: Storm's XOR ack tree with acker executors, the 30 s
//!   tuple timeout, and replay from the originating spout (Observation 2);
//! * **re-assignment**: Storm semantics through
//!   [`Simulation::submit_assignment`] (supervisors poll every 10 s, then
//!   kill & restart the affected workers, in-flight tuples lost) or
//!   T-Storm's smooth protocol through
//!   [`Simulation::apply_assignment_for_node`] (one node's new workers
//!   start first, spouts halt until they are ready, then the node's
//!   executors relocate in one step → no tuple loss);
//! * **metrics**: per-tuple completion latency (1-minute averages, the
//!   paper's metric), failed-tuple counts, nodes/workers in use;
//! * **faults**: a deterministic [`FaultPlan`] crashes workers or whole
//!   nodes and throttles NICs at scripted virtual times; the ack-timeout
//!   replay machinery plus the control plane's re-scheduling recover.
//!
//! Determinism: one seeded RNG drives every stochastic choice; equal
//! seeds give bit-identical runs.
//!
//! # Example
//!
//! ```
//! use tstorm_cluster::ClusterSpec;
//! use tstorm_sim::{ConstSpout, IdentityBolt, ExecutorLogic, SimConfig, Simulation};
//! use tstorm_topology::{Grouping, TopologyBuilder};
//! use tstorm_types::{Mhz, SimTime};
//!
//! let cluster = ClusterSpec::homogeneous(2, 2, Mhz::new(8000.0))?;
//! let topo = TopologyBuilder::new("mini")
//!     .spout("src", 1, &["v"])
//!     .bolt("id", 1, &["v"], &[("src", Grouping::Shuffle)])
//!     .num_ackers(1)
//!     .num_workers(2)
//!     .build()?;
//! let mut sim = Simulation::new(cluster, SimConfig::default());
//! let handle = sim.submit_topology(&topo, &mut |spec, _| match spec.name() {
//!     "src" => ExecutorLogic::spout(ConstSpout::new("hello")),
//!     _ => ExecutorLogic::bolt(IdentityBolt::new()),
//! });
//! // Schedule everything on one slot and run 10 virtual seconds.
//! let mut assignment = tstorm_cluster::Assignment::new();
//! for exec in sim.executor_descriptors() {
//!     assignment.assign(exec.id, tstorm_types::SlotId::new(0));
//! }
//! sim.apply_assignment(&assignment);
//! sim.run_until(SimTime::from_secs(10));
//! assert!(sim.completed() > 0);
//! # let _ = handle;
//! # Ok::<(), tstorm_types::TStormError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod engine;
pub mod event;
pub mod fault;
pub mod logic;
pub mod network;
pub mod routing;

pub use config::{CpuConfig, NetworkConfig, ReassignConfig, SimConfig};
pub use engine::{EngineStats, ExecutorDescriptor, SimCounters, Simulation, TopologyHandle};
pub use fault::{FaultEvent, FaultKind, FaultParseError, FaultPlan};
pub use logic::{BoltLogic, ConstSpout, ExecutorLogic, IdentityBolt, SpoutLogic};
