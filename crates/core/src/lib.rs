//! The T-Storm system (Fig. 4 of the paper), assembled on top of the
//! Storm-model simulator.
//!
//! Scheduling in T-Storm works exactly as Section IV-A describes:
//!
//! 1. **load monitors** periodically (every 20 s) collect per-executor
//!    workload and inter-executor traffic at runtime and store
//!    EWMA-smoothed estimates in a database ([`tstorm_monitor`]);
//! 2. the **schedule generator** periodically (every 300 s) reads the
//!    estimates and computes a schedule with a traffic-aware online
//!    algorithm ([`tstorm_sched::TStormScheduler`], hot-swappable);
//! 3. the **custom scheduler** periodically (every 10 s) fetches the
//!    latest schedule and applies it by updating the executor-to-slot
//!    assignment in Nimbus; supervisors roll it out with the smooth
//!    re-assignment protocol of Section IV-D.
//!
//! The control plane is explicit: the generator publishes epoch-stamped
//! schedules into a [`ScheduleStore`]; [`Nimbus`] fetches them, owns the
//! scheduler registry, and derives node liveness purely from supervisor
//! heartbeats; per-node [`Supervisor`] state machines heartbeat and
//! fetch/apply their node's slice on jittered, phase-staggered timers —
//! so a rollout lands node by node and different nodes briefly run
//! different assignment epochs, as in a real Storm cluster.
//!
//! [`TStormSystem`] wires those components over a
//! [`tstorm_sim::Simulation`]; [`SystemMode`] selects between plain Storm
//! (default scheduler, no monitoring, disruptive re-assignment) and
//! T-Storm — the comparison every figure of Section V draws.
//!
//! # Example
//!
//! ```
//! use tstorm_cluster::ClusterSpec;
//! use tstorm_core::{SystemMode, TStormConfig, TStormSystem};
//! use tstorm_sim::{ConstSpout, ExecutorLogic, IdentityBolt};
//! use tstorm_topology::{Grouping, TopologyBuilder};
//! use tstorm_types::{Mhz, SimTime};
//!
//! let cluster = ClusterSpec::homogeneous(4, 4, Mhz::new(8000.0))?;
//! let topo = TopologyBuilder::new("mini")
//!     .spout("src", 2, &["v"])
//!     .bolt("sink", 2, &["v"], &[("src", Grouping::Shuffle)])
//!     .num_ackers(1)
//!     .num_workers(4)
//!     .build()?;
//! let config = TStormConfig::default().with_mode(SystemMode::TStorm).with_gamma(2.0);
//! let mut system = TStormSystem::new(cluster, config)?;
//! system.submit(&topo, &mut |spec, _| match spec.kind() {
//!     tstorm_topology::ComponentKind::Spout => ExecutorLogic::spout(ConstSpout::new("x")),
//!     _ => ExecutorLogic::bolt(IdentityBolt::new()),
//! })?;
//! system.start()?;
//! system.run_until(SimTime::from_secs(60))?;
//! assert!(system.simulation().completed() > 0);
//! # Ok::<(), tstorm_types::TStormError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod nimbus;
pub mod prometheus;
pub mod store;
pub mod supervisor;
pub mod system;
pub mod timeline;

pub use config::{SystemMode, TStormConfig};
pub use nimbus::{ControlStats, Nimbus};
pub use prometheus::render_prometheus;
pub use store::{ScheduleStore, StoredSchedule};
pub use supervisor::{HeartbeatOutcome, Supervisor};
pub use system::{SolveTimes, TStormSystem};
pub use timeline::{render_timeline, ControlEvent};
