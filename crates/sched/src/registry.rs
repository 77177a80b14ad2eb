//! Hot-swapping of scheduling algorithms.
//!
//! T-Storm "allows the current scheduling algorithm to be replaced by a new
//! one at runtime without shutting down the cluster … the code of a new
//! scheduling algorithm can be loaded to the schedule generator without
//! changing or stopping anything in Storm" (Section IV-C). In-process, the
//! equivalent is the [`SchedulerRegistry`], a name → factory map
//! ("loading code"). Nimbus
//! owns the active algorithm as a `Box<dyn Scheduler>` and replaces it
//! with a fresh instance from the registry between scheduling rounds,
//! without touching the rest of the system.

use crate::aniello::{AnielloOfflineScheduler, AnielloOnlineScheduler};
use crate::local_search::LocalSearchScheduler;
use crate::roundrobin::RoundRobinScheduler;
use crate::tstorm::TStormScheduler;
use crate::Scheduler;
use std::collections::BTreeMap;
use tstorm_types::{Result, TStormError};

type Factory = Box<dyn Fn() -> Box<dyn Scheduler> + Send + Sync>;

/// A registry of scheduler factories, keyed by name.
pub struct SchedulerRegistry {
    factories: BTreeMap<String, Factory>,
}

impl std::fmt::Debug for SchedulerRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SchedulerRegistry")
            .field("names", &self.names())
            .finish()
    }
}

impl SchedulerRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self {
            factories: BTreeMap::new(),
        }
    }

    /// Creates a registry with all built-in schedulers registered:
    /// `"storm-default"`, `"t-storm-initial"`, `"t-storm"`,
    /// `"t-storm-ls"`, `"aniello-online"`, `"aniello-offline"`.
    #[must_use]
    pub fn with_builtins() -> Self {
        let mut r = Self::new();
        r.register("storm-default", || {
            Box::new(RoundRobinScheduler::storm_default())
        });
        r.register("t-storm-initial", || {
            Box::new(RoundRobinScheduler::tstorm_initial())
        });
        r.register("t-storm", || Box::new(TStormScheduler::new()));
        r.register("t-storm-ls", || Box::new(LocalSearchScheduler::new()));
        r.register("aniello-online", || Box::new(AnielloOnlineScheduler::new()));
        r.register("aniello-offline", || {
            Box::new(AnielloOfflineScheduler::new())
        });
        r
    }

    /// Registers (or replaces) a factory under a name.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        factory: impl Fn() -> Box<dyn Scheduler> + Send + Sync + 'static,
    ) {
        self.factories.insert(name.into(), Box::new(factory));
    }

    /// Instantiates a scheduler by name.
    ///
    /// # Errors
    ///
    /// Returns [`TStormError::UnknownScheduler`] for unregistered names.
    pub fn create(&self, name: &str) -> Result<Box<dyn Scheduler>> {
        self.factories
            .get(name)
            .map(|f| f())
            .ok_or_else(|| TStormError::UnknownScheduler {
                name: name.to_owned(),
            })
    }

    /// Registered names, sorted.
    #[must_use]
    pub fn names(&self) -> Vec<&str> {
        self.factories.keys().map(String::as_str).collect()
    }
}

impl Default for SchedulerRegistry {
    fn default() -> Self {
        Self::with_builtins()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{ExecutorInfo, SchedParams, SchedulingInput, TrafficMatrix};
    use tstorm_cluster::ClusterSpec;
    use tstorm_types::{ComponentId, ExecutorId, Mhz, TopologyId};

    fn input() -> SchedulingInput {
        let cluster = ClusterSpec::homogeneous(2, 2, Mhz::new(4000.0)).unwrap();
        let executors = (0..4)
            .map(|i| {
                ExecutorInfo::new(
                    ExecutorId::new(i),
                    TopologyId::new(0),
                    ComponentId::new(0),
                    Mhz::new(10.0),
                )
            })
            .collect();
        SchedulingInput::new(
            cluster,
            executors,
            TrafficMatrix::new(),
            SchedParams::default().with_workers(TopologyId::new(0), 4),
        )
    }

    #[test]
    fn registry_has_all_builtins() {
        let r = SchedulerRegistry::with_builtins();
        assert_eq!(
            r.names(),
            vec![
                "aniello-offline",
                "aniello-online",
                "storm-default",
                "t-storm",
                "t-storm-initial",
                "t-storm-ls"
            ]
        );
        for name in r.names() {
            let mut s = r.create(name).expect("factory works");
            assert!(s.schedule(&input()).is_ok(), "{name}");
        }
    }

    #[test]
    fn builtins_never_place_on_dead_nodes() {
        let r = SchedulerRegistry::with_builtins();
        let mut base = input();
        base.traffic
            .set(ExecutorId::new(0), ExecutorId::new(1), 100.0);
        base.traffic
            .set(ExecutorId::new(2), ExecutorId::new(3), 50.0);
        base.cluster
            .set_node_live(tstorm_types::NodeId::new(1), false);
        for name in r.names() {
            let mut s = r.create(name).expect("factory works");
            let a = s
                .schedule(&base)
                .unwrap_or_else(|e| panic!("{name} infeasible on surviving node: {e}"));
            assert_eq!(a.len(), 4, "{name} dropped executors");
            for (_, slot) in a.iter() {
                let node = base.cluster.node_of(slot);
                assert!(
                    base.cluster.is_node_live(node),
                    "{name} placed an executor on dead node {node}"
                );
            }
        }
    }

    #[test]
    fn registry_unknown_name_errors() {
        let r = SchedulerRegistry::with_builtins();
        let err = match r.create("nope") {
            Err(e) => e,
            Ok(_) => panic!("expected unknown-scheduler error"),
        };
        assert!(matches!(err, TStormError::UnknownScheduler { .. }));
    }

    #[test]
    fn registry_custom_registration() {
        let mut r = SchedulerRegistry::new();
        assert!(r.names().is_empty());
        r.register("mine", || Box::new(TStormScheduler::new()));
        assert!(r.create("mine").is_ok());
    }
}
