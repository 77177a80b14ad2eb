//! Overload detection.
//!
//! "Once overloading occurs on a worker node, the schedule generator can
//! detect it and will then calculate a new schedule … to mitigate
//! overloading" (Section IV-C). Detection combines two signals:
//!
//! * **CPU**: a node's estimated workload reaches
//!   [`OVERLOAD_CPU_THRESHOLD`]` × C_k`;
//! * **failures**: at least [`OVERLOAD_FAILURE_THRESHOLD`] tuples timed
//!   out during the last window — the symptom Fig. 3 shows when bolt
//!   executors cannot keep up.

use crate::statsdb::StatsDb;
use serde::{Deserialize, Serialize};
use tstorm_cluster::{Assignment, ClusterSpec};
use tstorm_types::{Mhz, NodeId};

/// Node CPU threshold for overload detection, as a fraction of the
/// node's capacity.
pub const OVERLOAD_CPU_THRESHOLD: f64 = 0.95;

/// Minimum tuple failures per monitoring window to raise overload.
pub const OVERLOAD_FAILURE_THRESHOLD: u64 = 1;

/// What the detector found in one inspection.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct OverloadReport {
    /// Nodes whose estimated CPU load reached the threshold.
    pub cpu_overloaded: Vec<NodeId>,
    /// Number of tuple failures observed in the inspected window.
    pub recent_failures: u64,
}

impl OverloadReport {
    /// True if any signal fired.
    #[must_use]
    pub fn is_overloaded(&self) -> bool {
        !self.cpu_overloaded.is_empty() || self.recent_failures > 0
    }
}

/// Detects overloaded worker nodes from the stats database and the
/// failure counter, at [`OVERLOAD_CPU_THRESHOLD`] and
/// [`OVERLOAD_FAILURE_THRESHOLD`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OverloadDetector;

impl OverloadDetector {
    /// Inspects the current estimates under the active assignment.
    #[must_use]
    pub fn inspect(
        &self,
        db: &StatsDb,
        cluster: &ClusterSpec,
        assignment: &Assignment,
        failures_in_window: u64,
    ) -> OverloadReport {
        let loads = db.executor_loads();
        // Node ids are dense, so the per-node aggregate is a plain
        // index-addressed vector — ordered iteration by construction
        // (no hash-map iteration on a result-affecting path).
        let mut node_load: Vec<Mhz> = vec![Mhz::ZERO; cluster.num_nodes()];
        for (exec, slot) in assignment.iter() {
            if let Some(load) = loads.get(&exec) {
                node_load[cluster.node_of(slot).as_usize()] += *load;
            }
        }
        let cpu_overloaded: Vec<NodeId> = node_load
            .into_iter()
            .enumerate()
            .filter(|(node, load)| {
                load.ratio(cluster.node(NodeId::new(*node as u32)).capacity)
                    >= OVERLOAD_CPU_THRESHOLD
            })
            .map(|(node, _)| NodeId::new(node as u32))
            .collect();

        OverloadReport {
            cpu_overloaded,
            recent_failures: if failures_in_window >= OVERLOAD_FAILURE_THRESHOLD {
                failures_in_window
            } else {
                0
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::WindowSnapshot;
    use tstorm_types::{ExecutorId, SimTime, SlotId};

    fn db_with_load(mhz_per_exec: &[(u32, f64)]) -> StatsDb {
        let mut db = StatsDb::new(0.0); // alpha 0: estimate == sample
        let mut snap = WindowSnapshot::new(SimTime::from_secs(20));
        for (e, mhz) in mhz_per_exec {
            // cycles = MHz * period_micros
            snap.record_cpu(ExecutorId::new(*e), (*mhz * 20_000_000.0) as u64);
        }
        db.ingest(&snap);
        db
    }

    fn assignment(pairs: &[(u32, u32)]) -> Assignment {
        pairs
            .iter()
            .map(|(e, s)| (ExecutorId::new(*e), SlotId::new(*s)))
            .collect()
    }

    #[test]
    fn detects_cpu_overload() {
        let cluster = ClusterSpec::homogeneous(2, 2, Mhz::new(1000.0)).unwrap();
        let db = db_with_load(&[(0, 700.0), (1, 400.0)]);
        // Both on node 0 => 1100 MHz > 95% of 1000.
        let a = assignment(&[(0, 0), (1, 0)]);
        let report = OverloadDetector.inspect(&db, &cluster, &a, 0);
        assert_eq!(report.cpu_overloaded, vec![NodeId::new(0)]);
        assert!(report.is_overloaded());
    }

    #[test]
    fn no_overload_when_spread() {
        let cluster = ClusterSpec::homogeneous(2, 2, Mhz::new(1000.0)).unwrap();
        let db = db_with_load(&[(0, 700.0), (1, 400.0)]);
        let a = assignment(&[(0, 0), (1, 2)]);
        let report = OverloadDetector.inspect(&db, &cluster, &a, 0);
        assert!(report.cpu_overloaded.is_empty());
        assert!(!report.is_overloaded());
    }

    #[test]
    fn failures_raise_signal() {
        let cluster = ClusterSpec::homogeneous(1, 1, Mhz::new(1000.0)).unwrap();
        let db = db_with_load(&[]);
        let a = assignment(&[]);
        let report = OverloadDetector.inspect(&db, &cluster, &a, 12);
        assert_eq!(report.recent_failures, 12);
        assert!(report.is_overloaded());
    }

    #[test]
    fn cpu_signal_fires_at_the_threshold_and_not_below() {
        let cluster = ClusterSpec::homogeneous(1, 1, Mhz::new(1000.0)).unwrap();
        let a = assignment(&[(0, 0)]);
        let at = db_with_load(&[(0, 950.0)]);
        assert_eq!(
            OverloadDetector
                .inspect(&at, &cluster, &a, 0)
                .cpu_overloaded,
            vec![NodeId::new(0)]
        );
        let below = db_with_load(&[(0, 949.0)]);
        assert!(!OverloadDetector
            .inspect(&below, &cluster, &a, 0)
            .is_overloaded());
    }

    #[test]
    fn one_failure_raises_the_signal_and_zero_does_not() {
        let cluster = ClusterSpec::homogeneous(1, 1, Mhz::new(1000.0)).unwrap();
        let db = db_with_load(&[]);
        let a = assignment(&[]);
        let one = OverloadDetector.inspect(&db, &cluster, &a, 1);
        assert_eq!(one.recent_failures, 1);
        assert!(one.is_overloaded());
        assert!(!OverloadDetector
            .inspect(&db, &cluster, &a, 0)
            .is_overloaded());
    }
}
