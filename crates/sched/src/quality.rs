//! Objective metrics of an assignment: the quantities Algorithm 1
//! minimises and the consolidation statistics the paper reports.

use crate::problem::SchedulingInput;
use serde::{Deserialize, Serialize};
use tstorm_cluster::Assignment;
use tstorm_types::{ExecutorId, SlotId};

/// The traffic/consolidation quality of one assignment under one input.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AssignmentQuality {
    /// Total traffic (tuples/s) between executors on different nodes —
    /// the objective of Algorithm 1.
    pub inter_node_traffic: f64,
    /// Total traffic between executors in different slots of the same
    /// node (inter-process but intra-node).
    pub inter_process_traffic: f64,
    /// Total traffic between executors sharing a slot (cheap in-memory
    /// hand-off).
    pub intra_worker_traffic: f64,
    /// Number of distinct nodes used.
    pub nodes_used: usize,
    /// Number of distinct slots (workers) used.
    pub workers_used: usize,
    /// Maximum node CPU utilisation (load / capacity) over used nodes.
    pub max_node_utilisation: f64,
}

impl AssignmentQuality {
    /// Evaluates an assignment. Executors missing from the assignment are
    /// ignored (partial assignments score only what is placed).
    #[must_use]
    pub fn evaluate(assignment: &Assignment, input: &SchedulingInput) -> Self {
        let cluster = &input.cluster;
        let mut inter_node = 0.0;
        let mut inter_process = 0.0;
        let mut intra_worker = 0.0;
        // Slots by executor id: the matrix holds ~10^6 pairs at scale-100
        // sizes, two lookups each, and ids are minted densely.
        let len = assignment
            .iter()
            .last()
            .map_or(0, |(e, _)| e.as_usize() + 1);
        let mut slots: Vec<Option<SlotId>> = vec![None; len];
        for (exec, slot) in assignment.iter() {
            slots[exec.as_usize()] = Some(slot);
        }
        let slot_of = |e: ExecutorId| slots.get(e.as_usize()).copied().flatten();
        for (from, to, rate) in input.traffic.iter() {
            let (Some(sf), Some(st)) = (slot_of(from), slot_of(to)) else {
                continue;
            };
            if sf == st {
                intra_worker += rate;
            } else if cluster.node_of(sf) == cluster.node_of(st) {
                inter_process += rate;
            } else {
                inter_node += rate;
            }
        }

        let ctx = input.executor_ctx();
        let loads = assignment.node_loads(cluster, &ctx);
        let max_util = loads
            .iter()
            .map(|(node, load)| load.ratio(cluster.node(*node).capacity))
            .fold(0.0, f64::max);

        Self {
            inter_node_traffic: inter_node,
            inter_process_traffic: inter_process,
            intra_worker_traffic: intra_worker,
            nodes_used: assignment.nodes_used(cluster).len(),
            workers_used: assignment.slots_used().len(),
            max_node_utilisation: max_util,
        }
    }

    /// Total measured traffic (sanity: the three buckets partition the
    /// placed traffic).
    #[must_use]
    pub fn total_traffic(&self) -> f64 {
        self.inter_node_traffic + self.inter_process_traffic + self.intra_worker_traffic
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{ExecutorInfo, SchedParams, TrafficMatrix};
    use tstorm_cluster::ClusterSpec;
    use tstorm_types::{ComponentId, ExecutorId, Mhz, SlotId, TopologyId};

    fn e(id: u32) -> ExecutorId {
        ExecutorId::new(id)
    }

    fn input() -> SchedulingInput {
        let cluster = ClusterSpec::homogeneous(2, 2, Mhz::new(1000.0)).unwrap();
        let executors = (0..3)
            .map(|i| {
                ExecutorInfo::new(
                    e(i),
                    TopologyId::new(0),
                    ComponentId::new(i),
                    Mhz::new(100.0),
                )
            })
            .collect();
        let mut traffic = TrafficMatrix::new();
        traffic.set(e(0), e(1), 10.0);
        traffic.set(e(1), e(2), 20.0);
        SchedulingInput::new(cluster, executors, traffic, SchedParams::default())
    }

    #[test]
    fn buckets_partition_traffic() {
        let input = input();
        // e0,e1 on slot0 (node0); e2 on slot2 (node1).
        let a: Assignment = [
            (e(0), SlotId::new(0)),
            (e(1), SlotId::new(0)),
            (e(2), SlotId::new(2)),
        ]
        .into_iter()
        .collect();
        let q = AssignmentQuality::evaluate(&a, &input);
        assert_eq!(q.intra_worker_traffic, 10.0);
        assert_eq!(q.inter_node_traffic, 20.0);
        assert_eq!(q.inter_process_traffic, 0.0);
        assert_eq!(q.total_traffic(), 30.0);
        assert_eq!(q.nodes_used, 2);
        assert_eq!(q.workers_used, 2);
    }

    #[test]
    fn inter_process_detected() {
        let input = input();
        // e0 slot0, e1 slot1: same node, different slots.
        let a: Assignment = [
            (e(0), SlotId::new(0)),
            (e(1), SlotId::new(1)),
            (e(2), SlotId::new(1)),
        ]
        .into_iter()
        .collect();
        let q = AssignmentQuality::evaluate(&a, &input);
        assert_eq!(q.inter_process_traffic, 10.0);
        assert_eq!(q.intra_worker_traffic, 20.0);
        assert_eq!(q.inter_node_traffic, 0.0);
    }

    #[test]
    fn utilisation_is_load_over_capacity() {
        let input = input();
        let a: Assignment = [
            (e(0), SlotId::new(0)),
            (e(1), SlotId::new(0)),
            (e(2), SlotId::new(0)),
        ]
        .into_iter()
        .collect();
        let q = AssignmentQuality::evaluate(&a, &input);
        assert!((q.max_node_utilisation - 0.3).abs() < 1e-12);
        assert_eq!(q.nodes_used, 1);
    }

    #[test]
    fn partial_assignment_scores_partially() {
        let input = input();
        let a: Assignment = [(e(0), SlotId::new(0))].into_iter().collect();
        let q = AssignmentQuality::evaluate(&a, &input);
        assert_eq!(q.total_traffic(), 0.0);
        assert_eq!(q.workers_used, 1);
    }
}
