//! Scheduler decision records: a per-placement explanation of *why*
//! each executor landed where it did.
//!
//! T-Storm's schedulers are deterministic, but their output alone does
//! not show the reasoning — the load estimate used, which constraint
//! bound, how a tie broke, what the placement cost. When explanation is
//! enabled (via [`crate::Scheduler::set_explain`]) every schedule call
//! produces a [`ScheduleExplanation`]: one [`PlacementDecision`] per
//! executor plus algorithm-level notes (relaxations, fallbacks,
//! refinement gains). The control plane writes each explanation to the
//! run's flight recording as one `decision` line and keeps no copy, so
//! a recorded run can answer "why is executor 7 on node 2?" after the
//! fact; `inspect --section decisions` prints the placement tables.
//!
//! Recording is off by default and costs nothing when disabled; enabled
//! recording touches no randomness or wall-clock time, so explanations
//! are as deterministic as the schedules they describe.

use crate::problem::{Adjacency, Neighbour, RowTraffic, SchedulingInput};
use serde::{Deserialize, Serialize};
use tstorm_cluster::Assignment;
use tstorm_types::{ExecutorId, NodeId, SlotId};

/// Why one executor was placed on one slot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlacementDecision {
    /// The placed executor.
    pub executor: ExecutorId,
    /// The chosen slot.
    pub slot: SlotId,
    /// The node owning the chosen slot.
    pub node: NodeId,
    /// Load estimate the scheduler used (MHz).
    pub load_mhz: f64,
    /// The executor's total traffic when the placement order was fixed
    /// (tuples/s; the Algorithm 1 sort key).
    pub traffic_total: f64,
    /// Objective contribution of this placement: inter-node traffic
    /// added (tuples/s). For greedy schedulers this is the incremental
    /// cost at decision time; for others, the executor's inter-node
    /// traffic under the final assignment.
    pub objective_delta: f64,
    /// How the slot won (cost comparison, tie-break rule, phase).
    pub tie_break: String,
    /// Constraint relaxation applied for this executor, if any.
    pub relaxation: Option<String>,
}

/// The full explanation of one schedule call.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ScheduleExplanation {
    /// The algorithm that produced the schedule.
    pub algorithm: String,
    /// One record per placed executor, in placement order.
    pub decisions: Vec<PlacementDecision>,
    /// Algorithm-level remarks: relaxations, fallbacks, refinement
    /// gains, worker-count computations.
    pub notes: Vec<String>,
}

impl ScheduleExplanation {
    /// Creates an empty explanation for an algorithm.
    #[must_use]
    pub fn new(algorithm: &str) -> Self {
        Self {
            algorithm: algorithm.to_owned(),
            decisions: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Total objective attributed across all decisions (tuples/s of
    /// inter-node traffic).
    #[must_use]
    pub fn total_objective(&self) -> f64 {
        // `+ 0.0` keeps a sum of negative zeros unsigned.
        self.decisions
            .iter()
            .map(|d| d.objective_delta)
            .sum::<f64>()
            + 0.0
    }
}

/// Builds one decision per placed executor from a finished assignment,
/// attributing to each its inter-node traffic under that assignment.
///
/// Schedulers whose search is not per-executor-greedy (round-robin,
/// pack-then-place) use this to report the *outcome* of each placement
/// with a phase description in `tie_break`.
///
/// Each executor's figures come from its adjacency row grouped by
/// neighbour (`RowTraffic`), so the whole call is linear in the
/// matrix and repeats a per-executor scan of the matrix bit for bit.
#[must_use]
pub fn decisions_from_assignment(
    input: &SchedulingInput,
    assignment: &Assignment,
    tie_break: &str,
) -> Vec<PlacementDecision> {
    let adjacency = Adjacency::build(input);
    let node_of_id = |exec: ExecutorId| assignment.slot_of(exec).map(|s| input.cluster.node_of(s));
    let node_at: Vec<Option<NodeId>> = input.executors.iter().map(|e| node_of_id(e.id)).collect();
    let node_of = |nb: &Neighbour| match nb.pos {
        Adjacency::OUTSIDE => node_of_id(nb.id),
        pos => node_at[pos as usize],
    };
    let mut traffic = RowTraffic::default();
    input
        .executors
        .iter()
        .enumerate()
        .filter_map(|(pos, info)| {
            let slot = assignment.slot_of(info.id)?;
            let node = input.cluster.node_of(slot);
            adjacency.group_row(pos, info.id, &mut traffic);
            let inter: f64 = traffic
                .neighbours
                .iter()
                .filter(|nb| node_of(nb).is_some_and(|n| n != node))
                .map(|nb| nb.rate)
                .sum();
            Some(PlacementDecision {
                executor: info.id,
                slot,
                node,
                load_mhz: info.load.get(),
                traffic_total: traffic.total + 0.0,
                // Halved so summing over all decisions counts each
                // inter-node pair once; `+ 0.0` normalizes -0.0 so
                // rendered and serialized zeros are unsigned.
                objective_delta: inter / 2.0 + 0.0,
                tie_break: tie_break.to_owned(),
                relaxation: None,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{ExecutorInfo, SchedParams, TrafficMatrix};
    use tstorm_cluster::ClusterSpec;
    use tstorm_types::{ComponentId, Mhz, TopologyId};

    fn sample_input() -> SchedulingInput {
        let cluster = ClusterSpec::homogeneous(2, 2, Mhz::new(4000.0)).unwrap();
        let executors = (0..3)
            .map(|i| {
                ExecutorInfo::new(
                    ExecutorId::new(i),
                    TopologyId::new(0),
                    ComponentId::new(0),
                    Mhz::new(50.0),
                )
            })
            .collect();
        let mut traffic = TrafficMatrix::new();
        traffic.set(ExecutorId::new(0), ExecutorId::new(1), 100.0);
        traffic.set(ExecutorId::new(1), ExecutorId::new(2), 40.0);
        SchedulingInput::new(cluster, executors, traffic, SchedParams::default())
    }

    #[test]
    fn decisions_attribute_inter_node_traffic_once() {
        let input = sample_input();
        let mut a = Assignment::new();
        // 0 and 1 together on node 0, 2 alone on node 1.
        a.assign(ExecutorId::new(0), SlotId::new(0));
        a.assign(ExecutorId::new(1), SlotId::new(0));
        a.assign(ExecutorId::new(2), SlotId::new(2));
        let decisions = decisions_from_assignment(&input, &a, "test");
        assert_eq!(decisions.len(), 3);
        let total: f64 = decisions.iter().map(|d| d.objective_delta).sum();
        // Only the 1→2 edge (rate 40) crosses nodes; counted once.
        assert!((total - 40.0).abs() < 1e-9, "{total}");
        assert!((decisions[0].traffic_total - 100.0).abs() < 1e-9);
        assert!((decisions[0].load_mhz - 50.0).abs() < 1e-9);
    }

    /// The per-executor scan over the whole matrix that
    /// `decisions_from_assignment` must reproduce bit for bit:
    /// `(traffic_total, objective_delta)` of one placed executor.
    fn scan_oracle(input: &SchedulingInput, assignment: &Assignment, id: ExecutorId) -> (f64, f64) {
        let node_of = |e: ExecutorId| assignment.slot_of(e).map(|s| input.cluster.node_of(s));
        let node = node_of(id).expect("placed");
        let total: f64 = input
            .traffic
            .iter()
            .filter(|(f, t, _)| *f == id || *t == id)
            .map(|(_, _, r)| r)
            .sum();
        let mut undirected: std::collections::BTreeMap<ExecutorId, f64> = Default::default();
        for (f, t, r) in input.traffic.iter() {
            if f == id {
                *undirected.entry(t).or_insert(0.0) += r;
            } else if t == id {
                *undirected.entry(f).or_insert(0.0) += r;
            }
        }
        let inter: f64 = undirected
            .into_iter()
            .filter(|(other, _)| node_of(*other).is_some_and(|n| n != node))
            .map(|(_, r)| r)
            .sum();
        (total + 0.0, inter / 2.0 + 0.0)
    }

    #[test]
    fn decisions_match_the_whole_matrix_scan_bit_for_bit() {
        use tstorm_types::DetRng;
        for case in 0..200u64 {
            let mut rng = DetRng::seed_from(0xE7 + case);
            let nodes = 1 + rng.below(4) as u32;
            let cluster = ClusterSpec::homogeneous(nodes, 2, Mhz::new(4000.0)).unwrap();
            let ne = 1 + rng.below(14) as u32;
            // Ids are shuffled against input order, and traffic also
            // touches ids past the input (placed or not).
            let mut ids: Vec<u32> = (0..ne).collect();
            for i in (1..ids.len()).rev() {
                ids.swap(i, rng.below(i + 1));
            }
            let executors: Vec<ExecutorInfo> = ids
                .iter()
                .map(|&i| {
                    ExecutorInfo::new(
                        ExecutorId::new(i),
                        TopologyId::new(0),
                        ComponentId::new(0),
                        Mhz::new(10.0),
                    )
                })
                .collect();
            let span = ne as usize + 3;
            let mut traffic = TrafficMatrix::new();
            for _ in 0..rng.below(40) {
                let a = ExecutorId::new(rng.below(span) as u32);
                let b = if rng.below(8) == 0 {
                    a
                } else {
                    ExecutorId::new(rng.below(span) as u32)
                };
                let r = rng.range_f64(0.001, 1000.0);
                traffic.add(a, b, r);
                if rng.below(2) == 0 {
                    traffic.add(b, a, rng.range_f64(0.001, 1000.0));
                }
            }
            let input = SchedulingInput::new(cluster, executors, traffic, SchedParams::default());
            let mut assignment = Assignment::new();
            for i in 0..span as u32 {
                if rng.below(5) != 0 {
                    let slot = SlotId::new(rng.below(2 * nodes as usize) as u32);
                    assignment.assign(ExecutorId::new(i), slot);
                }
            }
            let decisions = decisions_from_assignment(&input, &assignment, "oracle");
            let placed: Vec<ExecutorId> = input
                .executors
                .iter()
                .map(|e| e.id)
                .filter(|id| assignment.slot_of(*id).is_some())
                .collect();
            assert_eq!(decisions.len(), placed.len(), "case {case}");
            for (d, id) in decisions.iter().zip(placed) {
                assert_eq!(d.executor, id, "case {case}");
                let (total, delta) = scan_oracle(&input, &assignment, id);
                assert_eq!(
                    d.traffic_total.to_bits(),
                    total.to_bits(),
                    "case {case} {id}"
                );
                assert_eq!(
                    d.objective_delta.to_bits(),
                    delta.to_bits(),
                    "case {case} {id}"
                );
            }
        }
    }

    #[test]
    fn unplaced_executors_are_skipped() {
        let input = sample_input();
        let mut a = Assignment::new();
        a.assign(ExecutorId::new(0), SlotId::new(0));
        let decisions = decisions_from_assignment(&input, &a, "partial");
        assert_eq!(decisions.len(), 1);
        // Neighbour 1 is unplaced, so no inter-node traffic is charged.
        assert!(decisions[0].objective_delta.abs() < 1e-9);
    }
}
