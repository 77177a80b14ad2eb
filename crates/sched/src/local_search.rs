//! A local-search refinement of Algorithm 1 (ablation / extension).
//!
//! Algorithm 1 is a single-pass greedy: once an executor is placed it
//! never moves, even when later placements make a different slot
//! strictly better. [`LocalSearchScheduler`] runs Algorithm 1 and then
//! hill-climbs: it repeatedly relocates single executors to the feasible
//! slot that most reduces inter-node traffic, until a pass makes no
//! progress (or the iteration budget is hit). All three T-Storm
//! constraints are preserved by every move.
//!
//! This is the kind of drop-in algorithm upgrade T-Storm's hot-swapping
//! was designed for — `SchedulerRegistry::with_builtins` registers it as
//! `"t-storm-ls"`.

use crate::explain::ScheduleExplanation;
use crate::problem::{Adjacency, Neighbour, RowTraffic, SchedulingInput};
use crate::tstorm::TStormScheduler;
use crate::Scheduler;
use std::collections::HashMap;
use tstorm_cluster::Assignment;
use tstorm_types::{ExecutorId, Mhz, NodeId, Result, SlotId, TopologyId};

/// Full passes over the executor set the refinement may make;
/// convergence is typically 1–3.
const MAX_PASSES: u32 = 8;

/// Algorithm 1 followed by single-executor relocation hill-climbing.
#[derive(Debug, Clone)]
pub struct LocalSearchScheduler {
    last_improvement: f64,
    explain: bool,
    explanation: Option<ScheduleExplanation>,
}

impl LocalSearchScheduler {
    /// Creates the scheduler with a budget of 8 full passes over the
    /// executor set.
    #[must_use]
    pub fn new() -> Self {
        Self {
            last_improvement: 0.0,
            explain: false,
            explanation: None,
        }
    }

    /// Inter-node traffic removed by the refinement in the most recent
    /// [`Scheduler::schedule`] call (tuples/second).
    #[must_use]
    pub fn last_improvement(&self) -> f64 {
        self.last_improvement
    }
}

impl Default for LocalSearchScheduler {
    fn default() -> Self {
        Self::new()
    }
}

/// Mutable occupancy view over an assignment, supporting feasibility
/// checks and per-node affinity sums.
struct Occupancy<'a> {
    input: &'a SchedulingInput,
    topo_of: HashMap<ExecutorId, TopologyId>,
    load_of: HashMap<ExecutorId, Mhz>,
    /// Slot of each placed executor, by executor id.
    slot_at: Vec<Option<SlotId>>,
    /// Executors on each slot, by slot id.
    slot_count: Vec<usize>,
    node_topo_slot: HashMap<(NodeId, TopologyId), SlotId>,
    node_load: Vec<Mhz>,
    node_count: Vec<usize>,
    cap_count: usize,
}

impl<'a> Occupancy<'a> {
    fn build(input: &'a SchedulingInput, assignment: &Assignment) -> Self {
        let k = input.cluster.num_nodes();
        let ids = input.executors.iter().map(|e| e.id.as_usize() + 1).max();
        let mut occ = Self {
            topo_of: input.executors.iter().map(|e| (e.id, e.topology)).collect(),
            load_of: input.executors.iter().map(|e| (e.id, e.load)).collect(),
            slot_at: vec![None; ids.unwrap_or(0)],
            slot_count: vec![0; input.cluster.num_slots()],
            node_topo_slot: HashMap::new(),
            node_load: vec![Mhz::ZERO; k],
            node_count: vec![0; k],
            cap_count: input.node_executor_cap(),
            input,
        };
        for (exec, slot) in assignment.iter() {
            occ.insert(exec, slot);
        }
        occ
    }

    fn insert(&mut self, exec: ExecutorId, slot: SlotId) {
        let node = self.input.cluster.node_of(slot);
        let topo = self.topo_of[&exec];
        self.slot_at[exec.as_usize()] = Some(slot);
        self.slot_count[slot.as_usize()] += 1;
        self.node_topo_slot.insert((node, topo), slot);
        self.node_load[node.as_usize()] += self.load_of[&exec];
        self.node_count[node.as_usize()] += 1;
    }

    fn remove(&mut self, exec: ExecutorId, slot: SlotId) {
        let node = self.input.cluster.node_of(slot);
        let topo = self.topo_of[&exec];
        self.slot_at[exec.as_usize()] = None;
        self.slot_count[slot.as_usize()] -= 1;
        if self.slot_count[slot.as_usize()] == 0 {
            self.node_topo_slot.remove(&(node, topo));
        }
        self.node_load[node.as_usize()] = self.node_load[node.as_usize()] - self.load_of[&exec];
        self.node_count[node.as_usize()] -= 1;
    }

    /// The slot `exec` could occupy on `node`, honouring the one-slot-
    /// per-topology rule; `None` when the node has no compatible slot or
    /// would violate the capacity/cap constraints.
    fn feasible_slot(&self, exec: ExecutorId, node: NodeId) -> Option<SlotId> {
        if !self.input.cluster.is_node_live(node) {
            return None;
        }
        let k = node.as_usize();
        if self.node_count[k] >= self.cap_count {
            return None;
        }
        let cap = self.input.cluster.node(node).capacity * self.input.params.capacity_fraction;
        if self.node_load[k] + self.load_of[&exec] > cap {
            return None;
        }
        let topo = self.topo_of[&exec];
        if let Some(slot) = self.node_topo_slot.get(&(node, topo)) {
            return Some(*slot);
        }
        self.input
            .cluster
            .slots_of(node)
            .find(|s| self.slot_count[s.slot.as_usize()] == 0)
            .map(|s| s.slot)
    }

    /// Adds each neighbour's undirected rate to the affinity of the node
    /// it sits on, in neighbour-id order. Unplaced neighbours count
    /// nowhere.
    fn add_affinities(&self, neighbours: &[Neighbour], by_node: &mut [f64]) {
        for nb in neighbours {
            if let Some(slot) = self.slot_at.get(nb.id.as_usize()).copied().flatten() {
                by_node[self.input.cluster.node_of(slot).as_usize()] += nb.rate;
            }
        }
    }
}

impl Scheduler for LocalSearchScheduler {
    fn name(&self) -> &'static str {
        "t-storm-ls"
    }

    fn set_explain(&mut self, on: bool) {
        self.explain = on;
    }

    fn take_explanation(&mut self) -> Option<ScheduleExplanation> {
        self.explanation.take()
    }

    fn schedule(&mut self, input: &SchedulingInput) -> Result<Assignment> {
        self.explanation = None;
        let mut greedy = TStormScheduler::new();
        greedy.set_explain(self.explain);
        let mut assignment = greedy.schedule(input)?;
        self.last_improvement = 0.0;
        let mut occ = Occupancy::build(input, &assignment);

        // Executors by position, in descending traffic order as in
        // Algorithm 1.
        let adjacency = Adjacency::build(input);
        let mut traffic = RowTraffic::default();
        let totals: Vec<f64> = input
            .executors
            .iter()
            .enumerate()
            .map(|(pos, e)| {
                adjacency.group_row(pos, e.id, &mut traffic);
                traffic.total
            })
            .collect();
        let id = |pos: usize| input.executors[pos].id;
        let mut order: Vec<usize> = (0..input.executors.len()).collect();
        order.sort_by(|&a, &b| {
            totals[b]
                .partial_cmp(&totals[a])
                .expect("finite traffic")
                .then(id(a).cmp(&id(b)))
        });

        // The traffic between the executor in hand and each node.
        let mut by_node = vec![0.0; input.cluster.num_nodes()];
        for _pass in 0..MAX_PASSES {
            let mut improved = false;
            for &pos in &order {
                let exec = id(pos);
                let Some(cur_slot) = assignment.slot_of(exec) else {
                    continue;
                };
                let cur_node = input.cluster.node_of(cur_slot);
                // Remove first so affinity/feasibility see the world
                // without this executor.
                occ.remove(exec, cur_slot);
                adjacency.group_row(pos, exec, &mut traffic);
                by_node.fill(0.0);
                occ.add_affinities(&traffic.neighbours, &mut by_node);
                let here = by_node[cur_node.as_usize()];
                let mut best: Option<(f64, NodeId, SlotId)> = None;
                for node in input.cluster.nodes() {
                    if node.id == cur_node {
                        continue;
                    }
                    let Some(slot) = occ.feasible_slot(exec, node.id) else {
                        continue;
                    };
                    let there = by_node[node.id.as_usize()];
                    // Gain: traffic that becomes local minus traffic that
                    // stops being local.
                    let gain = there - here;
                    if gain > 1e-9 && best.is_none_or(|(g, _, _)| gain > g) {
                        best = Some((gain, node.id, slot));
                    }
                }
                match best {
                    Some((gain, _, slot)) => {
                        occ.insert(exec, slot);
                        assignment.assign(exec, slot);
                        self.last_improvement += gain;
                        improved = true;
                    }
                    None => {
                        // Put it back where it was; re-acquire the same
                        // slot (feasible by construction).
                        occ.insert(exec, cur_slot);
                    }
                }
            }
            if !improved {
                break;
            }
        }
        if self.explain {
            let mut explanation = greedy
                .take_explanation()
                .unwrap_or_else(|| ScheduleExplanation::new(self.name()));
            explanation.algorithm = self.name().to_owned();
            // Rewrite decisions the hill-climb moved away from their
            // greedy slot.
            for d in &mut explanation.decisions {
                let Some(slot) = assignment.slot_of(d.executor) else {
                    continue;
                };
                if slot != d.slot {
                    d.slot = slot;
                    d.node = input.cluster.node_of(slot);
                    d.tie_break.push_str("; relocated by local search");
                }
            }
            explanation.notes.push(format!(
                "local search removed {:.1} tuples/s of inter-node traffic \
                 after the greedy pass",
                self.last_improvement
            ));
            self.explanation = Some(explanation);
        }
        Ok(assignment)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{ExecutorInfo, SchedParams, TrafficMatrix};
    use crate::quality::AssignmentQuality;
    use tstorm_cluster::ClusterSpec;
    use tstorm_types::ComponentId;

    fn e(i: u32) -> ExecutorId {
        ExecutorId::new(i)
    }

    /// A ring of heavy pairs that single-pass greedy splits when caps
    /// interleave placements.
    fn ring_input(n: u32, nodes: u32, gamma: f64) -> SchedulingInput {
        let cluster = ClusterSpec::homogeneous(nodes, 2, Mhz::new(8000.0)).expect("valid");
        let executors = (0..n)
            .map(|i| {
                ExecutorInfo::new(
                    e(i),
                    TopologyId::new(0),
                    ComponentId::new(0),
                    Mhz::new(10.0),
                )
            })
            .collect();
        let mut traffic = TrafficMatrix::new();
        for i in 0..n {
            traffic.set(e(i), e((i + 1) % n), 100.0 + f64::from(i % 3) * 10.0);
        }
        SchedulingInput::new(
            cluster,
            executors,
            traffic,
            SchedParams::default().with_gamma(gamma),
        )
    }

    #[test]
    fn refinement_never_hurts() {
        for (n, nodes, gamma) in [(8u32, 4u32, 1.0), (12, 3, 1.5), (16, 4, 2.0)] {
            let input = ring_input(n, nodes, gamma);
            let greedy = TStormScheduler::new().schedule(&input).expect("feasible");
            let refined = LocalSearchScheduler::new()
                .schedule(&input)
                .expect("feasible");
            let qg = AssignmentQuality::evaluate(&greedy, &input);
            let qr = AssignmentQuality::evaluate(&refined, &input);
            assert!(
                qr.inter_node_traffic <= qg.inter_node_traffic + 1e-9,
                "n={n}: refined {} vs greedy {}",
                qr.inter_node_traffic,
                qg.inter_node_traffic
            );
        }
    }

    #[test]
    fn refinement_preserves_constraints() {
        let input = ring_input(14, 4, 1.2);
        let mut s = LocalSearchScheduler::new();
        let a = s.schedule(&input).expect("feasible");
        assert_eq!(a.len(), 14);
        let ctx = input.executor_ctx();
        let v = a.constraint_violations(&input.cluster, &ctx, Some(1.0));
        assert!(v.is_empty(), "{v:?}");
        // The per-node cap also holds after refinement.
        let cap = input.node_executor_cap();
        for node in input.cluster.nodes() {
            let count = a
                .iter()
                .filter(|(_, s)| input.cluster.node_of(*s) == node.id)
                .count();
            assert!(count <= cap, "node {} has {count} > cap {cap}", node.id);
        }
    }

    #[test]
    fn deterministic() {
        let input = ring_input(10, 3, 1.5);
        let mut s = LocalSearchScheduler::new();
        assert_eq!(
            s.schedule(&input).expect("feasible"),
            s.schedule(&input).expect("feasible")
        );
    }

    #[test]
    fn reports_improvement_amount() {
        let input = ring_input(12, 4, 1.0);
        let mut s = LocalSearchScheduler::new();
        let refined = s.schedule(&input).expect("feasible");
        let greedy = TStormScheduler::new().schedule(&input).expect("feasible");
        let qg = AssignmentQuality::evaluate(&greedy, &input);
        let qr = AssignmentQuality::evaluate(&refined, &input);
        let measured_gain = qg.inter_node_traffic - qr.inter_node_traffic;
        assert!(
            (s.last_improvement() - measured_gain).abs() < 1e-6,
            "reported {} vs measured {measured_gain}",
            s.last_improvement()
        );
    }

    /// The occupancy view the scheduler used before it read adjacency
    /// rows: affinity from a whole-matrix `neighbours_of` scan per
    /// (executor, node), and an executor's slot found by scanning every
    /// slot's executor list.
    struct ScanOccupancy<'a> {
        input: &'a SchedulingInput,
        topo_of: HashMap<ExecutorId, TopologyId>,
        load_of: HashMap<ExecutorId, Mhz>,
        slot_execs: HashMap<SlotId, Vec<ExecutorId>>,
        node_topo_slot: HashMap<(NodeId, TopologyId), SlotId>,
        node_load: Vec<Mhz>,
        node_count: Vec<usize>,
    }

    impl ScanOccupancy<'_> {
        fn insert(&mut self, exec: ExecutorId, slot: SlotId) {
            let node = self.input.cluster.node_of(slot);
            self.slot_execs.entry(slot).or_default().push(exec);
            self.node_topo_slot
                .insert((node, self.topo_of[&exec]), slot);
            self.node_load[node.as_usize()] += self.load_of[&exec];
            self.node_count[node.as_usize()] += 1;
        }

        fn remove(&mut self, exec: ExecutorId, slot: SlotId) {
            let node = self.input.cluster.node_of(slot);
            let v = self.slot_execs.get_mut(&slot).expect("occupied slot");
            v.retain(|e| *e != exec);
            if v.is_empty() {
                self.slot_execs.remove(&slot);
                self.node_topo_slot.remove(&(node, self.topo_of[&exec]));
            }
            self.node_load[node.as_usize()] = self.node_load[node.as_usize()] - self.load_of[&exec];
            self.node_count[node.as_usize()] -= 1;
        }

        fn feasible_slot(&self, exec: ExecutorId, node: NodeId) -> Option<SlotId> {
            let k = node.as_usize();
            let cap = self.input.cluster.node(node).capacity * self.input.params.capacity_fraction;
            if !self.input.cluster.is_node_live(node)
                || self.node_count[k] >= self.input.node_executor_cap()
                || self.node_load[k] + self.load_of[&exec] > cap
            {
                return None;
            }
            if let Some(slot) = self.node_topo_slot.get(&(node, self.topo_of[&exec])) {
                return Some(*slot);
            }
            self.input
                .cluster
                .slots_of(node)
                .find(|s| !self.slot_execs.contains_key(&s.slot))
                .map(|s| s.slot)
        }

        fn affinity(&self, exec: ExecutorId, node: NodeId) -> f64 {
            self.input
                .traffic
                .neighbours_of(exec)
                .into_iter()
                .filter(|(other, _)| {
                    self.slot_execs
                        .iter()
                        .find(|(_, v)| v.contains(other))
                        .is_some_and(|(s, _)| self.input.cluster.node_of(*s) == node)
                })
                .map(|(_, rate)| rate)
                .sum()
        }
    }

    /// The hill-climb over [`ScanOccupancy`], with the pass order sorted
    /// by `total_of` inside the comparator: the assignment and improvement
    /// `LocalSearchScheduler` must reproduce bit for bit.
    fn scan_oracle(input: &SchedulingInput) -> (Assignment, f64) {
        let mut assignment = TStormScheduler::new().schedule(input).expect("feasible");
        let mut occ = ScanOccupancy {
            input,
            topo_of: input.executors.iter().map(|e| (e.id, e.topology)).collect(),
            load_of: input.executors.iter().map(|e| (e.id, e.load)).collect(),
            slot_execs: HashMap::new(),
            node_topo_slot: HashMap::new(),
            node_load: vec![Mhz::ZERO; input.cluster.num_nodes()],
            node_count: vec![0; input.cluster.num_nodes()],
        };
        for (exec, slot) in assignment.iter() {
            occ.insert(exec, slot);
        }
        let mut order: Vec<ExecutorId> = input.executors.iter().map(|e| e.id).collect();
        order.sort_by(|a, b| {
            input
                .traffic
                .total_of(*b)
                .partial_cmp(&input.traffic.total_of(*a))
                .expect("finite traffic")
                .then(a.cmp(b))
        });
        let mut improvement = 0.0;
        for _pass in 0..MAX_PASSES {
            let mut improved = false;
            for &exec in &order {
                let Some(cur_slot) = assignment.slot_of(exec) else {
                    continue;
                };
                let cur_node = input.cluster.node_of(cur_slot);
                occ.remove(exec, cur_slot);
                let here = occ.affinity(exec, cur_node);
                let mut best: Option<(f64, SlotId)> = None;
                for node in input.cluster.nodes().iter().filter(|n| n.id != cur_node) {
                    let Some(slot) = occ.feasible_slot(exec, node.id) else {
                        continue;
                    };
                    let gain = occ.affinity(exec, node.id) - here;
                    if gain > 1e-9 && best.is_none_or(|(g, _)| gain > g) {
                        best = Some((gain, slot));
                    }
                }
                let slot = best.map_or(cur_slot, |(gain, slot)| {
                    assignment.assign(exec, slot);
                    improvement += gain;
                    improved = true;
                    slot
                });
                occ.insert(exec, slot);
            }
            if !improved {
                break;
            }
        }
        (assignment, improvement)
    }

    #[test]
    fn refinement_matches_the_whole_matrix_scan_bit_for_bit() {
        use tstorm_types::DetRng;
        let mut moved = 0;
        for case in 0..600u64 {
            let mut rng = DetRng::seed_from(0x15 + case);
            let nodes = 1 + rng.below(4) as u32;
            let cluster =
                ClusterSpec::homogeneous(nodes, 2 + rng.below(2) as u32, Mhz::new(4000.0))
                    .expect("valid");
            let ne = 1 + rng.below(14) as u32;
            // Ids are shuffled against input order, two topologies
            // share the cluster, and traffic also touches ids past the
            // input, in both directions and on self-pairs.
            let mut ids: Vec<u32> = (0..ne).collect();
            for i in (1..ids.len()).rev() {
                ids.swap(i, rng.below(i + 1));
            }
            let executors: Vec<ExecutorInfo> = ids
                .iter()
                .map(|&i| {
                    ExecutorInfo::new(
                        e(i),
                        TopologyId::new(rng.below(2) as u32),
                        ComponentId::new(0),
                        Mhz::new(rng.range_f64(10.0, 900.0)),
                    )
                })
                .collect();
            let span = ne as usize + 3;
            let mut traffic = TrafficMatrix::new();
            for _ in 0..rng.below(50) {
                let a = e(rng.below(span) as u32);
                let b = if rng.below(8) == 0 {
                    a
                } else {
                    e(rng.below(span) as u32)
                };
                traffic.add(a, b, rng.range_f64(0.001, 1000.0));
                if rng.below(2) == 0 {
                    traffic.add(b, a, rng.range_f64(0.001, 1000.0));
                }
            }
            let params = SchedParams::default().with_gamma(rng.range_f64(1.0, 2.0));
            let input = SchedulingInput::new(cluster, executors, traffic, params);
            let (expected, improvement) = scan_oracle(&input);
            let mut s = LocalSearchScheduler::new();
            s.set_explain(true);
            assert_eq!(
                s.schedule(&input).expect("feasible"),
                expected,
                "case {case}"
            );
            assert_eq!(
                s.last_improvement().to_bits(),
                improvement.to_bits(),
                "case {case}"
            );
            // The explanation's notes and decisions follow from the two.
            let explanation = s.take_explanation().expect("explain on");
            let relocated = explanation
                .decisions
                .iter()
                .filter(|d| d.tie_break.ends_with("relocated by local search"))
                .count();
            moved += usize::from(relocated > 0);
        }
        assert!(moved > 100, "local search moved executors in {moved} cases");
    }
}
