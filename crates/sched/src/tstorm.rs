//! T-Storm's traffic-aware online scheduling algorithm (Algorithm 1,
//! Section IV-C of the paper).
//!
//! Given executors `E`, slots `S`, estimated traffic `<r_ii'>` and
//! estimated workloads `<l_i>`, the algorithm:
//!
//! 1. sorts executors in descending order of total (incoming + outgoing)
//!    traffic (line 2);
//! 2. for each executor in that order, assigns it to the feasible slot
//!    with **minimum incremental inter-node traffic** — the sum of traffic
//!    between the executor and already-assigned executors on *other* nodes
//!    (lines 3–7).
//!
//! A slot `q` is feasible for executor `i` when the three constraints of
//! Section IV-C hold on `q`'s node:
//!
//! 1. executors of `i`'s topology occupy at most one slot per node — so if
//!    the topology already has a slot on the node, `q` *is* that slot;
//! 2. the node's total workload stays within
//!    `capacity_fraction × C_k`;
//! 3. the node hosts at most `⌈γ·Ne/K⌉` executors (consolidation factor).
//!
//! When no slot satisfies all constraints the algorithm relaxes them in
//! order (first the executor cap, then capacity) rather than failing —
//! a schedule must always exist so the cluster keeps running; relaxations
//! are recorded and can be inspected via
//! [`TStormScheduler::relaxations`].
//!
//! Complexity: sorting is `O(Ne log Ne)`; the assignment loop is
//! `O(Ne·Ns)` plus `O(|traffic|)` total for incremental cost maintenance —
//! matching the paper's `O(Ne log Ne + Ne·Ns)`.
//!
//! # Incremental re-scheduling
//!
//! The scheduler keeps the last solved input and its placement sequence.
//! When a new input is a *load-only delta* of the cached one (same
//! executors, traffic, cluster and parameters; only some `l_i` changed),
//! [`Scheduler::schedule`] replays the cached sequence instead of
//! re-solving: the argmin scan over nodes runs only for the changed
//! executors, while every unchanged executor's cached decision is
//! fast-accepted after a proof that the load changes could not have
//! flipped any capacity-feasibility outcome the greedy compared. If the
//! proof fails anywhere — or the delta spans more than a quarter of the
//! executors, or a relaxation would be needed — the replay aborts and the
//! full algorithm runs. The replayed result is therefore *exactly* the
//! assignment a full re-solve would produce (bit-for-bit: on-demand cost
//! sums repeat the full solve's float additions in the same order), just
//! cheaper: `O(Ne + |Δ|·Ns + |traffic|)` instead of `O(Ne·Ns)`.

use crate::explain::{PlacementDecision, ScheduleExplanation};
use crate::incremental::CachedInput;
use crate::problem::{Adjacency, Neighbour, SchedulingInput};
use crate::Scheduler;
use tstorm_cluster::{Assignment, ClusterSpec};
use tstorm_types::{FxHashMap, Mhz, NodeId, Result, SlotId, TStormError, TopologyId};

/// Incremental replays bail out when more than this fraction of the
/// executors changed load — at that point the per-delta argmin scans
/// approach the cost of a full solve anyway.
const MAX_INCREMENTAL_DELTA: f64 = 0.25;

/// The traffic-aware greedy scheduler (Algorithm 1).
#[derive(Debug, Clone)]
pub struct TStormScheduler {
    relaxations: Vec<String>,
    explain: bool,
    explanation: Option<ScheduleExplanation>,
    incremental: bool,
    last_was_incremental: bool,
    cache: Option<SolveCache>,
}

impl Default for TStormScheduler {
    fn default() -> Self {
        Self {
            relaxations: Vec::new(),
            explain: false,
            explanation: None,
            incremental: true,
            last_was_incremental: false,
            cache: None,
        }
    }
}

impl TStormScheduler {
    /// Creates the scheduler.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Constraint relaxations performed during the most recent
    /// [`Scheduler::schedule`] call (empty when all constraints held).
    #[must_use]
    pub fn relaxations(&self) -> &[String] {
        &self.relaxations
    }

    /// Enables or disables the incremental fast path (on by default).
    /// Disabling also drops the cached solve.
    pub fn set_incremental(&mut self, on: bool) {
        self.incremental = on;
        if !on {
            self.cache = None;
        }
    }

    /// Whether the most recent [`Scheduler::schedule`] call was served by
    /// the incremental replay instead of a full solve.
    #[must_use]
    pub fn last_solve_was_incremental(&self) -> bool {
        self.last_was_incremental
    }

    fn try_incremental(&mut self, input: &SchedulingInput) -> Option<Assignment> {
        let cache = self.cache.as_ref()?;
        let delta = cache.input.load_delta(input)?;
        let n = input.executors.len();
        #[allow(clippy::cast_precision_loss)]
        if n == 0 || delta.len() as f64 > MAX_INCREMENTAL_DELTA * n as f64 {
            return None;
        }
        let assignment = replay_with_delta(input, cache, &delta)?;
        if let Some(cache) = self.cache.as_mut() {
            cache.input.refresh_loads(input);
        }
        Some(assignment)
    }
}

/// The previous solve, kept for the incremental fast path: the captured
/// input plus the greedy's placement sequence.
#[derive(Debug, Clone)]
struct SolveCache {
    input: CachedInput,
    /// Executor indices in placement (descending-traffic) order.
    order: Vec<usize>,
    /// Chosen slot per `order` position.
    slots: Vec<SlotId>,
}

/// Internal per-schedule working state, indexed by executor position
/// in the input and by node index.
struct State<'a> {
    input: &'a SchedulingInput,
    /// Undirected adjacency. Built once so cost maintenance is
    /// O(degree) per placement, keeping the whole loop within the
    /// paper's O(Ne log Ne + Ne·Ns) plus O(|traffic|).
    adjacency: Adjacency,
    /// Topology owning each slot, if any.
    slot_topology: Vec<Option<TopologyId>>,
    /// Number of executors in each slot.
    slot_count: Vec<usize>,
    /// Load currently assigned to each node.
    node_load: Vec<Mhz>,
    /// Executor count on each node.
    node_count: Vec<usize>,
    /// The unique slot of (node, topology), once opened.
    node_topo_slot: FxHashMap<(NodeId, TopologyId), SlotId>,
    /// Traffic from each executor to already-assigned executors, per
    /// node: row-major, executor `p`'s traffic to node `k` at
    /// `p * nodes + k`.
    node_traffic: Vec<f64>,
    /// Total traffic from each executor to already-assigned executors.
    assigned_traffic: Vec<f64>,
}

/// How strictly constraints are enforced while searching for a slot.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Strictness {
    /// All three constraints.
    Full,
    /// Constraint 3 (executor cap) waived.
    NoCap,
    /// Constraints 2 and 3 waived; only structural slot rules remain.
    StructuralOnly,
}

impl<'a> State<'a> {
    fn new(input: &'a SchedulingInput) -> Self {
        let ns = input.cluster.num_slots();
        let k = input.cluster.num_nodes();
        let n = input.executors.len();
        Self {
            input,
            adjacency: Adjacency::build(input),
            slot_topology: vec![None; ns],
            slot_count: vec![0; ns],
            node_load: vec![Mhz::ZERO; k],
            node_count: vec![0; k],
            node_topo_slot: FxHashMap::default(),
            node_traffic: vec![0.0; n * k],
            assigned_traffic: vec![0.0; n],
        }
    }

    /// The candidate slot for `topology` on `node`: the topology's
    /// existing slot there, or the first free slot. `None` if neither
    /// exists (constraint 1 is never relaxed — it is structural).
    fn candidate_slot(&self, node: NodeId, topology: TopologyId) -> Option<SlotId> {
        if let Some(slot) = self.node_topo_slot.get(&(node, topology)) {
            return Some(*slot);
        }
        self.input
            .cluster
            .slots_of(node)
            .find(|s| self.slot_topology[s.slot.as_usize()].is_none())
            .map(|s| s.slot)
    }

    fn node_feasible(
        &self,
        node: NodeId,
        load: Mhz,
        cap_count: usize,
        strictness: Strictness,
    ) -> bool {
        let k = node.as_usize();
        match strictness {
            Strictness::StructuralOnly => true,
            Strictness::NoCap => self.capacity_ok(k, load),
            Strictness::Full => self.capacity_ok(k, load) && self.node_count[k] < cap_count,
        }
    }

    fn capacity_ok(&self, node_idx: usize, load: Mhz) -> bool {
        let cap =
            self.input.cluster.nodes()[node_idx].capacity * self.input.params.capacity_fraction;
        self.node_load[node_idx] + load <= cap
    }

    /// Incremental inter-node traffic of placing the executor at
    /// position `pos` on `node` (Algorithm 1 line 5): traffic to
    /// assigned executors on all *other* nodes.
    fn placement_cost(&self, pos: usize, node: NodeId) -> f64 {
        let total = self.assigned_traffic[pos];
        let local = self.node_traffic[pos * self.input.cluster.num_nodes() + node.as_usize()];
        total - local
    }

    fn place(&mut self, pos: usize, load: Mhz, topology: TopologyId, slot: SlotId) {
        let node = self.input.cluster.node_of(slot);
        let j = slot.as_usize();
        let k = node.as_usize();
        let nodes = self.input.cluster.num_nodes();
        self.slot_topology[j] = Some(topology);
        self.slot_count[j] += 1;
        self.node_load[k] += load;
        self.node_count[k] += 1;
        self.node_topo_slot.insert((node, topology), slot);
        // Incremental cost maintenance: every neighbour of the newly
        // placed executor now sees its traffic to `node` increase.
        for nb in self.adjacency.row(pos) {
            if nb.pos != Adjacency::OUTSIDE {
                let other = nb.pos as usize;
                self.node_traffic[other * nodes + k] += nb.rate;
                self.assigned_traffic[other] += nb.rate;
            }
        }
    }
}

impl Scheduler for TStormScheduler {
    fn name(&self) -> &'static str {
        "t-storm"
    }

    fn set_explain(&mut self, on: bool) {
        self.explain = on;
    }

    fn take_explanation(&mut self) -> Option<ScheduleExplanation> {
        self.explanation.take()
    }

    fn schedule(&mut self, input: &SchedulingInput) -> Result<Assignment> {
        self.relaxations.clear();
        self.explanation = None;
        self.last_was_incremental = false;
        // Incremental fast path: replay the cached solve when the input
        // is a small load-only delta of it. Explanations need the full
        // per-decision records, so they always take the full path.
        if self.incremental && !self.explain {
            if let Some(assignment) = self.try_incremental(input) {
                self.last_was_incremental = true;
                return Ok(assignment);
            }
        }
        self.cache = None;
        let mut explanation = self.explain.then(|| ScheduleExplanation::new(self.name()));
        let cap_count = input.node_executor_cap();
        let mut state = State::new(input);

        // Line 2: sort by total traffic, descending; ties by id for
        // determinism. Totals come from the prebuilt adjacency (one pass
        // over the traffic matrix, not one scan per executor).
        let mut order: Vec<usize> = (0..input.executors.len()).collect();
        let totals: Vec<f64> = (0..input.executors.len())
            .map(|p| state.adjacency.row(p).iter().map(|nb| nb.rate).sum())
            .collect();
        order.sort_by(|&a, &b| {
            totals[b]
                .partial_cmp(&totals[a])
                .expect("traffic totals are finite")
                .then(input.executors[a].id.cmp(&input.executors[b].id))
        });

        let mut assignment = Assignment::new();
        let mut placed_slots: Vec<SlotId> = Vec::with_capacity(order.len());
        for &idx in &order {
            let info = &input.executors[idx];
            let mut chosen: Option<Candidate> = None;
            let mut relaxation: Option<String> = None;
            for strictness in [
                Strictness::Full,
                Strictness::NoCap,
                Strictness::StructuralOnly,
            ] {
                chosen = best_slot(&state, idx, info.topology, info.load, cap_count, strictness);
                if chosen.is_some() {
                    match strictness {
                        Strictness::Full => {}
                        Strictness::NoCap => {
                            let msg = format!("{}: executor cap {cap_count} relaxed", info.id);
                            relaxation = Some(msg.clone());
                            self.relaxations.push(msg);
                        }
                        Strictness::StructuralOnly => {
                            let msg = format!("{}: node capacity relaxed", info.id);
                            relaxation = Some(msg.clone());
                            self.relaxations.push(msg);
                        }
                    }
                    break;
                }
            }
            let Some(candidate) = chosen else {
                return Err(TStormError::infeasible(
                    self.name(),
                    format!(
                        "no slot can host {} of {} (all slots taken by other topologies)",
                        info.id, info.topology
                    ),
                ));
            };
            if let Some(explanation) = explanation.as_mut() {
                explanation.decisions.push(PlacementDecision {
                    executor: info.id,
                    slot: candidate.slot,
                    node: input.cluster.node_of(candidate.slot),
                    load_mhz: info.load.get(),
                    // `+ 0.0` normalizes -0.0 for serialization.
                    traffic_total: totals[idx] + 0.0,
                    objective_delta: candidate.cost + 0.0,
                    tie_break: if candidate.fresh_node {
                        "min incremental inter-node cost; opened a fresh node".to_owned()
                    } else {
                        "min incremental inter-node cost; consolidated onto occupied node"
                            .to_owned()
                    },
                    relaxation,
                });
            }
            state.place(idx, info.load, info.topology, candidate.slot);
            assignment.assign(info.id, candidate.slot);
            placed_slots.push(candidate.slot);
        }
        if let Some(mut explanation) = explanation.take() {
            explanation.notes.extend(self.relaxations.iter().cloned());
            self.explanation = Some(explanation);
        }
        // The working state goes before the cache copies the input, so
        // the two never peak together.
        drop(state);
        // Cache unrelaxed solves for the incremental replay. A relaxed
        // solve is not replayable (the replay only proves Full-strictness
        // decisions), so it leaves the cache empty.
        if self.incremental && self.relaxations.is_empty() {
            self.cache = Some(SolveCache {
                input: CachedInput::capture(input),
                order,
                slots: placed_slots,
            });
        }
        Ok(assignment)
    }
}

/// A winning slot plus the facts that made it win, kept for decision
/// records.
struct Candidate {
    slot: SlotId,
    /// Incremental inter-node traffic of the placement (tuples/s).
    cost: f64,
    /// Whether the chosen node held no executors before this placement.
    fresh_node: bool,
}

/// Line 5 of Algorithm 1: the feasible slot with minimum incremental
/// inter-node traffic. Ties prefer nodes that already host executors
/// (consolidation), then lower node id (determinism).
fn best_slot(
    state: &State<'_>,
    pos: usize,
    topology: TopologyId,
    load: Mhz,
    cap_count: usize,
    strictness: Strictness,
) -> Option<Candidate> {
    // Comparison key: lower cost first; on ties prefer nodes already in
    // use (`fresh_node == false` sorts first), then lower node id.
    let mut best: Option<((f64, bool, NodeId), SlotId)> = None;
    for node in state.input.cluster.nodes() {
        if !state.input.cluster.is_node_live(node.id) {
            continue;
        }
        let Some(slot) = state.candidate_slot(node.id, topology) else {
            continue;
        };
        if !state.node_feasible(node.id, load, cap_count, strictness) {
            continue;
        }
        let cost = state.placement_cost(pos, node.id);
        let fresh_node = state.node_count[node.id.as_usize()] == 0;
        let key = (cost, fresh_node, node.id);
        let replace = match &best {
            None => true,
            Some((bk, _)) => key < *bk,
        };
        if replace {
            best = Some((key, slot));
        }
    }
    best.map(|((cost, fresh_node, _), slot)| Candidate {
        slot,
        cost,
        fresh_node,
    })
}

/// Replays the cached greedy placement sequence against new loads,
/// re-running the argmin scan only for executors in `delta`.
///
/// Correctness argument (the "exact equivalence" contract): the full
/// algorithm's decision for each executor is a pure function of the
/// working state left by the previous placements, the traffic (unchanged
/// by gate) and node capacities. As long as every replayed decision
/// matches what the full solve on the *new* input would pick, the state
/// stays identical by induction. For an executor with unchanged load,
/// the only quantity the load delta can disturb is per-node capacity
/// headroom; nodes whose accumulated load is bitwise identical to the
/// cached run's behave identically, so only nodes hosting a changed
/// executor ("diverged" nodes) are re-checked: the cached winner must
/// still fit, and any diverged node that *gained* feasibility must not
/// undercut the winner's `(cost, fresh, id)` key. Costs are computed on
/// demand by walking the adjacency in neighbour-placement order — the
/// exact float-addition order of the full solve's running sums — so
/// comparisons are bit-identical. Any failed proof, any changed-executor
/// scan that disagrees with the cache, or any executor that would need a
/// constraint relaxation returns `None`, and the caller falls back to
/// the full algorithm.
fn replay_with_delta(
    input: &SchedulingInput,
    cache: &SolveCache,
    delta: &[usize],
) -> Option<Assignment> {
    let cluster = &input.cluster;
    let k = cluster.num_nodes();
    let ns = cluster.num_slots();
    let cap_count = input.node_executor_cap();
    let frac = input.params.capacity_fraction;
    let n = input.executors.len();
    if cache.order.len() != n || cache.slots.len() != n {
        return None;
    }

    let mut in_delta = vec![false; n];
    for &i in delta {
        in_delta[i] = true;
    }

    // The adjacency `State::new` builds, so on-demand cost sums replay
    // the full solve's float operations in the same order.
    let adjacency = Adjacency::build(input);

    let mut slot_topology: Vec<Option<TopologyId>> = vec![None; ns];
    let mut node_topo_slot: FxHashMap<(NodeId, TopologyId), SlotId> = FxHashMap::default();
    let mut node_count = vec![0usize; k];
    // Node loads under the new and under the cached estimates. Both runs
    // share every placement, so headroom can only differ on nodes where
    // the two sums diverge bitwise.
    let mut node_load_new = vec![Mhz::ZERO; k];
    let mut node_load_old = vec![Mhz::ZERO; k];
    let mut diverged = vec![false; k];
    let mut diverged_nodes: Vec<usize> = Vec::new();

    // (placement position, node) per placed executor, by input
    // position: placement-ordered walks of the adjacency reproduce the
    // full solve's accumulation order.
    let mut placed: Vec<Option<(u32, NodeId)>> = vec![None; n];
    let mut scratch = vec![0.0f64; k];
    let mut touched: Vec<usize> = Vec::new();

    let mut assignment = Assignment::new();
    for pos in 0..n {
        let idx = cache.order[pos];
        let info = &input.executors[idx];
        let old_load = cache.input.executors[idx].load;
        let cached_slot = cache.slots[pos];
        let cached_node = cluster.node_of(cached_slot);

        let slot = if in_delta[idx] {
            // Changed executor: run line 5's argmin for real, at Full
            // strictness only — needing a relaxation means the cached
            // unrelaxed solve is not replayable.
            let total =
                gather_assigned_traffic(adjacency.row(idx), &placed, &mut scratch, &mut touched);
            let mut best: Option<((f64, bool, NodeId), SlotId)> = None;
            for node in cluster.nodes() {
                if !cluster.is_node_live(node.id) {
                    continue;
                }
                let Some(slot) = replay_candidate_slot(
                    cluster,
                    &node_topo_slot,
                    &slot_topology,
                    node.id,
                    info.topology,
                ) else {
                    continue;
                };
                let ki = node.id.as_usize();
                if node_count[ki] >= cap_count
                    || node_load_new[ki] + info.load > node.capacity * frac
                {
                    continue;
                }
                let key = (total - scratch[ki], node_count[ki] == 0, node.id);
                let better = match &best {
                    Some((bk, _)) => key < *bk,
                    None => true,
                };
                if better {
                    best = Some((key, slot));
                }
            }
            clear_scratch(&mut scratch, &mut touched);
            let (_, slot) = best?;
            if slot != cached_slot {
                return None;
            }
            slot
        } else {
            let wk = cached_node.as_usize();
            // The cached winner must still have capacity under the new
            // loads; where the node's load has not diverged this is the
            // cached run's own (already passed) check.
            if diverged[wk] && node_load_new[wk] + info.load > cluster.nodes()[wk].capacity * frac {
                return None;
            }
            // A diverged node that *gained* feasibility could undercut
            // the cached winner; collect exactly those.
            let mut contenders: Vec<usize> = Vec::new();
            for &m in &diverged_nodes {
                if m == wk {
                    continue;
                }
                let node = &cluster.nodes()[m];
                if !cluster.is_node_live(node.id) || node_count[m] >= cap_count {
                    continue;
                }
                let cap = node.capacity * frac;
                let was_ok = node_load_old[m] + info.load <= cap;
                let now_ok = node_load_new[m] + info.load <= cap;
                if now_ok
                    && !was_ok
                    && replay_candidate_slot(
                        cluster,
                        &node_topo_slot,
                        &slot_topology,
                        node.id,
                        info.topology,
                    )
                    .is_some()
                {
                    contenders.push(m);
                }
            }
            if !contenders.is_empty() {
                let total = gather_assigned_traffic(
                    adjacency.row(idx),
                    &placed,
                    &mut scratch,
                    &mut touched,
                );
                let key_w = (total - scratch[wk], node_count[wk] == 0, cached_node);
                let beaten = contenders.iter().any(|&m| {
                    (
                        total - scratch[m],
                        node_count[m] == 0,
                        NodeId::new(m as u32),
                    ) < key_w
                });
                clear_scratch(&mut scratch, &mut touched);
                if beaten {
                    return None;
                }
            }
            cached_slot
        };

        let node = cluster.node_of(slot);
        let kk = node.as_usize();
        slot_topology[slot.as_usize()] = Some(info.topology);
        node_topo_slot.insert((node, info.topology), slot);
        node_count[kk] += 1;
        node_load_new[kk] += info.load;
        node_load_old[kk] += old_load;
        if !diverged[kk] && node_load_new[kk].get().to_bits() != node_load_old[kk].get().to_bits() {
            diverged[kk] = true;
            diverged_nodes.push(kk);
        }
        placed[idx] = Some((pos as u32, node));
        assignment.assign(info.id, slot);
    }
    Some(assignment)
}

/// `State::candidate_slot` against the replay's structural state.
fn replay_candidate_slot(
    cluster: &ClusterSpec,
    node_topo_slot: &FxHashMap<(NodeId, TopologyId), SlotId>,
    slot_topology: &[Option<TopologyId>],
    node: NodeId,
    topology: TopologyId,
) -> Option<SlotId> {
    if let Some(slot) = node_topo_slot.get(&(node, topology)) {
        return Some(*slot);
    }
    cluster
        .slots_of(node)
        .find(|s| slot_topology[s.slot.as_usize()].is_none())
        .map(|s| s.slot)
}

/// Traffic from an executor (its adjacency `row`) to already-placed
/// executors: returns the total and leaves the per-node split in
/// `scratch` (reset it with [`clear_scratch`]). Additions happen in
/// neighbour-placement order (ties keep row order), which is exactly the
/// order `State::place` feeds the full solve's running sums — so the
/// resulting floats match the full solve bit for bit.
fn gather_assigned_traffic(
    row: &[Neighbour],
    placed: &[Option<(u32, NodeId)>],
    scratch: &mut [f64],
    touched: &mut Vec<usize>,
) -> f64 {
    let mut entries: Vec<(u32, usize, f64)> = row
        .iter()
        .filter(|nb| nb.pos != Adjacency::OUTSIDE)
        .filter_map(|nb| {
            placed[nb.pos as usize].map(|(order, node)| (order, node.as_usize(), nb.rate))
        })
        .collect();
    entries.sort_by_key(|(order, _, _)| *order);
    let mut total = 0.0;
    for (_, node, rate) in entries {
        total += rate;
        scratch[node] += rate;
        touched.push(node);
    }
    total
}

fn clear_scratch(scratch: &mut [f64], touched: &mut Vec<usize>) {
    for node in touched.drain(..) {
        scratch[node] = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{ExecutorInfo, SchedParams, TrafficMatrix};
    use crate::quality::AssignmentQuality;
    use tstorm_cluster::ClusterSpec;
    use tstorm_types::{ComponentId, ExecutorId};

    fn e(id: u32) -> ExecutorId {
        ExecutorId::new(id)
    }

    fn exec(id: u32, topo: u32, load: f64) -> ExecutorInfo {
        ExecutorInfo::new(
            e(id),
            TopologyId::new(topo),
            ComponentId::new(0),
            Mhz::new(load),
        )
    }

    /// A chain of `n` executors with heavy adjacent traffic.
    fn chain_input(n: u32, nodes: u32, slots: u32, gamma: f64, load: f64) -> SchedulingInput {
        let cluster = ClusterSpec::homogeneous(nodes, slots, Mhz::new(4000.0)).unwrap();
        let executors = (0..n).map(|i| exec(i, 0, load)).collect();
        let mut traffic = TrafficMatrix::new();
        for i in 0..n - 1 {
            traffic.set(e(i), e(i + 1), 1000.0);
        }
        SchedulingInput::new(
            cluster,
            executors,
            traffic,
            SchedParams::default().with_gamma(gamma),
        )
    }

    #[test]
    fn chain_collapses_onto_one_slot_when_gamma_allows() {
        let input = chain_input(6, 5, 4, 10.0, 10.0);
        let mut s = TStormScheduler::new();
        let a = s.schedule(&input).expect("feasible");
        assert_eq!(a.slots_used().len(), 1, "{a:?}");
        let q = AssignmentQuality::evaluate(&a, &input);
        assert_eq!(q.inter_node_traffic, 0.0);
        assert!(s.relaxations().is_empty());
    }

    #[test]
    fn gamma_one_spreads_across_nodes() {
        // 8 executors, 4 nodes, gamma=1 -> cap 2 per node -> 4 nodes used.
        let input = chain_input(8, 4, 4, 1.0, 10.0);
        let mut s = TStormScheduler::new();
        let a = s.schedule(&input).expect("feasible");
        assert_eq!(a.nodes_used(&input.cluster).len(), 4);
        // One slot per node (single topology).
        assert_eq!(a.slots_used().len(), 4);
        assert!(s.relaxations().is_empty());
    }

    #[test]
    fn larger_gamma_uses_fewer_nodes() {
        let mut nodes_used = Vec::new();
        for gamma in [1.0, 2.0, 8.0] {
            let input = chain_input(8, 4, 4, gamma, 10.0);
            let mut s = TStormScheduler::new();
            let a = s.schedule(&input).expect("feasible");
            nodes_used.push(a.nodes_used(&input.cluster).len());
        }
        assert!(nodes_used[0] >= nodes_used[1]);
        assert!(nodes_used[1] >= nodes_used[2]);
        assert_eq!(nodes_used[0], 4);
        assert_eq!(nodes_used[2], 1);
    }

    #[test]
    fn capacity_forces_spill() {
        // Each executor needs 1500 MHz of a 4000 MHz node: at most 2 fit.
        let input = chain_input(4, 4, 4, 100.0, 1500.0);
        let mut s = TStormScheduler::new();
        let a = s.schedule(&input).expect("feasible");
        assert_eq!(a.nodes_used(&input.cluster).len(), 2);
        let ctx = input.executor_ctx();
        assert!(a
            .constraint_violations(&input.cluster, &ctx, Some(1.0))
            .is_empty());
        assert!(s.relaxations().is_empty());
    }

    #[test]
    fn capacity_fraction_tightens_packing() {
        // With fraction 0.5 only 2000 MHz usable: one 1500 MHz executor
        // per node.
        let mut input = chain_input(3, 4, 4, 100.0, 1500.0);
        input.params.capacity_fraction = 0.5;
        let mut s = TStormScheduler::new();
        let a = s.schedule(&input).expect("feasible");
        assert_eq!(a.nodes_used(&input.cluster).len(), 3);
    }

    #[test]
    fn constraints_hold_for_multi_topology_input() {
        let cluster = ClusterSpec::homogeneous(4, 3, Mhz::new(4000.0)).unwrap();
        let mut executors = Vec::new();
        let mut traffic = TrafficMatrix::new();
        let mut next = 0u32;
        for topo in 0..3u32 {
            let first = next;
            for _ in 0..5 {
                executors.push(exec(next, topo, 100.0));
                next += 1;
            }
            for i in first..next - 1 {
                traffic.set(e(i), e(i + 1), 500.0);
            }
        }
        let input = SchedulingInput::new(
            cluster,
            executors,
            traffic,
            SchedParams::default().with_gamma(2.0),
        );
        let mut s = TStormScheduler::new();
        let a = s.schedule(&input).expect("feasible");
        assert_eq!(a.len(), 15);
        let ctx = input.executor_ctx();
        let v = a.constraint_violations(&input.cluster, &ctx, Some(1.0));
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn beats_round_robin_on_inter_node_traffic() {
        use crate::roundrobin::RoundRobinScheduler;
        let mut input = chain_input(12, 4, 4, 2.0, 50.0);
        input.params = input.params.clone().with_workers(TopologyId::new(0), 12);
        let mut ts = TStormScheduler::new();
        let mut rr = RoundRobinScheduler::storm_default();
        let a_ts = ts.schedule(&input).expect("feasible");
        let a_rr = rr.schedule(&input).expect("feasible");
        let q_ts = AssignmentQuality::evaluate(&a_ts, &input);
        let q_rr = AssignmentQuality::evaluate(&a_rr, &input);
        assert!(
            q_ts.inter_node_traffic < q_rr.inter_node_traffic,
            "t-storm {} vs rr {}",
            q_ts.inter_node_traffic,
            q_rr.inter_node_traffic
        );
    }

    #[test]
    fn relaxes_cap_rather_than_failing() {
        // gamma so small the cap is 1 executor/node but 6 executors on 2
        // nodes: impossible without relaxation.
        let input = chain_input(6, 2, 4, 0.1, 10.0);
        let mut s = TStormScheduler::new();
        let a = s.schedule(&input).expect("feasible via relaxation");
        assert_eq!(a.len(), 6);
        assert!(!s.relaxations().is_empty());
        assert!(s.relaxations()[0].contains("cap"));
    }

    #[test]
    fn relaxes_capacity_as_last_resort() {
        // One node, executors exceeding capacity in total.
        let input = chain_input(4, 1, 2, 100.0, 3000.0);
        let mut s = TStormScheduler::new();
        let a = s.schedule(&input).expect("feasible via relaxation");
        assert_eq!(a.len(), 4);
        assert!(s
            .relaxations()
            .iter()
            .any(|r| r.contains("capacity relaxed")));
    }

    #[test]
    fn infeasible_when_more_topologies_than_slots() {
        let cluster = ClusterSpec::homogeneous(1, 1, Mhz::new(4000.0)).unwrap();
        let executors = vec![exec(0, 0, 1.0), exec(1, 1, 1.0)];
        let input = SchedulingInput::new(
            cluster,
            executors,
            TrafficMatrix::new(),
            SchedParams::default(),
        );
        let mut s = TStormScheduler::new();
        assert!(s.schedule(&input).is_err());
    }

    #[test]
    fn deterministic() {
        let input = chain_input(10, 4, 4, 2.0, 100.0);
        let mut s = TStormScheduler::new();
        let a = s.schedule(&input).expect("feasible");
        let b = s.schedule(&input).expect("feasible");
        assert_eq!(a, b);
    }

    #[test]
    fn heavy_traffic_pairs_are_colocated_first() {
        // Star: hub 0 talks to 1..=5; pair (0,1) is by far the heaviest.
        let cluster = ClusterSpec::homogeneous(3, 2, Mhz::new(4000.0)).unwrap();
        let executors = (0..6).map(|i| exec(i, 0, 10.0)).collect();
        let mut traffic = TrafficMatrix::new();
        traffic.set(e(0), e(1), 10_000.0);
        for i in 2..6 {
            traffic.set(e(0), e(i), 10.0);
        }
        let input = SchedulingInput::new(
            cluster,
            executors,
            traffic,
            SchedParams::default().with_gamma(1.0), // cap = 2/node
        );
        let mut s = TStormScheduler::new();
        let a = s.schedule(&input).expect("feasible");
        assert_eq!(a.slot_of(e(0)), a.slot_of(e(1)), "{a:?}");
    }

    #[test]
    fn explanation_decisions_sum_to_final_objective() {
        let input = chain_input(8, 4, 4, 2.0, 50.0);
        let mut s = TStormScheduler::new();
        s.set_explain(true);
        let a = s.schedule(&input).expect("feasible");
        let ex = s.take_explanation().expect("explanation recorded");
        assert_eq!(ex.algorithm, "t-storm");
        assert_eq!(ex.decisions.len(), 8);
        // Each inter-node pair is charged exactly once — when its second
        // endpoint is placed — so the incremental deltas telescope to the
        // final objective.
        let q = AssignmentQuality::evaluate(&a, &input);
        assert!(
            (ex.total_objective() - q.inter_node_traffic).abs() < 1e-9,
            "sum {} vs objective {}",
            ex.total_objective(),
            q.inter_node_traffic
        );
        // Explanation is take-once and off by default.
        assert!(s.take_explanation().is_none());
        s.set_explain(false);
        s.schedule(&input).expect("feasible");
        assert!(s.take_explanation().is_none());
    }

    #[test]
    fn explanation_reports_relaxations() {
        let input = chain_input(6, 2, 4, 0.1, 10.0);
        let mut s = TStormScheduler::new();
        s.set_explain(true);
        s.schedule(&input).expect("feasible via relaxation");
        let ex = s.take_explanation().expect("explanation recorded");
        assert!(ex.decisions.iter().any(|d| d.relaxation.is_some()));
        assert!(ex.notes.iter().any(|n| n.contains("cap")));
    }

    /// Deterministically perturbs roughly `fraction` of the executor
    /// loads by up to ±`spread`/2 (relative), via a seeded LCG — no
    /// external RNG needed for reproducible incremental-path tests.
    fn perturb_loads(
        input: &SchedulingInput,
        seed: u64,
        fraction: f64,
        spread: f64,
    ) -> SchedulingInput {
        let mut out = input.clone();
        let mut state = seed
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        for info in &mut out.executors {
            if next() < fraction {
                let factor = 1.0 + spread * (next() - 0.5);
                info.load = Mhz::new(info.load.get() * factor);
            }
        }
        out
    }

    #[test]
    fn identical_input_replays_incrementally() {
        let input = chain_input(10, 4, 4, 2.0, 100.0);
        let mut s = TStormScheduler::new();
        let a = s.schedule(&input).expect("feasible");
        assert!(!s.last_solve_was_incremental());
        let b = s.schedule(&input).expect("feasible");
        assert!(s.last_solve_was_incremental());
        assert_eq!(a, b);
    }

    #[test]
    fn incremental_matches_full_resolve_exactly() {
        let base = chain_input(48, 6, 4, 2.0, 120.0);
        let mut warm = TStormScheduler::new();
        warm.schedule(&base).expect("feasible");
        let mut hits = 0;
        for seed in 0..20u64 {
            let perturbed = perturb_loads(&base, seed, 0.15, 0.8);
            let a_inc = warm.schedule(&perturbed).expect("feasible");
            if warm.last_solve_was_incremental() {
                hits += 1;
            }
            let mut fresh = TStormScheduler::new();
            let a_full = fresh.schedule(&perturbed).expect("feasible");
            assert_eq!(a_inc, a_full, "divergence at seed {seed}");
        }
        assert!(hits > 0, "incremental path never engaged");
    }

    #[test]
    fn incremental_equivalence_under_capacity_pressure() {
        // Loads near node capacity so perturbations genuinely flip
        // feasibility: the replay must either prove equivalence or fall
        // back, and either way match a from-scratch solve exactly.
        let base = chain_input(24, 4, 4, 100.0, 600.0);
        let mut warm = TStormScheduler::new();
        warm.schedule(&base).expect("feasible");
        for seed in 100..140u64 {
            let perturbed = perturb_loads(&base, seed, 0.2, 0.6);
            let a_inc = warm.schedule(&perturbed).expect("feasible");
            let mut fresh = TStormScheduler::new();
            let a_full = fresh.schedule(&perturbed).expect("feasible");
            assert_eq!(a_inc, a_full, "divergence at seed {seed}");
        }
    }

    #[test]
    fn traffic_change_falls_back_to_full() {
        let base = chain_input(10, 4, 4, 2.0, 100.0);
        let mut s = TStormScheduler::new();
        s.schedule(&base).expect("feasible");
        let mut changed = base.clone();
        changed.traffic.set(e(0), e(1), 123.0);
        let a = s.schedule(&changed).expect("feasible");
        assert!(!s.last_solve_was_incremental());
        let mut fresh = TStormScheduler::new();
        assert_eq!(a, fresh.schedule(&changed).expect("feasible"));
    }

    #[test]
    fn liveness_change_falls_back_to_full() {
        let base = chain_input(10, 4, 4, 2.0, 100.0);
        let mut s = TStormScheduler::new();
        s.schedule(&base).expect("feasible");
        let mut changed = base.clone();
        changed.cluster.set_node_live(NodeId::new(3), false);
        let a = s.schedule(&changed).expect("feasible");
        assert!(!s.last_solve_was_incremental());
        let mut fresh = TStormScheduler::new();
        assert_eq!(a, fresh.schedule(&changed).expect("feasible"));
    }

    #[test]
    fn large_delta_falls_back_to_full() {
        let base = chain_input(20, 4, 4, 2.0, 100.0);
        let mut s = TStormScheduler::new();
        s.schedule(&base).expect("feasible");
        // Every load changes: way past the 25% replay threshold.
        let perturbed = perturb_loads(&base, 7, 1.1, 0.5);
        s.schedule(&perturbed).expect("feasible");
        assert!(!s.last_solve_was_incremental());
    }

    #[test]
    fn disabled_incremental_never_replays() {
        let input = chain_input(10, 4, 4, 2.0, 100.0);
        let mut s = TStormScheduler::new();
        s.set_incremental(false);
        s.schedule(&input).expect("feasible");
        s.schedule(&input).expect("feasible");
        assert!(!s.last_solve_was_incremental());
    }

    #[test]
    fn relaxed_solves_are_not_cached_for_replay() {
        // Needs the executor-cap relaxation, so the cache must stay
        // empty and the identical re-solve runs the full path.
        let input = chain_input(6, 2, 4, 0.1, 10.0);
        let mut s = TStormScheduler::new();
        s.schedule(&input).expect("feasible via relaxation");
        assert!(!s.relaxations().is_empty());
        s.schedule(&input).expect("feasible via relaxation");
        assert!(!s.last_solve_was_incremental());
        assert!(!s.relaxations().is_empty());
    }

    #[test]
    fn explain_bypasses_incremental_path() {
        let input = chain_input(8, 4, 4, 2.0, 50.0);
        let mut s = TStormScheduler::new();
        s.schedule(&input).expect("feasible");
        s.set_explain(true);
        s.schedule(&input).expect("feasible");
        assert!(!s.last_solve_was_incremental());
        assert!(s.take_explanation().is_some());
    }

    #[test]
    fn zero_traffic_input_still_schedules_everyone() {
        let cluster = ClusterSpec::homogeneous(3, 2, Mhz::new(4000.0)).unwrap();
        let executors = (0..7).map(|i| exec(i, 0, 10.0)).collect();
        let input = SchedulingInput::new(
            cluster,
            executors,
            TrafficMatrix::new(),
            SchedParams::default().with_gamma(1.0),
        );
        let mut s = TStormScheduler::new();
        let a = s.schedule(&input).expect("feasible");
        assert_eq!(a.len(), 7);
        let ctx = input.executor_ctx();
        assert!(a
            .constraint_violations(&input.cluster, &ctx, Some(1.0))
            .is_empty());
    }
}
