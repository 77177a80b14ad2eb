//! Re-implementations of the DEBS'13 schedulers of Aniello, Baldoni and
//! Querzoni ("Adaptive online scheduling in Storm", the T-Storm paper's
//! reference 11) — the baselines T-Storm is compared against in Section III.
//!
//! Two schedulers are provided, following the published description:
//!
//! * [`AnielloOfflineScheduler`] — examines only the topology *graph*
//!   ("identifies possible sets of bolts to be scheduled on a common node
//!   by looking at how they are connected"): executors with the same index
//!   in adjacent components are packed into the same worker, workers are
//!   then spread over nodes. No runtime information is used, which is why
//!   the T-Storm paper calls it "oblivious with respect to runtime
//!   workload".
//! * [`AnielloOnlineScheduler`] — a two-phase greedy over *measured*
//!   traffic: phase 1 packs executor pairs (heaviest traffic first) into
//!   workers under a balance cap; phase 2 places worker pairs (heaviest
//!   inter-worker traffic first) onto nodes under a balance cap.
//!
//! The T-Storm paper observes (Section III, problem 3) that the original
//! implementation "is not general enough: for some topologies that do not
//! have a certain degree of complexity, the default scheduler was invoked
//! instead". We reproduce that behaviour: when a topology has no recorded
//! traffic (e.g. right after submission), the online scheduler falls back
//! to the default round-robin for that scheduling round. The fallback can
//! be disabled with [`AnielloOnlineScheduler::without_fallback`].
//!
//! Neither scheduler keeps state between calls apart from its explain
//! flag: every call solves its input from scratch.

use crate::explain::{decisions_from_assignment, ScheduleExplanation};
use crate::problem::SchedulingInput;
use crate::roundrobin::RoundRobinScheduler;
use crate::Scheduler;
use std::collections::{BTreeMap, HashMap};
use tstorm_cluster::Assignment;
use tstorm_types::{ComponentId, ExecutorId, Result, SlotId, TStormError, TopologyId};

/// The DEBS'13 *offline* scheduler: topology-graph-based worker packing.
#[derive(Debug, Clone, Default)]
pub struct AnielloOfflineScheduler {
    explain: bool,
    explanation: Option<ScheduleExplanation>,
}

impl AnielloOfflineScheduler {
    /// Creates the scheduler.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for AnielloOfflineScheduler {
    fn name(&self) -> &'static str {
        "aniello-offline"
    }

    fn set_explain(&mut self, on: bool) {
        self.explain = on;
    }

    fn take_explanation(&mut self) -> Option<ScheduleExplanation> {
        self.explanation.take()
    }

    fn schedule(&mut self, input: &SchedulingInput) -> Result<Assignment> {
        self.explanation = None;
        let mut assignment = Assignment::new();
        let mut slot_taken = dead_slots_taken(input);

        let mut by_topology: BTreeMap<TopologyId, Vec<usize>> = BTreeMap::new();
        for (idx, e) in input.executors.iter().enumerate() {
            by_topology.entry(e.topology).or_default().push(idx);
        }

        for (topology, exec_idxs) in &by_topology {
            let requested = input.params.workers_for(*topology) as usize;
            let free: Vec<SlotId> = input
                .cluster
                .slots()
                .iter()
                .filter(|s| !slot_taken[s.slot.as_usize()])
                .map(|s| s.slot)
                .collect();
            if free.is_empty() {
                return Err(TStormError::infeasible(
                    self.name(),
                    format!("no free slots for {topology}"),
                ));
            }
            let num_workers = requested.min(free.len()).min(exec_idxs.len()).max(1);

            // Spread the topology's workers over nodes round-robin: take
            // free slots from distinct nodes first.
            let mut worker_slots: Vec<SlotId> = Vec::with_capacity(num_workers);
            let mut used_nodes = Vec::new();
            // First pass: distinct nodes; second pass: anything free.
            for pass in 0..2 {
                for slot in &free {
                    if worker_slots.len() == num_workers {
                        break;
                    }
                    if worker_slots.contains(slot) {
                        continue;
                    }
                    let node = input.cluster.node_of(*slot);
                    if pass == 0 && used_nodes.contains(&node) {
                        continue;
                    }
                    used_nodes.push(node);
                    worker_slots.push(*slot);
                }
            }

            // Pack executors: same executor-index across *adjacent*
            // components shares a worker. With contiguous per-component
            // executor indices, `index-within-component mod workers`
            // realises the pairing described in the DEBS'13 paper.
            let mut per_component_counter: HashMap<ComponentId, usize> = HashMap::new();
            for idx in exec_idxs {
                let info = &input.executors[*idx];
                let within = per_component_counter.entry(info.component).or_insert(0);
                let worker = *within % worker_slots.len();
                *within += 1;
                let slot = worker_slots[worker];
                slot_taken[slot.as_usize()] = true;
                assignment.assign(info.id, slot);
            }
            // Mark any chosen-but-unused worker slots as free again.
            for slot in &worker_slots {
                if assignment.executors_on_slot(*slot).is_empty() {
                    slot_taken[slot.as_usize()] = false;
                }
            }
        }
        if self.explain {
            let mut explanation = ScheduleExplanation::new(self.name());
            explanation.notes.push(
                "graph-based packing: same executor index across adjacent \
                 components shares a worker; runtime traffic ignored"
                    .to_owned(),
            );
            explanation.decisions = decisions_from_assignment(
                input,
                &assignment,
                "topology-graph pairing, traffic-oblivious",
            );
            self.explanation = Some(explanation);
        }
        Ok(assignment)
    }
}

/// The DEBS'13 *online* scheduler: two-phase traffic-greedy packing.
///
/// Both phases are *load-oblivious*: they read only the traffic matrix,
/// the executor/topology structure and the cluster's slots. Every
/// [`Scheduler::schedule`] call runs both phases from scratch.
#[derive(Debug, Clone)]
pub struct AnielloOnlineScheduler {
    fallback_to_default: bool,
    explain: bool,
    explanation: Option<ScheduleExplanation>,
}

impl AnielloOnlineScheduler {
    /// Creates the scheduler with the published fallback behaviour (see
    /// module docs).
    #[must_use]
    pub fn new() -> Self {
        Self {
            fallback_to_default: true,
            explain: false,
            explanation: None,
        }
    }

    /// Disables the fall-back-to-default quirk; topologies without traffic
    /// are packed by executor order instead.
    #[must_use]
    pub fn without_fallback(mut self) -> Self {
        self.fallback_to_default = false;
        self
    }
}

impl Default for AnielloOnlineScheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl Scheduler for AnielloOnlineScheduler {
    fn name(&self) -> &'static str {
        "aniello-online"
    }

    fn set_explain(&mut self, on: bool) {
        self.explain = on;
    }

    fn take_explanation(&mut self) -> Option<ScheduleExplanation> {
        self.explanation.take()
    }

    fn schedule(&mut self, input: &SchedulingInput) -> Result<Assignment> {
        self.explanation = None;
        // Reproduced quirk: with no traffic data at all, the original
        // implementation used Storm's default scheduler.
        if self.fallback_to_default && input.traffic.is_empty() {
            let mut fallback = RoundRobinScheduler::storm_default();
            let assignment = fallback.schedule(input)?;
            if self.explain {
                let mut explanation = ScheduleExplanation::new(self.name());
                explanation.notes.push(
                    "no recorded traffic: fell back to Storm's default \
                     round-robin scheduler (reproduced DEBS'13 quirk)"
                        .to_owned(),
                );
                explanation.decisions = decisions_from_assignment(
                    input,
                    &assignment,
                    "default-scheduler fallback, traffic-blind",
                );
                self.explanation = Some(explanation);
            }
            return Ok(assignment);
        }

        let mut assignment = Assignment::new();
        let mut slot_taken = dead_slots_taken(input);

        let mut by_topology: BTreeMap<TopologyId, Vec<usize>> = BTreeMap::new();
        for (idx, e) in input.executors.iter().enumerate() {
            by_topology.entry(e.topology).or_default().push(idx);
        }

        for (topology, exec_idxs) in &by_topology {
            let requested = input.params.workers_for(*topology) as usize;
            let free_slots = slot_taken.iter().filter(|t| !**t).count();
            if free_slots == 0 {
                return Err(TStormError::infeasible(
                    self.name(),
                    format!("no free slots for {topology}"),
                ));
            }
            let num_workers = requested.min(exec_idxs.len()).min(free_slots).max(1);
            // Balance cap: ceil(executors / workers), the DEBS'13 paper's
            // per-worker load balance requirement (by executor count).
            let per_worker_cap = exec_idxs.len().div_ceil(num_workers);

            // Phase 1: executors -> workers.
            let worker_of = phase1_pack(input, exec_idxs, num_workers, per_worker_cap);

            // Phase 2: workers -> slots (grouping heavy worker pairs onto
            // the same node when balance allows).
            let worker_slots =
                phase2_place(input, exec_idxs, &worker_of, num_workers, &mut slot_taken)
                    .ok_or_else(|| {
                        TStormError::infeasible(
                            self.name(),
                            format!("not enough free slots for {topology}"),
                        )
                    })?;

            for (pos, idx) in exec_idxs.iter().enumerate() {
                let w = worker_of[pos];
                assignment.assign(input.executors[*idx].id, worker_slots[w]);
            }
        }
        if self.explain {
            let mut explanation = ScheduleExplanation::new(self.name());
            explanation.notes.push(
                "two-phase greedy: heaviest executor pairs packed into \
                 workers under a balance cap, then heaviest worker pairs \
                 placed onto nodes"
                    .to_owned(),
            );
            explanation.decisions =
                decisions_from_assignment(input, &assignment, "measured-traffic greedy pairing");
            self.explanation = Some(explanation);
        }
        Ok(assignment)
    }
}

/// The initial slot-occupancy vector: slots on dead nodes start out
/// "taken" so neither phase places a worker there.
fn dead_slots_taken(input: &SchedulingInput) -> Vec<bool> {
    let mut taken = vec![false; input.cluster.num_slots()];
    for s in input.cluster.slots() {
        if !input.cluster.is_node_live(s.node) {
            taken[s.slot.as_usize()] = true;
        }
    }
    taken
}

/// Phase 1: pack a topology's executors into `num_workers` workers,
/// heaviest-traffic pairs first, respecting the per-worker executor cap.
/// Returns the worker index of each executor (positional, aligned with
/// `exec_idxs`).
fn phase1_pack(
    input: &SchedulingInput,
    exec_idxs: &[usize],
    num_workers: usize,
    per_worker_cap: usize,
) -> Vec<usize> {
    let pos_of: HashMap<ExecutorId, usize> = exec_idxs
        .iter()
        .enumerate()
        .map(|(pos, idx)| (input.executors[*idx].id, pos))
        .collect();

    // Collect undirected pairs internal to this topology.
    let mut pairs: Vec<(f64, usize, usize)> = Vec::new();
    let mut seen: HashMap<(usize, usize), f64> = HashMap::new();
    for (from, to, rate) in input.traffic.iter() {
        if let (Some(&a), Some(&b)) = (pos_of.get(&from), pos_of.get(&to)) {
            let key = if a < b { (a, b) } else { (b, a) };
            *seen.entry(key).or_insert(0.0) += rate;
        }
    }
    for ((a, b), rate) in seen {
        pairs.push((rate, a, b));
    }
    pairs.sort_by(|x, y| {
        y.0.partial_cmp(&x.0)
            .expect("rates are finite")
            .then((x.1, x.2).cmp(&(y.1, y.2)))
    });

    let mut worker_of: Vec<Option<usize>> = vec![None; exec_idxs.len()];
    let mut worker_count = vec![0usize; num_workers];

    let least_loaded = |counts: &[usize]| -> usize {
        counts
            .iter()
            .enumerate()
            .min_by_key(|(i, c)| (**c, *i))
            .map(|(i, _)| i)
            .expect("at least one worker")
    };

    for (_, a, b) in pairs {
        match (worker_of[a], worker_of[b]) {
            (None, None) => {
                let w = least_loaded(&worker_count);
                if worker_count[w] + 2 <= per_worker_cap {
                    worker_of[a] = Some(w);
                    worker_of[b] = Some(w);
                    worker_count[w] += 2;
                } else {
                    worker_of[a] = Some(w);
                    worker_count[w] += 1;
                    let w2 = least_loaded(&worker_count);
                    worker_of[b] = Some(w2);
                    worker_count[w2] += 1;
                }
            }
            (Some(w), None) => {
                let target = if worker_count[w] < per_worker_cap {
                    w
                } else {
                    least_loaded(&worker_count)
                };
                worker_of[b] = Some(target);
                worker_count[target] += 1;
            }
            (None, Some(w)) => {
                let target = if worker_count[w] < per_worker_cap {
                    w
                } else {
                    least_loaded(&worker_count)
                };
                worker_of[a] = Some(target);
                worker_count[target] += 1;
            }
            (Some(_), Some(_)) => {}
        }
    }
    // Executors with no traffic: least-loaded worker.
    for slot in worker_of.iter_mut() {
        if slot.is_none() {
            let w = least_loaded(&worker_count);
            *slot = Some(w);
            worker_count[w] += 1;
        }
    }
    worker_of
        .into_iter()
        .map(|w| w.expect("all placed"))
        .collect()
}

/// Phase 2: place `num_workers` workers onto free slots, pairing workers
/// with heavy mutual traffic onto the same node when the per-node worker
/// balance cap allows. Returns the slot of each worker, or `None` if the
/// cluster has too few free slots.
fn phase2_place(
    input: &SchedulingInput,
    exec_idxs: &[usize],
    worker_of: &[usize],
    num_workers: usize,
    slot_taken: &mut [bool],
) -> Option<Vec<SlotId>> {
    let pos_of: HashMap<ExecutorId, usize> = exec_idxs
        .iter()
        .enumerate()
        .map(|(pos, idx)| (input.executors[*idx].id, pos))
        .collect();

    // Inter-worker traffic.
    let mut wtraffic: HashMap<(usize, usize), f64> = HashMap::new();
    for (from, to, rate) in input.traffic.iter() {
        if let (Some(&a), Some(&b)) = (pos_of.get(&from), pos_of.get(&to)) {
            let (wa, wb) = (worker_of[a], worker_of[b]);
            if wa != wb {
                let key = if wa < wb { (wa, wb) } else { (wb, wa) };
                *wtraffic.entry(key).or_insert(0.0) += rate;
            }
        }
    }
    let mut wpairs: Vec<(f64, usize, usize)> =
        wtraffic.into_iter().map(|((a, b), r)| (r, a, b)).collect();
    wpairs.sort_by(|x, y| {
        y.0.partial_cmp(&x.0)
            .expect("rates are finite")
            .then((x.1, x.2).cmp(&(y.1, y.2)))
    });

    let k = input.cluster.num_nodes();
    let per_node_cap = num_workers.div_ceil(k).max(1);
    let mut node_of_worker: Vec<Option<usize>> = vec![None; num_workers];
    let mut node_workers = vec![0usize; k];

    let free_on_node = |node: usize, taken: &[bool]| -> Option<SlotId> {
        input
            .cluster
            .slots_of(tstorm_types::NodeId::new(node as u32))
            .find(|s| !taken[s.slot.as_usize()])
            .map(|s| s.slot)
    };
    let least_loaded_node = |nw: &[usize], taken: &[bool]| -> Option<usize> {
        (0..k)
            .filter(|n| free_on_node(*n, taken).is_some())
            .min_by_key(|n| (nw[*n], *n))
    };

    let mut slots: Vec<Option<SlotId>> = vec![None; num_workers];
    let pin = |w: usize,
               node: usize,
               node_of_worker: &mut Vec<Option<usize>>,
               node_workers: &mut Vec<usize>,
               slots: &mut Vec<Option<SlotId>>,
               slot_taken: &mut [bool]|
     -> bool {
        if let Some(slot) = free_on_node(node, slot_taken) {
            node_of_worker[w] = Some(node);
            node_workers[node] += 1;
            slots[w] = Some(slot);
            slot_taken[slot.as_usize()] = true;
            true
        } else {
            false
        }
    };

    for (_, wa, wb) in wpairs {
        match (node_of_worker[wa], node_of_worker[wb]) {
            (None, None) => {
                let n = least_loaded_node(&node_workers, slot_taken)?;
                if !pin(
                    wa,
                    n,
                    &mut node_of_worker,
                    &mut node_workers,
                    &mut slots,
                    slot_taken,
                ) {
                    return None;
                }
                let n2 = if node_workers[n] < per_node_cap && free_on_node(n, slot_taken).is_some()
                {
                    n
                } else {
                    least_loaded_node(&node_workers, slot_taken)?
                };
                if !pin(
                    wb,
                    n2,
                    &mut node_of_worker,
                    &mut node_workers,
                    &mut slots,
                    slot_taken,
                ) {
                    return None;
                }
            }
            (Some(n), None) => {
                let target =
                    if node_workers[n] < per_node_cap && free_on_node(n, slot_taken).is_some() {
                        n
                    } else {
                        least_loaded_node(&node_workers, slot_taken)?
                    };
                if !pin(
                    wb,
                    target,
                    &mut node_of_worker,
                    &mut node_workers,
                    &mut slots,
                    slot_taken,
                ) {
                    return None;
                }
            }
            (None, Some(n)) => {
                let target =
                    if node_workers[n] < per_node_cap && free_on_node(n, slot_taken).is_some() {
                        n
                    } else {
                        least_loaded_node(&node_workers, slot_taken)?
                    };
                if !pin(
                    wa,
                    target,
                    &mut node_of_worker,
                    &mut node_workers,
                    &mut slots,
                    slot_taken,
                ) {
                    return None;
                }
            }
            (Some(_), Some(_)) => {}
        }
    }
    for w in 0..num_workers {
        if slots[w].is_none() {
            let n = least_loaded_node(&node_workers, slot_taken)?;
            if !pin(
                w,
                n,
                &mut node_of_worker,
                &mut node_workers,
                &mut slots,
                slot_taken,
            ) {
                return None;
            }
        }
    }
    Some(slots.into_iter().map(|s| s.expect("all placed")).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{ExecutorInfo, SchedParams, TrafficMatrix};
    use crate::quality::AssignmentQuality;
    use tstorm_cluster::ClusterSpec;
    use tstorm_types::{Mhz, NodeId};

    fn e(id: u32) -> ExecutorId {
        ExecutorId::new(id)
    }

    fn exec(id: u32, topo: u32, comp: u32) -> ExecutorInfo {
        ExecutorInfo::new(
            e(id),
            TopologyId::new(topo),
            ComponentId::new(comp),
            Mhz::new(50.0),
        )
    }

    fn chain_input(workers: u32) -> SchedulingInput {
        // Two components x 2 executors each, chained pairwise:
        // 0 -> 2 heavy, 1 -> 3 heavy.
        let cluster = ClusterSpec::homogeneous(2, 4, Mhz::new(4000.0)).unwrap();
        let executors = vec![exec(0, 0, 0), exec(1, 0, 0), exec(2, 0, 1), exec(3, 0, 1)];
        let mut traffic = TrafficMatrix::new();
        traffic.set(e(0), e(2), 900.0);
        traffic.set(e(1), e(3), 800.0);
        traffic.set(e(0), e(3), 10.0);
        SchedulingInput::new(
            cluster,
            executors,
            traffic,
            SchedParams::default().with_workers(TopologyId::new(0), workers),
        )
        .with_component_edges(vec![(
            TopologyId::new(0),
            ComponentId::new(0),
            ComponentId::new(1),
        )])
    }

    #[test]
    fn online_colocates_heavy_pairs() {
        let input = chain_input(2);
        let mut s = AnielloOnlineScheduler::new();
        let a = s.schedule(&input).expect("feasible");
        assert_eq!(a.slot_of(e(0)), a.slot_of(e(2)));
        assert_eq!(a.slot_of(e(1)), a.slot_of(e(3)));
        assert_ne!(a.slot_of(e(0)), a.slot_of(e(1)));
    }

    #[test]
    fn online_respects_worker_count_balance() {
        let input = chain_input(2);
        let mut s = AnielloOnlineScheduler::new();
        let a = s.schedule(&input).expect("feasible");
        for slot in a.slots_used() {
            assert_eq!(a.executors_on_slot(slot).len(), 2);
        }
    }

    #[test]
    fn online_falls_back_to_default_without_traffic() {
        let mut input = chain_input(2);
        input.traffic = TrafficMatrix::new();
        let mut s = AnielloOnlineScheduler::new();
        let a = s.schedule(&input).expect("feasible");
        // Default round-robin spreads workers over both nodes.
        assert_eq!(a.nodes_used(&input.cluster).len(), 2);
        // And the non-fallback variant still schedules.
        let mut s2 = AnielloOnlineScheduler::new().without_fallback();
        let a2 = s2.schedule(&input).expect("feasible");
        assert_eq!(a2.len(), 4);
    }

    #[test]
    fn online_reduces_traffic_vs_default() {
        let input = chain_input(2);
        let mut online = AnielloOnlineScheduler::new();
        let mut default = RoundRobinScheduler::storm_default();
        let qa = AssignmentQuality::evaluate(&online.schedule(&input).unwrap(), &input);
        let qd = AssignmentQuality::evaluate(&default.schedule(&input).unwrap(), &input);
        let online_cut = qa.inter_node_traffic + qa.inter_process_traffic;
        let default_cut = qd.inter_node_traffic + qd.inter_process_traffic;
        assert!(
            online_cut <= default_cut,
            "online {online_cut} vs default {default_cut}"
        );
    }

    #[test]
    fn offline_pairs_adjacent_components_by_index() {
        let input = chain_input(2);
        let mut s = AnielloOfflineScheduler::new();
        let a = s.schedule(&input).expect("feasible");
        // Executor 0 (comp0 idx0) with executor 2 (comp1 idx0).
        assert_eq!(a.slot_of(e(0)), a.slot_of(e(2)));
        assert_eq!(a.slot_of(e(1)), a.slot_of(e(3)));
    }

    #[test]
    fn offline_ignores_traffic() {
        // Reversing the heavy pairs does not change the offline result.
        let mut input = chain_input(2);
        let mut s = AnielloOfflineScheduler::new();
        let a1 = s.schedule(&input).expect("feasible");
        input.traffic = TrafficMatrix::new();
        let a2 = s.schedule(&input).expect("feasible");
        assert_eq!(a1, a2);
    }

    #[test]
    fn online_all_executors_assigned() {
        let input = chain_input(3);
        let mut s = AnielloOnlineScheduler::new();
        let a = s.schedule(&input).expect("feasible");
        assert_eq!(a.len(), 4);
    }

    #[test]
    fn reused_scheduler_matches_a_fresh_one() {
        let base = chain_input(2);
        let scaled = |factor: f64| {
            let mut input = base.clone();
            for info in &mut input.executors {
                info.load = Mhz::new(info.load.get() * factor);
            }
            input
        };
        let mut traffic_changed = base.clone();
        traffic_changed.traffic.set(e(0), e(2), 5.0);
        let mut dead_node = base.clone();
        dead_node.cluster.set_node_live(NodeId::new(1), false);
        // No traffic at all: the round-robin fallback.
        let mut silent = base.clone();
        silent.traffic = TrafficMatrix::new();

        // Loads past node capacity (4,000 MHz) take the same path: the
        // algorithm never reads them.
        let inputs = [
            base.clone(),
            base.clone(),
            scaled(3.5),
            scaled(100.0),
            traffic_changed,
            dead_node,
            silent.clone(),
            silent,
            chain_input(3),
        ];
        let mut reused = AnielloOnlineScheduler::new();
        for (i, input) in inputs.iter().enumerate() {
            let a = reused.schedule(input).expect("feasible");
            let mut fresh = AnielloOnlineScheduler::new();
            assert_eq!(a, fresh.schedule(input).expect("feasible"), "input {i}");
        }
    }

    #[test]
    fn infeasible_without_slots() {
        let cluster = ClusterSpec::homogeneous(1, 1, Mhz::new(4000.0)).unwrap();
        let executors = vec![exec(0, 0, 0), exec(1, 1, 0)];
        let mut traffic = TrafficMatrix::new();
        traffic.set(e(0), e(1), 1.0);
        let input = SchedulingInput::new(cluster, executors, traffic, SchedParams::default());
        let mut s = AnielloOnlineScheduler::new();
        // Both topologies need a worker but only one slot exists; phase 2
        // fails for the second topology.
        assert!(s.schedule(&input).is_err());
    }
}
