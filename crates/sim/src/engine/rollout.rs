//! Rollout: owns the assignment in force and the per-node worker
//! counts, and decides which executors an assignment stops, moves or
//! restarts.

use super::Simulation;
use crate::event::Event;
use std::collections::BTreeSet;
use tstorm_cluster::{Assignment, AssignmentDiff};
use tstorm_trace::TraceEvent;
use tstorm_types::{ExecutorId, FxHashSet, NodeId, SlabHandle, SlotId, TopologyId};

/// What a per-node assignment apply would change: executors moving onto
/// the node (with their target slot) and executors leaving it.
type NodeSliceChanges = (Vec<(ExecutorId, SlotId)>, Vec<ExecutorId>);

impl Simulation {
    /// Applies an assignment immediately (the initial schedule): all
    /// executors relocate, workers start after the configured startup
    /// delay, spouts begin emitting once their worker is ready.
    pub fn apply_assignment(&mut self, assignment: &Assignment) {
        let old_slots = self.current.slots_used();
        let diff = self.current.diff(assignment);
        let ready_at = self.clock + self.config.reassign.worker_startup;
        for i in 0..self.executors.len() {
            let id = ExecutorId::new(i as u32);
            let slot = assignment.slot_of(id);
            self.placement[i].slot = slot;
            if slot.is_some() {
                self.executors[i].paused_until = Some(ready_at);
                self.queue.push(ready_at, Event::ExecutorResume(id));
            }
        }
        self.current = assignment.clone();
        self.note_assignment_change(&old_slots, &diff);
        self.recompute_node_stats();
        self.record_usage();
    }

    /// Counts a just-applied assignment and emits its worker/assignment
    /// trace events (`self.current` must already hold it).
    fn note_assignment_change(&mut self, old_slots: &BTreeSet<SlotId>, diff: &AssignmentDiff) {
        self.assignment_version += 1;
        let version = self.assignment_version;
        self.emit_trace(|| TraceEvent::AssignmentApplied {
            version,
            moved: diff.moved.len() as u64,
            added: diff.added.len() as u64,
            removed: diff.removed.len() as u64,
        });
        let new_slots = self.current.slots_used();
        for slot in new_slots.difference(old_slots) {
            let node = self.cluster.node_of(*slot).index();
            let worker = slot.index();
            self.emit_trace(|| TraceEvent::WorkerStart { node, worker });
        }
        for slot in old_slots.difference(&new_slots) {
            let node = self.cluster.node_of(*slot).index();
            let worker = slot.index();
            self.emit_trace(|| TraceEvent::WorkerStop { node, worker });
        }
        // A fault is pending recovery: the first assignment that places
        // or moves executors afterwards is the recovery placement.
        let placed = (diff.added.len() + diff.moved.len()) as u64;
        if self.recovery_fault_at.is_some() && !self.recovery_reassigned && placed > 0 {
            self.recovery_reassigned = true;
            self.recovery_reassignments += 1;
            self.emit_trace(|| TraceEvent::ExecutorsReassigned {
                version,
                count: placed,
            });
        }
    }

    /// Submits a new assignment to Nimbus; supervisors pick it up at their
    /// next poll and roll it out with Storm 0.8's kill-and-restart: every
    /// worker whose executor set changed is killed and restarted, and
    /// its queued and in-flight tuples are lost.
    pub fn submit_assignment(&mut self, assignment: &Assignment) {
        self.pending = Some(assignment.clone());
    }

    /// Applies the slice of `target` that one node's supervisor is
    /// responsible for, leaving every other node on whatever epoch it
    /// last applied — the per-node half of a staggered rollout, with
    /// T-Storm's smooth switch (Section IV-D, scoped to one node): the
    /// node's new workers pre-start, every spout halts until they are
    /// ready, and the node's locations switch in one step once the
    /// startup delay elapses, so no tuple is lost.
    ///
    /// The node picks up executors whose *new* slot lives on it
    /// (including executors currently unplaced or hosted elsewhere) and
    /// retires executors it currently hosts that `target` no longer
    /// places anywhere. Executors moving *off* this node to another one
    /// are left alone: the destination node's own apply collects them,
    /// so mid-rollout the cluster briefly runs a mix of epochs, as real
    /// Storm supervisors do.
    ///
    /// Returns `true` when the slice actually changed placements (which
    /// also counts as a reassignment); a no-op apply — the node was
    /// already running its slice of `target` — returns `false`.
    pub fn apply_assignment_for_node(&mut self, node: NodeId, target: &Assignment) -> bool {
        if self.node_slice_changes(node, target).is_none() {
            return false;
        }
        self.reassignments += 1;
        let switch_at = self.clock + self.config.reassign.worker_startup;
        let resume_at = switch_at + self.config.reassign.spout_halt_extra;
        for e in &mut self.executors {
            if e.is_spout && e.alive {
                e.spout_halt_until = e.spout_halt_until.max(resume_at);
            }
        }
        self.node_switching_to[node.as_usize()] = Some(target.clone());
        self.queue.push(switch_at, Event::NodeLocationSwitch(node));
        true
    }

    /// The executors a per-node apply would touch: `(incoming, retired)`
    /// — or `None` when the node already runs its slice of `target`.
    fn node_slice_changes(&self, node: NodeId, target: &Assignment) -> Option<NodeSliceChanges> {
        let mut incoming = Vec::new();
        let mut retired = Vec::new();
        for (i, (e, placed)) in self.executors.iter().zip(&self.placement).enumerate() {
            if !e.alive {
                continue;
            }
            let id = ExecutorId::new(i as u32);
            let new_slot = target.slot_of(id);
            match new_slot {
                Some(s) if self.cluster.node_of(s) == node => {
                    if placed.slot != Some(s) {
                        incoming.push((id, s));
                    }
                }
                None => {
                    if placed.slot.is_some_and(|s| self.cluster.node_of(s) == node) {
                        retired.push(id);
                    }
                }
                Some(_) => {} // moving to (or staying on) another node
            }
        }
        if incoming.is_empty() && retired.is_empty() {
            None
        } else {
            Some((incoming, retired))
        }
    }

    /// One node's smooth switch fires: apply its pending slice. The
    /// slice is recomputed against the *current* state so interleaved
    /// applies from other nodes (possibly of newer epochs) stay sound.
    pub(super) fn on_node_location_switch(&mut self, node: NodeId) {
        let Some(target) = self.node_switching_to[node.as_usize()].take() else {
            return;
        };
        let Some((incoming, retired)) = self.node_slice_changes(node, &target) else {
            return;
        };
        let before = self.current.clone();
        let old_slots = before.slots_used();
        for &(id, slot) in &incoming {
            self.placement[id.as_usize()].slot = Some(slot);
            self.current.assign(id, slot);
        }
        for &id in &retired {
            self.placement[id.as_usize()].slot = None;
            self.current.unassign(id);
        }
        let diff = before.diff(&self.current);
        self.note_assignment_change(&old_slots, &diff);
        self.recompute_node_stats();
        self.record_usage();
        // Kick the relocated executors awake under their new placement.
        for &(id, _) in &incoming {
            let i = id.as_usize();
            if self.is_available(i) {
                self.try_start(id);
                if self.executors[i].is_spout {
                    self.schedule_tick(id, self.executors[i].spout_halt_until);
                }
            }
        }
    }

    /// The assignment currently in force.
    #[must_use]
    pub fn current_assignment(&self) -> &Assignment {
        &self.current
    }

    /// Kills a topology: "a Storm 'job' continues on forever, unless it
    /// is killed by its user" (Section II). Its executors stop
    /// immediately, their queues and replay queues are dropped,
    /// in-flight tuples are discarded (counted in
    /// [`Simulation::dropped_in_flight`]; their pending roots are
    /// forgotten without counting as failures, see
    /// [`Simulation::forgotten`]), and their slots are freed for other
    /// topologies.
    pub fn kill_topology(&mut self, topology: TopologyId) {
        let topo_idx = topology.as_usize();
        for i in 0..self.executors.len() {
            if self.executors[i].topo_idx != topo_idx {
                continue;
            }
            self.dropped_in_flight += self.stop_executor(i);
            for (payload, ..) in std::mem::take(&mut self.executors[i].replay_queue) {
                self.payloads.release(payload);
            }
            self.executors[i].alive = false;
            self.placement[i].slot = None;
            self.current.unassign(ExecutorId::new(i as u32));
        }
        // Forget pending roots originating from the killed topology so
        // their timeouts become no-ops rather than spurious failures.
        let dead: Vec<SlabHandle> = self
            .roots
            .iter()
            .filter(|(_, r)| self.executors[r.spout.as_usize()].topo_idx == topo_idx)
            .map(|(h, _)| h)
            .collect();
        self.forgotten += dead.len() as u64;
        for h in dead {
            if let Some(root) = self.roots.remove(h) {
                self.payloads.release(root.payload);
            }
        }
        self.recompute_node_stats();
        self.record_usage();
    }

    /// Stops one executor's worker-side state, as a killed worker does:
    /// the in-service tuple, the input queue and the staged outbound
    /// batches are lost, and the epoch bump voids deliveries still in
    /// flight. Returns how many tuples were destroyed; the caller counts
    /// them.
    pub(super) fn stop_executor(&mut self, idx: usize) -> u64 {
        let mut lost = 0u64;
        if let Some(work) = self.executors[idx].busy.take() {
            self.release_cpu(work.busy_node);
            lost += 1;
            for payload in work.outputs {
                self.payloads.release(payload);
            }
            if let Some(env) = work.env {
                self.lose_tuple(&env);
                self.recycle_envelope(env);
            }
        }
        lost += self.drain_queue_to_pool(idx);
        lost += self.drop_pending_outbound(idx);
        self.placement[idx].epoch += 1;
        lost
    }

    pub(super) fn on_supervisor_poll(&mut self) {
        self.queue.push(
            self.clock + self.config.reassign.supervisor_poll,
            Event::SupervisorPoll,
        );
        if let Some(sample) = &mut self.queue_depth_sample {
            // Sample queue occupancy on the supervisor grid: cheap, and
            // frequent enough to catch sustained backlog.
            sample.clear();
            sample.extend(self.executors.iter().map(|e| e.queue.len()));
        }
        let Some(pending) = self.pending.take() else {
            return;
        };
        if pending == self.current {
            return;
        }
        self.reassignments += 1;
        self.rollout_immediate(&pending);
    }

    /// Storm 0.8 semantics: supervisors kill every worker whose executor
    /// set changed and start replacements; queued work and in-flight
    /// messages to those workers are lost.
    fn rollout_immediate(&mut self, new: &Assignment) {
        let old_slots = self.current.slots_used();
        let diff = self.current.diff(new);
        let ready_at = self.clock + self.config.reassign.worker_startup;
        for i in 0..self.executors.len() {
            let id = ExecutorId::new(i as u32);
            let old_slot = self.placement[i].slot;
            let new_slot = new.slot_of(id);
            let affected = old_slot != new_slot
                || old_slot.is_some_and(|s| diff.changed_slots.contains(&s))
                || new_slot.is_some_and(|s| diff.changed_slots.contains(&s));
            self.placement[i].slot = new_slot;
            if affected {
                self.dropped_in_flight += self.stop_executor(i);
                if new_slot.is_some() {
                    self.executors[i].paused_until = Some(ready_at);
                    self.queue.push(ready_at, Event::ExecutorResume(id));
                }
            }
        }
        self.current = new.clone();
        self.note_assignment_change(&old_slots, &diff);
        self.recompute_node_stats();
        self.record_usage();
    }

    pub(super) fn recompute_node_stats(&mut self) {
        let k = self.cluster.num_nodes();
        let mut located = vec![0u32; k];
        let mut slots_used: FxHashSet<SlotId> = FxHashSet::default();
        for placed in &self.placement {
            if let Some(slot) = placed.slot {
                located[self.cluster.node_of(slot).as_usize()] += 1;
                slots_used.insert(slot);
            }
        }
        let mut workers = vec![0u32; k];
        for slot in &slots_used {
            workers[self.cluster.node_of(*slot).as_usize()] += 1;
        }
        self.located_count = located;
        self.workers_on_node = workers;
    }

    pub(super) fn record_usage(&mut self) {
        let nodes = self.workers_on_node.iter().filter(|w| **w > 0).count() as u32;
        self.report.nodes_used.record(self.clock, nodes);
    }
}
