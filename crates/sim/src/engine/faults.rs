//! Faults: owns the fault-plan state (node liveness, muted heartbeats,
//! the Nimbus outage, the loss counts) and the path every lost tuple
//! takes, and decides whether an undelivered tuple is a crash loss or
//! relocation churn.

use super::Simulation;
use crate::event::{Envelope, Event};
use crate::fault::{FaultKind, FaultPlan};
use std::collections::BTreeMap;
use tstorm_cluster::ClusterSpec;
use tstorm_trace::TraceEvent;
use tstorm_types::{ExecutorId, NodeId, Result, SlotId, TStormError};

impl Simulation {
    /// Schedules every event of a [`FaultPlan`]. Crashes never restart
    /// in place: the engine drops the workers' state and marks node
    /// liveness, and recovery is the control plane's job (detect
    /// orphaned executors, re-run the scheduler, apply the new
    /// assignment). Node crashes with a `restart` rejoin later; NIC
    /// slowdowns restore automatically after their duration.
    ///
    /// # Errors
    ///
    /// Returns [`TStormError::InvalidConfig`] if a fault targets a node
    /// or node-local slot outside the cluster, or is dated before
    /// [`Simulation::now`] (a fault at `now` itself is fine). A rejected
    /// plan schedules nothing.
    pub fn apply_fault_plan(&mut self, plan: &FaultPlan) -> Result<()> {
        // Each fault is pushed before its paired restore, so a zero-length
        // window (`dur=0`, `restart=0`, or anything under 1 µs) still pops
        // fault-then-restore at the same instant and closes.
        let mut scheduled = Vec::with_capacity(2 * plan.len());
        for event in plan.events() {
            if event.at < self.clock {
                return Err(TStormError::invalid_config(
                    "--fault",
                    format!(
                        "{} at t={} µs is before the simulation clock at t={} µs",
                        event.kind.name(),
                        event.at.as_micros(),
                        self.clock.as_micros()
                    ),
                ));
            }
            if let Some(node) = event.kind.node() {
                if node.as_usize() >= self.cluster.num_nodes() {
                    return Err(TStormError::invalid_config(
                        "--fault",
                        format!(
                            "{} targets node {node}, but the cluster has {} nodes",
                            event.kind.name(),
                            self.cluster.num_nodes()
                        ),
                    ));
                }
            }
            let restore = match event.kind {
                FaultKind::WorkerCrash {
                    node, local_slot, ..
                } => {
                    let slots = self.cluster.node(node).num_slots;
                    if local_slot >= slots {
                        return Err(TStormError::invalid_config(
                            "--fault",
                            format!("node {node} has {slots} slots, no local slot {local_slot}"),
                        ));
                    }
                    None
                }
                FaultKind::NodeCrash {
                    node,
                    restart_after,
                } => restart_after.map(|after| (after, Event::NodeRestart(node))),
                FaultKind::NicSlowdown { node, duration, .. } => {
                    Some((duration, Event::NicRestore(node)))
                }
                FaultKind::NimbusCrash { duration } => Some((duration, Event::NimbusRestore)),
                FaultKind::HeartbeatLoss { node, duration } => {
                    Some((duration, Event::HeartbeatRestore(node)))
                }
            };
            scheduled.push((event.at, Event::Fault(event.kind.clone())));
            if let Some((after, restore)) = restore {
                scheduled.push((event.at + after, restore));
            }
        }
        for (at, event) in scheduled {
            self.queue.push(at, event);
        }
        Ok(())
    }

    /// The cluster as the simulator sees it, including node liveness
    /// updated by fault events.
    #[must_use]
    pub fn cluster(&self) -> &ClusterSpec {
        &self.cluster
    }

    /// True while a [`FaultKind::NimbusCrash`] window is open — the
    /// control plane must make no generation/recovery decisions.
    #[must_use]
    pub fn nimbus_down(&self) -> bool {
        self.nimbus_down
    }

    /// True while a [`FaultKind::HeartbeatLoss`] window mutes this
    /// node's heartbeat stream (the node itself keeps working).
    #[must_use]
    pub fn heartbeat_suppressed(&self, node: NodeId) -> bool {
        self.heartbeat_muted[node.as_usize()]
    }

    /// Live executors the current assignment does not place anywhere —
    /// the signal the control plane watches to detect that a crash
    /// orphaned executors and a recovery schedule is needed.
    #[must_use]
    pub fn unplaced_executors(&self) -> usize {
        self.executors
            .iter()
            .enumerate()
            .filter(|(i, e)| e.alive && self.current.slot_of(ExecutorId::new(*i as u32)).is_none())
            .count()
    }

    /// Fault-plan events fired so far.
    #[must_use]
    pub fn faults_injected(&self) -> u32 {
        self.faults.values().sum()
    }

    /// Fault-plan events fired so far, by [`FaultKind::name`], in name
    /// order.
    #[must_use]
    pub fn faults_by_kind(&self) -> &BTreeMap<&'static str, u32> {
        &self.faults
    }

    /// Occupied workers a crash stopped, whether or not they held
    /// tuples.
    #[must_use]
    pub fn crashed_workers(&self) -> u64 {
        self.crashed_workers
    }

    /// Tuples destroyed by fault-plan crashes: queued or in service at
    /// the crash instant, plus in-flight messages dropped because the
    /// crash left their destination (or source) unplaced. Routine drops
    /// from scheduler-driven relocation stay in
    /// [`Simulation::dropped_in_flight`].
    #[must_use]
    pub fn tuples_lost(&self) -> u64 {
        self.tuples_lost
    }

    /// Fault-to-first-completion latencies (ms) of recovered faults, in
    /// fault order.
    #[must_use]
    pub fn recovery_latencies(&self) -> &[f64] {
        &self.recovery_latencies
    }

    /// One fault-plan event fires. Crashes drop worker state and leave
    /// the victims unassigned — the monitoring loop notices at its next
    /// round and re-runs the scheduler against the shrunken cluster.
    pub(super) fn on_fault(&mut self, kind: &FaultKind) {
        let name = kind.name();
        *self.faults.entry(name).or_default() += 1;
        let node = kind.node();
        // Resolve a worker crash's slot exactly once: the `FaultInjected`
        // trace event and the crash below must name the same slot, and
        // `slots_of(..).nth(..)` is an O(slots) walk.
        let crashed_slot = match kind {
            FaultKind::WorkerCrash { node, local_slot } => Some(
                self.cluster
                    .slots_of(*node)
                    .nth(*local_slot as usize)
                    .map(|s| s.slot)
                    .expect("validated by apply_fault_plan"),
            ),
            _ => None,
        };
        let worker = crashed_slot.map(|s| s.index());
        self.emit_trace(|| TraceEvent::FaultInjected {
            kind: name.to_owned(),
            node: node.map(|n| n.index()),
            worker,
        });
        match kind {
            FaultKind::WorkerCrash { .. } => {
                let slot = crashed_slot.expect("resolved above for the trace event");
                self.recovery_fault_at = Some(self.clock);
                self.recovery_reassigned = false;
                self.crash_slot(slot);
                self.recompute_node_stats();
                self.record_usage();
            }
            FaultKind::NodeCrash { node, .. } => {
                self.cluster.set_node_live(*node, false);
                self.recovery_fault_at = Some(self.clock);
                self.recovery_reassigned = false;
                let slots: Vec<SlotId> = self.cluster.slots_of(*node).map(|s| s.slot).collect();
                for slot in slots {
                    self.crash_slot(slot);
                }
                self.recompute_node_stats();
                self.record_usage();
            }
            FaultKind::NicSlowdown { node, factor, .. } => {
                self.network.set_slow_factor(*node, *factor);
            }
            FaultKind::NimbusCrash { .. } => {
                self.nimbus_down = true;
            }
            FaultKind::HeartbeatLoss { node, .. } => {
                self.heartbeat_muted[node.as_usize()] = true;
            }
        }
    }

    /// Kills one worker process without restarting it: its executors'
    /// queued and in-service tuples are destroyed, in-flight messages to
    /// it will be dropped on delivery (epoch mismatch), and the
    /// executors stay unassigned until a future assignment places them.
    fn crash_slot(&mut self, slot: SlotId) {
        let victims: Vec<usize> = self
            .placement
            .iter()
            .enumerate()
            .filter(|(_, p)| p.slot == Some(slot))
            .map(|(i, _)| i)
            .collect();
        if victims.is_empty() {
            return; // empty slot: nothing to kill
        }
        self.crashed_workers += 1;
        {
            let node = self.cluster.node_of(slot).index();
            let worker = slot.index();
            self.emit_trace(|| TraceEvent::WorkerStop { node, worker });
        }
        let mut lost = 0u64;
        for i in victims {
            lost += self.stop_executor(i);
            self.placement[i].slot = None;
            self.executors[i].paused_until = None;
            self.current.unassign(ExecutorId::new(i as u32));
        }
        self.tuples_lost += lost;
    }

    /// The loss rule: where a tuple that will never be delivered is
    /// counted before it is lost ([`Simulation::lose_tuple`]). After a
    /// fault, a tuple whose endpoint is `unplaced` was destroyed by a
    /// crash that orphaned it ([`Simulation::tuples_lost`]); anything
    /// else is routine relocation churn
    /// ([`Simulation::dropped_in_flight`]).
    pub(super) fn drop_undeliverable(&mut self, env: &Envelope, unplaced: bool) {
        if unplaced && !self.faults.is_empty() {
            self.tuples_lost += 1;
        } else {
            self.dropped_in_flight += 1;
        }
        self.lose_tuple(env);
    }

    /// The one path of a tuple that will never be delivered or finish
    /// its service: its payload hold is released. Its root can only time
    /// out now, so its span tree would never be folded: with spans on,
    /// the tree goes back to the pool at once and the root is marked
    /// lost, so that nothing records into it again.
    pub(super) fn lose_tuple(&mut self, env: &Envelope) {
        self.payloads.release(env.payload);
        let root = env.root_handle.and_then(|h| self.roots.get_mut(h));
        if let Some(root) = root.filter(|r| self.spans.is_some() && !r.lost) {
            root.lost = true;
            let tree = std::mem::take(&mut root.spans);
            self.recycle_span_tree(tree);
        }
    }

    /// A crashed node rejoins: its slots become schedulable again. No
    /// executors move here — the next schedule generation may use it.
    pub(super) fn on_node_restart(&mut self, node: NodeId) {
        self.cluster.set_node_live(node, true);
        self.emit_trace(|| TraceEvent::FaultInjected {
            kind: "node_restart".to_owned(),
            node: Some(node.index()),
            worker: None,
        });
    }

    /// A Nimbus-crash window ends: the control plane may generate and
    /// recover again from its next decision point onwards.
    pub(super) fn on_nimbus_restore(&mut self) {
        self.nimbus_down = false;
        self.emit_trace(|| TraceEvent::FaultInjected {
            kind: "nimbus_restored".to_owned(),
            node: None,
            worker: None,
        });
    }

    /// A heartbeat-loss window ends: the node's next heartbeat reaches
    /// Nimbus again and reconciliation can begin.
    pub(super) fn on_heartbeat_restore(&mut self, node: NodeId) {
        self.heartbeat_muted[node.as_usize()] = false;
        self.emit_trace(|| TraceEvent::FaultInjected {
            kind: "heartbeat_restored".to_owned(),
            node: Some(node.index()),
            worker: None,
        });
    }

    /// A transient NIC slowdown ends.
    pub(super) fn on_nic_restore(&mut self, node: NodeId) {
        self.network.set_slow_factor(node, 1.0);
        self.emit_trace(|| TraceEvent::FaultInjected {
            kind: "nic_restored".to_owned(),
            node: Some(node.index()),
            worker: None,
        });
    }
}
