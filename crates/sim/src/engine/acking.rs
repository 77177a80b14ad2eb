//! Acking: owns the in-flight ack-tree roots, and decides when a root
//! completes, times out, replays or fails for good.

use super::{Lineage, PayloadId, RootState, Simulation};
use crate::event::{Envelope, EnvelopeKind, Event};
use tstorm_trace::{SpanSeg, SpanTree, TraceEvent, NO_SPAN};
use tstorm_types::{ExecutorId, NodeId, SimTime, SlabHandle, TupleId};

/// Most cleared span trees kept for reuse. Only roots in flight at once
/// need a tree, so a steady run cycles a handful; the cap stops a burst
/// of timeouts from pinning its trees for the rest of the run.
const SPAN_TREE_POOL_CAP: usize = 1 << 10;

impl Simulation {
    pub(super) fn finish_spout_emission(
        &mut self,
        id: ExecutorId,
        mut outputs: Vec<PayloadId>,
        replays: u32,
        replay_queued_at: Option<SimTime>,
    ) {
        let idx = id.as_usize();
        let payload = outputs.first().copied().unwrap_or(PayloadId::EMPTY);
        let topo_idx = self.executors[idx].topo_idx;
        let root_id = TupleId::new(self.next_tuple);
        self.next_tuple += 1;
        self.emitted += 1;
        self.emit_trace(|| TraceEvent::TupleEmit {
            tuple: root_id.get(),
            executor: idx as u32,
        });

        let has_ackers = !self.topologies[topo_idx].ackers.is_empty();
        let acker = if has_ackers {
            let ackers = &self.topologies[topo_idx].ackers;
            Some(ackers[(splitmix(root_id.get()) % ackers.len() as u64) as usize])
        } else {
            None
        };

        let emit_at = self.clock;
        let component = self.executors[idx].component;
        // A replayed emission seeds its span tree with the replay wait
        // (timeout → re-emission); the root's latency interval itself
        // starts here at `emit_at`, so the replay segment sits outside
        // the queue+service+network sum.
        let mut spans = SpanTree::default();
        let mut span = NO_SPAN;
        if self.spans.is_some() {
            spans = self.span_pool.pop().unwrap_or_default();
            if let Some(queued_at) = replay_queued_at {
                let node = self.placement[idx]
                    .slot
                    .map_or(NodeId::new(0), |s| self.cluster.node_of(s));
                let waited = self.span_micros(emit_at, queued_at);
                span = spans.extend(NO_SPAN, SpanSeg::replay(id, node, waited));
            }
        }
        // A root that may replay holds its payload, as every routed
        // envelope does: one slot, no copy.
        let replay_copy = if replays < self.config.max_replays {
            payload
        } else {
            PayloadId::EMPTY
        };
        self.payloads.hold(replay_copy);
        // Insert before routing so envelopes can carry the slab handle;
        // no trace/RNG activity happens here, so emission order is
        // unchanged relative to routing.
        let handle = self.roots.insert(RootState {
            id: root_id,
            spout: id,
            emit_at,
            xor: 0,
            init_seen: false,
            payload: replay_copy,
            replays,
            acker,
            outstanding: 0,
            spans,
            lost: false,
        });
        let (xor, count) = self.route_outputs(
            id,
            topo_idx,
            component,
            Lineage {
                root: Some(root_id),
                root_handle: Some(handle),
                span,
            },
            &mut outputs,
        );
        self.recycle_outputs(outputs);
        if let Some(root) = self.roots.get_mut(handle) {
            root.outstanding = count as i64;
        }

        if count == 0 {
            // Terminal spout (no consumers): complete instantly.
            self.complete_root(handle, span);
            return;
        }

        if let Some(acker) = acker {
            self.send_control(
                id,
                acker,
                EnvelopeKind::AckerInit { xor },
                root_id,
                Some(handle),
                span,
            );
        }
        let timeout = self.topologies[topo_idx].message_timeout;
        self.queue
            .push(emit_at + timeout, Event::TupleTimeout(handle));
    }

    pub(super) fn finish_message(
        &mut self,
        id: ExecutorId,
        env: &Envelope,
        mut outputs: Vec<PayloadId>,
        span: u32,
    ) {
        let idx = id.as_usize();
        let topo_idx = self.executors[idx].topo_idx;
        match env.kind {
            EnvelopeKind::Data => {
                let component = self.executors[idx].component;
                let (new_xor, count) = self.route_outputs(
                    id,
                    topo_idx,
                    component,
                    Lineage {
                        root: env.root,
                        root_handle: env.root_handle,
                        span,
                    },
                    &mut outputs,
                );
                if let (Some(root_id), Some(handle)) = (env.root, env.root_handle) {
                    let (acker, alive) = match self.roots.get_mut(handle) {
                        Some(r) => {
                            r.outstanding += count as i64 - 1;
                            (r.acker, true)
                        }
                        None => (None, false),
                    };
                    if alive {
                        if let Some(acker) = acker {
                            self.send_control(
                                id,
                                acker,
                                EnvelopeKind::AckerAck {
                                    xor: env.edge_id ^ new_xor,
                                },
                                root_id,
                                Some(handle),
                                span,
                            );
                        } else if self.roots.get(handle).is_some_and(|r| r.outstanding == 0) {
                            self.complete_root(handle, span);
                        }
                    }
                }
            }
            EnvelopeKind::AckerInit { xor } | EnvelopeKind::AckerAck { xor } => {
                let root_id = env.root.expect("acker messages carry a root");
                let handle = env.root_handle.expect("acker messages carry a root handle");
                if matches!(env.kind, EnvelopeKind::AckerAck { .. }) {
                    self.acks += 1;
                    self.emit_trace(|| TraceEvent::Ack {
                        tuple: root_id.get(),
                    });
                }
                let (done, spout) = match self.roots.get_mut(handle) {
                    Some(r) => {
                        r.xor ^= xor;
                        if matches!(env.kind, EnvelopeKind::AckerInit { .. }) {
                            r.init_seen = true;
                        }
                        (r.init_seen && r.xor == 0, r.spout)
                    }
                    None => (false, id), // already timed out
                };
                if done {
                    self.complete_root(handle, span);
                    self.send_control(id, spout, EnvelopeKind::Complete, root_id, None, NO_SPAN);
                }
            }
            EnvelopeKind::Complete => {}
        }
        self.recycle_outputs(outputs);
    }

    /// Retires a root whose ack tree closed; `span` is the completing
    /// message's newest step, whose path is the critical path.
    fn complete_root(&mut self, handle: SlabHandle, span: u32) {
        if let Some(root) = self.roots.remove(handle) {
            let root_id = root.id;
            let latency_ms = (self.clock - root.emit_at).as_millis_f64();
            if let Some(spans) = self.spans.as_mut() {
                spans.observe_root(root.emit_at, self.clock, root.spans.path(span));
            }
            self.payloads.release(root.payload);
            self.recycle_span_tree(root.spans);
            self.report.record_latency(self.clock, latency_ms);
            self.completed += 1;
            self.latency_sum_ms += latency_ms;
            self.emit_trace(|| TraceEvent::Complete {
                tuple: root_id.get(),
                latency_ms,
            });
            // Recovery latency: fault time → first completion under the
            // recovery placement (ISSUE metric definition).
            if self.recovery_reassigned {
                if let Some(fault_at) = self.recovery_fault_at.take() {
                    self.recovery_reassigned = false;
                    let recovery_ms = (self.clock - fault_at).as_millis_f64();
                    self.recovery_latencies.push(recovery_ms);
                    self.emit_trace(|| TraceEvent::RecoveryComplete {
                        latency_ms: recovery_ms,
                    });
                }
            }
        }
    }

    pub(super) fn on_timeout(&mut self, handle: SlabHandle) {
        let Some(root) = self.roots.remove(handle) else {
            return; // completed in time (generation-checked no-op)
        };
        let root_id = root.id;
        if !root.lost {
            self.recycle_span_tree(root.spans);
        }
        self.failed += 1;
        self.counters.failures += 1;
        self.report.failed.increment(self.clock);
        self.emit_trace(|| TraceEvent::Timeout {
            tuple: root_id.get(),
        });
        if root.replays < self.config.max_replays && !self.payloads.values(root.payload).is_empty()
        {
            // The root's hold passes to the replay-queue entry.
            let spout_idx = root.spout.as_usize();
            self.replays_triggered += 1;
            self.executors[spout_idx].replay_queue.push_back((
                root.payload,
                root.replays + 1,
                self.clock,
            ));
            self.emit_trace(|| TraceEvent::Replay {
                tuple: root_id.get(),
            });
            if self.is_available(spout_idx) {
                self.schedule_tick(root.spout, self.clock);
            }
        } else {
            // No replay possible (the cap is exhausted, or is 0):
            // the tuple is permanently failed, not just late.
            self.payloads.release(root.payload);
            self.perm_failed += 1;
            let replays = u64::from(root.replays);
            self.emit_trace(|| TraceEvent::TupleFailed {
                tuple: root_id.get(),
                replays,
            });
        }
    }

    /// Records `seg` after step `parent` in the span tree of `root`, and
    /// returns the new step. A message whose root has already completed,
    /// timed out or lost a tuple (or that has no root handle) gets
    /// [`NO_SPAN`].
    pub(super) fn record_span(
        &mut self,
        root: Option<SlabHandle>,
        parent: u32,
        seg: SpanSeg,
    ) -> u32 {
        match root.and_then(|h| self.roots.get_mut(h)) {
            Some(r) if !r.lost => r.spans.extend(parent, seg),
            _ => NO_SPAN,
        }
    }

    /// Returns a retired root's span tree to the pool, cleared.
    pub(super) fn recycle_span_tree(&mut self, mut tree: SpanTree) {
        if self.spans.is_none() || self.span_pool.len() >= SPAN_TREE_POOL_CAP {
            return;
        }
        tree.clear();
        self.span_pool.push(tree);
    }
}

/// SplitMix64: cheap, well-mixed ids for ack-tree edges.
pub(super) fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
