//! Acking: owns the in-flight ack-tree roots, and decides when a root
//! completes, times out, replays or fails for good.

use super::{Lineage, RootState, Simulation};
use crate::event::{Envelope, EnvelopeKind, Event};
use tstorm_topology::SharedValues;
use tstorm_trace::{extend_span, SpanChain, SpanSeg, TraceEvent};
use tstorm_types::{ExecutorId, NodeId, SimTime, SlabHandle, TupleId};

impl Simulation {
    pub(super) fn finish_spout_emission(
        &mut self,
        id: ExecutorId,
        mut outputs: Vec<SharedValues>,
        replays: u32,
        replay_queued_at: Option<SimTime>,
    ) {
        let idx = id.as_usize();
        let values = outputs.pop().unwrap_or_else(|| self.empty_values.clone());
        let topo_idx = self.executors[idx].topo_idx;
        let root_id = TupleId::new(self.next_tuple);
        self.next_tuple += 1;
        self.emitted += 1;
        self.emit_trace(|| TraceEvent::TupleEmit {
            tuple: root_id.get(),
            executor: idx as u32,
        });
        self.observer.metrics(|m| {
            m.inc_counter(
                "tstorm_tuples_emitted_total",
                "Spout emissions, including replays",
                &[],
                1,
            );
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
        // Insert before routing so envelopes can carry the slab handle;
        // no trace/RNG activity happens here, so emission order is
        // unchanged relative to routing.
        let handle = self.roots.insert(RootState {
            id: root_id,
            spout: id,
            emit_at,
            xor: 0,
            init_seen: false,
            // Retaining the payload for replay is a refcount bump — the
            // root and every routed envelope share one allocation.
            values: values.clone(),
            replays,
            acker,
            outstanding: 0,
        });
        // A replayed emission seeds its chain with the replay wait
        // (timeout → re-emission); the root's latency interval itself
        // starts here at `emit_at`, so the replay segment sits outside
        // the queue+service+network sum.
        let mut chain: SpanChain = None;
        if self.spans.is_some() {
            if let Some(queued_at) = replay_queued_at {
                let node = self.executors[idx]
                    .location
                    .map_or(NodeId::new(0), |s| self.cluster.node_of(s));
                let waited = self.span_micros(emit_at, queued_at);
                chain = extend_span(&None, SpanSeg::replay(id, node, waited));
            }
        }
        outputs.clear();
        outputs.push(values);
        let (xor, count) = self.route_outputs(
            id,
            topo_idx,
            component,
            Lineage {
                root: Some(root_id),
                root_handle: Some(handle),
                chain: &chain,
            },
            &mut outputs,
        );
        self.recycle_outputs(outputs);
        if let Some(root) = self.roots.get_mut(handle) {
            root.outstanding = count as i64;
        }

        if count == 0 {
            // Terminal spout (no consumers): complete instantly.
            self.complete_root(handle, &chain);
            return;
        }

        if let Some(acker) = acker {
            self.send_control(
                id,
                acker,
                EnvelopeKind::AckerInit { xor },
                root_id,
                Some(handle),
                chain,
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
        mut outputs: Vec<SharedValues>,
        chain: SpanChain,
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
                        chain: &chain,
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
                                chain,
                            );
                        } else if self.roots.get(handle).is_some_and(|r| r.outstanding == 0) {
                            self.complete_root(handle, &chain);
                        }
                    }
                }
            }
            EnvelopeKind::AckerInit { xor } | EnvelopeKind::AckerAck { xor } => {
                let root_id = env.root.expect("acker messages carry a root");
                let handle = env.root_handle.expect("acker messages carry a root handle");
                if matches!(env.kind, EnvelopeKind::AckerAck { .. }) {
                    self.emit_trace(|| TraceEvent::Ack {
                        tuple: root_id.get(),
                    });
                    self.observer.metrics(|m| {
                        m.inc_counter(
                            "tstorm_acks_total",
                            "Ack-tree edges retired by ackers",
                            &[],
                            1,
                        );
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
                    self.complete_root(handle, &chain);
                    self.send_control(id, spout, EnvelopeKind::Complete, root_id, None, None);
                }
            }
            EnvelopeKind::Complete => {}
        }
        self.recycle_outputs(outputs);
    }

    fn complete_root(&mut self, handle: SlabHandle, chain: &SpanChain) {
        if let Some(root) = self.roots.remove(handle) {
            let root_id = root.id;
            let latency_ms = (self.clock - root.emit_at).as_millis_f64();
            if let Some(spans) = self.spans.as_mut() {
                spans.observe_root(root_id, root.emit_at, self.clock, chain);
            }
            self.report.record_latency(self.clock, latency_ms);
            self.completed += 1;
            self.emit_trace(|| TraceEvent::Complete {
                tuple: root_id.get(),
                latency_ms,
            });
            self.observer.metrics(|m| {
                m.inc_counter(
                    "tstorm_tuples_completed_total",
                    "Fully acked spout tuples",
                    &[],
                    1,
                );
                m.observe(
                    "tstorm_complete_latency_ms",
                    "End-to-end tuple completion latency",
                    &[],
                    latency_ms,
                );
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
                    self.observer.metrics(|m| {
                        m.observe(
                            "tstorm_recovery_latency_ms",
                            "Fault to first post-reassignment completion",
                            &[],
                            recovery_ms,
                        );
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
        self.failed += 1;
        self.counters.failures += 1;
        self.report.failed.increment(self.clock);
        self.emit_trace(|| TraceEvent::Timeout {
            tuple: root_id.get(),
        });
        self.observer.metrics(|m| {
            m.inc_counter(
                "tstorm_tuples_timeout_total",
                "Spout tuples whose message timeout expired",
                &[],
                1,
            );
        });
        if root.replays < self.config.max_replays && !root.values.is_empty() {
            let spout_idx = root.spout.as_usize();
            self.replays_triggered += 1;
            self.executors[spout_idx].replay_queue.push_back((
                root.values,
                root.replays + 1,
                self.clock,
            ));
            self.emit_trace(|| TraceEvent::Replay {
                tuple: root_id.get(),
            });
            self.observer.metrics(|m| {
                m.inc_counter(
                    "tstorm_tuples_replayed_total",
                    "Timed-out tuples queued for spout replay",
                    &[],
                    1,
                );
            });
            if self.is_available(spout_idx) {
                self.schedule_tick(root.spout, self.clock);
            }
        } else {
            // No replay possible (the cap is exhausted, or is 0):
            // the tuple is permanently failed, not just late.
            self.perm_failed += 1;
            let replays = u64::from(root.replays);
            self.emit_trace(|| TraceEvent::TupleFailed {
                tuple: root_id.get(),
                replays,
            });
            self.observer.metrics(|m| {
                m.inc_counter(
                    "tstorm_tuples_failed_total",
                    "Tuples that timed out with no replay possible",
                    &[],
                    1,
                );
            });
        }
    }
}

/// SplitMix64: cheap, well-mixed ids for ack-tree edges.
pub(super) fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
