//! Transfers: owns the envelope, batch and output pools and the
//! staged batches, and decides how and when a tuple reaches its
//! destination's input queue.

use super::acking::splitmix;
use super::{Lineage, PayloadId, Simulation};
use crate::event::{BatchEnvelope, Envelope, EnvelopeKind, Event};
use crate::network::{classify, HopClass};
use crate::routing::{group_tasks_by_destination, select_tasks_into};
use tstorm_trace::{SpanSeg, TraceEvent};
use tstorm_types::{Bytes, ComponentId, ExecutorId, NodeId, SimTime, SlabHandle, TupleId};

/// Upper bound on recycled boxes retained by each free-list pool (the
/// per-tuple envelope pool and the batch-envelope pool). A pool never
/// holds more boxes than were simultaneously in flight, but a cap keeps
/// a transient burst from pinning memory for the rest of a long run.
const ENVELOPE_POOL_CAP: usize = 1 << 16;

/// How many of the source executor's completions an open (not yet
/// full) batch may survive before the age guard flushes it, as a
/// multiple of `batch_size`. Sized for fan-out: an executor spreading
/// its output over `F` destination pairs feeds each pair roughly once
/// per `F` completions, so any `F ≤ BATCH_MAX_AGE_FACTOR` still fills
/// whole batches while the executor stays busy; a pair whose traffic
/// dries up entirely holds tuples for at most `batch_size × factor`
/// completions (and everything flushes the moment the executor idles).
const BATCH_MAX_AGE_FACTOR: u64 = 8;

impl Simulation {
    pub(super) fn on_deliver(&mut self, env: Box<Envelope>) {
        let idx = env.dst.as_usize();
        let dst = self.placement[idx];
        if env.dst_epoch != dst.epoch {
            // The destination worker was stopped while this message was
            // in flight.
            self.drop_undeliverable(&env, dst.slot.is_none());
            self.recycle_envelope(env);
            return;
        }
        self.enqueue(idx, env);
        self.try_start(ExecutorId::new(idx as u32));
    }

    /// Appends a delivered tuple to its destination's input queue.
    fn enqueue(&mut self, idx: usize, mut env: Box<Envelope>) {
        let tuple = env.root.map_or(u64::MAX, TupleId::get);
        env.delivered_at = self.clock;
        self.executors[idx].queue.push_back(env);
        let depth = self.executors[idx].queue.len() as u64;
        self.emit_trace(|| TraceEvent::QueueEnter {
            tuple,
            executor: idx as u32,
            depth,
        });
    }

    /// Routes every output tuple along the producing component's outgoing
    /// edges, then lets go of the output's hold on its payload. Returns
    /// the XOR of the new edge ids and the number of envelopes created.
    ///
    /// The per-tuple cost here is the simulator's hottest code: task
    /// selection fills one reused scratch buffer, and every envelope
    /// counts one more holder of the payload instead of copying values.
    /// Every created envelope inherits the producer's [`Lineage`].
    pub(super) fn route_outputs(
        &mut self,
        src: ExecutorId,
        topo_idx: usize,
        component: ComponentId,
        lineage: Lineage,
        outputs: &mut Vec<PayloadId>,
    ) -> (u64, u64) {
        let Lineage {
            root,
            root_handle,
            span,
        } = lineage;
        let mut xor = 0u64;
        let mut count = 0u64;
        if outputs.is_empty() {
            return (xor, count);
        }
        let comp_idx = component.as_usize();
        let n_edges = self.topologies[topo_idx].out_edges[comp_idx].len();
        let batching = self.config.batch_size > 1;
        let mut tasks = std::mem::take(&mut self.task_scratch);
        for payload in outputs.drain(..) {
            let bytes = self.payloads.bytes(payload);
            for edge_idx in 0..n_edges {
                tasks.clear();
                let overhead = {
                    let edge = &self.topologies[topo_idx].out_edges[comp_idx][edge_idx];
                    let counter = &mut self.executors[src.as_usize()].direct_counters[edge_idx];
                    select_tasks_into(
                        edge.rule,
                        &edge.key_indices,
                        self.payloads.values(payload),
                        edge.consumer_tasks,
                        &mut self.rng,
                        counter,
                        &mut tasks,
                    );
                    if batching && tasks.len() > 1 {
                        // Make same-destination tasks adjacent so each
                        // pending batch is touched once per emit. Safe
                        // under batching only: reordering changes trace
                        // and edge-id assignment order (the XOR total is
                        // order-independent).
                        let task_exec = &edge.task_exec;
                        group_tasks_by_destination(&mut tasks, |t| task_exec[t as usize].index());
                    }
                    edge.emit_overhead
                };
                let wire = Bytes::new(bytes + overhead.get());
                for &task in &tasks {
                    let dst = self.topologies[topo_idx].out_edges[comp_idx][edge_idx].task_exec
                        [task as usize];
                    let edge_id = splitmix(self.next_edge.wrapping_add(0x9e37_79b9));
                    self.next_edge += 1;
                    xor ^= edge_id;
                    count += 1;
                    self.payloads.hold(payload);
                    let env = Envelope {
                        payload,
                        src,
                        dst,
                        dst_task: task,
                        edge_id,
                        root,
                        root_handle,
                        dst_epoch: self.placement[dst.as_usize()].epoch,
                        kind: EnvelopeKind::Data,
                        span,
                        delivered_at: SimTime::ZERO,
                        staged_at: SimTime::ZERO,
                    };
                    if batching {
                        self.stage_tuple(env, wire);
                    } else {
                        self.send_envelope(env, wire);
                    }
                }
            }
            self.payloads.release(payload);
        }
        self.task_scratch = tasks;
        (xor, count)
    }

    pub(super) fn send_control(
        &mut self,
        src: ExecutorId,
        dst: ExecutorId,
        kind: EnvelopeKind,
        root: TupleId,
        root_handle: Option<SlabHandle>,
        span: u32,
    ) {
        let env = Envelope {
            payload: PayloadId::EMPTY,
            src,
            dst,
            dst_task: 0,
            edge_id: 0,
            root: Some(root),
            root_handle,
            dst_epoch: self.placement[dst.as_usize()].epoch,
            kind,
            span,
            delivered_at: SimTime::ZERO,
            staged_at: SimTime::ZERO,
        };
        if self.config.batch_size > 1 {
            self.stage_tuple(env, Bytes::new(20));
        } else {
            self.send_envelope(env, Bytes::new(20));
        }
    }

    /// The per-tuple bookkeeping both send paths share, done at send
    /// (or stage) time: the placement check, the pair and hop-class
    /// counters, the transfer trace event, and NIC egress attribution.
    /// Returns the endpoints' nodes and hop class, or `None` when an
    /// endpoint is unplaced and the tuple was dropped.
    fn account_transfer(
        &mut self,
        env: &Envelope,
        payload: Bytes,
    ) -> Option<(NodeId, NodeId, HopClass)> {
        let (Some(src_slot), Some(dst_slot)) = (
            self.placement[env.src.as_usize()].slot,
            self.placement[env.dst.as_usize()].slot,
        ) else {
            // The message is lost before it ever leaves; anchored roots
            // will time out.
            self.drop_undeliverable(env, true);
            return None;
        };
        self.counters
            .add_pair(env.src.as_usize(), env.dst.as_usize());
        let src_node = self.cluster.node_of(src_slot);
        let dst_node = self.cluster.node_of(dst_slot);
        let hop = classify(src_slot.index(), dst_slot.index(), src_node, dst_node);
        self.emit_trace(|| TraceEvent::TupleTransfer {
            tuple: env.root.map_or(u64::MAX, TupleId::get),
            from_executor: env.src.index(),
            to_executor: env.dst.index(),
            hop,
            bytes: payload.get(),
        });
        let (transfers, bytes) = &mut self.transfers[hop as usize];
        *transfers += 1;
        *bytes += payload.get();
        if matches!(hop, HopClass::InterNode) {
            self.counters
                .add_node_tx(src_node.as_usize(), payload.get());
        }
        Some((src_node, dst_node, hop))
    }

    /// Worker processes on the destination node beyond the receiving
    /// one — the receive-scheduling delay input of every non-local hop.
    fn extra_workers(&self, hop: HopClass, dst_node: NodeId) -> u32 {
        match hop {
            HopClass::IntraWorker => 0,
            _ => self.workers_on_node[dst_node.as_usize()].saturating_sub(1),
        }
    }

    /// Boxes an envelope, reusing a pooled allocation when one exists.
    fn boxed_envelope(&mut self, env: Envelope) -> Box<Envelope> {
        match self.env_pool.pop() {
            Some(mut b) => {
                self.pool_hits += 1;
                *b = env;
                b
            }
            None => {
                self.pool_misses += 1;
                Box::new(env)
            }
        }
    }

    fn send_envelope(&mut self, mut env: Envelope, payload: Bytes) {
        let Some((src_node, dst_node, hop)) = self.account_transfer(&env, payload) else {
            return;
        };
        let extra_workers = self.extra_workers(hop, dst_node);
        let at =
            self.network
                .delivery_time(self.clock, hop, payload, src_node, dst_node, extra_workers);
        if self.spans.is_some() {
            let micros = self.span_micros(at, self.clock);
            let seg = SpanSeg::network(env.src, src_node, env.dst, dst_node, hop, micros);
            env.span = self.record_span(env.root_handle, env.span, seg);
        }
        let boxed = self.boxed_envelope(env);
        self.queue.push(at, Event::Deliver(boxed));
    }

    /// Stages one tuple into its (source, destination) pending batch —
    /// the batched counterpart of [`Simulation::send_envelope`], taken
    /// whenever `batch_size > 1`. The per-tuple bookkeeping
    /// ([`Simulation::account_transfer`]) happens here at stage time;
    /// only the wire trip itself is deferred to flush.
    fn stage_tuple(&mut self, mut env: Envelope, payload: Bytes) {
        if self.account_transfer(&env, payload).is_none() {
            return;
        }
        env.staged_at = self.clock;
        let src_idx = env.src.as_usize();
        let pos = self.executors[src_idx]
            .pending
            .iter()
            .position(|b| b.dst == env.dst);
        let pos = match pos {
            Some(p) => p,
            None => {
                let opened = self.executors[src_idx].completions;
                let mut batch = match self.batch_pool.pop() {
                    Some(b) => {
                        self.pool_hits += 1;
                        b
                    }
                    None => {
                        self.pool_misses += 1;
                        Box::new(BatchEnvelope {
                            src: env.src,
                            dst: env.dst,
                            payload_bytes: 0,
                            opened_at_completion: 0,
                            tuples: Vec::new(),
                        })
                    }
                };
                batch.src = env.src;
                batch.dst = env.dst;
                batch.payload_bytes = 0;
                batch.opened_at_completion = opened;
                debug_assert!(batch.tuples.is_empty(), "pooled batch not recycled clean");
                self.executors[src_idx].pending.push(batch);
                self.executors[src_idx].pending.len() - 1
            }
        };
        let batch = &mut self.executors[src_idx].pending[pos];
        batch.payload_bytes += payload.get();
        batch.tuples.push(env);
        if batch.tuples.len() >= self.config.batch_size as usize {
            let full = self.executors[src_idx].pending.remove(pos);
            self.flush_batch(full);
        }
    }

    /// Ships one batch: a single event-queue entry and a single
    /// [`Network::delivery_time`](crate::network::Network::delivery_time)
    /// computation on the summed payload carry every staged tuple. The
    /// hop is re-classified from the endpoints' *current* placement (a
    /// smooth rollout may have moved them since staging), and each
    /// tuple's network span segment covers its own `staged_at → delivery`
    /// interval so critical-path components keep summing to root latency
    /// exactly.
    fn flush_batch(&mut self, mut batch: Box<BatchEnvelope>) {
        let (Some(src_slot), Some(dst_slot)) = (
            self.placement[batch.src.as_usize()].slot,
            self.placement[batch.dst.as_usize()].slot,
        ) else {
            // An endpoint lost its placement between staging and flush:
            // every staged tuple is lost.
            for t in batch.tuples.drain(..) {
                self.drop_undeliverable(&t, true);
            }
            self.recycle_batch(batch);
            return;
        };
        let src_node = self.cluster.node_of(src_slot);
        let dst_node = self.cluster.node_of(dst_slot);
        let hop = classify(src_slot.index(), dst_slot.index(), src_node, dst_node);
        let extra_workers = self.extra_workers(hop, dst_node);
        let at = self.network.delivery_time(
            self.clock,
            hop,
            Bytes::new(batch.payload_bytes),
            src_node,
            dst_node,
            extra_workers,
        );
        if self.spans.is_some() {
            // Fan the batch's one network trip back out per tuple.
            for t in &mut batch.tuples {
                let micros = self.span_micros(at, t.staged_at);
                let seg = SpanSeg::network(t.src, src_node, t.dst, dst_node, hop, micros);
                t.span = self.record_span(t.root_handle, t.span, seg);
            }
        }
        self.queue.push(at, Event::DeliverBatch(batch));
    }

    /// Applies the flush policy at one executor's service-completion
    /// boundary: if the executor went idle, everything pending flushes
    /// (nothing would otherwise re-examine it); while it stays busy,
    /// only batches older than [`BATCH_MAX_AGE_FACTOR`] × `batch_size`
    /// completions flush, bounding how long a stalled pair can hold
    /// tuples back while leaving room for fan-out: a pair that receives
    /// only one tuple in `F` of the executor's emissions still fills a
    /// whole batch as long as `F ≤ BATCH_MAX_AGE_FACTOR`.
    pub(super) fn flush_at_boundary(&mut self, idx: usize) {
        if self.executors[idx].pending.is_empty() {
            return;
        }
        if self.executors[idx].busy.is_none() {
            let mut pending = std::mem::take(&mut self.executors[idx].pending);
            for batch in pending.drain(..) {
                self.flush_batch(batch);
            }
            // Hand the (now empty) buffer back to keep its capacity.
            self.executors[idx].pending = pending;
            return;
        }
        let completions = self.executors[idx].completions;
        let max_age = u64::from(self.config.batch_size.max(1)) * BATCH_MAX_AGE_FACTOR;
        let mut i = 0;
        while i < self.executors[idx].pending.len() {
            let age =
                completions.saturating_sub(self.executors[idx].pending[i].opened_at_completion);
            if age >= max_age {
                let batch = self.executors[idx].pending.remove(i);
                self.flush_batch(batch);
            } else {
                i += 1;
            }
        }
    }

    /// A batch arrives: every tuple it carries joins the destination's
    /// input queue at once, under the same epoch check the unbatched
    /// path applies per delivery.
    pub(super) fn on_deliver_batch(&mut self, mut batch: Box<BatchEnvelope>) {
        // `run_until` counted one event for the pop; the remaining
        // tuples keep `events_processed` a *logical* measure that is
        // comparable across batch sizes.
        self.events_processed += (batch.tuples.len() as u64).saturating_sub(1);
        let idx = batch.dst.as_usize();
        for env in batch.tuples.drain(..) {
            let dst = self.placement[idx];
            if env.dst_epoch != dst.epoch {
                self.drop_undeliverable(&env, dst.slot.is_none());
                continue;
            }
            let boxed = self.boxed_envelope(env);
            self.enqueue(idx, boxed);
        }
        self.recycle_batch(batch);
        self.try_start(ExecutorId::new(idx as u32));
    }

    /// Returns a drained batch box to the batch pool. The tuple vector
    /// keeps its capacity — the recycled allocation is the point of the
    /// pool.
    fn recycle_batch(&mut self, batch: Box<BatchEnvelope>) {
        debug_assert!(batch.tuples.is_empty(), "recycled batch holds payloads");
        if self.batch_pool.len() < ENVELOPE_POOL_CAP {
            self.batch_pool.push(batch);
        }
    }

    /// Drops an executor's staged-but-unflushed outbound batches and
    /// returns how many tuples they held — the batching counterpart of
    /// [`Simulation::drain_queue_to_pool`]: a killed worker's outbound
    /// buffer dies with it.
    pub(super) fn drop_pending_outbound(&mut self, idx: usize) -> u64 {
        if self.executors[idx].pending.is_empty() {
            return 0;
        }
        let mut n = 0u64;
        let mut pending = std::mem::take(&mut self.executors[idx].pending);
        for mut batch in pending.drain(..) {
            for t in batch.tuples.drain(..) {
                n += 1;
                self.lose_tuple(&t);
            }
            self.recycle_batch(batch);
        }
        self.executors[idx].pending = pending;
        n
    }

    /// Returns a drained output buffer to the pool. The vector keeps
    /// its capacity.
    pub(super) fn recycle_outputs(&mut self, outputs: Vec<PayloadId>) {
        debug_assert!(outputs.is_empty(), "recycled outputs hold payloads");
        if self.outputs_pool.len() >= ENVELOPE_POOL_CAP {
            return;
        }
        self.outputs_pool.push(outputs);
    }

    /// Returns an envelope box to the free-list pool. Its payload hold
    /// must already be gone: released after service, or lost.
    pub(super) fn recycle_envelope(&mut self, env: Box<Envelope>) {
        if self.env_pool.len() >= ENVELOPE_POOL_CAP {
            return;
        }
        self.env_pool.push(env);
    }

    /// Loses an executor's queued messages, drops them into the
    /// envelope pool and returns how many there were.
    pub(super) fn drain_queue_to_pool(&mut self, idx: usize) -> u64 {
        let mut n = 0u64;
        while let Some(env) = self.executors[idx].queue.pop_front() {
            n += 1;
            self.lose_tuple(&env);
            self.recycle_envelope(env);
        }
        n
    }
}
