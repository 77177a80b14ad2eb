//! The simulation engine: owns the `Simulation` state and the event
//! loop, and decides which handler each event goes to.

mod acking;
mod counters;
mod faults;
mod payloads;
mod rollout;
mod service;
mod transfer;

pub use counters::{EngineStats, SimCounters};
pub use payloads::PayloadId;

use crate::config::SimConfig;
use crate::event::{BatchEnvelope, Envelope, Event, EventQueue};
use crate::logic::ExecutorLogic;
use crate::network::Network;
use crate::routing::RouteRule;
use payloads::Payloads;
use std::collections::{BTreeMap, VecDeque};
use tstorm_cluster::{Assignment, ClusterSpec};
use tstorm_metrics::RunReport;
use tstorm_topology::{ComponentSpec, CostProfile, ExecutionPlan, Topology, Value};
use tstorm_trace::{CriticalPathCollector, Observer, SpanTree, TraceEvent};
use tstorm_types::{
    Bytes, ComponentId, DetRng, ExecutorId, SimTime, Slab, SlabHandle, SlotId, TopologyId, TupleId,
};

/// Static description of one executor, as exposed to the control plane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecutorDescriptor {
    /// Global executor id.
    pub id: ExecutorId,
    /// Owning topology.
    pub topology: TopologyId,
    /// Owning component.
    pub component: ComponentId,
    /// Whether this is a spout executor.
    pub is_spout: bool,
    /// Whether this is a system acker executor.
    pub is_acker: bool,
}

/// Handle returned when a topology is submitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopologyHandle {
    /// The assigned topology id.
    pub id: TopologyId,
    /// Global ids of the topology's executors, in plan order.
    pub executors: Vec<ExecutorId>,
}

/// One outgoing stream edge, resolved for routing. The grouping is
/// pre-resolved into a `Copy` [`RouteRule`] so no field-name vectors are
/// cloned per topology submission or touched per tuple.
struct EdgeRt {
    rule: RouteRule,
    key_indices: Box<[usize]>,
    consumer_tasks: u32,
    /// Global executor hosting each consumer task.
    task_exec: Vec<ExecutorId>,
    emit_overhead: Bytes,
}

/// Per-topology runtime data.
struct TopoRt {
    id: TopologyId,
    message_timeout: SimTime,
    /// Outgoing edges per component, indexed by dense component id.
    out_edges: Vec<Vec<EdgeRt>>,
    /// Acker executors (empty when the topology has none).
    ackers: Vec<ExecutorId>,
    /// Component display names, indexed by dense component id — the
    /// labels the critical-path collector aggregates under.
    component_names: Vec<Box<str>>,
}

/// Work currently in service at an executor.
struct BusyWork {
    /// The input message (`None` for spout emissions).
    env: Option<Box<Envelope>>,
    /// Payloads produced by the logic (a spout's one emission), each
    /// held until it is routed at completion.
    outputs: Vec<PayloadId>,
    started_at: SimTime,
    done_at: SimTime,
    /// For spout emissions: how many times this payload was replayed.
    replays: u32,
    /// For replayed spout emissions: when the timeout queued the payload
    /// for replay (the wait becomes a replay span segment).
    replay_queued_at: Option<SimTime>,
    /// Node whose busy-count this work holds (releases on completion,
    /// even if the executor relocates mid-service).
    busy_node: usize,
}

/// Per-executor runtime state.
struct ExecRt {
    topo_idx: usize,
    /// False once the owning topology has been killed.
    alive: bool,
    component: ComponentId,
    cost: CostProfile,
    is_spout: bool,
    is_acker: bool,
    emit_interval: SimTime,
    logic: ExecutorLogic,
    queue: VecDeque<Box<Envelope>>,
    busy: Option<BusyWork>,
    /// Unavailable until this time (worker starting).
    paused_until: Option<SimTime>,
    /// Spouts do not emit before this time (smooth re-assignment halt).
    spout_halt_until: SimTime,
    /// Whether a SpoutTick event is already pending.
    tick_scheduled: bool,
    /// Time of the most recent emission attempt (rate control).
    last_tick: SimTime,
    /// Tuples waiting to be replayed, with their replay count and the
    /// time the timeout queued them. Each entry holds the payload the
    /// root that timed out held — replays never copy values.
    replay_queue: VecDeque<(PayloadId, u32, SimTime)>,
    /// Per-out-edge round-robin counters for direct grouping, indexed
    /// by the component's out-edge position.
    direct_counters: Box<[u32]>,
    /// Open outbound batches, one per destination executor, in
    /// first-touch order. Empty whenever `batch_size` is 1 — the
    /// unbatched path never stages. The list stays tiny (bounded by the
    /// component's fan-out), so a linear scan beats any map.
    #[allow(clippy::vec_box)]
    pending: Vec<Box<BatchEnvelope>>,
    /// Service completions finished by this executor — the age base for
    /// the batch flush guard.
    completions: u64,
}

/// Where one executor runs, and which incarnation of its worker a
/// message must reach: the two fields every message reads at its
/// destination, kept in a dense table apart from the rest of [`ExecRt`].
#[derive(Debug, Clone, Copy, Default)]
struct Placement {
    /// Current slot, if assigned.
    slot: Option<SlotId>,
    /// Restart epoch: bumped when Storm kills the hosting worker.
    epoch: u32,
}

/// State of one in-flight spout tuple (the ack tree root).
struct RootState {
    /// The root tuple id (kept alongside the slab slot for traces).
    id: TupleId,
    spout: ExecutorId,
    emit_at: SimTime,
    xor: u64,
    init_seen: bool,
    /// Payload held for replay; [`PayloadId::EMPTY`] when the root may
    /// not replay (`replays` has reached `max_replays`).
    payload: PayloadId,
    replays: u32,
    /// Acker executor tracking this root, if the topology has ackers.
    acker: Option<ExecutorId>,
    /// For acker-less topologies: outstanding anchored tuples.
    outstanding: i64,
    /// Every span segment this root's messages recorded. Empty (and
    /// unallocated) while span collection is off or the root is `lost`.
    spans: SpanTree,
    /// A tuple of this root was lost while spans were on: its tree went
    /// back to the pool, and nothing records into it again.
    lost: bool,
}

/// Causal context an emit inherits from its producer: the ack-tree
/// root it is anchored to and the producer's newest step in that root's
/// span tree.
struct Lineage {
    root: Option<TupleId>,
    root_handle: Option<SlabHandle>,
    span: u32,
}

/// The discrete-event simulation of one Storm cluster.
pub struct Simulation {
    cluster: ClusterSpec,
    config: SimConfig,
    clock: SimTime,
    queue: EventQueue,
    rng: DetRng,
    network: Network,
    topologies: Vec<TopoRt>,
    executors: Vec<ExecRt>,
    /// Placement of each executor, indexed by executor id: the only
    /// copy of its slot and restart epoch.
    placement: Vec<Placement>,
    /// In-flight ack-tree roots: slab storage, addressed by
    /// generation-checked handles carried in envelopes and timeout
    /// events — no per-tuple hashing.
    roots: Slab<RootState>,
    next_tuple: u64,
    next_edge: u64,
    /// Free list of recycled envelope boxes. The `Box` is the point:
    /// the pool recycles the heap allocation that `Event::Message`
    /// carries, so a pool hit is allocation-free.
    #[allow(clippy::vec_box)]
    env_pool: Vec<Box<Envelope>>,
    /// Free list of recycled batch envelopes — the transfer pool of the
    /// batched path. Recycling keeps each box *and* its tuple vector's
    /// capacity, so a steady-state flush allocates nothing.
    #[allow(clippy::vec_box)]
    batch_pool: Vec<Box<BatchEnvelope>>,
    /// Free list of recycled output buffers: every service start needs a
    /// `Vec` to collect the handler's emissions, and routing drains it —
    /// recycling the allocation removes a malloc/free pair from every
    /// serviced tuple.
    outputs_pool: Vec<Vec<PayloadId>>,
    /// Every payload an envelope, a root, a replay-queue entry or an
    /// in-service emission holds.
    payloads: Payloads,
    /// A bolt's emits while its `execute` reads the input from
    /// `payloads`; drained into the store when it returns.
    emit_scratch: Vec<Vec<Value>>,
    /// Scratch buffer reused by every routing task selection.
    task_scratch: Vec<u32>,
    pool_hits: u64,
    pool_misses: u64,
    payload_clones_avoided: u64,
    /// Span subtractions whose end preceded their start (see
    /// [`EngineStats::clock_inversions`]).
    clock_inversions: u64,
    /// The assignment currently in force.
    current: Assignment,
    /// Assignment submitted to Nimbus, not yet picked up by supervisors.
    pending: Option<Assignment>,
    /// Per-node smooth transition in progress: the target assignment one
    /// node's supervisor is rolling out while its workers pre-start.
    /// Other nodes may be running a different epoch at the same time.
    node_switching_to: Vec<Option<Assignment>>,
    /// True while a [`FaultKind::NimbusCrash`](crate::FaultKind::NimbusCrash)
    /// window is open: the control plane must not generate schedules or
    /// run recovery.
    nimbus_down: bool,
    /// Per-node heartbeat suppression from
    /// [`FaultKind::HeartbeatLoss`](crate::FaultKind::HeartbeatLoss): the
    /// node is healthy but its heartbeats never reach Nimbus.
    heartbeat_muted: Vec<bool>,
    /// Executors located per node.
    located_count: Vec<u32>,
    /// Executors currently in service per node (CPU sharing is over
    /// *active* threads, as on a real multi-core node).
    node_busy: Vec<u32>,
    /// Worker processes per node (context-switch tax, recv delay).
    workers_on_node: Vec<u32>,
    counters: SimCounters,
    /// High-water pair-store footprint across all windows (see
    /// [`EngineStats::pair_state_bytes`]).
    pair_state_high_water: u64,
    /// High-water observed-pair count across all windows.
    pairs_observed_high_water: u64,
    report: RunReport,
    completed: u64,
    /// Sum of every completed root's latency, in ms.
    latency_sum_ms: f64,
    failed: u64,
    emitted: u64,
    /// Ack-tree edges retired by ackers.
    acks: u64,
    /// Tuple transfers and their bytes, indexed by
    /// [`HopClass`](crate::network::HopClass).
    transfers: [(u64, u64); 3],
    dropped_in_flight: u64,
    /// Pending roots a topology kill forgot.
    forgotten: u64,
    reassignments: u32,
    events_processed: u64,
    /// Every executor's receive-queue depth at the latest supervisor
    /// poll; `None` unless [`Simulation::sample_queue_depths`] asked
    /// for it.
    queue_depth_sample: Option<Vec<usize>>,
    observer: Observer,
    /// Streaming critical-path analyzer. `None` (the default) keeps the
    /// span plane fully inert: envelopes carry `NO_SPAN`, span trees
    /// stay empty, nothing allocates, and every instrumentation site is
    /// one pointer check.
    spans: Option<Box<CriticalPathCollector>>,
    /// Cleared span trees of completed or timed-out roots, reused by
    /// the next emissions.
    span_pool: Vec<SpanTree>,
    /// Monotonic version of applied assignments: the number applied.
    assignment_version: u64,
    /// Fault-plan events fired so far, by kind name.
    faults: BTreeMap<&'static str, u32>,
    /// Occupied workers a crash stopped.
    crashed_workers: u64,
    /// Tuples destroyed by fault-plan crashes: queued or in service at
    /// the crash instant, plus in-flight messages dropped because a
    /// crash left an endpoint unplaced.
    tuples_lost: u64,
    /// Timed-out tuples re-queued for spout replay.
    replays_triggered: u64,
    /// Tuples that timed out and could not be replayed (replay disabled
    /// or the replay cap exhausted) — permanently failed.
    perm_failed: u64,
    /// Time of the most recent crash fault still awaiting recovery.
    recovery_fault_at: Option<SimTime>,
    /// Whether a post-fault assignment has been applied already.
    recovery_reassigned: bool,
    /// Assignments that re-placed executors after a fault.
    recovery_reassignments: u64,
    /// Fault-to-first-completion latencies (ms) of healed faults.
    recovery_latencies: Vec<f64>,
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("clock", &self.clock)
            .field("executors", &self.executors.len())
            .field("pending_events", &self.queue.len())
            .field("completed", &self.completed)
            .field("failed", &self.failed)
            .finish()
    }
}

impl Simulation {
    /// Creates a simulation over the given cluster.
    #[must_use]
    pub fn new(cluster: ClusterSpec, config: SimConfig) -> Self {
        let k = cluster.num_nodes();
        let mut network = Network::new(config.network, k);
        // Heterogeneous NIC classes are part of the cluster spec; nodes
        // without an explicit class stay on the config default.
        for n in cluster.nodes() {
            if let Some(bits) = n.nic_bits_per_sec {
                network.set_node_nic(n.id, bits);
            }
        }
        let mut sim = Self {
            network,
            rng: DetRng::seed_from(config.seed),
            cluster,
            config,
            clock: SimTime::ZERO,
            queue: EventQueue::new(),
            topologies: Vec::new(),
            executors: Vec::new(),
            placement: Vec::new(),
            roots: Slab::new(),
            next_tuple: 0,
            next_edge: 0,
            env_pool: Vec::new(),
            batch_pool: Vec::new(),
            outputs_pool: Vec::new(),
            payloads: Payloads::default(),
            emit_scratch: Vec::new(),
            task_scratch: Vec::new(),
            pool_hits: 0,
            pool_misses: 0,
            payload_clones_avoided: 0,
            clock_inversions: 0,
            current: Assignment::new(),
            pending: None,
            node_switching_to: vec![None; k],
            nimbus_down: false,
            heartbeat_muted: vec![false; k],
            located_count: vec![0; k],
            node_busy: vec![0; k],
            workers_on_node: vec![0; k],
            counters: SimCounters::default(),
            pair_state_high_water: 0,
            pairs_observed_high_water: 0,
            report: RunReport::new("run"),
            completed: 0,
            latency_sum_ms: 0.0,
            failed: 0,
            emitted: 0,
            acks: 0,
            transfers: [(0, 0); 3],
            dropped_in_flight: 0,
            forgotten: 0,
            reassignments: 0,
            events_processed: 0,
            queue_depth_sample: None,
            observer: Observer::disabled(),
            spans: None,
            span_pool: Vec::new(),
            assignment_version: 0,
            faults: BTreeMap::new(),
            crashed_workers: 0,
            tuples_lost: 0,
            replays_triggered: 0,
            perm_failed: 0,
            recovery_fault_at: None,
            recovery_reassigned: false,
            recovery_reassignments: 0,
            recovery_latencies: Vec::new(),
        };
        sim.queue
            .push(sim.config.reassign.supervisor_poll, Event::SupervisorPoll);
        sim
    }

    /// Attaches the trace writer; all subsequent state transitions emit
    /// trace events. The default (disabled) observer makes every
    /// instrumentation site a no-op, so untraced runs behave
    /// bit-identically to uninstrumented builds.
    pub fn set_observer(&mut self, observer: Observer) {
        self.observer = observer;
    }

    /// True while a trace writer is attached.
    #[must_use]
    pub fn tracing(&self) -> bool {
        self.observer.is_enabled()
    }

    /// Flushes the trace writer.
    ///
    /// # Errors
    ///
    /// Propagates the writer's flush failure.
    pub fn flush_trace(&mut self) -> std::io::Result<()> {
        self.observer.flush()
    }

    /// Keeps every executor's receive-queue depth at each supervisor
    /// poll from now on, replacing the previous poll's (see
    /// [`Simulation::queue_depth_sample`]). Off by default: the sample
    /// walks every executor.
    pub fn sample_queue_depths(&mut self) {
        self.queue_depth_sample.get_or_insert_with(Vec::new);
    }

    /// Enables causal span collection: every ack-tree root grows a span
    /// tree of queue/service/network/replay segments, and each completed
    /// root feeds its critical path to the streaming
    /// [`CriticalPathCollector`]. Executors of
    /// already-submitted topologies are labelled with their component
    /// names; later submissions label themselves. Idempotent.
    pub fn enable_spans(&mut self) {
        if self.spans.is_some() {
            return;
        }
        let mut collector = Box::new(CriticalPathCollector::new());
        for (i, e) in self.executors.iter().enumerate() {
            let name = &self.topologies[e.topo_idx].component_names[e.component.as_usize()];
            collector.set_label(ExecutorId::new(i as u32), name);
        }
        self.spans = Some(collector);
    }

    /// The critical-path collector, when span collection is enabled.
    #[must_use]
    pub fn spans(&self) -> Option<&CriticalPathCollector> {
        self.spans.as_deref()
    }

    /// Submits a topology; executors are created but remain unassigned
    /// until an assignment is applied. The factory is called once per
    /// executor with the component spec and the executor's index within
    /// the component; it is not called for acker executors.
    pub fn submit_topology(
        &mut self,
        topology: &Topology,
        factory: &mut dyn FnMut(&ComponentSpec, u32) -> ExecutorLogic,
    ) -> TopologyHandle {
        let topo_idx = self.topologies.len();
        let topo_id = TopologyId::new(topo_idx as u32);
        let plan = ExecutionPlan::for_topology(topology);
        let base = self.executors.len() as u32;
        let acker_comp = topology.acker_component();
        let n_components = topology.components().len();

        // Task → global executor map per component (dense component ids
        // index straight into a vector).
        let mut task_exec: Vec<Vec<ExecutorId>> = vec![Vec::new(); n_components];
        for (i, spec) in plan.executors().iter().enumerate() {
            let v = &mut task_exec[spec.component.as_usize()];
            for _ in 0..spec.task_count() {
                v.push(ExecutorId::new(base + i as u32));
            }
        }

        let mut out_edges: Vec<Vec<EdgeRt>> = std::iter::repeat_with(Vec::new)
            .take(n_components)
            .collect();
        for edge in topology.edges() {
            let consumer = topology.component(edge.to);
            out_edges[edge.from.as_usize()].push(EdgeRt {
                rule: RouteRule::from_grouping(&edge.grouping),
                key_indices: edge.key_indices.as_slice().into(),
                consumer_tasks: consumer.num_tasks(),
                task_exec: task_exec[edge.to.as_usize()].clone(),
                emit_overhead: topology.component(edge.from).cost().emit_overhead_bytes,
            });
        }

        // Create executors in plan order; global id = base + plan index.
        let mut exec_ids = Vec::with_capacity(plan.len());
        // The executor table is the engine's largest: grow it once, to
        // size, rather than through a chain of doubled copies.
        self.executors.reserve_exact(plan.len());
        for spec in plan.executors() {
            let comp = topology.component(spec.component);
            let logic = if spec.is_acker {
                ExecutorLogic::Acker
            } else {
                factory(comp, spec.index)
            };
            let id = ExecutorId::new(base + exec_ids.len() as u32);
            exec_ids.push(id);
            self.executors.push(ExecRt {
                topo_idx,
                alive: true,
                component: spec.component,
                cost: *comp.cost(),
                is_spout: spec.is_spout,
                is_acker: spec.is_acker,
                emit_interval: comp.emit_interval(),
                logic,
                queue: VecDeque::new(),
                busy: None,
                paused_until: None,
                spout_halt_until: SimTime::ZERO,
                tick_scheduled: false,
                last_tick: SimTime::ZERO,
                replay_queue: VecDeque::new(),
                direct_counters: vec![0u32; out_edges[spec.component.as_usize()].len()]
                    .into_boxed_slice(),
                pending: Vec::new(),
                completions: 0,
            });
        }
        self.placement
            .resize(self.executors.len(), Placement::default());
        self.counters.ensure_executors(self.executors.len());

        let ackers = acker_comp
            .map(|c| {
                plan.executors()
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.component == c)
                    .map(|(i, _)| ExecutorId::new(base + i as u32))
                    .collect()
            })
            .unwrap_or_default();

        self.topologies.push(TopoRt {
            id: topo_id,
            message_timeout: topology.message_timeout(),
            out_edges,
            ackers,
            component_names: topology
                .components()
                .iter()
                .map(|c| c.name().into())
                .collect(),
        });
        if let Some(spans) = self.spans.as_mut() {
            for (i, spec) in plan.executors().iter().enumerate() {
                let name = &self.topologies[topo_idx].component_names[spec.component.as_usize()];
                spans.set_label(ExecutorId::new(base + i as u32), name);
            }
        }

        TopologyHandle {
            id: topo_id,
            executors: exec_ids,
        }
    }

    /// Runs the simulation until the given virtual time.
    pub fn run_until(&mut self, until: SimTime) {
        while let Some((t, event)) = self.queue.pop_until(until) {
            debug_assert!(
                t >= self.clock,
                "event at {t} behind the clock at {}",
                self.clock
            );
            self.clock = t;
            self.events_processed += 1;
            self.handle(event);
        }
        if until > self.clock {
            self.clock = until;
        }
    }

    /// Emits a trace event stamped with the current virtual time. The
    /// closure only runs while a trace writer is attached.
    #[inline]
    pub fn emit_trace(&mut self, build: impl FnOnce() -> TraceEvent) {
        self.observer.emit_with(self.clock, build);
    }

    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Descriptors of all live executors across all topologies
    /// (executors of killed topologies are excluded).
    #[must_use]
    pub fn executor_descriptors(&self) -> Vec<ExecutorDescriptor> {
        self.executors
            .iter()
            .enumerate()
            .filter(|(_, e)| e.alive)
            .map(|(i, e)| ExecutorDescriptor {
                id: ExecutorId::new(i as u32),
                topology: self.topologies[e.topo_idx].id,
                component: e.component,
                is_spout: e.is_spout,
                is_acker: e.is_acker,
            })
            .collect()
    }

    fn handle(&mut self, event: Event) {
        match event {
            Event::SpoutTick(id) => self.on_spout_tick(id),
            Event::Deliver(env) => self.on_deliver(env),
            Event::DeliverBatch(batch) => self.on_deliver_batch(batch),
            Event::ProcessDone(id) => self.on_process_done(id),
            Event::TupleTimeout(root) => self.on_timeout(root),
            Event::SupervisorPoll => self.on_supervisor_poll(),
            Event::ExecutorResume(id) => self.on_resume(id),
            Event::Fault(kind) => self.on_fault(&kind),
            Event::NodeRestart(node) => self.on_node_restart(node),
            Event::NicRestore(node) => self.on_nic_restore(node),
            Event::NodeLocationSwitch(node) => self.on_node_location_switch(node),
            Event::NimbusRestore => self.on_nimbus_restore(),
            Event::HeartbeatRestore(node) => self.on_heartbeat_restore(node),
        }
    }

    /// Checked span-duration subtraction: `end - start` in µs. A healthy
    /// run never sees `end < start`; if it happens, the inversion is
    /// counted (surfaced via `--engine-stats`) instead of being silently
    /// clamped, and debug builds assert.
    fn span_micros(&mut self, end: SimTime, start: SimTime) -> u64 {
        if end >= start {
            (end - start).as_micros()
        } else {
            debug_assert!(
                false,
                "clock inversion: span ends at {end:?} before it starts at {start:?}"
            );
            self.clock_inversions += 1;
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConstSpout, FaultPlan, IdentityBolt, SpoutLogic};
    use tstorm_topology::{ComponentKind, Grouping, TopologyBuilder};
    use tstorm_types::{Mhz, SlotId};

    /// A whole simulation — payloads, span trees, logic boxes — can
    /// move across threads.
    #[test]
    fn simulation_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Simulation>();
        assert_send::<ExecutorLogic>();
    }

    /// A spout whose tuples carry no values, so they never replay.
    struct EmptySpout;

    impl SpoutLogic for EmptySpout {
        fn next_tuple(&mut self, _now: SimTime) -> Option<Vec<Value>> {
            Some(Vec::new())
        }
    }

    /// A two-stage chain over three nodes: the two spouts in the two
    /// workers of node 0, `b1` on node 1, `b2` and the ackers on node 2.
    /// `b2`'s worker crashes at t=5 s, so every later root loses a tuple,
    /// and the first spout's at t=20 s, so its replays queue up; neither
    /// is placed again. The spouts emit one value, or none unless
    /// `with_values`. Returns the simulation and the topology.
    fn crashing_chain(config: SimConfig, with_values: bool) -> (Simulation, TopologyId) {
        let cluster = ClusterSpec::homogeneous(3, 2, Mhz::new(8000.0)).expect("valid cluster");
        let topology = TopologyBuilder::new("chain")
            .spout("src", 2, &["v"])
            .bolt("b1", 4, &["v"], &[("src", Grouping::Shuffle)])
            .bolt("b2", 2, &["v"], &[("b1", Grouping::Shuffle)])
            .num_ackers(2)
            .num_workers(6)
            .build()
            .expect("valid topology");
        let mut sim = Simulation::new(cluster, config);
        let handle = sim.submit_topology(&topology, &mut |spec, _| {
            if spec.kind() != ComponentKind::Spout {
                ExecutorLogic::bolt(IdentityBolt::new())
            } else if with_values {
                ExecutorLogic::spout(ConstSpout::new("payload"))
            } else {
                ExecutorLogic::spout(EmptySpout)
            }
        });
        let placed: Assignment = sim
            .executor_descriptors()
            .into_iter()
            .enumerate()
            .map(|(i, d)| {
                let slot = match d.component.as_usize() {
                    0 => i as u32 % 2,
                    1 => 2 + i as u32 % 2,
                    2 => 4,
                    _ => 5,
                };
                (d.id, SlotId::new(slot))
            })
            .collect();
        sim.apply_assignment(&placed);
        let plan = FaultPlan::from_specs([
            "worker-crash@t=5,node=2,slot=0",
            "worker-crash@t=20,node=0,slot=0",
        ])
        .expect("valid plan");
        sim.apply_fault_plan(&plan).expect("plan fits the cluster");
        (sim, handle.id)
    }

    /// Every payload hold is let go: a batched run through a crash and
    /// its replays (or, for tuples without values, its permanent
    /// failures), then a topology kill, ends with no payload live.
    #[test]
    fn a_killed_topology_leaves_no_payload_live() {
        for with_values in [true, false] {
            let config = SimConfig {
                batch_size: 4,
                ..SimConfig::default()
            };
            let (mut sim, topology) = crashing_chain(config, with_values);
            sim.run_until(SimTime::from_secs(40));
            assert!(sim.tuples_lost() > 0);
            assert_eq!(sim.replays_triggered > 0, with_values);
            assert_eq!(sim.perm_failed > 0, !with_values);
            let queued = sim.executors.iter().any(|e| !e.replay_queue.is_empty());
            assert_eq!(queued, with_values, "the crashed spout holds replays");
            // Kill while an executor has emissions in service.
            let in_service = |sim: &Simulation| {
                let mut busy = sim.executors.iter().filter_map(|e| e.busy.as_ref());
                busy.any(|w| !w.outputs.is_empty())
            };
            while !in_service(&sim) {
                sim.run_until(sim.now() + SimTime::from_micros(10));
            }
            sim.kill_topology(topology);
            sim.run_until(SimTime::from_secs(200));
            assert_eq!(sim.roots.len(), 0);
            assert_eq!(sim.payloads.live(), 0, "every holder let go");
        }
    }

    /// A Storm-mode rollout and a kill count what they destroy: every
    /// tuple queued or in service at the stopped executors is dropped in
    /// flight. A kill also forgets its pending roots, and the emitted
    /// roots still add up.
    #[test]
    fn rollouts_and_kills_count_the_tuples_they_drop() {
        let roots = |sim: &Simulation| {
            let ended = sim.completed() + sim.failed() + sim.forgotten();
            (sim.emitted(), ended + sim.in_flight() as u64)
        };
        for kill in [false, true] {
            let (mut sim, topology) = crashing_chain(SimConfig::default(), true);
            let busy = |sim: &Simulation| sim.executors.iter().filter(|e| e.busy.is_some()).count();
            let queued =
                |sim: &Simulation| sim.executors.iter().map(|e| e.queue.len()).sum::<usize>();
            sim.run_until(SimTime::from_secs(2));
            while busy(&sim) == 0 || queued(&sim) == 0 {
                assert!(
                    sim.now() < SimTime::from_secs(5),
                    "no backlog before the crash"
                );
                sim.run_until(sim.now() + SimTime::from_micros(10));
            }
            let destroyed = (busy(&sim) + queued(&sim)) as u64;
            let (dropped, pending) = (sim.dropped_in_flight(), sim.in_flight() as u64);
            assert!(pending > 0);
            if kill {
                sim.kill_topology(topology);
            } else {
                // Every executor moves one slot over, so every worker restarts.
                let current = sim.current_assignment();
                let moved = current
                    .iter()
                    .map(|(id, slot)| (id, SlotId::new((slot.index() + 1) % 6)));
                sim.submit_assignment(&moved.collect());
                sim.on_supervisor_poll();
                assert_eq!(sim.reassignments(), 1);
            }
            assert_eq!(sim.dropped_in_flight() - dropped, destroyed);
            let forgotten = if kill { pending } else { 0 };
            assert_eq!(sim.forgotten(), forgotten);
            assert_eq!(sim.in_flight() as u64, pending - forgotten);
            let (emitted, accounted) = roots(&sim);
            assert_eq!(emitted, accounted);
            sim.run_until(SimTime::from_secs(60));
            let (later, accounted) = roots(&sim);
            assert_eq!(later, accounted);
            assert_eq!(
                later == emitted,
                kill,
                "only a killed topology emits no more"
            );
        }
    }

    /// A message still in flight to a killed topology's executor is the
    /// kill's drop, not a crash loss, even once a fault has fired
    /// elsewhere: a crash of an empty slot at t=1 s moves neither count
    /// of a chain killed from 30 s on, at the first 50 µs step that
    /// finds a message between its two nodes.
    #[test]
    fn a_kill_counts_its_in_flight_drops_after_an_unrelated_fault() {
        let counts = |crash_empty_slot: bool, kill_at: SimTime| {
            let cluster = ClusterSpec::homogeneous(2, 2, Mhz::new(8000.0)).expect("valid cluster");
            let topology = TopologyBuilder::new("chain")
                .spout("src", 1, &["v"])
                .bolt("b", 1, &["v"], &[("src", Grouping::Shuffle)])
                .num_ackers(1)
                .num_workers(2)
                .build()
                .expect("valid topology");
            let mut sim = Simulation::new(cluster, SimConfig::default());
            let handle = sim.submit_topology(&topology, &mut |spec, _| {
                if spec.kind() == ComponentKind::Spout {
                    ExecutorLogic::spout(ConstSpout::new("payload"))
                } else {
                    ExecutorLogic::bolt(IdentityBolt::new())
                }
            });
            // The spout in node 0's first slot; the bolt and the acker
            // in node 1's.
            let placed: Assignment = sim
                .executor_descriptors()
                .into_iter()
                .map(|d| {
                    (
                        d.id,
                        SlotId::new(if d.component.as_usize() == 0 { 0 } else { 2 }),
                    )
                })
                .collect();
            sim.apply_assignment(&placed);
            if crash_empty_slot {
                let plan = FaultPlan::from_specs(["worker-crash@t=1,node=0,slot=1"]);
                let plan = plan.expect("valid plan");
                sim.apply_fault_plan(&plan).expect("plan fits the cluster");
            }
            sim.run_until(kill_at);
            sim.kill_topology(handle.id);
            let at_kill = sim.dropped_in_flight();
            sim.run_until(kill_at + SimTime::from_secs(1));
            (sim.tuples_lost(), at_kill, sim.dropped_in_flight())
        };
        let kill_at = (0..200)
            .map(|k| SimTime::from_secs(30) + SimTime::from_micros(50 * k))
            .find(|&t| {
                let (_, at_kill, dropped) = counts(false, t);
                dropped > at_kill
            })
            .expect("a message in flight within 10 ms");
        let (lost, at_kill, dropped) = counts(false, kill_at);
        assert_eq!(lost, 0);
        assert_eq!(counts(true, kill_at), (lost, at_kill, dropped));
    }

    /// From `b2`'s crash on, every root loses a tuple on the way to
    /// `b2`: each holds no span step, and none completes.
    #[test]
    fn a_root_that_lost_a_tuple_holds_no_span_steps() {
        let (mut sim, _) = crashing_chain(SimConfig::default(), true);
        sim.enable_spans();
        sim.run_until(SimTime::from_secs(4));
        assert!(sim.roots.iter().all(|(_, r)| !r.lost));
        sim.run_until(SimTime::from_secs(15));
        let lost: Vec<&RootState> = sim
            .roots
            .iter()
            .map(|(_, r)| r)
            .filter(|r| r.lost)
            .collect();
        assert!(lost.len() > 100, "{} roots lost a tuple", lost.len());
        assert!(lost.iter().all(|r| r.spans.path(0).next().is_none()));
        let completed = sim.completed();
        sim.run_until(SimTime::from_secs(60));
        assert_eq!(sim.completed(), completed, "no lost root completes");
        assert!(sim.failed() > 0);
        let totals = sim.spans().expect("spans enabled").totals();
        assert_eq!(totals.mismatched_roots, 0);
    }

    /// A root holds its payload only while it may replay: with replay
    /// off, the roots left pending by `b2`'s crash hold none, and the
    /// only live payloads are those of tuples still on their way.
    #[test]
    fn a_root_that_may_not_replay_holds_no_payload() {
        for (max_replays, held) in [(0, false), (u32::MAX, true)] {
            let config = SimConfig {
                max_replays,
                ..SimConfig::default()
            };
            let (mut sim, _) = crashing_chain(config, true);
            sim.run_until(SimTime::from_secs(15));
            assert!(sim.roots.len() > 100);
            let holding = sim
                .roots
                .iter()
                .filter(|(_, r)| r.payload != PayloadId::EMPTY);
            assert_eq!(holding.count() == sim.roots.len(), held);
            assert_eq!(sim.payloads.live() >= sim.roots.len(), held);
        }
    }
}
