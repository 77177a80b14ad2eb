//! The simulation engine: executors, workers, acking, timeouts,
//! supervisors and metrics, driven by a deterministic event queue.

use crate::config::SimConfig;
use crate::event::{BatchEnvelope, Envelope, EnvelopeKind, Event, EventQueue};
use crate::fault::{FaultKind, FaultPlan};
use crate::logic::ExecutorLogic;
use crate::network::{classify, HopClass, Network};
use crate::routing::{group_tasks_by_destination, select_tasks_into, RouteRule};
use std::collections::{BTreeSet, VecDeque};
use tstorm_cluster::{Assignment, AssignmentDiff, ClusterSpec};
use tstorm_metrics::RunReport;
use tstorm_topology::{ComponentSpec, CostProfile, ExecutionPlan, SharedValues, Topology, Value};
use tstorm_trace::{extend_span, CriticalPathCollector, Observer, SpanChain, SpanSeg, TraceEvent};
use tstorm_types::{
    Bytes, ComponentId, DetRng, ExecutorId, FxHashMap, FxHashSet, NodeId, Result, SimTime, Slab,
    SlabHandle, SlotId, TStormError, TopologyId, TupleId,
};

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

/// Packs a directed executor pair into one sortable map key whose
/// numeric order equals row-major (`from`, then `to`) order.
#[inline]
fn pair_key(from: usize, to: usize) -> u64 {
    ((from as u64) << 32) | (to as u64)
}

/// Per-pair tuple counts keyed by packed pair id ([`pair_key`]), with
/// deterministic Fx hashing: memory scales with the pairs actually
/// observed, not with `n × n`.
#[derive(Debug, Clone, Default)]
struct PairStore {
    tuples: FxHashMap<u64, u64>,
}

impl PairStore {
    #[inline]
    fn add(&mut self, from: usize, to: usize) {
        *self.tuples.entry(pair_key(from, to)).or_insert(0) += 1;
    }

    fn get(&self, from: usize, to: usize) -> u64 {
        self.tuples.get(&pair_key(from, to)).copied().unwrap_or(0)
    }

    /// Estimated resident bytes of the table: key + value + a control
    /// byte per slot (SwissTable layout).
    fn state_bytes(&self) -> u64 {
        (self.tuples.capacity() * (2 * std::mem::size_of::<u64>() + 1)) as u64
    }

    /// Pairs with traffic: entries are only created by [`Self::add`], so
    /// every count is at least 1.
    fn observed(&self) -> usize {
        self.tuples.len()
    }

    /// All pairs sorted by packed key — row-major order.
    fn sorted(&self) -> Vec<(u64, u64)> {
        let mut flat: Vec<(u64, u64)> = self.tuples.iter().map(|(k, t)| (*k, *t)).collect();
        flat.sort_unstable_by_key(|(k, _)| *k);
        flat
    }
}

/// Raw counters accumulated since the last drain — the per-window readings
/// the load monitor consumes.
///
/// Executor ids are dense (minted sequentially at submit time), so CPU
/// cycles are index-addressed (`Vec<u64>`), while pair traffic lives in
/// a sparse `PairStore` whose iteration is made deterministic by a
/// read-time sort.
#[derive(Debug, Clone, Default)]
pub struct SimCounters {
    /// CPU cycles consumed per executor, indexed by executor id.
    cycles: Vec<u64>,
    /// Tuples sent per directed executor pair (data and ack messages).
    pairs: PairStore,
    /// Bytes sent over inter-node hops per source node — the NIC egress
    /// reading the flight recorder turns into per-window utilization.
    /// Grown lazily to the highest sending node index.
    node_tx: Vec<u64>,
    /// Tuples that timed out during the window.
    pub failures: u64,
}

impl SimCounters {
    /// Creates zeroed counters sized for `n` executors.
    #[must_use]
    pub fn with_executors(n: usize) -> Self {
        Self {
            cycles: vec![0; n],
            ..Self::default()
        }
    }

    /// Grows the cycle table to cover `n` executors, preserving recorded
    /// values (called when a topology submission adds executors).
    fn ensure_executors(&mut self, n: usize) {
        if n > self.cycles.len() {
            self.cycles.resize(n, 0);
        }
    }

    #[inline]
    fn add_cycles(&mut self, exec: usize, cycles: u64) {
        self.cycles[exec] += cycles;
    }

    #[inline]
    fn add_pair(&mut self, from: usize, to: usize) {
        self.pairs.add(from, to);
    }

    #[inline]
    fn add_node_tx(&mut self, node: usize, bytes: u64) {
        if node >= self.node_tx.len() {
            self.node_tx.resize(node + 1, 0);
        }
        self.node_tx[node] += bytes;
    }

    /// Inter-node bytes sent from one node this window.
    #[must_use]
    pub fn node_tx_bytes(&self, node: NodeId) -> u64 {
        self.node_tx.get(node.as_usize()).copied().unwrap_or(0)
    }

    /// CPU cycles recorded for one executor this window.
    #[must_use]
    pub fn cycles_of(&self, exec: ExecutorId) -> u64 {
        self.cycles.get(exec.as_usize()).copied().unwrap_or(0)
    }

    /// Tuples recorded for one directed executor pair this window.
    #[must_use]
    pub fn pair(&self, from: ExecutorId, to: ExecutorId) -> u64 {
        self.pairs.get(from.as_usize(), to.as_usize())
    }

    /// Resident bytes held by the pair-traffic store right now — the
    /// footprint the `--engine-stats` report tracks.
    #[must_use]
    pub fn pair_state_bytes(&self) -> u64 {
        self.pairs.state_bytes()
    }

    /// Number of directed pairs with recorded traffic this window.
    #[must_use]
    pub fn pairs_observed(&self) -> usize {
        self.pairs.observed()
    }

    /// Executors with non-zero CPU this window, in executor-id order.
    pub fn executor_cycles(&self) -> impl Iterator<Item = (ExecutorId, u64)> + '_ {
        self.cycles
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(i, c)| (ExecutorId::new(i as u32), *c))
    }

    /// Directed executor pairs with non-zero traffic this window, in
    /// row-major (`from`, then `to`) order.
    pub fn pair_tuples(&self) -> impl Iterator<Item = (ExecutorId, ExecutorId, u64)> {
        self.pairs.sorted().into_iter().map(|(k, t)| {
            (
                ExecutorId::new((k >> 32) as u32),
                ExecutorId::new(k as u32),
                t,
            )
        })
    }

    /// True if the window recorded no CPU, no traffic, and no failures.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.failures == 0 && self.pairs.tuples.is_empty() && self.cycles.iter().all(|c| *c == 0)
    }
}

/// Hot-path allocation and recycling statistics, exposed through the
/// `--engine-stats` CLI flag and the bench harness. The backing
/// counters are plain integer increments on paths that already touch
/// the counted object, so collection cost is negligible.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Transfer boxes (per-tuple envelopes and batch envelopes) served
    /// from the free-list pools.
    pub pool_hits: u64,
    /// Transfer boxes that had to be freshly allocated.
    pub pool_misses: u64,
    /// Deep payload clones avoided by [`SharedValues`] sharing — one per routed
    /// data envelope (each previously cloned the full value vector).
    pub payload_clones_avoided: u64,
    /// Largest number of events ever pending in the event queue.
    pub queue_high_water: u64,
    /// Span-duration subtractions whose end preceded their start. Always
    /// zero in a healthy run: a non-zero count means some scheduling
    /// path produced an out-of-order timestamp pair that the old
    /// `saturating_sub` arithmetic would have silently clamped to 0µs.
    pub clock_inversions: u64,
    /// High-water resident footprint of the pair-traffic store, in
    /// bytes (the hash table allocated for observed pairs), sampled at
    /// every counter drain and at stats read time.
    pub pair_state_bytes: u64,
    /// High-water count of directed executor pairs with observed
    /// traffic in any single monitoring window.
    pub pairs_observed: u64,
}

impl EngineStats {
    /// Fraction of envelope allocations served from the pool (0 when no
    /// envelope was ever sent).
    #[must_use]
    pub fn pool_hit_rate(&self) -> f64 {
        let total = self.pool_hits + self.pool_misses;
        if total == 0 {
            0.0
        } else {
            self.pool_hits as f64 / total as f64
        }
    }

    /// Heap allocations avoided on the tuple hot path: pooled envelope
    /// boxes plus payload clones replaced by refcount bumps.
    #[must_use]
    pub fn allocations_avoided(&self) -> u64 {
        self.pool_hits + self.payload_clones_avoided
    }
}

/// What a per-node assignment apply would change: executors moving onto
/// the node (with their target slot) and executors leaving it.
type NodeSliceChanges = (Vec<(ExecutorId, SlotId)>, Vec<ExecutorId>);

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
    /// Tuples produced by the logic, to be routed at completion.
    outputs: Vec<SharedValues>,
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
    /// Current slot, if assigned.
    location: Option<SlotId>,
    /// Restart epoch: bumped when Storm kills the hosting worker.
    epoch: u32,
    /// Unavailable until this time (worker starting).
    paused_until: Option<SimTime>,
    /// Spouts do not emit before this time (smooth re-assignment halt).
    spout_halt_until: SimTime,
    /// Whether a SpoutTick event is already pending.
    tick_scheduled: bool,
    /// Time of the most recent emission attempt (rate control).
    last_tick: SimTime,
    /// Tuples waiting to be replayed, with their replay count and the
    /// time the timeout queued them. Payloads stay refcount-shared with the
    /// root that timed out — replays never deep-clone values.
    replay_queue: VecDeque<(SharedValues, u32, SimTime)>,
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

/// State of one in-flight spout tuple (the ack tree root).
struct RootState {
    /// The root tuple id (kept alongside the slab slot for traces).
    id: TupleId,
    spout: ExecutorId,
    emit_at: SimTime,
    xor: u64,
    init_seen: bool,
    /// Payload retained for replay (empty when replay is disabled).
    values: SharedValues,
    replays: u32,
    /// Acker executor tracking this root, if the topology has ackers.
    acker: Option<ExecutorId>,
    /// For acker-less topologies: outstanding anchored tuples.
    outstanding: i64,
}

/// Causal context an emit inherits from its producer: the ack-tree
/// root it is anchored to and the span chain built so far.
struct Lineage<'a> {
    root: Option<TupleId>,
    root_handle: Option<SlabHandle>,
    chain: &'a SpanChain,
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
    outputs_pool: Vec<Vec<SharedValues>>,
    /// The shared empty payload (control messages, recycled envelopes).
    empty_values: SharedValues,
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
    /// True while a [`FaultKind::NimbusCrash`] window is open: the
    /// control plane must not generate schedules or run recovery.
    nimbus_down: bool,
    /// Per-node heartbeat suppression from [`FaultKind::HeartbeatLoss`]:
    /// the node is healthy but its heartbeats never reach Nimbus.
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
    failed: u64,
    emitted: u64,
    dropped_in_flight: u64,
    reassignments: u32,
    worker_failures: u32,
    events_processed: u64,
    observer: Observer,
    /// Streaming critical-path analyzer. `None` (the default) keeps the
    /// span plane fully inert: envelopes carry a `None` chain, nothing
    /// allocates, and every instrumentation site is one pointer check.
    spans: Option<Box<CriticalPathCollector>>,
    /// Monotonic version of applied assignments (for trace events).
    assignment_version: u64,
    /// Fault-plan events fired so far.
    faults_injected: u32,
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
    /// Fault-to-first-completion latencies (ms) of healed faults.
    recovery_latencies: Vec<f64>,
}

/// Maps the simulator's hop classification onto the trace vocabulary
/// (the trace crate sits below the simulator in the dependency graph,
/// so it defines its own copy of the enum).
fn trace_hop(hop: HopClass) -> tstorm_trace::HopClass {
    match hop {
        HopClass::IntraWorker => tstorm_trace::HopClass::IntraWorker,
        HopClass::InterProcess => tstorm_trace::HopClass::InterProcess,
        HopClass::InterNode => tstorm_trace::HopClass::InterNode,
    }
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
            roots: Slab::new(),
            next_tuple: 0,
            next_edge: 0,
            env_pool: Vec::new(),
            batch_pool: Vec::new(),
            outputs_pool: Vec::new(),
            empty_values: SharedValues::from(Vec::new()),
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
            failed: 0,
            emitted: 0,
            dropped_in_flight: 0,
            reassignments: 0,
            worker_failures: 0,
            events_processed: 0,
            observer: Observer::disabled(),
            spans: None,
            assignment_version: 0,
            faults_injected: 0,
            tuples_lost: 0,
            replays_triggered: 0,
            perm_failed: 0,
            recovery_fault_at: None,
            recovery_reassigned: false,
            recovery_latencies: Vec::new(),
        };
        sim.queue
            .push(sim.config.reassign.supervisor_poll, Event::SupervisorPoll);
        sim
    }

    /// Attaches an observer; all subsequent state transitions emit trace
    /// events and update the shared metrics registry. The default
    /// (disabled) observer makes every instrumentation site a no-op, so
    /// untraced runs behave bit-identically to uninstrumented builds.
    pub fn set_observer(&mut self, observer: Observer) {
        self.observer = observer;
    }

    /// Enables causal span collection: every tuple lineage grows a chain
    /// of queue/service/network/replay segments, and each completed root
    /// feeds the streaming [`CriticalPathCollector`]. Executors of
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

    /// True when span collection is enabled.
    #[must_use]
    pub fn spans_enabled(&self) -> bool {
        self.spans.is_some()
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
                location: None,
                epoch: 0,
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
            let exec = &mut self.executors[i];
            exec.location = slot;
            if slot.is_some() {
                exec.paused_until = Some(ready_at);
                self.queue.push(ready_at, Event::ExecutorResume(id));
            }
        }
        self.current = assignment.clone();
        self.note_assignment_change(&old_slots, &diff);
        self.recompute_node_stats();
        self.record_usage();
    }

    /// Emits the worker/assignment trace events and counters for a
    /// just-applied assignment (`self.current` must already hold it).
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
        self.observer.metrics(|m| {
            m.inc_counter(
                "tstorm_assignments_applied_total",
                "Assignments applied to the cluster",
                &[],
                1,
            );
        });
        // A fault is pending recovery: the first assignment that places
        // or moves executors afterwards is the recovery placement.
        let placed = (diff.added.len() + diff.moved.len()) as u64;
        if self.recovery_fault_at.is_some() && !self.recovery_reassigned && placed > 0 {
            self.recovery_reassigned = true;
            self.emit_trace(|| TraceEvent::ExecutorsReassigned {
                version,
                count: placed,
            });
            self.observer.metrics(|m| {
                m.inc_counter(
                    "tstorm_recovery_reassignments_total",
                    "Assignments that re-placed executors after a fault",
                    &[],
                    1,
                );
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
        for (i, e) in self.executors.iter().enumerate() {
            if !e.alive {
                continue;
            }
            let id = ExecutorId::new(i as u32);
            let new_slot = target.slot_of(id);
            match new_slot {
                Some(s) if self.cluster.node_of(s) == node => {
                    if e.location != Some(s) {
                        incoming.push((id, s));
                    }
                }
                None => {
                    if e.location.is_some_and(|s| self.cluster.node_of(s) == node) {
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
    fn on_node_location_switch(&mut self, node: NodeId) {
        let Some(target) = self.node_switching_to[node.as_usize()].take() else {
            return;
        };
        let Some((incoming, retired)) = self.node_slice_changes(node, &target) else {
            return;
        };
        let before = self.current.clone();
        let old_slots = before.slots_used();
        for &(id, slot) in &incoming {
            self.executors[id.as_usize()].location = Some(slot);
            self.current.assign(id, slot);
        }
        for &id in &retired {
            self.executors[id.as_usize()].location = None;
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

    /// Runs the simulation until the given virtual time.
    pub fn run_until(&mut self, until: SimTime) {
        while let Some(t) = self.queue.peek_time() {
            if t > until {
                break;
            }
            let (_, event) = self.queue.pop().expect("peeked");
            self.clock = t;
            self.events_processed += 1;
            self.handle(event);
        }
        if until > self.clock {
            self.clock = until;
        }
    }

    /// Emits a trace event. The closure only runs when the observer is
    /// enabled, mirroring [`Observer::emit_with`].
    #[inline]
    fn emit_trace(&mut self, build: impl FnOnce() -> TraceEvent) {
        if self.observer.is_enabled() {
            self.observer.emit(self.clock, &build());
        }
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

    /// The assignment currently in force.
    #[must_use]
    pub fn current_assignment(&self) -> &Assignment {
        &self.current
    }

    /// Drains the monitoring counters accumulated since the last call,
    /// leaving zeroed tables sized for the current executor count.
    pub fn drain_counters(&mut self) -> SimCounters {
        self.note_pair_state();
        std::mem::replace(
            &mut self.counters,
            SimCounters::with_executors(self.executors.len()),
        )
    }

    /// Samples the pair-store footprint high-water marks from the live
    /// window's counters.
    fn note_pair_state(&mut self) {
        self.pair_state_high_water = self
            .pair_state_high_water
            .max(self.counters.pair_state_bytes());
        self.pairs_observed_high_water = self
            .pairs_observed_high_water
            .max(self.counters.pairs_observed() as u64);
    }

    /// Hot-path allocation/recycling statistics for this run so far.
    #[must_use]
    pub fn engine_stats(&self) -> EngineStats {
        EngineStats {
            pool_hits: self.pool_hits,
            pool_misses: self.pool_misses,
            payload_clones_avoided: self.payload_clones_avoided,
            queue_high_water: self.queue.high_water() as u64,
            clock_inversions: self.clock_inversions,
            pair_state_bytes: self
                .pair_state_high_water
                .max(self.counters.pair_state_bytes()),
            pairs_observed: self
                .pairs_observed_high_water
                .max(self.counters.pairs_observed() as u64),
        }
    }

    /// Fully-acked tuple count.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Timed-out tuple count.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Spout emissions (including replays).
    #[must_use]
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Messages dropped because their destination worker was killed by a
    /// re-assignment (Immediate mode only).
    #[must_use]
    pub fn dropped_in_flight(&self) -> u64 {
        self.dropped_in_flight
    }

    /// Input-queue depth of every executor — the backlog signal queue
    /// growth diagnostics and tests inspect.
    #[must_use]
    pub fn queue_depths(&self) -> Vec<(ExecutorId, usize)> {
        self.executors
            .iter()
            .enumerate()
            .map(|(i, e)| (ExecutorId::new(i as u32), e.queue.len()))
            .collect()
    }

    /// Number of in-flight (pending, not yet acked or failed) spout
    /// tuples.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.roots.len()
    }

    /// Assignment changes applied so far: one per Storm-mode
    /// kill-and-restart rollout, and one per node whose slice changed in
    /// a T-Storm per-node switch ([`Self::apply_assignment_for_node`]),
    /// so a T-Storm rollout that moves executors on six nodes counts six.
    #[must_use]
    pub fn reassignments(&self) -> u32 {
        self.reassignments
    }

    /// Number of injected worker failures handled so far.
    #[must_use]
    pub fn worker_failures(&self) -> u32 {
        self.worker_failures
    }

    /// Total simulation events processed — the simulator's work measure
    /// (used by throughput benchmarks and performance diagnostics).
    ///
    /// Counted in *logical* events: a delivered batch of `n` tuples
    /// counts as `n`, exactly what `n` unbatched deliveries would have
    /// counted, so the measure stays comparable across `batch_size`
    /// settings and events-per-second directly reflects batching's
    /// wall-clock savings.
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Largest number of events ever pending in the event queue at once
    /// (pending events in both lanes: the heap and the timeout lane).
    #[must_use]
    pub fn queue_high_water(&self) -> usize {
        self.queue.high_water()
    }

    /// Kills a topology: "a Storm 'job' continues on forever, unless it
    /// is killed by its user" (Section II). Its executors stop
    /// immediately, their queues are dropped, in-flight tuples are
    /// discarded (their pending roots are forgotten without counting as
    /// failures), and their slots are freed for other topologies.
    pub fn kill_topology(&mut self, topology: TopologyId) {
        let topo_idx = topology.as_usize();
        for i in 0..self.executors.len() {
            if self.executors[i].topo_idx != topo_idx {
                continue;
            }
            if let Some(work) = self.executors[i].busy.take() {
                self.release_cpu(work.busy_node);
                if let Some(env) = work.env {
                    self.recycle_envelope(env);
                }
            }
            self.drain_queue_to_pool(i);
            self.drop_pending_outbound(i);
            let e = &mut self.executors[i];
            e.alive = false;
            e.epoch += 1; // drop in-flight deliveries
            e.location = None;
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
        for h in dead {
            self.roots.remove(h);
        }
        self.recompute_node_stats();
        self.record_usage();
    }

    /// Schedules a worker crash at `at` (fault injection; Section II of
    /// the paper describes Storm's handling). Recoverable crashes are
    /// restarted in place by the supervisor after the worker startup
    /// delay; unrecoverable ones make Nimbus move the slot's executors to
    /// a free slot on a different node (they stay down if none exists).
    /// Queued and in-flight work of the crashed worker is lost either
    /// way; anchored tuples time out and may be replayed.
    pub fn inject_worker_failure(&mut self, slot: SlotId, at: SimTime, recoverable: bool) {
        self.queue
            .push(at, Event::WorkerFailure { slot, recoverable });
    }

    /// Schedules every event of a [`FaultPlan`]. Unlike
    /// [`Simulation::inject_worker_failure`], fault-plan crashes never
    /// restart in place: the engine drops the workers' state and marks
    /// node liveness, and recovery is the control plane's job (detect
    /// orphaned executors, re-run the scheduler, apply the new
    /// assignment). Node crashes with a `restart` rejoin later; NIC
    /// slowdowns restore automatically after their duration.
    ///
    /// # Errors
    ///
    /// Returns [`TStormError::InvalidConfig`] if a fault targets a node
    /// or node-local slot outside the cluster.
    pub fn apply_fault_plan(&mut self, plan: &FaultPlan) -> Result<()> {
        // Each fault is pushed before its paired restore, so a zero-length
        // window (`dur=0`, `restart=0`, or anything under 1 µs) still pops
        // fault-then-restore at the same instant and closes.
        for event in plan.events() {
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
            self.queue.push(event.at, Event::Fault(event.kind.clone()));
            if let Some((after, restore)) = restore {
                self.queue.push(event.at + after, restore);
            }
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
        self.faults_injected
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

    /// Timed-out tuples re-queued for spout replay.
    #[must_use]
    pub fn replays_triggered(&self) -> u64 {
        self.replays_triggered
    }

    /// Tuples that timed out with no replay possible — permanent losses.
    #[must_use]
    pub fn perm_failed(&self) -> u64 {
        self.perm_failed
    }

    /// Fault-to-first-completion latencies (ms) of recovered faults, in
    /// fault order.
    #[must_use]
    pub fn recovery_latencies(&self) -> &[f64] {
        &self.recovery_latencies
    }

    /// A copy of the metrics report with the given label.
    #[must_use]
    pub fn report(&self, label: &str) -> RunReport {
        let mut r = self.report.clone();
        r.label = label.to_owned();
        r.completed = self.completed;
        r.emitted = self.emitted;
        r.replays = self.replays_triggered;
        r.perm_failed = self.perm_failed;
        r.tuples_lost = self.tuples_lost;
        r.recovery_latency_ms = self.recovery_latencies.clone();
        r
    }

    // ------------------------------------------------------------------
    // Event handling
    // ------------------------------------------------------------------

    fn handle(&mut self, event: Event) {
        match event {
            Event::SpoutTick(id) => self.on_spout_tick(id),
            Event::Deliver(env) => self.on_deliver(env),
            Event::DeliverBatch(batch) => self.on_deliver_batch(batch),
            Event::ProcessDone(id) => self.on_process_done(id),
            Event::TupleTimeout(root) => self.on_timeout(root),
            Event::SupervisorPoll => self.on_supervisor_poll(),
            Event::ExecutorResume(id) => self.on_resume(id),
            Event::WorkerReady(_) => {}
            Event::WorkerFailure { slot, recoverable } => {
                self.on_worker_failure(slot, recoverable);
            }
            Event::Fault(kind) => self.on_fault(&kind),
            Event::NodeRestart(node) => self.on_node_restart(node),
            Event::NicRestore(node) => self.on_nic_restore(node),
            Event::NodeLocationSwitch(node) => self.on_node_location_switch(node),
            Event::NimbusRestore => self.on_nimbus_restore(),
            Event::HeartbeatRestore(node) => self.on_heartbeat_restore(node),
        }
    }

    fn is_available(&self, idx: usize) -> bool {
        let e = &self.executors[idx];
        e.alive && e.location.is_some() && e.paused_until.is_none_or(|t| t <= self.clock)
    }

    fn on_spout_tick(&mut self, id: ExecutorId) {
        let idx = id.as_usize();
        self.executors[idx].tick_scheduled = false;
        if self.executors[idx].location.is_none() {
            return; // re-ticked on resume
        }
        if let Some(t) = self.executors[idx].paused_until {
            if t > self.clock {
                self.schedule_tick(id, t);
                return;
            }
            self.executors[idx].paused_until = None;
        }
        if self.executors[idx].busy.is_some() {
            return; // ProcessDone will reschedule
        }
        // Drain control messages (acker completions) before emitting.
        if !self.executors[idx].queue.is_empty() {
            self.try_start(id);
            return;
        }
        let halt = self.executors[idx].spout_halt_until;
        if halt > self.clock {
            self.schedule_tick(id, halt);
            return;
        }
        // Fetch a payload: replays first, then the source.
        let payload = if let Some((values, replays, queued_at)) =
            self.executors[idx].replay_queue.pop_front()
        {
            Some((values, replays, Some(queued_at)))
        } else {
            let now = self.clock;
            match &mut self.executors[idx].logic {
                ExecutorLogic::Spout(s) => {
                    s.next_tuple(now).map(|v| (SharedValues::from(v), 0, None))
                }
                _ => None,
            }
        };
        let Some((values, replays, replay_queued_at)) = payload else {
            self.schedule_tick(id, self.clock + self.config.spout_idle_retry);
            return;
        };
        self.executors[idx].last_tick = self.clock;
        let bytes: u64 = values.iter().map(Value::payload_bytes).sum();
        let cost = self.executors[idx].cost;
        let cycles =
            cost.cycles_per_tuple + cost.cycles_per_emit + cost.cycles_per_input_byte * bytes;
        let busy_node = self.occupy_cpu(idx);
        let service = self.service_time(idx, cycles);
        let done_at = self.clock + service;
        self.counters.add_cycles(idx, cycles);
        // The root is created at completion time (see on_process_done).
        let mut outputs = self.outputs_pool.pop().unwrap_or_default();
        outputs.push(values);
        self.executors[idx].busy = Some(BusyWork {
            env: None,
            outputs,
            started_at: self.clock,
            done_at,
            replays,
            replay_queued_at,
            busy_node,
        });
        self.queue.push(done_at, Event::ProcessDone(id));
    }

    fn schedule_tick(&mut self, id: ExecutorId, at: SimTime) {
        let idx = id.as_usize();
        if !self.executors[idx].tick_scheduled {
            self.executors[idx].tick_scheduled = true;
            let at = if at > self.clock { at } else { self.clock };
            self.queue.push(at, Event::SpoutTick(id));
        }
    }

    fn on_deliver(&mut self, mut env: Box<Envelope>) {
        let idx = env.dst.as_usize();
        if env.dst_epoch != self.executors[idx].epoch {
            // The destination worker was killed while this message was in
            // flight. If the executor crashed and has not been re-placed
            // yet, the fault destroyed this tuple; otherwise it is a
            // routine re-assignment drop (Storm Immediate mode).
            if self.faults_injected > 0 && self.executors[idx].location.is_none() {
                self.note_tuple_lost(1);
            } else {
                self.dropped_in_flight += 1;
            }
            self.recycle_envelope(env);
            return;
        }
        let tuple = env.root.map_or(u64::MAX, TupleId::get);
        env.delivered_at = self.clock;
        self.executors[idx].queue.push_back(env);
        let depth = self.executors[idx].queue.len() as u64;
        self.emit_trace(|| TraceEvent::QueueEnter {
            tuple,
            executor: idx as u32,
            depth,
        });
        let id = ExecutorId::new(idx as u32);
        if self.is_available(idx) && self.executors[idx].busy.is_none() {
            self.try_start(id);
        }
    }

    /// Starts servicing the head-of-queue message if the executor is free.
    fn try_start(&mut self, id: ExecutorId) {
        let idx = id.as_usize();
        if !self.is_available(idx) || self.executors[idx].busy.is_some() {
            return;
        }
        let Some(env) = self.executors[idx].queue.pop_front() else {
            return;
        };
        {
            let tuple = env.root.map_or(u64::MAX, TupleId::get);
            let depth = self.executors[idx].queue.len() as u64;
            self.emit_trace(|| TraceEvent::QueueLeave {
                tuple,
                executor: idx as u32,
                depth,
            });
            self.emit_trace(|| TraceEvent::ProcessStart {
                tuple,
                executor: idx as u32,
            });
        }
        let mut outputs: Vec<SharedValues> = self.outputs_pool.pop().unwrap_or_default();
        if env.kind == EnvelopeKind::Data {
            if let ExecutorLogic::Bolt(b) = &mut self.executors[idx].logic {
                b.execute(&env.values, &mut |v| outputs.push(SharedValues::from(v)));
            }
        }
        let in_bytes: u64 = env.values.iter().map(Value::payload_bytes).sum();
        let cost = self.executors[idx].cost;
        let cycles = cost.cycles_per_tuple
            + cost.cycles_per_input_byte * in_bytes
            + cost.cycles_per_emit * outputs.len() as u64;
        let busy_node = self.occupy_cpu(idx);
        let service = self.service_time(idx, cycles);
        let done_at = self.clock + service;
        self.counters.add_cycles(idx, cycles);
        self.executors[idx].busy = Some(BusyWork {
            env: Some(env),
            outputs,
            started_at: self.clock,
            done_at,
            replays: 0,
            replay_queued_at: None,
            busy_node,
        });
        self.queue.push(done_at, Event::ProcessDone(id));
    }

    fn on_process_done(&mut self, id: ExecutorId) {
        let idx = id.as_usize();
        let Some(work) = self.executors[idx].busy.take() else {
            return; // stale event from a killed worker
        };
        if work.done_at != self.clock {
            // Stale event (the executor was restarted and rescheduled).
            self.executors[idx].busy = Some(work);
            return;
        }
        self.release_cpu(work.busy_node);
        self.executors[idx].completions += 1;

        {
            let tuple = work
                .env
                .as_deref()
                .map_or(u64::MAX, |e| e.root.map_or(u64::MAX, TupleId::get));
            let service_us = (work.done_at - work.started_at).as_micros();
            self.emit_trace(|| TraceEvent::ProcessDone {
                tuple,
                executor: idx as u32,
                service_us,
            });
        }

        match work.env {
            None => {
                self.finish_spout_emission(id, work.outputs, work.replays, work.replay_queued_at);
            }
            Some(env) => {
                let chain = if self.spans.is_some() {
                    // Attribute the wait since delivery and the service
                    // interval to this executor on the node that ran it.
                    let node = NodeId::new(work.busy_node as u32);
                    let queued = self.span_micros(work.started_at, env.delivered_at);
                    let serviced = self.span_micros(work.done_at, work.started_at);
                    let c = extend_span(&env.chain, SpanSeg::queue(id, node, queued));
                    extend_span(&c, SpanSeg::service(id, node, serviced))
                } else {
                    None
                };
                self.finish_message(id, &env, work.outputs, chain);
                self.recycle_envelope(env);
            }
        }

        // Keep the pipeline moving.
        self.try_start(id);
        if self.executors[idx].is_spout {
            // Jitter the pacing interval so spouts drift off a lockstep
            // grid, as OS-scheduled sleeps do on real hardware.
            let base = self.executors[idx].emit_interval.as_micros() as f64;
            let jittered = self.rng.jitter(base, self.config.cpu.service_jitter);
            let next =
                self.executors[idx].last_tick + SimTime::from_micros((jittered as u64).max(1));
            self.schedule_tick(id, next);
        }
        // A service completion is the flush boundary of the batching
        // layer: everything this completion staged (and anything older)
        // is re-examined against the flush policy now.
        if self.config.batch_size > 1 {
            self.flush_at_boundary(idx);
        }
    }

    fn finish_spout_emission(
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

    fn finish_message(
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

    /// Routes every output tuple along the producing component's outgoing
    /// edges. Returns the XOR of the new edge ids and the number of
    /// envelopes created.
    ///
    /// The per-tuple cost here is the simulator's hottest code: task
    /// selection fills one reused scratch buffer, and every envelope
    /// shares the payload refcount instead of deep-cloning values. Every
    /// created envelope inherits the producer's [`Lineage`].
    fn route_outputs(
        &mut self,
        src: ExecutorId,
        topo_idx: usize,
        component: ComponentId,
        lineage: Lineage<'_>,
        outputs: &mut Vec<SharedValues>,
    ) -> (u64, u64) {
        let Lineage {
            root,
            root_handle,
            chain,
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
        for values in outputs.drain(..) {
            for edge_idx in 0..n_edges {
                tasks.clear();
                let overhead = {
                    let edge = &self.topologies[topo_idx].out_edges[comp_idx][edge_idx];
                    let counter = &mut self.executors[src.as_usize()].direct_counters[edge_idx];
                    select_tasks_into(
                        edge.rule,
                        &edge.key_indices,
                        &values,
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
                let payload: u64 =
                    values.iter().map(Value::payload_bytes).sum::<u64>() + overhead.get();
                for &task in &tasks {
                    let dst = self.topologies[topo_idx].out_edges[comp_idx][edge_idx].task_exec
                        [task as usize];
                    let edge_id = splitmix(self.next_edge.wrapping_add(0x9e37_79b9));
                    self.next_edge += 1;
                    xor ^= edge_id;
                    count += 1;
                    self.payload_clones_avoided += 1;
                    let env = Envelope {
                        values: values.clone(),
                        src,
                        dst,
                        dst_task: task,
                        edge_id,
                        root,
                        root_handle,
                        dst_epoch: self.executors[dst.as_usize()].epoch,
                        kind: EnvelopeKind::Data,
                        chain: chain.clone(),
                        delivered_at: SimTime::ZERO,
                        staged_at: SimTime::ZERO,
                    };
                    if batching {
                        self.stage_tuple(env, Bytes::new(payload));
                    } else {
                        self.send_envelope(env, Bytes::new(payload));
                    }
                }
            }
        }
        self.task_scratch = tasks;
        (xor, count)
    }

    fn send_control(
        &mut self,
        src: ExecutorId,
        dst: ExecutorId,
        kind: EnvelopeKind,
        root: TupleId,
        root_handle: Option<SlabHandle>,
        chain: SpanChain,
    ) {
        let env = Envelope {
            values: self.empty_values.clone(),
            src,
            dst,
            dst_task: 0,
            edge_id: 0,
            root: Some(root),
            root_handle,
            dst_epoch: self.executors[dst.as_usize()].epoch,
            kind,
            chain,
            delivered_at: SimTime::ZERO,
            staged_at: SimTime::ZERO,
        };
        if self.config.batch_size > 1 {
            self.stage_tuple(env, Bytes::new(20));
        } else {
            self.send_envelope(env, Bytes::new(20));
        }
    }

    fn send_envelope(&mut self, mut env: Envelope, payload: Bytes) {
        let (Some(src_slot), Some(dst_slot)) = (
            self.executors[env.src.as_usize()].location,
            self.executors[env.dst.as_usize()].location,
        ) else {
            // An endpoint is not placed: the message is lost; anchored
            // roots will time out. An unplaced endpoint after a fault
            // means a crash orphaned it — count the tuple against the
            // fault rather than as a routine in-flight drop. The
            // envelope was never boxed, so nothing is recycled.
            if self.faults_injected > 0 {
                self.note_tuple_lost(1);
            } else {
                self.dropped_in_flight += 1;
            }
            return;
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
            hop: trace_hop(hop),
            bytes: payload.get(),
        });
        self.observer.metrics(|m| {
            let labels = [("hop", trace_hop(hop).label())];
            m.inc_counter(
                "tstorm_transfers_total",
                "Tuple transfers by locality class",
                &labels,
                1,
            );
            m.inc_counter(
                "tstorm_transfer_bytes_total",
                "Bytes transferred by locality class",
                &labels,
                payload.get(),
            );
        });
        let extra_workers = match hop {
            HopClass::IntraWorker => 0,
            _ => self.workers_on_node[dst_node.as_usize()].saturating_sub(1),
        };
        if matches!(hop, HopClass::InterNode) {
            self.counters
                .add_node_tx(src_node.as_usize(), payload.get());
        }
        let at =
            self.network
                .delivery_time(self.clock, hop, payload, src_node, dst_node, extra_workers);
        if self.spans.is_some() {
            let micros = self.span_micros(at, self.clock);
            env.chain = extend_span(
                &env.chain,
                SpanSeg::network(env.src, src_node, env.dst, dst_node, trace_hop(hop), micros),
            );
        }
        let boxed = match self.env_pool.pop() {
            Some(mut b) => {
                self.pool_hits += 1;
                *b = env;
                b
            }
            None => {
                self.pool_misses += 1;
                Box::new(env)
            }
        };
        self.queue.push(at, Event::Deliver(boxed));
    }

    /// Stages one tuple into its (source, destination) pending batch —
    /// the batched counterpart of [`Simulation::send_envelope`], taken
    /// whenever `batch_size > 1`. Per-tuple bookkeeping that the
    /// unbatched path performs at send time (placement check, traffic
    /// counters, transfer trace, NIC egress attribution) happens here
    /// at stage time; only the wire trip itself is deferred to flush.
    fn stage_tuple(&mut self, mut env: Envelope, payload: Bytes) {
        let (Some(src_slot), Some(dst_slot)) = (
            self.executors[env.src.as_usize()].location,
            self.executors[env.dst.as_usize()].location,
        ) else {
            // Same rule as the unbatched path: an unplaced endpoint
            // means the message is lost before it ever leaves.
            if self.faults_injected > 0 {
                self.note_tuple_lost(1);
            } else {
                self.dropped_in_flight += 1;
            }
            return;
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
            hop: trace_hop(hop),
            bytes: payload.get(),
        });
        self.observer.metrics(|m| {
            let labels = [("hop", trace_hop(hop).label())];
            m.inc_counter(
                "tstorm_transfers_total",
                "Tuple transfers by locality class",
                &labels,
                1,
            );
            m.inc_counter(
                "tstorm_transfer_bytes_total",
                "Bytes transferred by locality class",
                &labels,
                payload.get(),
            );
        });
        if matches!(hop, HopClass::InterNode) {
            self.counters
                .add_node_tx(src_node.as_usize(), payload.get());
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
    /// [`Network::delivery_time`] computation on the summed payload
    /// carry every staged tuple. The hop is re-classified from the
    /// endpoints' *current* placement (a smooth rollout may have moved
    /// them since staging), and each tuple's network span segment
    /// covers its own `staged_at → delivery` interval so critical-path
    /// components keep summing to root latency exactly.
    fn flush_batch(&mut self, mut batch: Box<BatchEnvelope>) {
        let (Some(src_slot), Some(dst_slot)) = (
            self.executors[batch.src.as_usize()].location,
            self.executors[batch.dst.as_usize()].location,
        ) else {
            // An endpoint lost its placement between staging and flush:
            // every staged tuple is lost, under the same fault-vs-churn
            // attribution the unbatched path applies at send time.
            let n = batch.tuples.len() as u64;
            if self.faults_injected > 0 {
                self.note_tuple_lost(n);
            } else {
                self.dropped_in_flight += n;
            }
            self.recycle_batch(batch);
            return;
        };
        let src_node = self.cluster.node_of(src_slot);
        let dst_node = self.cluster.node_of(dst_slot);
        let hop = classify(src_slot.index(), dst_slot.index(), src_node, dst_node);
        let extra_workers = match hop {
            HopClass::IntraWorker => 0,
            _ => self.workers_on_node[dst_node.as_usize()].saturating_sub(1),
        };
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
            for i in 0..batch.tuples.len() {
                let micros = self.span_micros(at, batch.tuples[i].staged_at);
                let t = &mut batch.tuples[i];
                t.chain = extend_span(
                    &t.chain,
                    SpanSeg::network(t.src, src_node, t.dst, dst_node, trace_hop(hop), micros),
                );
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
    fn flush_at_boundary(&mut self, idx: usize) {
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
    fn on_deliver_batch(&mut self, mut batch: Box<BatchEnvelope>) {
        // `run_until` counted one event for the pop; the remaining
        // tuples keep `events_processed` a *logical* measure that is
        // comparable across batch sizes.
        self.events_processed += (batch.tuples.len() as u64).saturating_sub(1);
        let idx = batch.dst.as_usize();
        for mut env in batch.tuples.drain(..) {
            if env.dst_epoch != self.executors[idx].epoch {
                if self.faults_injected > 0 && self.executors[idx].location.is_none() {
                    self.note_tuple_lost(1);
                } else {
                    self.dropped_in_flight += 1;
                }
                continue;
            }
            let tuple = env.root.map_or(u64::MAX, TupleId::get);
            env.delivered_at = self.clock;
            let boxed = match self.env_pool.pop() {
                Some(mut b) => {
                    self.pool_hits += 1;
                    *b = env;
                    b
                }
                None => {
                    self.pool_misses += 1;
                    Box::new(env)
                }
            };
            self.executors[idx].queue.push_back(boxed);
            let depth = self.executors[idx].queue.len() as u64;
            self.emit_trace(|| TraceEvent::QueueEnter {
                tuple,
                executor: idx as u32,
                depth,
            });
        }
        self.recycle_batch(batch);
        let id = ExecutorId::new(idx as u32);
        if self.is_available(idx) && self.executors[idx].busy.is_none() {
            self.try_start(id);
        }
    }

    /// Returns a batch box to the batch pool, releasing its tuples'
    /// payload references so values are not pinned while pooled. The
    /// tuple vector keeps its capacity — the recycled allocation is the
    /// point of the pool.
    fn recycle_batch(&mut self, mut batch: Box<BatchEnvelope>) {
        if self.batch_pool.len() >= ENVELOPE_POOL_CAP {
            return;
        }
        batch.tuples.clear();
        batch.payload_bytes = 0;
        self.batch_pool.push(batch);
    }

    /// Drops an executor's staged-but-unflushed outbound batches and
    /// returns how many tuples they held — the batching counterpart of
    /// [`Simulation::drain_queue_to_pool`]: a killed worker's outbound
    /// buffer dies with it.
    fn drop_pending_outbound(&mut self, idx: usize) -> u64 {
        if self.executors[idx].pending.is_empty() {
            return 0;
        }
        let mut n = 0u64;
        let mut pending = std::mem::take(&mut self.executors[idx].pending);
        for batch in pending.drain(..) {
            n += batch.tuples.len() as u64;
            self.recycle_batch(batch);
        }
        self.executors[idx].pending = pending;
        n
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

    /// Returns a drained output buffer to the pool, dropping any
    /// leftover payload references so values are not pinned while
    /// pooled. The vector keeps its capacity.
    fn recycle_outputs(&mut self, mut outputs: Vec<SharedValues>) {
        if self.outputs_pool.len() >= ENVELOPE_POOL_CAP {
            return;
        }
        outputs.clear();
        self.outputs_pool.push(outputs);
    }

    /// Returns an envelope box to the free-list pool, releasing its
    /// payload reference so values are not pinned while pooled.
    fn recycle_envelope(&mut self, mut env: Box<Envelope>) {
        if self.env_pool.len() >= ENVELOPE_POOL_CAP {
            return;
        }
        env.values = self.empty_values.clone();
        env.chain = None;
        self.env_pool.push(env);
    }

    /// Drops an executor's queued messages into the envelope pool and
    /// returns how many there were.
    fn drain_queue_to_pool(&mut self, idx: usize) -> u64 {
        let mut n = 0u64;
        while let Some(env) = self.executors[idx].queue.pop_front() {
            n += 1;
            self.recycle_envelope(env);
        }
        n
    }

    fn on_timeout(&mut self, handle: SlabHandle) {
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

    fn on_supervisor_poll(&mut self) {
        self.queue.push(
            self.clock + self.config.reassign.supervisor_poll,
            Event::SupervisorPoll,
        );
        if self.observer.is_enabled() {
            // Sample queue occupancy on the supervisor grid: cheap, and
            // frequent enough to catch sustained backlog.
            let depths: Vec<(usize, usize)> = self
                .executors
                .iter()
                .enumerate()
                .map(|(i, e)| (i, e.queue.len()))
                .collect();
            self.observer.metrics(|m| {
                for (i, depth) in depths {
                    m.set_gauge(
                        "tstorm_queue_depth",
                        "Executor receive-queue depth at the last supervisor poll",
                        &[("executor", &i.to_string())],
                        depth as f64,
                    );
                }
            });
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
            let old_slot = self.executors[i].location;
            let new_slot = new.slot_of(id);
            let affected = old_slot != new_slot
                || old_slot.is_some_and(|s| diff.changed_slots.contains(&s))
                || new_slot.is_some_and(|s| diff.changed_slots.contains(&s));
            self.executors[i].location = new_slot;
            if affected {
                if let Some(work) = self.executors[i].busy.take() {
                    // In-service work is lost with the worker.
                    self.release_cpu(work.busy_node);
                    if let Some(env) = work.env {
                        self.recycle_envelope(env);
                    }
                }
                self.drain_queue_to_pool(i);
                self.drop_pending_outbound(i);
                let e = &mut self.executors[i];
                e.epoch += 1;
                if new_slot.is_some() {
                    e.paused_until = Some(ready_at);
                    self.queue.push(ready_at, Event::ExecutorResume(id));
                }
            }
        }
        self.current = new.clone();
        self.note_assignment_change(&old_slots, &diff);
        self.recompute_node_stats();
        self.record_usage();
    }

    fn on_worker_failure(&mut self, slot: SlotId, recoverable: bool) {
        let victims: Vec<usize> = self
            .executors
            .iter()
            .enumerate()
            .filter(|(_, e)| e.location == Some(slot))
            .map(|(i, _)| i)
            .collect();
        if victims.is_empty() {
            return; // empty slot: nothing to kill
        }
        self.worker_failures += 1;
        {
            let node = self.cluster.node_of(slot).index();
            let worker = slot.index();
            self.emit_trace(|| TraceEvent::WorkerStop { node, worker });
            self.observer.metrics(|m| {
                m.inc_counter(
                    "tstorm_worker_failures_total",
                    "Injected worker crashes handled",
                    &[],
                    1,
                );
            });
        }

        // An unrecoverable crash relocates the whole worker to a free
        // slot on another node, if one exists.
        let new_slot = if recoverable {
            Some(slot)
        } else {
            let node = self.cluster.node_of(slot);
            let used = self.current.slots_used();
            self.cluster
                .slots()
                .iter()
                .find(|s| s.node != node && !used.contains(&s.slot))
                .map(|s| s.slot)
        };

        if let Some(s) = new_slot {
            let node = self.cluster.node_of(s).index();
            let worker = s.index();
            self.emit_trace(|| TraceEvent::WorkerStart { node, worker });
        }
        let ready_at = self.clock + self.config.reassign.worker_startup;
        for i in victims {
            if let Some(work) = self.executors[i].busy.take() {
                self.release_cpu(work.busy_node);
                if let Some(env) = work.env {
                    self.recycle_envelope(env);
                }
            }
            self.drain_queue_to_pool(i);
            self.drop_pending_outbound(i);
            let id = ExecutorId::new(i as u32);
            let e = &mut self.executors[i];
            e.epoch += 1;
            e.location = new_slot;
            match new_slot {
                Some(s) => {
                    e.paused_until = Some(ready_at);
                    self.current.assign(id, s);
                    self.queue.push(ready_at, Event::ExecutorResume(id));
                }
                None => {
                    // Nowhere to restart: the executor stays down until a
                    // future assignment places it.
                    self.current.unassign(id);
                }
            }
        }
        self.recompute_node_stats();
        self.record_usage();
    }

    /// One fault-plan event fires. Crashes drop worker state and leave
    /// the victims unassigned — the monitoring loop notices at its next
    /// round and re-runs the scheduler against the shrunken cluster.
    fn on_fault(&mut self, kind: &FaultKind) {
        self.faults_injected += 1;
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
        let name = kind.name();
        self.emit_trace(|| TraceEvent::FaultInjected {
            kind: name.to_owned(),
            node: node.map(|n| n.index()),
            worker,
        });
        self.observer.metrics(|m| {
            m.inc_counter(
                "tstorm_faults_injected_total",
                "Fault-plan events fired",
                &[("kind", name)],
                1,
            );
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
            .executors
            .iter()
            .enumerate()
            .filter(|(_, e)| e.location == Some(slot))
            .map(|(i, _)| i)
            .collect();
        if victims.is_empty() {
            return; // empty slot: nothing to kill
        }
        {
            let node = self.cluster.node_of(slot).index();
            let worker = slot.index();
            self.emit_trace(|| TraceEvent::WorkerStop { node, worker });
        }
        let mut lost = 0u64;
        for i in victims {
            if let Some(work) = self.executors[i].busy.take() {
                self.release_cpu(work.busy_node);
                lost += 1;
                if let Some(env) = work.env {
                    self.recycle_envelope(env);
                }
            }
            lost += self.drain_queue_to_pool(i);
            lost += self.drop_pending_outbound(i);
            let e = &mut self.executors[i];
            e.epoch += 1;
            e.location = None;
            e.paused_until = None;
            self.current.unassign(ExecutorId::new(i as u32));
        }
        self.note_tuple_lost(lost);
    }

    /// Counts tuples destroyed by a fault — at the crash instant or
    /// dropped later because a crash left their destination unplaced.
    fn note_tuple_lost(&mut self, n: u64) {
        self.tuples_lost += n;
        self.observer.metrics(|m| {
            m.inc_counter(
                "tstorm_tuples_lost_total",
                "Queued or in-service tuples destroyed by crashes",
                &[],
                n,
            );
        });
    }

    /// A crashed node rejoins: its slots become schedulable again. No
    /// executors move here — the next schedule generation may use it.
    fn on_node_restart(&mut self, node: NodeId) {
        self.cluster.set_node_live(node, true);
        self.emit_trace(|| TraceEvent::FaultInjected {
            kind: "node_restart".to_owned(),
            node: Some(node.index()),
            worker: None,
        });
    }

    /// A Nimbus-crash window ends: the control plane may generate and
    /// recover again from its next decision point onwards.
    fn on_nimbus_restore(&mut self) {
        self.nimbus_down = false;
        self.emit_trace(|| TraceEvent::FaultInjected {
            kind: "nimbus_restored".to_owned(),
            node: None,
            worker: None,
        });
    }

    /// A heartbeat-loss window ends: the node's next heartbeat reaches
    /// Nimbus again and reconciliation can begin.
    fn on_heartbeat_restore(&mut self, node: NodeId) {
        self.heartbeat_muted[node.as_usize()] = false;
        self.emit_trace(|| TraceEvent::FaultInjected {
            kind: "heartbeat_restored".to_owned(),
            node: Some(node.index()),
            worker: None,
        });
    }

    /// A transient NIC slowdown ends.
    fn on_nic_restore(&mut self, node: NodeId) {
        self.network.set_slow_factor(node, 1.0);
        self.emit_trace(|| TraceEvent::FaultInjected {
            kind: "nic_restored".to_owned(),
            node: Some(node.index()),
            worker: None,
        });
    }

    fn on_resume(&mut self, id: ExecutorId) {
        let idx = id.as_usize();
        if let Some(t) = self.executors[idx].paused_until {
            if t <= self.clock {
                self.executors[idx].paused_until = None;
            }
        }
        self.try_start(id);
        if self.executors[idx].is_spout {
            self.schedule_tick(id, self.clock);
        }
    }

    // ------------------------------------------------------------------
    // Models
    // ------------------------------------------------------------------

    /// Marks the executor's node as running one more thread; returns the
    /// node index holding the charge.
    fn occupy_cpu(&mut self, exec_idx: usize) -> usize {
        let k = self.executors[exec_idx]
            .location
            .map_or(0, |slot| self.cluster.node_of(slot).as_usize());
        self.node_busy[k] += 1;
        k
    }

    fn release_cpu(&mut self, node_idx: usize) {
        self.node_busy[node_idx] = self.node_busy[node_idx].saturating_sub(1);
    }

    /// Service time for `cycles` on the executor's node.
    ///
    /// Multi-core processor sharing over *active* threads: an executor
    /// runs at up to one core's speed; when more threads are in service
    /// than the node's capacity covers, everyone slows to the fair share.
    /// Crowded nodes additionally pay a context-switch tax per extra
    /// worker process. Call after [`Simulation::occupy_cpu`] so the
    /// starting thread counts itself.
    fn service_time(&mut self, exec_idx: usize, cycles: u64) -> SimTime {
        let Some(slot) = self.executors[exec_idx].location else {
            return SimTime::from_micros(1);
        };
        let k = self.cluster.node_of(slot).as_usize();
        let cap = self.cluster.nodes()[k].capacity.get();
        let active = f64::from(self.node_busy[k].max(1));
        let tax = (self.config.cpu.context_switch_tax_per_worker
            * f64::from(self.workers_on_node[k].saturating_sub(1)))
        .min(self.config.cpu.max_context_switch_tax);
        let share = (cap * (1.0 - tax) / active)
            .min(self.config.cpu.core_mhz)
            .max(1.0);
        let micros = cycles as f64 / share; // MHz == cycles per microsecond
        let jittered = self.rng.jitter(micros, self.config.cpu.service_jitter);
        SimTime::from_micros((jittered as u64).max(1))
    }

    fn recompute_node_stats(&mut self) {
        let k = self.cluster.num_nodes();
        let mut located = vec![0u32; k];
        let mut slots_used: FxHashSet<SlotId> = FxHashSet::default();
        for e in &self.executors {
            if let Some(slot) = e.location {
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

    fn record_usage(&mut self) {
        let nodes = self.workers_on_node.iter().filter(|w| **w > 0).count() as u32;
        let workers: u32 = self.workers_on_node.iter().sum();
        self.report.nodes_used.record(self.clock, nodes);
        self.report.workers_used.record(self.clock, workers);
    }
}

/// SplitMix64: cheap, well-mixed ids for ack-tree edges.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A whole simulation — payloads, span chains, logic boxes — can
    /// move across threads.
    #[test]
    fn simulation_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Simulation>();
        assert_send::<SharedValues>();
        assert_send::<ExecutorLogic>();
    }
}
