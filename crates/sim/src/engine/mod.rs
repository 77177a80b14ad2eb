//! The simulation engine: owns the `Simulation` state and the event
//! loop, and decides which handler each event goes to.

mod acking;
mod counters;
mod faults;
mod rollout;
mod service;
mod transfer;

pub use counters::{EngineStats, SimCounters};

use crate::config::SimConfig;
use crate::event::{BatchEnvelope, Envelope, Event, EventQueue};
use crate::logic::ExecutorLogic;
use crate::network::Network;
use crate::routing::RouteRule;
use std::collections::VecDeque;
use tstorm_cluster::{Assignment, ClusterSpec};
use tstorm_metrics::RunReport;
use tstorm_topology::{ComponentSpec, CostProfile, ExecutionPlan, SharedValues, Topology};
use tstorm_trace::{CriticalPathCollector, Observer, SpanChain, TraceEvent};
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
    failed: u64,
    emitted: u64,
    dropped_in_flight: u64,
    reassignments: u32,
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
