//! The assembled system: simulator + monitors + explicit control plane.
//!
//! This module is wiring. The decisions live in the control-plane
//! components it connects through the simulated timeline:
//!
//! - [`Nimbus`] owns the scheduler registry, the active algorithm, and
//!   heartbeat-derived liveness (generation/recovery decisions);
//! - the [`ScheduleStore`] carries epoch-stamped publications from the
//!   generator to Nimbus;
//! - per-node [`Supervisor`] state machines heartbeat to Nimbus and
//!   fetch/apply their node's slice of the cluster assignment on
//!   jittered, phase-staggered timers — a rollout is *not* atomic, and
//!   different nodes briefly run different assignment epochs.

use crate::config::{SystemMode, TStormConfig};
use crate::nimbus::{ControlStats, Nimbus, Reconciliation};
use crate::store::ScheduleStore;
use crate::supervisor::{HeartbeatOutcome, Supervisor};
use crate::timeline::ControlEvent;
use std::collections::{BTreeMap, BTreeSet};
use tstorm_cluster::{Assignment, ClusterSpec};
use tstorm_metrics::RunReport;
use tstorm_monitor::{LoadMonitor, OverloadDetector, WindowSnapshot};
use tstorm_sched::{
    AssignmentQuality, ExecutorInfo, RoundRobinScheduler, SchedParams, ScheduleExplanation,
    Scheduler, SchedulerRegistry, SchedulingInput,
};
use tstorm_sim::{ExecutorLogic, SimCounters, Simulation, TopologyHandle};
use tstorm_topology::{ComponentSpec, Topology};
use tstorm_trace::json::{write_escaped, ObjectWriter};
use tstorm_trace::{FlightRecorder, Observer, TraceEvent};
use tstorm_types::{
    AssignmentId, ComponentId, ExecutorId, NodeId, Result, SimTime, TStormError, TopologyId,
};

/// Publish hysteresis: a periodically generated schedule is only
/// published when it reduces estimated inter-node traffic by at least
/// this fraction (or frees nodes without hurting traffic). Prevents
/// re-assignment churn from small estimate fluctuations; overload
/// recovery bypasses it.
const IMPROVEMENT_THRESHOLD: f64 = 0.1;

/// Minimum gap between overload-triggered generations (and between
/// crash-recovery retries). While a recovery assignment rolls out and
/// the backlog drains, tuples keep timing out; without a cooldown the
/// fast path would regenerate (and restart the rollout) on every
/// monitoring window.
const OVERLOAD_COOLDOWN: SimTime = SimTime::from_secs(60);

/// A running T-Storm (or plain Storm) deployment over the simulator.
///
/// See the crate docs for the control-loop structure; construct with
/// [`TStormSystem::new`], add topologies with [`TStormSystem::submit`],
/// then [`TStormSystem::start`] and [`TStormSystem::run_until`].
pub struct TStormSystem {
    cluster: ClusterSpec,
    config: TStormConfig,
    sim: Simulation,
    monitor: LoadMonitor,
    detector: OverloadDetector,
    /// The cluster master: scheduler ownership + heartbeat liveness.
    nimbus: Nimbus,
    /// The schedule store between generator and Nimbus.
    store: ScheduleStore,
    /// One supervisor state machine per worker node.
    supervisors: Vec<Supervisor>,
    workers_requested: BTreeMap<TopologyId, u32>,
    component_edges: Vec<(TopologyId, ComponentId, ComponentId)>,
    next_monitor: SimTime,
    next_fetch: SimTime,
    next_generate: SimTime,
    started: bool,
    generations: u32,
    overload_events: u32,
    last_overload_generate: Option<SimTime>,
    last_recovery_generate: Option<SimTime>,
    recovery_events: u32,
    timeline: Vec<ControlEvent>,
    observer: Observer,
    /// Whether schedulers record per-placement decisions.
    explain: bool,
    /// Every explanation captured this run: (store epoch, when,
    /// records). Epoch 0 marks schedules that bypassed the store (the
    /// initial assignment, plain-Storm rewrites).
    explanations: Vec<(u64, SimTime, ScheduleExplanation)>,
    /// The run flight recorder, when attached.
    recorder: Option<FlightRecorder<Box<dyn std::io::Write + Send>>>,
    /// Timeline events already streamed to the recorder as `control`
    /// lines.
    recorded_timeline: usize,
}

impl std::fmt::Debug for TStormSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TStormSystem")
            .field("mode", &self.config.mode)
            .field("now", &self.sim.now())
            .field("generations", &self.generations)
            .field("overload_events", &self.overload_events)
            .finish()
    }
}

impl TStormSystem {
    /// Creates a system over the given cluster.
    ///
    /// # Errors
    ///
    /// Returns [`TStormError::InvalidConfig`] when the configuration is
    /// out of domain, or [`TStormError::UnknownScheduler`] when
    /// `config.scheduler` is not registered.
    pub fn new(cluster: ClusterSpec, config: TStormConfig) -> Result<Self> {
        config.validate()?;
        let registry = SchedulerRegistry::with_builtins();
        // Plain Storm installs its own default scheduler; recovery then
        // re-runs whatever is installed (which a hot swap may replace),
        // in either mode.
        let initial = match config.mode {
            SystemMode::StormDefault => "storm-default",
            SystemMode::TStorm => config.scheduler.as_str(),
        };
        let nimbus = Nimbus::new(registry, initial, cluster.num_nodes())?;
        let sim = Simulation::new(cluster.clone(), config.sim);
        let monitor = LoadMonitor::new(config.alpha);
        let num_nodes = cluster.num_nodes();
        let supervisors = cluster
            .nodes()
            .iter()
            .map(|n| {
                Supervisor::new(
                    n.id,
                    num_nodes,
                    config.sim.seed,
                    config.heartbeat_period,
                    config.sim.reassign.supervisor_poll,
                    config.fetch_jitter,
                )
            })
            .collect();
        Ok(Self {
            monitor,
            detector: OverloadDetector::default(),
            nimbus,
            store: ScheduleStore::new(),
            supervisors,
            workers_requested: BTreeMap::new(),
            component_edges: Vec::new(),
            next_monitor: config.monitor_period,
            next_fetch: config.fetch_period,
            next_generate: config.generation_period,
            started: false,
            generations: 0,
            overload_events: 0,
            last_overload_generate: None,
            last_recovery_generate: None,
            recovery_events: 0,
            timeline: Vec::new(),
            observer: Observer::disabled(),
            explain: false,
            explanations: Vec::new(),
            recorder: None,
            recorded_timeline: 0,
            cluster,
            config,
            sim,
        })
    }

    /// Attaches an observer to the whole system: the simulator's data
    /// plane, the load monitor, and the control plane all share its
    /// sinks and metrics registry.
    pub fn set_observer(&mut self, observer: Observer) {
        self.sim.set_observer(observer.clone());
        self.monitor.set_observer(observer.clone());
        self.observer = observer;
    }

    /// The observer attached to this system (disabled unless
    /// [`TStormSystem::set_observer`] was called).
    #[must_use]
    pub fn observer(&self) -> &Observer {
        &self.observer
    }

    /// Enables span collection and critical-path analysis in the data
    /// plane (see [`Simulation::enable_spans`]).
    pub fn enable_spans(&mut self) {
        self.sim.enable_spans();
    }

    /// Turns scheduler decision recording on or off. When on, every
    /// schedule call — generation, initial assignment, rebalance,
    /// recovery — captures a [`ScheduleExplanation`] that is persisted
    /// through the store and retrievable via
    /// [`TStormSystem::explanations`].
    pub fn set_explain(&mut self, on: bool) {
        self.explain = on;
        self.nimbus.set_explain(on);
    }

    /// Every scheduler explanation captured so far, as (store epoch,
    /// virtual time, records). Epoch 0 marks schedules that bypassed
    /// the store (the initial assignment, plain-Storm rewrites).
    #[must_use]
    pub fn explanations(&self) -> &[(u64, SimTime, ScheduleExplanation)] {
        &self.explanations
    }

    /// Attaches a flight recorder. The caller writes the leading `meta`
    /// line (it owns run provenance); the system streams `window`,
    /// `decision` and `control` lines while running, and
    /// [`TStormSystem::finish_recording`] appends the final
    /// `critical_path` line.
    pub fn set_flight_recorder(
        &mut self,
        recorder: FlightRecorder<Box<dyn std::io::Write + Send>>,
    ) {
        self.recorder = Some(recorder);
    }

    /// Flushes pending control-plane lines, writes the closing
    /// `critical_path` line (when spans are enabled) and detaches the
    /// recorder, returning the total lines it wrote. `None` when no
    /// recorder was attached.
    pub fn finish_recording(&mut self) -> Option<u64> {
        self.flush_control_lines();
        let now = self.sim.now();
        let spans_json = self
            .sim
            .spans()
            .map(tstorm_trace::CriticalPathCollector::to_json);
        let mut recorder = self.recorder.take()?;
        if let Some(json) = spans_json {
            recorder.line("critical_path", now, |o| {
                o.raw("summary", &json);
            });
        }
        let _ = recorder.flush();
        Some(recorder.lines_written())
    }

    /// Streams timeline events the recorder has not seen yet as
    /// `control` lines.
    fn flush_control_lines(&mut self) {
        let Some(recorder) = self.recorder.as_mut() else {
            return;
        };
        for event in &self.timeline[self.recorded_timeline..] {
            recorder.line("control", event.at(), |o| {
                o.str("event", control_event_kind(event))
                    .str("detail", &event.to_string());
            });
        }
        self.recorded_timeline = self.timeline.len();
    }

    /// Captures the active scheduler's decision records (when explain
    /// is on), stamps them with `epoch`, and streams them to the
    /// recorder. Returns a clone for the store.
    fn record_explanation(
        &mut self,
        epoch: u64,
        explanation: Option<ScheduleExplanation>,
    ) -> Option<ScheduleExplanation> {
        let explanation = explanation?;
        let at = self.sim.now();
        if let Some(recorder) = self.recorder.as_mut() {
            recorder.line("decision", at, |o| {
                o.u64("epoch", epoch)
                    .str("algorithm", &explanation.algorithm)
                    .f64("objective", explanation.total_objective())
                    .raw("notes", &strings_json(&explanation.notes))
                    .raw("decisions", &decisions_json(&explanation));
            });
        }
        self.explanations.push((epoch, at, explanation.clone()));
        Some(explanation)
    }

    /// One `window` recorder line: per-executor load estimates, per-node
    /// CPU and NIC egress, the deepest input queues, the heaviest
    /// traffic pairs, and where Nimbus's liveness belief diverges from
    /// ground truth.
    fn record_window(&mut self, counters: &SimCounters) {
        const TOP_K: usize = 8;
        let at = self.sim.now();

        let mut loads: Vec<(ExecutorId, tstorm_types::Mhz)> =
            self.monitor.db().executor_loads().into_iter().collect();
        loads.sort_by_key(|(e, _)| *e);
        let mut executors = String::from("[");
        for (i, (exec, load)) in loads.iter().enumerate() {
            if i > 0 {
                executors.push(',');
            }
            let mut o = ObjectWriter::new();
            o.str("id", &exec.to_string()).f64("mhz", load.get());
            executors.push_str(&o.finish());
        }
        executors.push(']');

        let utilisations = self.node_utilisations();
        let mut nodes = String::from("[");
        for (i, node) in self.cluster.nodes().iter().enumerate() {
            if i > 0 {
                nodes.push(',');
            }
            let cpu = utilisations
                .iter()
                .find(|(n, _)| *n == node.id.index())
                .map_or(0.0, |(_, u)| *u);
            let mut o = ObjectWriter::new();
            o.str("id", &node.id.to_string())
                .f64("cpu", cpu)
                .u64("nic_tx_bytes", counters.node_tx_bytes(node.id));
            nodes.push_str(&o.finish());
        }
        nodes.push(']');

        let mut depths = self.sim.queue_depths();
        depths.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        depths.truncate(TOP_K);
        let mut queues = String::from("[");
        for (i, (exec, depth)) in depths.iter().enumerate() {
            if i > 0 {
                queues.push(',');
            }
            let mut o = ObjectWriter::new();
            o.str("id", &exec.to_string()).u64("depth", *depth as u64);
            queues.push_str(&o.finish());
        }
        queues.push(']');

        let mut heavy: Vec<(ExecutorId, ExecutorId, u64)> = counters.pair_tuples().collect();
        heavy.sort_by(|a, b| b.2.cmp(&a.2).then((a.0, a.1).cmp(&(b.0, b.1))));
        heavy.truncate(TOP_K);
        let mut pairs = String::from("[");
        for (i, (from, to, tuples)) in heavy.iter().enumerate() {
            if i > 0 {
                pairs.push(',');
            }
            let mut o = ObjectWriter::new();
            o.str("from", &from.to_string())
                .str("to", &to.to_string())
                .u64("tuples", *tuples);
            pairs.push_str(&o.finish());
        }
        pairs.push(']');

        // Nodes where Nimbus's heartbeat-derived belief contradicts the
        // simulator's ground truth, in either direction.
        let mut diverged = String::from("[");
        let mut any = false;
        for node in self.cluster.nodes() {
            let believed_dead = self.nimbus.is_declared_dead(node.id);
            let truly_live = self.sim.cluster().is_node_live(node.id);
            if believed_dead == truly_live {
                if any {
                    diverged.push(',');
                }
                any = true;
                let mut o = ObjectWriter::new();
                o.str("id", &node.id.to_string())
                    .str("belief", if believed_dead { "dead" } else { "alive" })
                    .str("truth", if truly_live { "alive" } else { "dead" });
                diverged.push_str(&o.finish());
            }
        }
        diverged.push(']');

        let queue_high_water = self.sim.queue_high_water() as u64;
        if let Some(recorder) = self.recorder.as_mut() {
            recorder.line("window", at, |o| {
                o.raw("executors", &executors)
                    .raw("nodes", &nodes)
                    .raw("queues", &queues)
                    .u64("event_queue_high_water", queue_high_water)
                    .raw("top_pairs", &pairs)
                    .raw("belief_divergence", &diverged);
            });
        }
    }

    /// Submits a topology with its logic factory. Storm applications port
    /// unchanged: the same topology and factory run under either
    /// [`SystemMode`].
    ///
    /// # Errors
    ///
    /// Returns [`TStormError::InvalidTopology`] if the topology fails
    /// re-validation.
    pub fn submit(
        &mut self,
        topology: &Topology,
        factory: &mut dyn FnMut(&ComponentSpec, u32) -> ExecutorLogic,
    ) -> Result<TopologyHandle> {
        topology.validate()?;
        let handle = self.sim.submit_topology(topology, factory);
        self.workers_requested
            .insert(handle.id, topology.num_workers());
        for edge in topology.edges() {
            self.component_edges.push((handle.id, edge.from, edge.to));
        }
        Ok(handle)
    }

    /// Computes and applies the initial assignment (epoch 0).
    ///
    /// Storm uses its default scheduler. T-Storm uses the modified
    /// default of Section IV-C — `N*_w = min(Nu, Nw)` workers, at most one
    /// slot per node per topology — because "the proposed traffic-aware
    /// scheduling algorithm cannot be applied initially since no runtime
    /// load information can be provided at that time".
    ///
    /// # Errors
    ///
    /// Propagates scheduler infeasibility.
    pub fn start(&mut self) -> Result<()> {
        if self.started {
            return Ok(());
        }
        let mut initial: Box<dyn Scheduler> = match self.config.mode {
            SystemMode::StormDefault => Box::new(RoundRobinScheduler::storm_default()),
            SystemMode::TStorm => Box::new(RoundRobinScheduler::tstorm_initial()),
        };
        initial.set_explain(self.explain);
        let input = self.scheduling_input();
        let assignment = initial.schedule(&input)?;
        self.record_explanation(0, initial.take_explanation());
        self.sim.apply_assignment(&assignment);
        self.started = true;
        Ok(())
    }

    /// Advances the system to the given virtual time, interleaving the
    /// data plane (simulation) with the control plane: monitor ticks,
    /// schedule generation, Nimbus's store fetches, and every
    /// supervisor's heartbeat/fetch timers.
    ///
    /// # Errors
    ///
    /// Returns [`TStormError::InvalidConfig`] if called before
    /// [`TStormSystem::start`]; propagates scheduler errors.
    pub fn run_until(&mut self, until: SimTime) -> Result<()> {
        if !self.started {
            return Err(TStormError::invalid_config(
                "lifecycle",
                "run_until called before start()",
            ));
        }
        loop {
            let tstorm = self.config.mode == SystemMode::TStorm;
            let mut next = self.next_monitor;
            if tstorm {
                next = next.min(self.next_fetch).min(self.next_generate);
            }
            for sup in &self.supervisors {
                next = next.min(sup.next_event(tstorm));
            }
            if next > until {
                self.sim.run_until(until);
                self.flush_control_lines();
                return Ok(());
            }
            self.sim.run_until(next);
            let now = self.sim.now();
            if now >= self.next_monitor {
                self.monitor_tick()?;
                self.next_monitor += self.config.monitor_period;
            }
            if tstorm {
                if now >= self.next_generate {
                    self.generate(false)?;
                    self.next_generate += self.config.generation_period;
                }
                if now >= self.next_fetch {
                    self.nimbus_fetch();
                    self.next_fetch += self.config.fetch_period;
                }
            }
            self.supervisor_round(now)?;
            self.flush_control_lines();
        }
    }

    /// Drives every supervisor whose timer is due at `now`, in node
    /// order (deterministic). Heartbeats run in both modes — liveness is
    /// always heartbeat-derived — while store-driven fetch/apply only
    /// exists under T-Storm (plain Storm has no schedule store).
    fn supervisor_round(&mut self, now: SimTime) -> Result<()> {
        let fetch_enabled = self.config.mode == SystemMode::TStorm;
        for i in 0..self.supervisors.len() {
            let node = self.supervisors[i].node();
            let node_live = self.sim.cluster().is_node_live(node);
            let muted = self.sim.heartbeat_suppressed(node);
            match self.supervisors[i].poll_heartbeat(now, node_live, muted) {
                Some(HeartbeatOutcome::Sent { was_down }) => {
                    self.observer
                        .emit_with(now, || TraceEvent::HeartbeatSent { node: node.index() });
                    self.observer.metrics(|m| {
                        m.inc_counter(
                            "tstorm_heartbeats_sent_total",
                            "Supervisor heartbeats that reached Nimbus",
                            &[],
                            1,
                        );
                    });
                    if let Some(rec) = self.nimbus.record_heartbeat(node, now, was_down) {
                        self.note_reconciliation(now, rec);
                    }
                }
                Some(HeartbeatOutcome::Missed) => {
                    self.observer.metrics(|m| {
                        m.inc_counter(
                            "tstorm_heartbeats_missed_total",
                            "Supervisor heartbeat ticks that never reached Nimbus",
                            &[],
                            1,
                        );
                    });
                }
                None => {}
            }
            if fetch_enabled {
                let target = self.nimbus.cluster_epoch();
                if let Some(epoch) = self.supervisors[i].poll_fetch(now, node_live, target) {
                    self.observer
                        .emit_with(now, || TraceEvent::SupervisorFetch {
                            node: node.index(),
                            epoch,
                        });
                    let assignment = self
                        .nimbus
                        .cluster_assignment()
                        .expect("a non-zero epoch implies an installed assignment")
                        .assignment
                        .clone();
                    self.sim.apply_assignment_for_node(node, &assignment);
                    self.observer.emit_with(now, || TraceEvent::EpochApplied {
                        node: node.index(),
                        epoch,
                    });
                    self.observer.metrics(|m| {
                        m.inc_counter(
                            "tstorm_supervisor_fetches_total",
                            "Supervisor fetches that picked up a new assignment epoch",
                            &[],
                            1,
                        );
                        m.inc_counter(
                            "tstorm_epochs_applied_total",
                            "Assignment epochs applied across all supervisors",
                            &[],
                            1,
                        );
                    });
                }
            }
        }
        Ok(())
    }

    fn note_reconciliation(&mut self, now: SimTime, rec: Reconciliation) {
        self.timeline.push(ControlEvent::NodeReconciled {
            at: now,
            node: rec.node,
            false_positive: rec.false_positive,
        });
        self.observer.emit_with(now, || TraceEvent::NodeReconciled {
            node: rec.node.index(),
            false_positive: rec.false_positive,
        });
        if rec.false_positive {
            self.observer.metrics(|m| {
                m.inc_counter(
                    "tstorm_false_positive_reassignments_total",
                    "Healthy nodes reassigned away under a heartbeat-loss death declaration",
                    &[],
                    1,
                );
            });
        }
    }

    fn monitor_tick(&mut self) -> Result<()> {
        let counters = self.sim.drain_counters();
        let failures = counters.failures;
        let mut snap = WindowSnapshot::new(self.config.monitor_period);
        for (exec, cycles) in counters.executor_cycles() {
            snap.record_cpu(exec, cycles);
        }
        for (from, to, tuples) in counters.pair_tuples() {
            snap.record_traffic(from, to, tuples);
        }
        self.monitor.ingest(&snap);
        if self.recorder.is_some() {
            self.record_window(&counters);
        }
        if self.observer.is_enabled() {
            let utilisations = self.node_utilisations();
            self.observer.metrics(|m| {
                for (node, ratio) in &utilisations {
                    m.set_gauge(
                        "tstorm_node_cpu_utilisation",
                        "Estimated node CPU load as a fraction of capacity",
                        &[("node", &node.to_string())],
                        *ratio,
                    );
                }
            });
        }

        self.sweep_liveness()?;

        if self.config.mode == SystemMode::TStorm {
            let cooled_down = self
                .last_overload_generate
                .is_none_or(|t| self.sim.now() >= t + OVERLOAD_COOLDOWN);
            if cooled_down {
                let report = self.detector.inspect(
                    self.monitor.db(),
                    &self.cluster,
                    self.sim.current_assignment(),
                    failures,
                );
                if report.is_overloaded() {
                    self.overload_events += 1;
                    self.last_overload_generate = Some(self.sim.now());
                    self.timeline.push(ControlEvent::OverloadDetected {
                        at: self.sim.now(),
                        nodes: report.cpu_overloaded.clone(),
                        failures: report.recent_failures,
                    });
                    if self.observer.is_enabled() {
                        let at = self.sim.now();
                        let utilisations = self.node_utilisations();
                        for node in &report.cpu_overloaded {
                            let node = node.index();
                            let utilisation = utilisations
                                .iter()
                                .find(|(n, _)| *n == node)
                                .map_or(0.0, |(_, u)| *u);
                            self.observer
                                .emit_with(at, || TraceEvent::OverloadDetected {
                                    node,
                                    utilisation,
                                });
                        }
                        self.observer.metrics(|m| {
                            m.inc_counter(
                                "tstorm_overload_events_total",
                                "Overload detections that triggered the fast path",
                                &[],
                                1,
                            );
                        });
                    }
                    self.generate(true)?;
                }
            }
        }
        self.recover_lost_executors()?;
        Ok(())
    }

    /// Nimbus's liveness sweep: any node silent for
    /// [`HEARTBEAT_MISS_THRESHOLD`](crate::nimbus::HEARTBEAT_MISS_THRESHOLD)
    /// heartbeat periods is declared dead and a forced generation moves
    /// its executors to the surviving nodes. The declaration is new
    /// information, so it bypasses the recovery cooldown. A crashed
    /// Nimbus declares nothing — liveness freezes for the duration of
    /// the outage.
    fn sweep_liveness(&mut self) -> Result<()> {
        if self.sim.nimbus_down() {
            return Ok(());
        }
        let now = self.sim.now();
        let declared = self
            .nimbus
            .update_liveness(now, self.config.heartbeat_period);
        if declared.is_empty() {
            return Ok(());
        }
        for d in &declared {
            self.timeline.push(ControlEvent::NodeDeclaredDead {
                at: now,
                node: d.node,
                missed: d.missed,
            });
            self.observer
                .emit_with(now, || TraceEvent::NodeDeclaredDead {
                    node: d.node.index(),
                    missed: u64::from(d.missed),
                });
            self.observer.metrics(|m| {
                m.inc_counter(
                    "tstorm_nodes_declared_dead_total",
                    "Nodes Nimbus declared dead from heartbeat silence",
                    &[],
                    1,
                );
            });
        }
        self.last_recovery_generate = Some(now);
        match self.config.mode {
            SystemMode::TStorm => self.generate(true)?,
            SystemMode::StormDefault => self.storm_reschedule()?,
        }
        Ok(())
    }

    /// Crash recovery: executors whose worker died under a fault plan
    /// sit unassigned until the control plane re-places them. Nimbus
    /// notices at the next monitoring round and re-runs the *installed*
    /// scheduler — whatever a hot swap may have made current — against
    /// its believed-live cluster, rolling the result out through the
    /// store (T-Storm) or directly (plain Storm, which has no store).
    fn recover_lost_executors(&mut self) -> Result<()> {
        let unplaced = self.sim.unplaced_executors();
        if unplaced == 0 {
            return Ok(());
        }
        // A recovery rollout already in flight (published-but-unfetched,
        // or fetched but not yet applied by every reachable supervisor):
        // let it land before rescheduling again.
        if self.config.mode == SystemMode::TStorm && self.rollout_in_flight() {
            return Ok(());
        }
        // Space retries so one crash does not force a regeneration every
        // tick while workers start and the backlog drains.
        let cooled_down = self
            .last_recovery_generate
            .is_none_or(|t| self.sim.now() >= t + OVERLOAD_COOLDOWN);
        if !cooled_down {
            return Ok(());
        }
        if self.sim.nimbus_down() {
            self.timeline.push(ControlEvent::NimbusSuppressed {
                at: self.sim.now(),
                action: "recovery".to_owned(),
            });
            return Ok(());
        }
        self.recovery_events += 1;
        self.last_recovery_generate = Some(self.sim.now());
        self.timeline.push(ControlEvent::RecoveryTriggered {
            at: self.sim.now(),
            unplaced,
        });
        match self.config.mode {
            SystemMode::TStorm => self.generate(true)?,
            SystemMode::StormDefault => self.storm_reschedule()?,
        }
        Ok(())
    }

    /// Whether a published schedule has not yet reached every supervisor
    /// that can still apply it (nodes Nimbus believes dead, or that are
    /// genuinely down, are not waited for).
    fn rollout_in_flight(&self) -> bool {
        if self.store.has_unfetched() {
            return true;
        }
        let target = self.nimbus.cluster_epoch();
        self.supervisors.iter().any(|s| {
            s.applied_epoch() < target
                && !self.nimbus.is_declared_dead(s.node())
                && self.sim.cluster().is_node_live(s.node())
        })
    }

    /// Plain Storm's recovery path: re-run the installed scheduler and
    /// hand the result straight to the supervisors (no store, no
    /// epochs — Storm 0.8 rewrites cluster state atomically).
    fn storm_reschedule(&mut self) -> Result<()> {
        let input = self.scheduling_input();
        let assignment = self.nimbus.schedule(&input)?;
        let explanation = self.nimbus.take_explanation();
        if !self.sim.current_assignment().diff(&assignment).is_empty() {
            self.record_explanation(0, explanation);
            self.sim.submit_assignment(&assignment);
            self.prune_stale_estimates();
        }
        Ok(())
    }

    /// One schedule-generator round: read estimates, run the (swappable)
    /// algorithm, and publish the result to the store if it is a genuine
    /// improvement (or `force` is set, as during overload recovery).
    /// While Nimbus is down nothing is generated at all.
    fn generate(&mut self, force: bool) -> Result<()> {
        if self.sim.nimbus_down() {
            self.timeline.push(ControlEvent::NimbusSuppressed {
                at: self.sim.now(),
                action: "generation".to_owned(),
            });
            return Ok(());
        }
        if self.monitor.db().windows_ingested() == 0 {
            return Ok(()); // no runtime information yet
        }
        let input = self.scheduling_input();
        let sched_started = self.observer.is_enabled().then(std::time::Instant::now);
        let assignment = self.nimbus.schedule(&input)?;
        let explanation = self.nimbus.take_explanation();
        let elapsed_us = sched_started.map(|t| t.elapsed().as_micros() as u64);
        if let Some(us) = elapsed_us {
            self.observer.metrics(|m| {
                m.observe(
                    "tstorm_schedule_runtime_us",
                    "Wall-clock runtime of one scheduler invocation",
                    &[("algorithm", &self.nimbus.scheduler_name())],
                    us as f64,
                );
            });
        }
        if self.observer.is_enabled() {
            let quality = AssignmentQuality::evaluate(&assignment, &input);
            let at = self.sim.now();
            let algorithm = self.nimbus.scheduler_name();
            self.observer
                .emit_with(at, || TraceEvent::ScheduleGenerated {
                    algorithm,
                    inter_node_traffic: quality.inter_node_traffic,
                    inter_process_traffic: quality.inter_process_traffic,
                });
            self.observer.metrics(|m| {
                m.inc_counter(
                    "tstorm_schedules_generated_total",
                    "Scheduler invocations that produced a candidate schedule",
                    &[],
                    1,
                );
            });
        }
        // Publish only real changes; re-applying the current schedule
        // would needlessly restart workers.
        if self.sim.current_assignment().diff(&assignment).is_empty() {
            return Ok(());
        }
        // Nor publish again what still waits unfetched in the store: a
        // death declaration's forced solve and the overload fast path's
        // can solve the same input at the same instant.
        if self.store.holds_unfetched(&assignment) {
            return Ok(());
        }
        if !force && !self.is_improvement(&assignment, &input) {
            self.timeline.push(ControlEvent::ScheduleSuppressed {
                at: self.sim.now(),
                reason: "inter-node traffic improvement below threshold".to_owned(),
            });
            return Ok(());
        }
        let id = AssignmentId::from_timestamp_micros(self.sim.now().as_micros());
        let quality = AssignmentQuality::evaluate(&assignment, &input);
        let epoch = self.store.latest_epoch() + 1;
        let explanation = self.record_explanation(epoch, explanation);
        let epoch = self.store.publish(
            id,
            assignment,
            self.sim.now(),
            self.nimbus.scheduler_name(),
            explanation,
        );
        self.nimbus.note_publish();
        self.timeline.push(ControlEvent::SchedulePublished {
            at: self.sim.now(),
            id,
            epoch,
            nodes_used: quality.nodes_used,
            inter_node_traffic: quality.inter_node_traffic,
        });
        self.generations += 1;
        Ok(())
    }

    /// Hysteresis: small estimate fluctuations flip the greedy's choices,
    /// and every published schedule costs a rollout (worker restarts,
    /// spout halt). A periodic schedule is published only when it cuts
    /// estimated inter-node traffic by [`IMPROVEMENT_THRESHOLD`], or frees
    /// worker nodes without increasing traffic.
    fn is_improvement(&self, candidate: &Assignment, input: &SchedulingInput) -> bool {
        let current = AssignmentQuality::evaluate(self.sim.current_assignment(), input);
        let new = AssignmentQuality::evaluate(candidate, input);
        let traffic_cut =
            current.inter_node_traffic - current.inter_node_traffic * IMPROVEMENT_THRESHOLD;
        if new.inter_node_traffic < traffic_cut {
            return true;
        }
        new.nodes_used < current.nodes_used && new.inter_node_traffic <= current.inter_node_traffic
    }

    /// One custom-scheduler round: Nimbus fetches the latest publication
    /// from the store — if there is news and Nimbus is up — and installs
    /// it as the cluster assignment for the supervisors to pick up.
    fn nimbus_fetch(&mut self) {
        if self.sim.nimbus_down() {
            return;
        }
        if let Some(fetched) = self.store.fetch() {
            self.nimbus.install(fetched.versioned.clone());
            self.timeline.push(ControlEvent::ScheduleFetched {
                at: self.sim.now(),
                id: fetched.id,
                epoch: fetched.versioned.epoch,
            });
            self.prune_stale_estimates();
        }
    }

    /// Drops estimates for executors the simulator no longer runs, so a
    /// reassignment cannot be steered by traffic pairs of retired
    /// executors.
    fn prune_stale_estimates(&mut self) {
        let alive: BTreeSet<ExecutorId> = self
            .sim
            .executor_descriptors()
            .into_iter()
            .map(|d| d.id)
            .collect();
        self.monitor.db_mut().retain_executors(&alive);
    }

    /// Estimated per-node CPU load as a fraction of capacity, from the
    /// EWMA database under the assignment currently in force (same
    /// aggregation as [`OverloadDetector::inspect`]).
    fn node_utilisations(&self) -> Vec<(u32, f64)> {
        let loads = self.monitor.db().executor_loads();
        let mut per_node: BTreeMap<u32, f64> = BTreeMap::new();
        for (exec, slot) in self.sim.current_assignment().iter() {
            if let Some(load) = loads.get(&exec) {
                let node = self.cluster.node_of(slot);
                *per_node.entry(node.index()).or_insert(0.0) +=
                    load.ratio(self.cluster.node(node).capacity);
            }
        }
        per_node.into_iter().collect()
    }

    fn scheduling_input(&self) -> SchedulingInput {
        let db = self.monitor.db();
        let executors: Vec<ExecutorInfo> = self
            .sim
            .executor_descriptors()
            .into_iter()
            .map(|d| ExecutorInfo::new(d.id, d.topology, d.component, db.load_of(d.id)))
            .collect();
        let mut params = SchedParams::default()
            .with_gamma(self.config.gamma)
            .with_capacity_fraction(self.config.capacity_fraction);
        for (topo, workers) in &self.workers_requested {
            params = params.with_workers(*topo, *workers);
        }
        // Liveness in the scheduler's view is Nimbus's *belief*, not
        // ground truth: a crashed node stays schedulable until its
        // heartbeat silence crosses the miss threshold, and a healthy
        // node under a (false) death declaration is excluded.
        let mut cluster = self.sim.cluster().clone();
        self.nimbus.apply_liveness_view(&mut cluster);
        SchedulingInput::new(cluster, executors, db.traffic_matrix(), params)
            .with_component_edges(self.component_edges.clone())
    }

    /// Storm's `rebalance` command: changes a topology's requested
    /// worker count and redistributes every topology with the
    /// mode-appropriate initial scheduler. T-Storm itself uses this to
    /// enforce `N*_w = min(Nu, Nw)` at submission (Section IV-C: "we use
    /// Storm's command rebalance to enforce this setting"); exposing it
    /// lets operators resize topologies at runtime. Under T-Storm the
    /// result is published through the store and rolls out node by node;
    /// plain Storm rewrites the assignment directly.
    ///
    /// # Errors
    ///
    /// Returns [`TStormError::InvalidConfig`] for a zero worker count and
    /// propagates scheduler infeasibility.
    pub fn rebalance(&mut self, handle: &TopologyHandle, workers: u32) -> Result<()> {
        if workers == 0 {
            return Err(TStormError::invalid_config(
                "workers",
                "rebalance requires at least one worker",
            ));
        }
        self.workers_requested.insert(handle.id, workers);
        let mut initial: Box<dyn Scheduler> = match self.config.mode {
            SystemMode::StormDefault => Box::new(RoundRobinScheduler::storm_default()),
            SystemMode::TStorm => Box::new(RoundRobinScheduler::tstorm_initial()),
        };
        initial.set_explain(self.explain);
        let input = self.scheduling_input();
        let assignment = initial.schedule(&input)?;
        match self.config.mode {
            SystemMode::TStorm => {
                let id = AssignmentId::from_timestamp_micros(self.sim.now().as_micros());
                let epoch = self.store.latest_epoch() + 1;
                let explanation = self.record_explanation(epoch, initial.take_explanation());
                self.store
                    .publish(id, assignment, self.sim.now(), "rebalance", explanation);
                self.nimbus.note_publish();
            }
            SystemMode::StormDefault => {
                if !self.sim.current_assignment().diff(&assignment).is_empty() {
                    self.record_explanation(0, initial.take_explanation());
                    self.sim.submit_assignment(&assignment);
                }
            }
        }
        self.timeline.push(ControlEvent::Rebalanced {
            at: self.sim.now(),
            topology: handle.id,
            workers,
        });
        Ok(())
    }

    /// Kills a topology (Storm's `kill` command): its executors stop,
    /// its slots free up, its load/traffic estimates are forgotten, and
    /// subsequent schedule generations no longer place it.
    pub fn kill_topology(&mut self, handle: &TopologyHandle) {
        self.timeline.push(ControlEvent::TopologyKilled {
            at: self.sim.now(),
            topology: handle.id,
        });
        self.sim.kill_topology(handle.id);
        self.workers_requested.remove(&handle.id);
        self.component_edges.retain(|(t, _, _)| *t != handle.id);
        for exec in &handle.executors {
            self.monitor.db_mut().forget_executor(*exec);
        }
    }

    /// Replaces the scheduling algorithm at runtime — no restart, no
    /// resubmission (Section IV-C's hot-swapping). A schedule the old
    /// algorithm published but nobody fetched yet is discarded: the next
    /// fetch must never roll out the replaced algorithm's plan.
    ///
    /// # Errors
    ///
    /// Returns [`TStormError::UnknownScheduler`] for unregistered names.
    pub fn swap_scheduler(&mut self, name: &str) -> Result<()> {
        self.nimbus.swap_scheduler(name)?;
        if let Some(dropped) = self.store.discard_unfetched() {
            self.timeline.push(ControlEvent::ScheduleDiscarded {
                at: self.sim.now(),
                id: dropped.id,
                epoch: dropped.versioned.epoch,
                reason: format!("algorithm hot-swapped to `{name}` before fetch"),
            });
        }
        self.timeline.push(ControlEvent::SchedulerSwapped {
            at: self.sim.now(),
            name: name.to_owned(),
        });
        self.observer
            .emit_with(self.sim.now(), || TraceEvent::SchedulerSwapped {
                to: name.to_owned(),
            });
        Ok(())
    }

    /// Registers an additional scheduler factory for hot-swapping.
    pub fn register_scheduler(
        &mut self,
        name: impl Into<String>,
        factory: impl Fn() -> Box<dyn Scheduler> + Send + Sync + 'static,
    ) {
        self.nimbus.register_scheduler(name, factory);
    }

    /// Adjusts the consolidation factor γ on the fly; the next generation
    /// round uses the new value.
    ///
    /// # Errors
    ///
    /// Returns [`TStormError::InvalidConfig`] for non-positive γ.
    pub fn set_gamma(&mut self, gamma: f64) -> Result<()> {
        if gamma <= 0.0 || !gamma.is_finite() {
            return Err(TStormError::invalid_config("gamma", "must be positive"));
        }
        self.config.gamma = gamma;
        self.timeline.push(ControlEvent::GammaChanged {
            at: self.sim.now(),
            gamma,
        });
        self.observer
            .emit_with(self.sim.now(), || TraceEvent::GammaChanged { gamma });
        Ok(())
    }

    /// The current consolidation factor.
    #[must_use]
    pub fn gamma(&self) -> f64 {
        self.config.gamma
    }

    /// The name of the scheduling algorithm currently installed.
    #[must_use]
    pub fn scheduler_name(&self) -> String {
        self.nimbus.scheduler_name()
    }

    /// Read access to the simulation (metrics, counters, time).
    #[must_use]
    pub fn simulation(&self) -> &Simulation {
        &self.sim
    }

    /// Mutable access to the simulation (e.g. to inject assignments in
    /// tests).
    #[must_use]
    pub fn simulation_mut(&mut self) -> &mut Simulation {
        &mut self.sim
    }

    /// The monitoring subsystem.
    #[must_use]
    pub fn monitor(&self) -> &LoadMonitor {
        &self.monitor
    }

    /// Read access to Nimbus (liveness beliefs, installed scheduler).
    #[must_use]
    pub fn nimbus(&self) -> &Nimbus {
        &self.nimbus
    }

    /// Read access to the schedule store (epochs, fetch watermark).
    #[must_use]
    pub fn schedule_store(&self) -> &ScheduleStore {
        &self.store
    }

    /// Epoch of the most recent publication (0 = only the initial
    /// assignment exists).
    #[must_use]
    pub fn published_epoch(&self) -> u64 {
        self.store.latest_epoch()
    }

    /// The assignment epoch each node currently runs, in node order.
    /// During a rollout these disagree — that is the point.
    #[must_use]
    pub fn applied_epochs(&self) -> Vec<(NodeId, u64)> {
        self.supervisors
            .iter()
            .map(|s| (s.node(), s.applied_epoch()))
            .collect()
    }

    /// Aggregated control-plane counters (heartbeats, fetches, epochs,
    /// death declarations, false positives).
    #[must_use]
    pub fn control_stats(&self) -> ControlStats {
        let mut stats = self.nimbus.stats();
        for sup in &self.supervisors {
            stats.heartbeats_sent += sup.heartbeats_sent();
            stats.heartbeats_missed += sup.heartbeats_missed();
            stats.fetches += sup.fetches();
            stats.epochs_applied += sup.epochs_applied();
        }
        stats
    }

    /// Number of schedules the generator published.
    #[must_use]
    pub fn generations(&self) -> u32 {
        self.generations
    }

    /// Number of overload detections that triggered the fast path.
    #[must_use]
    pub fn overload_events(&self) -> u32 {
        self.overload_events
    }

    /// Number of crash recoveries the control plane triggered.
    #[must_use]
    pub fn recovery_events(&self) -> u32 {
        self.recovery_events
    }

    /// The metrics report of this run.
    #[must_use]
    pub fn report(&self, label: &str) -> RunReport {
        self.sim.report(label)
    }

    /// The control-plane decision timeline (see
    /// [`crate::timeline::render_timeline`]).
    #[must_use]
    pub fn timeline(&self) -> &[ControlEvent] {
        &self.timeline
    }
}

/// The snake_case discriminator a [`ControlEvent`] gets in `control`
/// recorder lines.
fn control_event_kind(event: &ControlEvent) -> &'static str {
    match event {
        ControlEvent::OverloadDetected { .. } => "overload_detected",
        ControlEvent::SchedulePublished { .. } => "schedule_published",
        ControlEvent::ScheduleSuppressed { .. } => "schedule_suppressed",
        ControlEvent::ScheduleFetched { .. } => "schedule_fetched",
        ControlEvent::ScheduleDiscarded { .. } => "schedule_discarded",
        ControlEvent::SchedulerSwapped { .. } => "scheduler_swapped",
        ControlEvent::GammaChanged { .. } => "gamma_changed",
        ControlEvent::TopologyKilled { .. } => "topology_killed",
        ControlEvent::RecoveryTriggered { .. } => "recovery_triggered",
        ControlEvent::Rebalanced { .. } => "rebalanced",
        ControlEvent::NodeDeclaredDead { .. } => "node_declared_dead",
        ControlEvent::NodeReconciled { .. } => "node_reconciled",
        ControlEvent::NimbusSuppressed { .. } => "nimbus_suppressed",
    }
}

/// A JSON array of strings.
fn strings_json(items: &[String]) -> String {
    let mut out = String::from("[");
    for (i, s) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_escaped(&mut out, s);
    }
    out.push(']');
    out
}

/// A JSON array of one object per placement decision.
fn decisions_json(explanation: &ScheduleExplanation) -> String {
    let mut out = String::from("[");
    for (i, d) in explanation.decisions.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let mut o = ObjectWriter::new();
        o.str("executor", &d.executor.to_string())
            .str("slot", &d.slot.to_string())
            .str("node", &d.node.to_string())
            .f64("load_mhz", d.load_mhz)
            .f64("traffic_total", d.traffic_total)
            .f64("objective_delta", d.objective_delta)
            .str("tie_break", &d.tie_break);
        if let Some(r) = &d.relaxation {
            o.str("relaxation", r);
        }
        out.push_str(&o.finish());
    }
    out.push(']');
    out
}
