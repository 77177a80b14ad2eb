//! The assembled system: simulator + monitors + explicit control plane.
//!
//! This module is wiring. The decisions live in the control-plane
//! components it connects through the simulated timeline:
//!
//! - [`Nimbus`] owns the scheduler registry, the active algorithm, and
//!   heartbeat-derived liveness;
//! - the [`ScheduleStore`] carries epoch-stamped publications from the
//!   generator to Nimbus;
//! - per-node [`Supervisor`] state machines heartbeat to Nimbus and
//!   fetch/apply their node's slice of the cluster assignment on
//!   jittered, phase-staggered timers — a rollout is *not* atomic, and
//!   different nodes briefly run different assignment epochs.
//!
//! Every solve — periodic, overload, death declaration or crash
//! recovery — goes through one private entry that takes its cause.

use crate::config::{SystemMode, TStormConfig};
use crate::nimbus::{ControlStats, Nimbus, Reconciliation};
use crate::store::ScheduleStore;
use crate::supervisor::{HeartbeatOutcome, Supervisor};
use crate::timeline::ControlEvent;
use std::collections::{BTreeMap, BTreeSet};
use tstorm_cluster::{Assignment, ClusterSpec};
use tstorm_metrics::{LogHistogram, RunReport};
use tstorm_monitor::{LoadMonitor, OverloadDetector, WindowSnapshot};
use tstorm_sched::{
    AssignmentQuality, ExecutorInfo, RoundRobinScheduler, SchedParams, ScheduleExplanation,
    Scheduler, SchedulerRegistry, SchedulingInput,
};
use tstorm_sim::{ExecutorLogic, SimCounters, Simulation, TopologyHandle};
use tstorm_topology::{ComponentSpec, Topology};
use tstorm_trace::json::{array, write_escaped, ObjectWriter};
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

/// Why the schedule generator re-runs the installed algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cause {
    /// The generation period elapsed (T-Storm only). The only cause that
    /// passes the publish hysteresis.
    Periodic,
    /// The overload detector fired (T-Storm only).
    Overload,
    /// Nimbus declared nodes dead from heartbeat silence.
    Liveness,
    /// A crash left this many executors without a worker.
    Recovery {
        /// Executors found without a live worker.
        unplaced: usize,
    },
}

/// Wall-clock runtimes of one algorithm's solves.
#[derive(Debug, Clone, Default)]
pub struct SolveTimes {
    /// Solves run.
    pub solves: u64,
    /// Their runtimes in µs. A solve under 1 µs is counted in the
    /// histogram's [`invalid`](LogHistogram::invalid) samples.
    pub runtime_us: LogHistogram,
    /// Sum of the runtimes in µs.
    pub total_us: u64,
}

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
    /// Solve runtimes per algorithm name.
    solve_times: BTreeMap<&'static str, SolveTimes>,
    /// Each node's estimated CPU load at the latest monitor tick,
    /// indexed by node; `None` unless [`TStormSystem::sample_gauges`]
    /// asked for it.
    node_cpu_sample: Option<Vec<f64>>,
    timeline: Vec<ControlEvent>,
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
            solve_times: BTreeMap::new(),
            node_cpu_sample: None,
            timeline: Vec::new(),
            recorder: None,
            recorded_timeline: 0,
            cluster,
            config,
            sim,
        })
    }

    /// Attaches a trace writer to the whole system: the control plane
    /// emits its events through the simulation, into the same trace as
    /// the data plane's.
    pub fn set_observer(&mut self, observer: Observer) {
        self.sim.set_observer(observer);
    }

    /// Keeps the two last-sample gauges of the exposition from now on:
    /// every executor's queue depth at each supervisor poll, and each
    /// node's estimated CPU load at each monitor tick. Off by default,
    /// since both walk the whole cluster on every round.
    pub fn sample_gauges(&mut self) {
        self.sim.sample_queue_depths();
        self.node_cpu_sample.get_or_insert_with(Vec::new);
    }

    /// Enables span collection and critical-path analysis in the data
    /// plane (see [`Simulation::enable_spans`]).
    pub fn enable_spans(&mut self) {
        self.sim.enable_spans();
    }

    /// Turns scheduler decision recording on or off. When on, every
    /// schedule call — generation, initial assignment, rebalance,
    /// recovery — captures a [`ScheduleExplanation`], which the flight
    /// recorder, when attached, writes as one `decision` line stamped
    /// with its store epoch (0 for schedules that bypassed the store:
    /// the initial assignment, plain-Storm rewrites). Nothing keeps it
    /// after that.
    pub fn set_explain(&mut self, on: bool) {
        self.nimbus.set_explain(on);
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

    /// Streams a scheduler's decision records (when explain is on),
    /// stamped with `epoch`, to the recorder, and drops them.
    fn record_explanation(&mut self, epoch: u64, explanation: Option<ScheduleExplanation>) {
        let (Some(explanation), Some(recorder)) = (explanation, self.recorder.as_mut()) else {
            return;
        };
        recorder.line("decision", self.sim.now(), |o| {
            o.u64("epoch", epoch)
                .str("algorithm", &explanation.algorithm)
                .f64("objective", explanation.total_objective())
                .raw(
                    "notes",
                    &array(&explanation.notes, |out, s| write_escaped(out, s)),
                )
                .raw("decisions", &decisions_json(&explanation));
        });
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
        let executors = array(loads, |out, (exec, load)| {
            let mut o = ObjectWriter::new();
            o.str("id", &exec.to_string()).f64("mhz", load.get());
            out.push_str(&o.finish());
        });

        let utilisations = self.node_utilisations();
        let nodes = array(self.cluster.nodes(), |out, node| {
            let cpu = utilisations[node.id.as_usize()];
            let mut o = ObjectWriter::new();
            o.str("id", &node.id.to_string())
                .f64("cpu", cpu)
                .u64("nic_tx_bytes", counters.node_tx_bytes(node.id));
            out.push_str(&o.finish());
        });

        let mut depths = self.sim.queue_depths();
        depths.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        depths.truncate(TOP_K);
        let queues = array(depths, |out, (exec, depth)| {
            let mut o = ObjectWriter::new();
            o.str("id", &exec.to_string()).u64("depth", depth as u64);
            out.push_str(&o.finish());
        });

        let mut heavy: Vec<(ExecutorId, ExecutorId, u64)> = counters.pair_tuples().collect();
        heavy.sort_by(|a, b| b.2.cmp(&a.2).then((a.0, a.1).cmp(&(b.0, b.1))));
        heavy.truncate(TOP_K);
        let pairs = array(heavy, |out, (from, to, tuples)| {
            let mut o = ObjectWriter::new();
            o.str("from", &from.to_string())
                .str("to", &to.to_string())
                .u64("tuples", tuples);
            out.push_str(&o.finish());
        });

        // Nodes where Nimbus's heartbeat-derived belief contradicts the
        // simulator's ground truth, in either direction.
        let diverged_nodes = self.cluster.nodes().iter().filter_map(|node| {
            let believed_dead = self.nimbus.is_declared_dead(node.id);
            let truly_live = self.sim.cluster().is_node_live(node.id);
            (believed_dead == truly_live).then_some((node.id, believed_dead))
        });
        let diverged = array(diverged_nodes, |out, (id, believed_dead)| {
            let mut o = ObjectWriter::new();
            o.str("id", &id.to_string())
                .str("belief", if believed_dead { "dead" } else { "alive" })
                .str("truth", if believed_dead { "alive" } else { "dead" });
            out.push_str(&o.finish());
        });

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
        let (assignment, explanation) = self.initial_schedule()?;
        self.record_explanation(0, explanation);
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
                    self.solve(Cause::Periodic)?;
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
            if let Some(HeartbeatOutcome::Sent { was_down }) =
                self.supervisors[i].poll_heartbeat(now, node_live, muted)
            {
                self.sim
                    .emit_trace(|| TraceEvent::HeartbeatSent { node: node.index() });
                if let Some(rec) = self.nimbus.record_heartbeat(node, now, was_down) {
                    self.note_reconciliation(now, rec);
                }
            }
            if fetch_enabled {
                let target = self.nimbus.cluster_epoch();
                if let Some(epoch) = self.supervisors[i].poll_fetch(now, node_live, target) {
                    self.sim.emit_trace(|| TraceEvent::SupervisorFetch {
                        node: node.index(),
                        epoch,
                    });
                    let installed = self
                        .nimbus
                        .cluster_assignment()
                        .expect("a non-zero epoch implies an installed assignment");
                    self.sim
                        .apply_assignment_for_node(node, &installed.assignment);
                    self.sim.emit_trace(|| TraceEvent::EpochApplied {
                        node: node.index(),
                        epoch,
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
        self.sim.emit_trace(|| TraceEvent::NodeReconciled {
            node: rec.node.index(),
            false_positive: rec.false_positive,
        });
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
        if self.node_cpu_sample.is_some() {
            self.node_cpu_sample = Some(self.node_utilisations());
        }

        self.sweep_liveness()?;
        if self.config.mode == SystemMode::TStorm && self.detect_overload(failures) {
            self.solve(Cause::Overload)?;
        }
        self.recover_lost_executors()
    }

    /// The overload fast path's trigger (T-Storm only): outside the
    /// cooldown, inspects the estimates under the running assignment and
    /// records a detection. A detection starts the cooldown even while
    /// Nimbus is down and the solve it asks for is suppressed.
    fn detect_overload(&mut self, failures: u64) -> bool {
        let now = self.sim.now();
        if self
            .last_overload_generate
            .is_some_and(|t| now < t + OVERLOAD_COOLDOWN)
        {
            return false;
        }
        let report = OverloadDetector.inspect(
            self.monitor.db(),
            &self.cluster,
            self.sim.current_assignment(),
            failures,
        );
        if !report.is_overloaded() {
            return false;
        }
        self.overload_events += 1;
        self.last_overload_generate = Some(now);
        if self.sim.tracing() {
            let utilisations = self.node_utilisations();
            for node in &report.cpu_overloaded {
                let utilisation = utilisations[node.as_usize()];
                let node = node.index();
                self.sim
                    .emit_trace(|| TraceEvent::OverloadDetected { node, utilisation });
            }
        }
        self.timeline.push(ControlEvent::OverloadDetected {
            at: now,
            nodes: report.cpu_overloaded,
            failures: report.recent_failures,
        });
        true
    }

    /// Nimbus's liveness sweep: any node silent for
    /// [`HEARTBEAT_MISS_THRESHOLD`](crate::nimbus::HEARTBEAT_MISS_THRESHOLD)
    /// heartbeat periods is declared dead and a solve moves its
    /// executors to the surviving nodes. The declaration is new
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
            self.sim.emit_trace(|| TraceEvent::NodeDeclaredDead {
                node: d.node.index(),
                missed: u64::from(d.missed),
            });
        }
        self.last_recovery_generate = Some(now);
        self.solve(Cause::Liveness)
    }

    /// Crash recovery: executors whose worker died under a fault plan
    /// sit unassigned until the control plane re-places them. Nimbus
    /// notices at the next monitoring round and re-runs the *installed*
    /// scheduler — whatever a hot swap may have made current — against
    /// its believed-live cluster.
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
        if self
            .last_recovery_generate
            .is_some_and(|t| self.sim.now() < t + OVERLOAD_COOLDOWN)
        {
            return Ok(());
        }
        self.solve(Cause::Recovery { unplaced })
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

    /// The schedule generator's one entry: re-runs the installed
    /// algorithm on the current estimates, whatever the `cause`, and
    /// lands a changed result for the mode. Under T-Storm it is
    /// published through the store, and a periodic solve must pass the
    /// publish hysteresis; plain Storm (no store, no epochs — Storm 0.8
    /// rewrites cluster state atomically) hands it straight to the
    /// supervisors. While Nimbus is down nothing is solved.
    fn solve(&mut self, cause: Cause) -> Result<()> {
        let now = self.sim.now();
        if self.sim.nimbus_down() {
            // A liveness sweep never gets here: a crashed Nimbus declares
            // nobody dead.
            let action = match cause {
                Cause::Recovery { .. } => "recovery",
                _ => "generation",
            };
            self.timeline.push(ControlEvent::NimbusSuppressed {
                at: now,
                action: action.to_owned(),
            });
            return Ok(());
        }
        if let Cause::Recovery { unplaced } = cause {
            self.recovery_events += 1;
            self.last_recovery_generate = Some(now);
            self.timeline
                .push(ControlEvent::RecoveryTriggered { at: now, unplaced });
        }
        if self.monitor.db().windows_ingested() == 0 {
            return Ok(()); // no runtime information yet
        }
        let tstorm = self.config.mode == SystemMode::TStorm;
        let input = self.scheduling_input();
        let started = std::time::Instant::now();
        let assignment = self.nimbus.schedule(&input)?;
        let explanation = self.nimbus.take_explanation();
        self.observe_solve(started, &assignment, &input);
        // Publish only real changes; re-applying the current schedule
        // would needlessly restart workers.
        if self.sim.current_assignment().diff(&assignment).is_empty() {
            return Ok(());
        }
        if !tstorm {
            self.record_explanation(0, explanation);
            self.sim.submit_assignment(&assignment);
            self.prune_stale_estimates();
            return Ok(());
        }
        // Nor publish again what still waits unfetched in the store: a
        // death declaration's solve and the overload fast path's can
        // solve the same input at the same instant.
        if self.store.holds_unfetched(&assignment) {
            return Ok(());
        }
        let quality = AssignmentQuality::evaluate(&assignment, &input);
        if cause == Cause::Periodic && !self.is_improvement(&quality, &input) {
            self.timeline.push(ControlEvent::ScheduleSuppressed {
                at: now,
                reason: "inter-node traffic improvement below threshold".to_owned(),
            });
            return Ok(());
        }
        let (id, epoch) = self.publish(assignment, explanation);
        self.timeline.push(ControlEvent::SchedulePublished {
            at: now,
            id,
            epoch,
            nodes_used: quality.nodes_used,
            inter_node_traffic: quality.inter_node_traffic,
        });
        self.generations += 1;
        Ok(())
    }

    /// Counts one solve, in either mode, and its wall-clock runtime since
    /// `started` under the installed algorithm, and traces the
    /// candidate's estimated traffic.
    fn observe_solve(
        &mut self,
        started: std::time::Instant,
        assignment: &Assignment,
        input: &SchedulingInput,
    ) {
        let us = started.elapsed().as_micros() as u64;
        let algorithm = self.nimbus.scheduler_name();
        let times = self.solve_times.entry(algorithm).or_default();
        times.solves += 1;
        times.runtime_us.record(us as f64);
        times.total_us += us;
        self.sim.emit_trace(|| {
            let quality = AssignmentQuality::evaluate(assignment, input);
            TraceEvent::ScheduleGenerated {
                algorithm: algorithm.to_owned(),
                inter_node_traffic: quality.inter_node_traffic,
                inter_process_traffic: quality.inter_process_traffic,
            }
        });
    }

    /// Publishes `assignment` to the store under the next epoch, keeps
    /// its explanation under that epoch, and lets Nimbus note that nodes
    /// under a death declaration have had executors moved away. Returns
    /// the publication's id and epoch.
    fn publish(
        &mut self,
        assignment: Assignment,
        explanation: Option<ScheduleExplanation>,
    ) -> (AssignmentId, u64) {
        let id = AssignmentId::from_timestamp_micros(self.sim.now().as_micros());
        let epoch = self.store.publish(id, assignment);
        self.record_explanation(epoch, explanation);
        self.nimbus.note_publish();
        (id, epoch)
    }

    /// Hysteresis: small estimate fluctuations flip the greedy's choices,
    /// and every published schedule costs a rollout (worker restarts,
    /// spout halt). A periodic schedule is published only when it cuts
    /// estimated inter-node traffic by [`IMPROVEMENT_THRESHOLD`], or frees
    /// worker nodes without increasing traffic. `new` is the candidate's
    /// quality on `input`.
    fn is_improvement(&self, new: &AssignmentQuality, input: &SchedulingInput) -> bool {
        let current = AssignmentQuality::evaluate(self.sim.current_assignment(), input);
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
            self.timeline.push(ControlEvent::ScheduleFetched {
                at: self.sim.now(),
                id: fetched.id,
                epoch: fetched.versioned.epoch,
            });
            self.nimbus.install(fetched.versioned);
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

    /// Estimated CPU load of every cluster node as a fraction of
    /// capacity, indexed by node, from the EWMA database under the
    /// assignment currently in force (same aggregation as
    /// [`OverloadDetector::inspect`]); 0 for a node it leaves empty.
    fn node_utilisations(&self) -> Vec<f64> {
        let loads = self.monitor.db().executor_loads();
        let mut per_node = vec![0.0; self.cluster.num_nodes()];
        for (exec, slot) in self.sim.current_assignment().iter() {
            if let Some(load) = loads.get(&exec) {
                let node = self.cluster.node_of(slot);
                per_node[node.as_usize()] += load.ratio(self.cluster.node(node).capacity);
            }
        }
        per_node
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

    /// Runs this mode's initial scheduler on the current input: Storm's
    /// default, or T-Storm's modified default of Section IV-C. Returns
    /// the assignment and its decision records (when explain is on).
    fn initial_schedule(&self) -> Result<(Assignment, Option<ScheduleExplanation>)> {
        let mut initial = match self.config.mode {
            SystemMode::StormDefault => RoundRobinScheduler::storm_default(),
            SystemMode::TStorm => RoundRobinScheduler::tstorm_initial(),
        };
        initial.set_explain(self.nimbus.explains());
        let assignment = initial.schedule(&self.scheduling_input())?;
        Ok((assignment, initial.take_explanation()))
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
        let (assignment, explanation) = self.initial_schedule()?;
        match self.config.mode {
            SystemMode::TStorm => {
                self.publish(assignment, explanation);
            }
            SystemMode::StormDefault => {
                if !self.sim.current_assignment().diff(&assignment).is_empty() {
                    self.record_explanation(0, explanation);
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
        self.sim.emit_trace(|| TraceEvent::SchedulerSwapped {
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
        self.sim.emit_trace(|| TraceEvent::GammaChanged { gamma });
        Ok(())
    }

    /// The current consolidation factor.
    #[must_use]
    pub fn gamma(&self) -> f64 {
        self.config.gamma
    }

    /// The name of the scheduling algorithm currently installed.
    #[must_use]
    pub fn scheduler_name(&self) -> &'static str {
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

    /// Read access to the schedule store (epochs, the unfetched
    /// publication).
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
            stats.fetches += sup.epochs_applied();
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

    /// Solve counts and wall-clock runtimes per algorithm name, in name
    /// order.
    #[must_use]
    pub fn solve_times(&self) -> &BTreeMap<&'static str, SolveTimes> {
        &self.solve_times
    }

    /// Each cluster node's estimated CPU load as a fraction of capacity
    /// at the latest monitor tick, indexed by node: 0 for a node the
    /// running assignment left empty. `None` unless
    /// [`TStormSystem::sample_gauges`] asked for it.
    #[must_use]
    pub fn node_cpu_sample(&self) -> Option<&[f64]> {
        self.node_cpu_sample.as_deref()
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

/// A JSON array of one object per placement decision.
fn decisions_json(explanation: &ScheduleExplanation) -> String {
    array(&explanation.decisions, |out, d| {
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
    })
}
