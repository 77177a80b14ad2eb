//! One measured run of one workload, executed in a fresh child process
//! so that heap state and peak memory never carry over between runs.
//!
//! The child prints one JSON line: the run's behaviour fingerprint and
//! its metrics. It fails (and prints nothing) when the run breaks tuple
//! conservation or produces an out-of-order span timestamp pair.

use crate::probes::{fnv1a, lock, RecorderTally, FNV_OFFSET};
use crate::stats::summarize;
use crate::workloads::{build, Built, Probes, Workload};
use std::time::Instant;
use tstorm_core::TStormSystem;
use tstorm_metrics::LogHistogram;
use tstorm_monitor::{LoadMonitor, WindowSnapshot, DEFAULT_ALPHA, DEFAULT_MONITOR_PERIOD_SECS};
use tstorm_sched::{SchedulingInput, TrafficMatrix};
use tstorm_sim::event::{Event, EventQueue};
use tstorm_trace::json::ObjectWriter;
use tstorm_types::{DetRng, ExecutorId, SimTime};

/// How a child runs its workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Untraced: the end-to-end metrics.
    E2e,
    /// With every probe installed: the per-layer metrics.
    Traced,
    /// Untraced and with observability forced off, for the observability
    /// plane's share of wall time.
    Plain,
}

impl Mode {
    /// Name on the child command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Mode::E2e => "e2e",
            Mode::Traced => "traced",
            Mode::Plain => "plain",
        }
    }

    /// The mode called `name`, if any.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        [Mode::E2e, Mode::Traced, Mode::Plain]
            .into_iter()
            .find(|m| m.name() == name)
    }
}

/// Set-ups per untraced child; `setup_s` is their median. Set-up takes
/// microseconds to milliseconds, so a median of many keeps it steady.
pub const SETUP_REPS: usize = 31;

/// The behaviour fingerprint, in comparison order. Runs of one workload
/// and seed must agree on every field, or their timings describe
/// different work.
pub const FINGERPRINT: [&str; 9] = [
    "events",
    "emitted",
    "completed",
    "failed",
    "in_flight",
    "tuples_lost",
    "replays",
    "assignment",
    "recorder",
];

/// Fresh full solves of the captured scheduling input.
const FULL_SOLVES: usize = 5;
/// Most timed ingests of the replayed monitoring window.
const INGESTS: usize = 3;
/// Pop-and-push pairs of the event-queue replay.
const HOLDS: u32 = 1 << 20;

/// Runs `workload` once and returns the child's JSON line.
///
/// # Errors
///
/// A description of the failure: a build or scheduling error, broken
/// conservation, or a clock inversion.
pub fn run(workload: Workload, seed: u64, mode: Mode, virtual_secs: u64) -> Result<String, String> {
    let observability = workload.observed() && mode != Mode::Plain;
    let probes = (mode == Mode::Traced).then(Probes::default);
    let setups = if mode == Mode::E2e { SETUP_REPS } else { 1 };
    let mut setup_s = Vec::with_capacity(setups);
    let mut built = None;
    for _ in 0..setups {
        drop(built.take());
        let start = Instant::now();
        built =
            Some(build(workload, seed, observability, probes.as_ref()).map_err(|e| e.to_string())?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let Built {
        mut system,
        recorder,
    } = built.expect("at least one set-up ran");

    let start = Instant::now();
    system
        .run_until(SimTime::from_secs(virtual_secs))
        .map_err(|e| e.to_string())?;
    let wall_s = start.elapsed().as_secs_f64();
    // Dropping the recorder publishes the sink's tally.
    system.finish_recording();
    let recorder = recorder.map(|tally| *lock(&tally));

    let sim = system.simulation();
    let (emitted, completed, failed) = (sim.emitted(), sim.completed(), sim.failed());
    let in_flight = sim.in_flight() as u64;
    if emitted != completed + failed + in_flight {
        return Err(format!(
            "conservation broken: emitted {emitted} != completed {completed} + failed {failed} \
             + in flight {in_flight}"
        ));
    }
    let engine = sim.engine_stats();
    if engine.clock_inversions != 0 {
        return Err(format!("{} span clock inversions", engine.clock_inversions));
    }
    if emitted == 0 {
        return Err("no spout emitted a tuple".to_owned());
    }
    let events = sim.events_processed();

    let mut fingerprint = ObjectWriter::new();
    for (key, value) in [
        ("events", events),
        ("emitted", emitted),
        ("completed", completed),
        ("failed", failed),
        ("in_flight", in_flight),
        ("tuples_lost", sim.tuples_lost()),
        ("replays", sim.replays_triggered()),
    ] {
        fingerprint.str(key, &value.to_string());
    }
    let assignment = sim
        .current_assignment()
        .iter()
        .fold(FNV_OFFSET, |h, (exec, slot)| {
            let h = fnv1a(h, &exec.index().to_le_bytes());
            fnv1a(h, &slot.index().to_le_bytes())
        });
    fingerprint.str("assignment", &format!("{assignment:016x}"));
    fingerprint.str(
        "recorder",
        &recorder.map_or("none".to_owned(), |r| format!("{:016x}", r.digest)),
    );

    let report = system.report(workload.name());
    // The paper's metric: mean of the 1-minute averages after a warm-up
    // third (whole-run mean for runs too short to have one).
    let latency_ms = report
        .mean_proc_time_after(SimTime::from_secs(virtual_secs / 3))
        .or_else(|| report.proc_time_ms.overall_mean())
        .ok_or("no tuple completed")?;
    let p99_ms = interpolated_quantile(&report.latency_hist, 0.99).ok_or("no tuple completed")?;
    let traffic = system.monitor().db().traffic_matrix();
    let metrics = [
        ("wall_s", wall_s),
        ("events_per_sec", events as f64 / wall_s),
        ("setup_s", summarize(&setup_s).map_or(0.0, |s| s.median)),
        ("peak_rss_mb", peak_rss_mb()?),
        ("tuple_latency_ms", latency_ms),
        ("tuple_latency_p99_ms", p99_ms),
        ("throughput_tps", completed as f64 / virtual_secs as f64),
        ("completed_share", completed as f64 / emitted as f64),
        ("inter_node_tps", inter_node_tps(&system, &traffic)),
    ];
    let layers = match probes {
        Some(probes) => layer_metrics(workload, seed, system, &traffic, &probes, recorder, wall_s),
        None => Vec::new(),
    };
    let mut out = ObjectWriter::new();
    for (name, value) in metrics.into_iter().chain(layers) {
        out.f64(name, value);
    }
    let mut line = ObjectWriter::new();
    line.raw("fingerprint", &fingerprint.finish())
        .raw("metrics", &out.finish());
    Ok(line.finish())
}

/// The per-layer metrics of a traced run, from the probes' tallies and
/// from replays of the run's captured state. Consumes the system: its
/// logic probes publish their tallies when it drops.
fn layer_metrics(
    workload: Workload,
    seed: u64,
    system: TStormSystem,
    traffic: &TrafficMatrix,
    probes: &Probes,
    recorder: Option<RecorderTally>,
    wall_s: f64,
) -> Vec<(&'static str, f64)> {
    let sim = system.simulation();
    let events = sim.events_processed();
    let engine = sim.engine_stats();
    let queue_depth = sim.queue_high_water();
    let replays = sim.replays_triggered();
    let tuples_lost = sim.tuples_lost();
    let spans = sim.spans().map(|c| *c.totals()).unwrap_or_default();
    let control = system.control_stats();
    let generations = u64::from(system.generations());
    let recoveries = u64::from(system.recovery_events());
    let snapshot = window_snapshot(&system, traffic);
    drop(system);

    let logic = *lock(&probes.logic);
    let (solve_ms, incremental, last_input) = {
        let mut log = lock(&probes.sched);
        (
            std::mem::take(&mut log.solve_ms),
            log.incremental,
            log.last_input.take(),
        )
    };
    let calls = solve_ms.len() as u64;
    let per_call = |n: u64| {
        if calls == 0 {
            0.0
        } else {
            n as f64 / calls as f64
        }
    };
    let solves = summarize(&solve_ms);
    let sched_s = solve_ms.iter().fold(0.0, |sum, ms| sum + ms) / 1e3;
    let logic_ns_per_call = if logic.sampled == 0 {
        0.0
    } else {
        logic.sampled_ns as f64 / logic.sampled as f64
    };
    let logic_s = logic_ns_per_call * logic.calls as f64 / 1e9;
    let recorder = recorder.unwrap_or_default();
    let write_s = recorder.write_ns as f64 / 1e9;
    let span_share = |us: u64| {
        if spans.latency_us == 0 {
            0.0
        } else {
            us as f64 / spans.latency_us as f64
        }
    };

    vec![
        ("sched.calls", calls as f64),
        ("sched.solve_ms_p50", solves.map_or(0.0, |s| s.median)),
        (
            "sched.solve_ms_max",
            solve_ms.iter().copied().fold(0.0, f64::max),
        ),
        ("sched.share", sched_s / wall_s),
        ("sched.incremental_ratio", per_call(incremental)),
        ("sched.publish_ratio", per_call(generations)),
        (
            "sched.full_solve_ms",
            last_input.map_or(0.0, |i| full_solve_ms(workload, &i)),
        ),
        ("logic.calls", logic.calls as f64),
        ("logic.ns_per_call", logic_ns_per_call),
        ("logic.share", logic_s / wall_s),
        ("monitor.tracked_pairs", traffic.len() as f64),
        ("monitor.ingest_ms", ingest_ms(&snapshot)),
        ("sim.events", events as f64),
        ("sim.queue_high_water", queue_depth as f64),
        ("sim.queue_hold_ns", queue_hold_ns(queue_depth, seed)),
        ("sim.pool_hit_rate", engine.pool_hit_rate()),
        ("sim.pairs_observed", engine.pairs_observed as f64),
        ("sim.pair_state_bytes", engine.pair_state_bytes as f64),
        ("sim.replays", replays as f64),
        ("sim.tuples_lost", tuples_lost as f64),
        ("sim.clock_inversions", engine.clock_inversions as f64),
        (
            "engine.residual_ns_per_event",
            (wall_s - sched_s - logic_s - write_s) * 1e9 / events as f64,
        ),
        ("core.generations", generations as f64),
        ("core.epochs_applied", control.epochs_applied as f64),
        ("core.recoveries", recoveries as f64),
        ("core.heartbeats_missed", control.heartbeats_missed as f64),
        ("trace.recorder_bytes", recorder.bytes as f64),
        ("trace.recorder_lines", recorder.lines as f64),
        ("trace.write_ms", write_s * 1e3),
        ("span.queue_share", span_share(spans.queue_us)),
        ("span.service_share", span_share(spans.service_us)),
        ("span.network_share", span_share(spans.network_us)),
    ]
}

/// The `q`-quantile of a log-bucketed histogram, interpolated
/// geometrically inside the bucket that holds it. The histogram's own
/// quantile returns the bucket's midpoint, which moves only in ~19%
/// steps; interpolation lets a seed or a change show smaller moves.
fn interpolated_quantile(hist: &LogHistogram, q: f64) -> Option<f64> {
    let rank = (q * hist.count() as f64).ceil().max(1.0);
    let step = 2f64.powf(0.25); // four buckets per octave
    let mut seen = 0.0;
    for (upper, count) in hist.nonzero_buckets() {
        let count = count as f64;
        if seen + count >= rank {
            let lower = upper / step;
            return Some(lower * step.powf((rank - seen) / count));
        }
        seen += count;
    }
    None
}

/// Monitor-estimated tuples/s between executors that the final
/// assignment places on different nodes — Algorithm 1's objective.
fn inter_node_tps(system: &TStormSystem, traffic: &TrafficMatrix) -> f64 {
    let sim = system.simulation();
    let assignment = sim.current_assignment();
    let node_of = |exec| {
        assignment
            .slot_of(exec)
            .map(|slot| sim.cluster().node_of(slot))
    };
    traffic
        .iter()
        .filter(|(from, to, _)| match (node_of(*from), node_of(*to)) {
            (Some(a), Some(b)) => a != b,
            _ => false,
        })
        .map(|(_, _, rate)| rate)
        .sum()
}

/// The peak resident set of this process so far, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

/// A monitoring window that reproduces the final estimates: one reading
/// per executor load and per tracked traffic pair.
fn window_snapshot(system: &TStormSystem, traffic: &TrafficMatrix) -> WindowSnapshot {
    let period = SimTime::from_secs(DEFAULT_MONITOR_PERIOD_SECS);
    let secs = period.as_secs_f64();
    let mut snapshot = WindowSnapshot::new(period);
    for (exec, load) in system.monitor().db().executor_loads() {
        snapshot.record_cpu(exec, (load.get() * 1e6 * secs) as u64);
    }
    for (from, to, rate) in traffic.iter() {
        snapshot.record_traffic(from, to, (rate * secs).ceil() as u64);
    }
    snapshot
}

/// Median milliseconds of a fresh full solve of the run's last
/// scheduling input.
fn full_solve_ms(workload: Workload, input: &SchedulingInput) -> f64 {
    let times: Vec<f64> = (0..FULL_SOLVES)
        .map(|_| {
            let mut scheduler = workload.fresh_scheduler();
            let start = Instant::now();
            // The run already solved this input; a failure now would be
            // a scheduler bug the run itself would have reported.
            let _ = std::hint::black_box(scheduler.schedule(input));
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    summarize(&times).map_or(0.0, |s| s.median)
}

/// Median milliseconds of `LoadMonitor::ingest` of `snapshot` into an
/// empty database, which creates one estimate per executor and pair.
/// Repeats while the ingests stay cheap: at scale one takes seconds.
fn ingest_ms(snapshot: &WindowSnapshot) -> f64 {
    let mut times = Vec::new();
    while times.len() < INGESTS && times.iter().sum::<f64>() < 1e3 {
        let mut monitor = LoadMonitor::new(DEFAULT_ALPHA);
        let start = Instant::now();
        monitor.ingest(std::hint::black_box(snapshot));
        times.push(start.elapsed().as_secs_f64() * 1e3);
    }
    summarize(&times).map_or(0.0, |s| s.median)
}

/// Nanoseconds per pop-and-push of an [`EventQueue`] held at `depth`
/// pending events (the classic hold model).
fn queue_hold_ns(depth: usize, seed: u64) -> f64 {
    const HORIZON_US: usize = 1_000_000;
    let mut rng = DetRng::seed_from(seed);
    let mut queue = EventQueue::new();
    for i in 0..depth.max(1) {
        let at = SimTime::from_micros(rng.below(HORIZON_US) as u64);
        queue.push(at, Event::SpoutTick(ExecutorId::new(i as u32)));
    }
    let start = Instant::now();
    for _ in 0..HOLDS {
        let (at, event) = queue.pop().expect("a hold keeps the queue at its depth");
        let later = at + SimTime::from_micros(rng.below(2 * HORIZON_US) as u64);
        queue.push(later, std::hint::black_box(event));
    }
    start.elapsed().as_nanos() as f64 / f64::from(HOLDS)
}
