//! Acceptance tests for the observability plane: the critical-path sum
//! invariant on every root of a golden wordcount run and of a crashing
//! throughput run, the critical-path and decision-record fixtures,
//! flight-recorder determinism, inertness of the features when
//! disabled, and the `--prom` exposition of two faulted runs.

use tstorm_cli::args::ScaleClass;
use tstorm_cli::{run_scenario, RunOptions, ScenarioOutcome, ScenarioTopology};
use tstorm_cluster::ClusterSpec;
use tstorm_core::{SystemMode, TStormConfig, TStormSystem};
use tstorm_sim::FaultPlan;
use tstorm_trace::{parse_recording, view, JsonValue};
use tstorm_types::{Mhz, SimTime};
use tstorm_workloads::throughput::{self, ThroughputParams};
use tstorm_workloads::wordcount::{self, WordCountParams, WordCountState};

/// The golden wordcount run: on every completed root, queue + service +
/// network along the critical path must sum exactly (telescoping, no
/// rounding slack needed) to the measured completion latency.
#[test]
fn critical_path_components_sum_to_latency() {
    let cluster = ClusterSpec::homogeneous(10, 4, Mhz::new(8000.0)).expect("valid cluster");
    let config = TStormConfig::default()
        .with_mode(SystemMode::TStorm)
        .with_seed(42);
    let mut system = TStormSystem::new(cluster, config).expect("valid config");
    system.enable_spans();
    let p = WordCountParams::paper();
    let topo = wordcount::topology(&p).expect("valid topology");
    let state = WordCountState::new();
    state.attach_corpus_producer(SimTime::ZERO, 150.0);
    let mut f = wordcount::factory(&state);
    system.submit(&topo, &mut f).expect("submits");
    system.start().expect("starts");
    system.run_until(SimTime::from_secs(120)).expect("runs");

    let spans = system.simulation().spans().expect("spans enabled");
    let totals = spans.totals();
    assert!(totals.roots > 1000, "wordcount completes plenty of roots");
    assert_eq!(
        totals.queue_us + totals.service_us + totals.network_us,
        totals.latency_us,
        "aggregate components must sum to aggregate latency"
    );
    assert_eq!(
        totals.mismatched_roots, 0,
        "every root's critical-path components must sum to its completion latency"
    );
}

/// Crashes time roots out while their messages are still in flight, so
/// slab slots are freed and reused under live step indexes. Replayed
/// roots must still telescope, every one of them, unbatched and with
/// each batch's network trip fanned out per tuple.
#[test]
fn critical_paths_telescope_through_crashes_and_replays() {
    for batch_size in [1, 8] {
        crashing_throughput_telescopes(batch_size);
    }
}

fn crashing_throughput_telescopes(batch_size: u32) {
    let cluster = ClusterSpec::homogeneous(10, 4, Mhz::new(8000.0)).expect("valid cluster");
    let mut config = TStormConfig::default()
        .with_mode(SystemMode::TStorm)
        .with_seed(7);
    config.sim.batch_size = batch_size;
    let mut system = TStormSystem::new(cluster, config).expect("valid config");
    system.enable_spans();
    let p = ThroughputParams::paper();
    let topo = throughput::topology(&p).expect("valid topology");
    let mut f = throughput::factory(&p, 7);
    system.submit(&topo, &mut f).expect("submits");
    system.start().expect("starts");
    let plan = FaultPlan::from_specs([
        "worker-crash@t=60,node=4,slot=0",
        "node-crash@t=100,node=5,restart=60",
    ])
    .expect("valid plan");
    system
        .simulation_mut()
        .apply_fault_plan(&plan)
        .expect("faults apply");
    system.run_until(SimTime::from_secs(240)).expect("runs");

    let sim = system.simulation();
    assert!(
        sim.tuples_lost() > 0,
        "batch {batch_size}: crashes destroyed tuples"
    );
    let totals = sim.spans().expect("spans enabled").totals();
    assert!(
        totals.replayed_roots > 0,
        "batch {batch_size}: timed-out roots were replayed"
    );
    assert_eq!(
        totals.mismatched_roots, 0,
        "batch {batch_size}: every root, replayed or not, telescopes to its latency"
    );
}

/// Runs `opts` with a flight recorder attached; returns the outcome
/// and the recording.
fn recorded_run(opts: RunOptions, tag: &str) -> (ScenarioOutcome, String) {
    let dir = std::env::temp_dir().join("tstorm-cli-critical-path-test");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join(format!("{tag}.jsonl"));
    let opts = RunOptions {
        flight_recorder: Some(path.to_string_lossy().into_owned()),
        quiet: true,
        ..opts
    };
    let outcome = run_scenario(&opts).expect("runs");
    let text = std::fs::read_to_string(&path).expect("recording");
    let _ = std::fs::remove_file(&path);
    (outcome, text)
}

/// A recording's closing `critical_path` line.
fn critical_path_line(recording: &str) -> String {
    let lines: Vec<&str> = recording
        .lines()
        .filter(|l| l.contains("\"type\":\"critical_path\""))
        .collect();
    assert_eq!(lines.len(), 1, "one closing critical_path line");
    format!("{}\n", lines[0])
}

/// `tstorm run --topology throughput --duration 600 --seed 7` through
/// a slow NIC, a worker crash and a node crash that restarts.
fn three_fault_throughput() -> RunOptions {
    RunOptions {
        topology: ScenarioTopology::Throughput,
        duration_secs: 600,
        seed: 7,
        faults: vec![
            "worker-crash@t=150,node=4,slot=0".to_owned(),
            "node-crash@t=240,node=5,restart=60".to_owned(),
            "nic-slow@t=15,node=1,factor=4,dur=20".to_owned(),
        ],
        ..RunOptions::default()
    }
}

/// The span plane of a throughput run through three faults (a slow
/// NIC, a worker crash and a node crash that restarts), byte for byte:
/// the `critical_path` line of `tstorm run --topology throughput
/// --duration 600 --seed 7 --fault … --flight-recorder R`, which also
/// carries the node-pair tables, is the `.jsonl` fixture, and the run's
/// summary line followed by the body of `inspect R --section breakdown`
/// is the `.txt` fixture. No root of the run folds a path that misses
/// its latency, so no root that lost a tuple ever completed.
#[test]
fn critical_path_of_a_three_fault_throughput_run_is_pinned() {
    let (outcome, recording) = recorded_run(three_fault_throughput(), "throughput-faults");
    let run = parse_recording(&recording).expect("the recording parses");
    let stdout = format!("{}\n{}", outcome.summary(600), view::breakdown(&run));
    assert_eq!(
        stdout,
        include_str!("fixtures/critical_path_throughput_faults.txt")
    );
    assert_eq!(
        critical_path_line(&recording),
        include_str!("fixtures/critical_path_throughput_faults.jsonl")
    );
    let totals = outcome.span_totals.expect("spans enabled");
    assert!(outcome.tuples_lost > 0 && totals.replayed_roots > 0);
    assert_eq!(totals.mismatched_roots, 0);
}

/// The decision records of the three-fault throughput run, six epochs
/// of them, byte for byte: the body of `inspect R --section decisions`.
#[test]
fn decision_records_of_a_three_fault_throughput_run_are_pinned() {
    let (_, recording) = recorded_run(three_fault_throughput(), "throughput-decisions");
    let run = parse_recording(&recording).expect("the recording parses");
    assert_eq!(
        view::decisions(&run),
        include_str!("fixtures/explain_throughput_faults.txt")
    );
}

/// The `critical_path` line of a wordcount run at transfer batch 8
/// (`tstorm run --topology wordcount --batch-size 8 --duration 200
/// --seed 3 --flight-recorder R`), byte for byte.
#[test]
fn critical_path_of_a_batched_wordcount_run_is_pinned() {
    let opts = RunOptions {
        topology: ScenarioTopology::WordCount,
        batch_size: 8,
        duration_secs: 200,
        seed: 3,
        ..RunOptions::default()
    };
    let (_, recording) = recorded_run(opts, "wordcount-b8");
    assert_eq!(
        critical_path_line(&recording),
        include_str!("fixtures/critical_path_wordcount_b8.jsonl")
    );
}

/// The scalars a run reports, rendered for comparison.
fn scalars(o: &ScenarioOutcome) -> String {
    format!(
        "{} | {} | emitted {} | {}",
        o.summary(200),
        o.engine_summary(),
        o.emitted,
        o.report.render_csv()
    )
}

/// The flight recorder, with the spans and decision records it
/// collects, observes the run and never steers it: a batched throughput
/// run through a fault plan reports the same scalars with and without
/// a recording.
#[test]
fn spans_do_not_change_behaviour() {
    let off = RunOptions {
        topology: ScenarioTopology::Throughput,
        duration_secs: 200,
        seed: 11,
        batch_size: 8,
        faults: vec![
            "worker-crash@t=40,node=2,slot=1".to_owned(),
            "node-crash@t=80,node=3,restart=40".to_owned(),
            "nic-slow@t=20,node=1,factor=4,dur=20".to_owned(),
        ],
        quiet: true,
        ..RunOptions::default()
    };
    let path = std::env::temp_dir().join("tstorm-cli-spans-inert.jsonl");
    let on = RunOptions {
        flight_recorder: Some(path.to_string_lossy().into_owned()),
        ..off.clone()
    };
    let (a, b) = (
        run_scenario(&off).expect("runs"),
        run_scenario(&on).expect("runs"),
    );
    assert!(
        a.faults_injected == 3 && a.tuples_lost > 0,
        "{}",
        a.summary(200)
    );
    let _ = std::fs::remove_file(&path);
    assert!(b.span_totals.is_some());
    assert_eq!(scalars(&a), scalars(&b));
}

fn recorded_opts(path: &std::path::Path) -> RunOptions {
    RunOptions {
        topology: ScenarioTopology::WordCount,
        duration_secs: 60,
        rate: 100.0,
        flight_recorder: Some(path.to_string_lossy().into_owned()),
        quiet: true,
        ..RunOptions::default()
    }
}

/// Same-seed runs must produce byte-identical recordings, and the
/// artifact must parse with provenance and windowed state intact.
#[test]
fn flight_recordings_are_deterministic_and_parse() {
    let dir = std::env::temp_dir().join("tstorm-cli-recorder-test");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let (a, b) = (dir.join("a.jsonl"), dir.join("b.jsonl"));
    let outcome = run_scenario(&recorded_opts(&a)).expect("runs");
    run_scenario(&recorded_opts(&b)).expect("runs");

    let text_a = std::fs::read_to_string(&a).expect("recording a");
    let text_b = std::fs::read_to_string(&b).expect("recording b");
    assert_eq!(
        text_a, text_b,
        "same-seed recordings must be byte-identical"
    );
    assert_eq!(
        outcome.recorder_lines,
        Some(text_a.lines().count() as u64),
        "reported line count matches the artifact"
    );
    assert!(outcome.span_totals.is_some());

    let run = parse_recording(&text_a).expect("artifact parses");
    assert_eq!(
        run.meta.get("scenario").and_then(JsonValue::as_str),
        Some("wordcount")
    );
    assert_eq!(run.meta.get("seed").and_then(JsonValue::as_f64), Some(42.0));
    assert!(run.meta.get("workspace_version").is_some());
    assert!(
        !run.lines_of("window").is_empty(),
        "monitor ticks must produce window lines"
    );
    assert!(
        !run.lines_of("decision").is_empty(),
        "the initial assignment is an epoch-0 decision"
    );
    let cp = run.lines_of("critical_path");
    assert_eq!(cp.len(), 1, "one closing critical_path line");
    let summary = cp[0].get("summary").expect("summary object");
    let roots = summary.get("roots").and_then(JsonValue::as_f64).unwrap();
    assert!(roots > 0.0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `--scale` preset builds its own cluster, so the recording's
/// provenance must name that cluster's shape, not `--nodes`/`--slots`.
#[test]
fn scale_recordings_name_the_built_cluster() {
    let dir = std::env::temp_dir().join("tstorm-cli-scale-recorder-test");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("scale.jsonl");
    let opts = RunOptions {
        scale: Some(ScaleClass::Scale100),
        duration_secs: 1,
        flight_recorder: Some(path.to_string_lossy().into_owned()),
        quiet: true,
        ..RunOptions::default()
    };
    run_scenario(&opts).expect("runs");
    let text = std::fs::read_to_string(&path).expect("recording");
    let run = parse_recording(&text).expect("the recording parses");
    let decisions = run.lines_of("decision");
    let placements = decisions
        .first()
        .and_then(|d| d.get("decisions"))
        .and_then(JsonValue::as_array)
        .map_or(0, <[JsonValue]>::len);
    assert_eq!(
        placements, 10_200,
        "the epoch-0 decision places every executor"
    );
    let meta = |key: &str| run.meta.get(key).cloned();
    assert_eq!(
        meta("scenario"),
        Some(JsonValue::String("scale-100".into()))
    );
    assert_eq!(meta("nodes"), Some(JsonValue::Number(100.0)));
    assert_eq!(meta("slots_per_node"), Some(JsonValue::Number(4.0)));
    let _ = std::fs::remove_dir_all(&dir);
}

/// With the features off, the outcome carries no observability state:
/// the engine ran the span-free hot path.
#[test]
fn observability_is_inert_when_disabled() {
    let opts = RunOptions {
        topology: ScenarioTopology::WordCount,
        duration_secs: 60,
        rate: 100.0,
        quiet: true,
        ..RunOptions::default()
    };
    let outcome = run_scenario(&opts).expect("runs");
    assert!(outcome.span_totals.is_none());
    assert!(outcome.recorder_lines.is_none());
    assert!(outcome.completed > 100);
}

/// The `--prom` exposition of `opts`, without the lines that hold
/// wall-clock time: `tstorm_schedule_runtime_us`'s buckets and sum.
fn prom_text(opts: RunOptions, tag: &str) -> String {
    let dir = std::env::temp_dir().join("tstorm-cli-prom-test");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join(format!("{tag}.prom"));
    let opts = RunOptions {
        prom: Some(path.to_string_lossy().into_owned()),
        ..opts
    };
    run_scenario(&opts).expect("runs");
    let text = std::fs::read_to_string(&path).expect("prom file");
    let _ = std::fs::remove_file(&path);
    text.lines()
        .filter(|l| {
            !l.starts_with("tstorm_schedule_runtime_us_bucket")
                && !l.starts_with("tstorm_schedule_runtime_us_sum")
        })
        .map(|l| format!("{l}\n"))
        .collect()
}

/// A 6 × 4 throughput run at seed 42 with one replay allowed.
fn small_throughput(mode: SystemMode, duration_secs: u64, faults: &[&str]) -> RunOptions {
    RunOptions {
        topology: ScenarioTopology::Throughput,
        mode,
        nodes: 6,
        slots: 4,
        duration_secs,
        seed: 42,
        max_replays: Some(1),
        faults: faults.iter().map(|f| (*f).to_owned()).collect(),
        quiet: true,
        ..RunOptions::default()
    }
}

/// Every family and series of a T-Storm run through a node crash, a
/// heartbeat loss, a worker crash and a Nimbus outage, byte for byte.
#[test]
fn prom_exposition_of_a_faulted_tstorm_run_is_pinned() {
    let opts = small_throughput(
        SystemMode::TStorm,
        300,
        &[
            "node-crash@t=30,node=3,restart=40",
            "heartbeat-loss@t=100,node=2,dur=40",
            "worker-crash@t=150,node=4,slot=0",
            "nimbus-crash@t=200,dur=30",
        ],
    );
    let text = prom_text(opts, "tstorm-faults");
    let families = text.lines().filter(|l| l.starts_with("# TYPE ")).count();
    assert_eq!(families, 27, "every family appears:\n{text}");
    // The run ends on three of the six nodes; the other three host
    // nothing, so their load reads 0.
    let loads: Vec<f64> = text
        .lines()
        .filter_map(|l| l.strip_prefix("tstorm_node_cpu_utilisation{"))
        .map(|l| l.rsplit(' ').next().and_then(|v| v.parse().ok()).unwrap())
        .collect();
    assert_eq!(loads.len(), 6);
    assert_eq!(loads.iter().filter(|l| **l > 0.0).count(), 3, "{loads:?}");
    assert_eq!(text, include_str!("fixtures/prom_tstorm_faults.txt"));
}

/// The same for plain Storm recovering from a node crash, whose solves
/// count as T-Storm's do.
#[test]
fn prom_exposition_of_a_faulted_storm_run_is_pinned() {
    let opts = small_throughput(
        SystemMode::StormDefault,
        200,
        &["node-crash@t=30,node=3,restart=40"],
    );
    let text = prom_text(opts, "storm-faults");
    assert_eq!(text, include_str!("fixtures/prom_storm_faults.txt"));
}

/// Plain Storm's recovery solves are observed as T-Storm's are: the
/// control trace holds a `schedule_generated` event for them.
#[test]
fn storm_mode_solves_are_traced() {
    let dir = std::env::temp_dir().join("tstorm-cli-prom-test");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("storm-control.jsonl");
    let opts = RunOptions {
        trace: Some(path.to_string_lossy().into_owned()),
        trace_filter: Some("control".to_owned()),
        ..small_throughput(
            SystemMode::StormDefault,
            200,
            &["node-crash@t=30,node=3,restart=40"],
        )
    };
    let outcome = run_scenario(&opts).expect("runs");
    let trace = std::fs::read_to_string(&path).expect("trace file");
    let _ = std::fs::remove_file(&path);
    assert_eq!(outcome.recovery_events, 1);
    assert!(
        trace
            .lines()
            .any(|l| l.contains(r#""type":"schedule_generated""#)),
        "no schedule_generated event in:\n{trace}"
    );
}
