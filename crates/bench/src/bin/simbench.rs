//! `simbench` — offline, zero-dependency simulator benchmark runner.
//!
//! It runs canonical scenarios against the tuple-level simulator with
//! `std::time::Instant` timers and appends one JSON record per scenario
//! to a trajectory file (`BENCH_sim.json` at the repo root by default).
//!
//! ```text
//! simbench [--out PATH] [--label TEXT] [--quick] [--scenario NAME]...
//!          [--batch-size N[,N]...] [--repeat K]
//!          [--guard BASELINE [--tolerance F]]
//! simbench --check PATH
//! ```
//!
//! Record schema (one object per scenario run, newest last):
//!
//! ```json
//! {"scenario":"wordcount","label":"...","quick":false,
//!  "events":123,"wall_ms":1.5,"events_per_sec":82000.0,
//!  "peak_queue_depth":400,"completed":100,"emitted":120,
//!  "seed":42,"duration_secs":120,"nodes":10,"slots_per_node":4,
//!  "batch_size":1,"workspace_version":"0.1.0"}
//! ```
//!
//! `--check` validates an emitted file: it must parse as a non-empty
//! JSON array whose entries carry every schema key — the CI bench-smoke
//! step runs it after a `--quick` pass. `--guard` is the observability
//! overhead guard: fresh spans-off measurements must stay within
//! `--tolerance` (default 10%) of the best committed events/s for the
//! same (scenario, batch size) in the baseline trajectory.
//!
//! `--batch-size 1,8` measures a transfer-batching A/B: every requested
//! batch size runs per scenario. `--repeat K` interleaves K passes over
//! the full (batch size × scenario) grid — A/B/A/B rather than
//! A…A/B…B, so slow machine drift biases neither arm — and keeps the
//! best (highest events/s) run per (scenario, batch size) cell.
//!
//! The committed trajectory also holds spans-on records from the
//! retired frame-parallel `--workers` A/B (extra `workers`/`spans`
//! keys); the guard skips them, since every fresh measurement is
//! serial with spans off.

use std::process::ExitCode;
use std::time::Instant;
use tstorm_cli::args::ScaleClass;
use tstorm_cli::scenario::{scale_chain_params, scale_cluster};
use tstorm_cluster::ClusterSpec;
use tstorm_core::{SystemMode, TStormConfig, TStormSystem};
use tstorm_sim::FaultPlan;
use tstorm_trace::json::{self, JsonValue, ObjectWriter};
use tstorm_types::{Mhz, SimTime};
use tstorm_workloads::chain;
use tstorm_workloads::throughput::{self, ThroughputParams};
use tstorm_workloads::transfer::{self, TransferParams};
use tstorm_workloads::wordcount::{self, WordCountParams, WordCountState};

/// Keys every trajectory record must carry (`--check` enforces this).
/// The provenance keys (seed through workspace_version) pin the run
/// configuration so a trajectory entry can be reproduced.
const SCHEMA_KEYS: &[&str] = &[
    "scenario",
    "label",
    "quick",
    "events",
    "wall_ms",
    "events_per_sec",
    "peak_queue_depth",
    "completed",
    "emitted",
    "seed",
    "duration_secs",
    "nodes",
    "slots_per_node",
    "batch_size",
    "workspace_version",
];

/// One measured scenario run.
struct Record {
    scenario: &'static str,
    label: String,
    quick: bool,
    events: u64,
    wall_ms: f64,
    events_per_sec: f64,
    peak_queue_depth: usize,
    completed: u64,
    emitted: u64,
    seed: u64,
    duration_secs: u64,
    nodes: u32,
    slots_per_node: u32,
    batch_size: u32,
    /// High-water pair-traffic store footprint, stamped only by the
    /// scale scenarios.
    pair_state_bytes: Option<u64>,
}

impl Record {
    fn to_json(&self) -> String {
        let mut w = ObjectWriter::new();
        w.str("scenario", self.scenario)
            .str("label", &self.label)
            .raw("quick", if self.quick { "true" } else { "false" })
            .u64("events", self.events)
            .f64("wall_ms", self.wall_ms)
            .f64("events_per_sec", self.events_per_sec)
            .u64("peak_queue_depth", self.peak_queue_depth as u64)
            .u64("completed", self.completed)
            .u64("emitted", self.emitted)
            .u64("seed", self.seed)
            .u64("duration_secs", self.duration_secs)
            .u64("nodes", u64::from(self.nodes))
            .u64("slots_per_node", u64::from(self.slots_per_node))
            .u64("batch_size", u64::from(self.batch_size))
            .str("workspace_version", env!("CARGO_PKG_VERSION"));
        if let Some(bytes) = self.pair_state_bytes {
            w.u64("pair_state_bytes", bytes);
        }
        w.finish()
    }
}

struct Options {
    out: String,
    label: String,
    quick: bool,
    scenarios: Vec<String>,
    batch_sizes: Vec<u32>,
    repeat: u32,
    check: Option<String>,
    guard: Option<String>,
    tolerance: f64,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        out: "BENCH_sim.json".to_owned(),
        label: String::new(),
        quick: false,
        scenarios: Vec::new(),
        batch_sizes: vec![1],
        repeat: 1,
        check: None,
        guard: None,
        tolerance: 0.10,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--out" => opts.out = value("--out")?,
            "--label" => opts.label = value("--label")?,
            "--quick" => opts.quick = true,
            "--scenario" => opts.scenarios.push(value("--scenario")?),
            "--batch-size" => {
                opts.batch_sizes = value("--batch-size")?
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse::<u32>()
                            .ok()
                            .filter(|n| *n > 0)
                            .ok_or_else(|| format!("--batch-size: `{s}` is not a positive integer"))
                    })
                    .collect::<Result<Vec<u32>, String>>()?;
                if opts.batch_sizes.is_empty() {
                    return Err("--batch-size requires at least one value".to_owned());
                }
            }
            "--repeat" => {
                opts.repeat = value("--repeat")?
                    .parse::<u32>()
                    .ok()
                    .filter(|n| *n > 0)
                    .ok_or_else(|| "--repeat must be a positive integer".to_owned())?;
            }
            "--check" => opts.check = Some(value("--check")?),
            "--guard" => opts.guard = Some(value("--guard")?),
            "--tolerance" => {
                opts.tolerance = value("--tolerance")?
                    .parse()
                    .map_err(|_| "--tolerance must be a number".to_owned())?;
                if !(0.0..1.0).contains(&opts.tolerance) {
                    return Err("--tolerance must be within [0, 1)".to_owned());
                }
            }
            "--help" | "-h" => {
                return Err("usage: simbench [--out PATH] [--label TEXT] [--quick] \
                     [--scenario wordcount|fault-replay|overload\
                     |scale-100-sparse|scale-500-sparse]... \
                     [--batch-size N[,N]...] [--repeat K] \
                     [--guard BASELINE [--tolerance F]] | simbench --check PATH"
                    .to_owned())
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(opts)
}

/// One grid cell's engine configuration, shared by every scenario.
#[derive(Clone, Copy)]
struct Cell {
    quick: bool,
    batch_size: u32,
}

/// Word Count at the paper's settings: the canonical throughput
/// scenario — a fields-grouped fan-out with ackers enabled.
fn run_wordcount(label: &str, cell: Cell) -> Record {
    let duration = if cell.quick { 30 } else { 120 };
    let (nodes, slots, seed) = (10, 4, 42);
    let cluster = ClusterSpec::homogeneous(nodes, slots, Mhz::new(8000.0)).expect("valid cluster");
    let mut config = TStormConfig::default()
        .with_mode(SystemMode::TStorm)
        .with_seed(seed);
    config.sim.batch_size = cell.batch_size;
    let mut system = TStormSystem::new(cluster, config).expect("valid config");
    let p = WordCountParams::paper();
    let topo = wordcount::topology(&p).expect("valid topology");
    let state = WordCountState::new();
    state.attach_corpus_producer(SimTime::ZERO, 300.0);
    let mut f = wordcount::factory(&state);
    system.submit(&topo, &mut f).expect("submits");
    system.start().expect("starts");

    let start = Instant::now();
    system
        .run_until(SimTime::from_secs(duration))
        .expect("runs");
    finish(
        "wordcount",
        label,
        cell,
        start,
        &system,
        Provenance {
            seed,
            duration_secs: duration,
            nodes,
            slots_per_node: slots,
        },
    )
}

/// The transfer-density overload: the [`transfer`] fan-out pipeline
/// (spout → ×48 fan → sink, one near-free executor each) spread over
/// two single-slot nodes joined by a deliberately slow 10 Mbit/s link,
/// so both edges are inter-node and the fan's output — 48k tiny
/// tuples/s of 16 payload bytes against a 32-byte frame header — far
/// exceeds what the wire can carry one message at a time. The link,
/// not the CPU, is the bottleneck: per-message framing overhead is
/// what transfer batching amortises, so this is the scenario where the
/// `--batch-size` A/B measures the real effect — a batched run moves
/// several times the tuples through the same saturated link in the
/// same simulated window, and each delivered tuple costs the engine
/// fewer event-queue entries. Storm's static default scheduler keeps
/// the placement pinned (no rebalance mid-measurement).
fn run_overload(label: &str, cell: Cell) -> Record {
    let duration = if cell.quick { 20 } else { 60 };
    let (nodes, slots, seed) = (2, 1, 42);
    let cluster = ClusterSpec::homogeneous(nodes, slots, Mhz::new(8000.0)).expect("valid cluster");
    let mut config = TStormConfig::default()
        .with_mode(SystemMode::StormDefault)
        .with_seed(seed);
    config.sim.batch_size = cell.batch_size;
    config.sim.network.nic_bits_per_sec = 10_000_000;
    let mut system = TStormSystem::new(cluster, config).expect("valid config");
    let p = TransferParams::overload();
    let topo = transfer::topology(&p).expect("valid topology");
    let mut f = transfer::factory(&p, seed);
    system.submit(&topo, &mut f).expect("submits");
    system.start().expect("starts");

    let start = Instant::now();
    system
        .run_until(SimTime::from_secs(duration))
        .expect("runs");
    finish(
        "overload",
        label,
        cell,
        start,
        &system,
        Provenance {
            seed,
            duration_secs: duration,
            nodes,
            slots_per_node: slots,
        },
    )
}

/// Fault-plan replay: the Throughput Test with a node crash (plus
/// restart) and a transient NIC slowdown, exercising the crash /
/// timeout / replay / recovery paths of the engine.
fn run_fault_replay(label: &str, cell: Cell) -> Record {
    let duration = if cell.quick { 60 } else { 180 };
    let (nodes, slots, seed) = (6, 4, 42);
    let cluster = ClusterSpec::homogeneous(nodes, slots, Mhz::new(8000.0)).expect("valid cluster");
    let mut config = TStormConfig::default()
        .with_mode(SystemMode::TStorm)
        .with_seed(seed);
    config.sim.batch_size = cell.batch_size;
    let mut system = TStormSystem::new(cluster, config).expect("valid config");
    let p = ThroughputParams::paper();
    let topo = throughput::topology(&p).expect("valid topology");
    let mut f = throughput::factory(&p, 42);
    system.submit(&topo, &mut f).expect("submits");
    system.start().expect("starts");
    let plan = FaultPlan::from_specs([
        "node-crash@t=30,node=2,restart=40",
        "nic-slow@t=15,node=1,factor=4,dur=20",
    ])
    .expect("valid plan");
    system
        .simulation_mut()
        .apply_fault_plan(&plan)
        .expect("applies");

    let start = Instant::now();
    system
        .run_until(SimTime::from_secs(duration))
        .expect("runs");
    finish(
        "fault-replay",
        label,
        cell,
        start,
        &system,
        Provenance {
            seed,
            duration_secs: duration,
            nodes,
            slots_per_node: slots,
        },
    )
}

/// The run configuration stamped into each trajectory record (the
/// engine knobs come from the grid [`Cell`]).
struct Provenance {
    seed: u64,
    duration_secs: u64,
    nodes: u32,
    slots_per_node: u32,
}

fn finish(
    scenario: &'static str,
    label: &str,
    cell: Cell,
    start: Instant,
    system: &TStormSystem,
    provenance: Provenance,
) -> Record {
    let wall = start.elapsed();
    let sim = system.simulation();
    let events = sim.events_processed();
    let wall_ms = wall.as_secs_f64() * 1e3;
    Record {
        scenario,
        label: label.to_owned(),
        quick: cell.quick,
        events,
        wall_ms,
        events_per_sec: events as f64 / wall.as_secs_f64().max(1e-9),
        peak_queue_depth: sim.queue_high_water(),
        completed: sim.completed(),
        emitted: sim.emitted(),
        seed: provenance.seed,
        duration_secs: provenance.duration_secs,
        nodes: provenance.nodes,
        slots_per_node: provenance.slots_per_node,
        batch_size: cell.batch_size,
        pair_state_bytes: None,
    }
}

/// The `--scale` scenario family: the chain preset on the
/// heterogeneous scale cluster (scale-100 is 100 nodes / 10,200
/// executors). Each record carries the high-water `pair_state_bytes`.
/// The `-sparse` suffix names the pair store the committed baselines
/// were measured with; it is the only store now.
fn run_scale(scenario: &'static str, class: ScaleClass, label: &str, cell: Cell) -> Record {
    let duration = if cell.quick { 15 } else { 60 };
    let seed = 42;
    let cluster = scale_cluster(class).expect("valid cluster");
    let mut config = TStormConfig::default()
        .with_mode(SystemMode::TStorm)
        .with_seed(seed);
    config.sim.batch_size = cell.batch_size;
    let mut system = TStormSystem::new(cluster, config).expect("valid config");
    let p = scale_chain_params(class);
    let topo = chain::topology(&p).expect("valid topology");
    let mut f = chain::factory(&p, seed);
    system.submit(&topo, &mut f).expect("submits");
    system.start().expect("starts");

    let start = Instant::now();
    system
        .run_until(SimTime::from_secs(duration))
        .expect("runs");
    let mut rec = finish(
        scenario,
        label,
        cell,
        start,
        &system,
        Provenance {
            seed,
            duration_secs: duration,
            nodes: class.nodes(),
            slots_per_node: class.slots(),
        },
    );
    rec.pair_state_bytes = Some(system.simulation().engine_stats().pair_state_bytes);
    rec
}

/// Reads an existing trajectory file as raw JSON record strings, so a
/// new run appends rather than overwrites. Unparseable or non-array
/// contents restart the trajectory.
fn read_trajectory(path: &str) -> Vec<String> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    match json::parse(&text) {
        Some(JsonValue::Array(_)) => {}
        _ => return Vec::new(),
    }
    // Re-split conservatively: every line holding one object.
    text.lines()
        .map(str::trim)
        .map(|l| l.trim_end_matches(','))
        .filter(|l| l.starts_with('{') && l.ends_with('}'))
        .map(str::to_owned)
        .collect()
}

fn write_trajectory(path: &str, records: &[String]) -> std::io::Result<()> {
    let mut out = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str("  ");
        out.push_str(r);
        if i + 1 < records.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]\n");
    std::fs::write(path, out)
}

/// Validates a trajectory file: parseable, a non-empty array, every
/// record carrying every schema key.
fn check(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let parsed = json::parse(&text).ok_or_else(|| format!("{path}: not valid JSON"))?;
    let records = parsed
        .as_array()
        .ok_or_else(|| format!("{path}: top level must be an array"))?;
    if records.is_empty() {
        return Err(format!("{path}: trajectory is empty"));
    }
    for (i, rec) in records.iter().enumerate() {
        let obj = rec
            .as_object()
            .ok_or_else(|| format!("{path}: record {i} is not an object"))?;
        for key in SCHEMA_KEYS {
            if !obj.contains_key(*key) {
                return Err(format!("{path}: record {i} is missing key `{key}`"));
            }
        }
    }
    println!("{path}: {} records, schema ok", records.len());
    Ok(())
}

/// The observability overhead guard: fresh measurements must stay
/// within `tolerance` of the best committed events/s for the same
/// (scenario, batch size) in `baseline_path`. Only baseline records
/// with the *same* `quick` flag are comparable — quick runs carry
/// proportionally more warmup, so their throughput sits well below a
/// full run's. Baseline records predating the `batch_size` key count as
/// batch size 1; records of the retired workers A/B (`workers` above 1
/// or `spans` on) are skipped. A measurement whose cell has no
/// committed baseline passes with a note — it IS the baseline.
fn guard(records: &[Record], baseline_path: &str, tolerance: f64) -> Result<(), String> {
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read baseline {baseline_path}: {e}"))?;
    let parsed = json::parse(&text).ok_or_else(|| format!("{baseline_path}: not valid JSON"))?;
    let baseline = parsed
        .as_array()
        .ok_or_else(|| format!("{baseline_path}: top level must be an array"))?;
    let serial_spans_off = |b: &&JsonValue| {
        b.get("workers").and_then(JsonValue::as_f64).unwrap_or(1.0) == 1.0
            && !matches!(b.get("spans"), Some(JsonValue::Bool(true)))
    };
    let mut any_compared = false;
    for rec in records {
        let quick_matches =
            |b: &&JsonValue| matches!(b.get("quick"), Some(JsonValue::Bool(q)) if *q == rec.quick);
        let batch_matches = |b: &&JsonValue| {
            let batch = b
                .get("batch_size")
                .and_then(JsonValue::as_f64)
                .unwrap_or(1.0);
            batch == f64::from(rec.batch_size)
        };
        let best = baseline
            .iter()
            .filter(|b| b.get("scenario").and_then(|s| s.as_str()) == Some(rec.scenario))
            .filter(quick_matches)
            .filter(batch_matches)
            .filter(serial_spans_off)
            .filter_map(|b| b.get("events_per_sec").and_then(|v| v.as_f64()))
            .fold(f64::NAN, f64::max);
        if best.is_nan() {
            println!(
                "guard: {:<14} batch={} has no committed baseline yet, skipping",
                rec.scenario, rec.batch_size,
            );
            continue;
        }
        any_compared = true;
        let floor = best * (1.0 - tolerance);
        if rec.events_per_sec < floor {
            return Err(format!(
                "overhead guard: {} (batch={}) ran at {:.0} events/s, more than \
                 {:.0}% below the committed baseline {:.0} events/s (floor {:.0})",
                rec.scenario,
                rec.batch_size,
                rec.events_per_sec,
                tolerance * 100.0,
                best,
                floor,
            ));
        }
        println!(
            "guard: {:<14} batch={} {:>10.0} events/s vs baseline {:>10.0} \
             (floor {:>10.0}) ok",
            rec.scenario, rec.batch_size, rec.events_per_sec, best, floor,
        );
    }
    if !any_compared {
        return Err(format!(
            "{baseline_path}: no baseline record matched any measured \
             (scenario, quick, batch_size) — nothing was guarded"
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            // `--help` surfaces as the usage string: print it and exit
            // zero. Anything else is a malformed invocation: exit 2,
            // the strict-args convention shared with the figure
            // binaries.
            if e.starts_with("usage:") {
                println!("{e}");
                return ExitCode::SUCCESS;
            }
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &opts.check {
        return match check(path) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let all = ["wordcount", "fault-replay", "overload"];
    let wanted: Vec<&str> = if opts.scenarios.is_empty() {
        all.to_vec()
    } else {
        opts.scenarios.iter().map(String::as_str).collect()
    };
    // The scale family is opt-in (not part of the default set): a
    // scale-100 run moves ~10k executors.
    let scales = [
        ("scale-100-sparse", ScaleClass::Scale100),
        ("scale-500-sparse", ScaleClass::Scale500),
    ];
    for name in &wanted {
        if !all.contains(name) && !scales.iter().any(|(s, _)| s == name) {
            eprintln!(
                "error: unknown scenario `{name}` (expected one of {all:?} \
                 or scale-{{100,500}}-sparse)"
            );
            return ExitCode::from(2);
        }
    }
    // Interleave the full (batch size × scenario) grid per repetition —
    // A/B/A/B rather than A…A/B…B — and keep the best (highest
    // events/s) run per cell, so machine drift biases neither arm.
    let mut best: Vec<Record> = Vec::new();
    for rep in 0..opts.repeat {
        for &batch_size in &opts.batch_sizes {
            let cell = Cell {
                quick: opts.quick,
                batch_size,
            };
            for name in &wanted {
                let rec = match *name {
                    "wordcount" => run_wordcount(&opts.label, cell),
                    "fault-replay" => run_fault_replay(&opts.label, cell),
                    "overload" => run_overload(&opts.label, cell),
                    other => {
                        let (scenario, class) = scales
                            .into_iter()
                            .find(|(s, _)| *s == other)
                            .expect("scenario validated above");
                        run_scale(scenario, class, &opts.label, cell)
                    }
                };
                println!(
                    "[{}/{}] {:<14} batch={:<3} {:>10} events in {:>9.1} ms  \
                     ->  {:>10.0} events/s  (peak queue {}, completed {})",
                    rep + 1,
                    opts.repeat,
                    rec.scenario,
                    rec.batch_size,
                    rec.events,
                    rec.wall_ms,
                    rec.events_per_sec,
                    rec.peak_queue_depth,
                    rec.completed,
                );
                match best
                    .iter_mut()
                    .find(|b| b.scenario == rec.scenario && b.batch_size == rec.batch_size)
                {
                    Some(b) if b.events_per_sec >= rec.events_per_sec => {}
                    Some(b) => *b = rec,
                    None => best.push(rec),
                }
            }
        }
    }
    let records = best;

    if let Some(baseline) = &opts.guard {
        if let Err(e) = guard(&records, baseline, opts.tolerance) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }

    let mut trajectory = read_trajectory(&opts.out);
    trajectory.extend(records.iter().map(Record::to_json));
    if let Err(e) = write_trajectory(&opts.out, &trajectory) {
        eprintln!("error: writing {}: {e}", opts.out);
        return ExitCode::FAILURE;
    }
    println!("trajectory written to {}", opts.out);
    ExitCode::SUCCESS
}
