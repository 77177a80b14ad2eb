//! `tstorm-benchmark` — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME]... [--seed N] [--seconds S] [--reps N] \
//!     [--trace 0|1] [--virtual-secs N] [--out PATH]
//! ```
//!
//! With `--trace 0` (the default) it runs every selected workload again
//! and again, each run in a fresh child process, interleaved across
//! workloads, until `--seconds` per workload are spent (at least `--reps`
//! runs each). It prints each end-to-end metric's median, quartiles and
//! run count, and as each workload's last line one JSON object:
//!
//! ```text
//! {"correct":true,"attempted":3,"failed":0,"metrics":{"wall_s":{"value":6.3,"unit":"s"},…}}
//! ```
//!
//! With `--trace 1` it runs, per workload, one untraced reference run,
//! one traced run with the probes installed, and for `fault-recorded`
//! one run with observability off; it prints the per-layer metrics.
//!
//! Every run must conserve tuples and show no clock inversion, and all
//! runs of a workload must share one behaviour fingerprint; otherwise the
//! benchmark names the workload, the run and the first differing field
//! and exits 1. Malformed arguments exit 2.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::Instant;
use tstorm_benchmark::measure::{self, Mode, FINGERPRINT};
use tstorm_benchmark::stats::summarize;
use tstorm_benchmark::workloads::Workload;
use tstorm_benchmark::{Metric, END_TO_END, PER_LAYER};
use tstorm_trace::json::{self, write_escaped, JsonValue, ObjectWriter};

const USAGE: &str = "usage: tstorm-benchmark [--workload NAME]... [--seed N] [--seconds S] \
     [--reps N] [--trace 0|1] [--virtual-secs N] [--out PATH]\n\
     workloads: wordcount, overload-b8, fault-recorded, scale-100 (default: all)";

/// Every flag; each takes one value. `--child MODE` is internal: it
/// makes the process one measured run of one workload.
const FLAGS: [&str; 8] = [
    "--workload",
    "--seed",
    "--seconds",
    "--reps",
    "--trace",
    "--virtual-secs",
    "--out",
    "--child",
];

/// Parent options.
struct Options {
    workloads: Vec<Workload>,
    seed: u64,
    /// Measuring time per workload, in seconds.
    seconds: f64,
    /// Minimum runs per workload.
    reps: usize,
    trace: bool,
    /// Overrides every workload's virtual duration (smoke runs). The
    /// "workload does its job" checks are skipped on such runs.
    virtual_secs: Option<u64>,
    out: Option<String>,
}

enum Invocation {
    Parent(Options),
    Child {
        workload: Workload,
        seed: u64,
        mode: Mode,
        virtual_secs: Option<u64>,
    },
    Help,
}

fn parse_args(args: &[String]) -> Result<Invocation, String> {
    let mut opts = Options {
        workloads: Vec::new(),
        seed: 42,
        seconds: 20.0,
        reps: 1,
        trace: false,
        virtual_secs: None,
        out: None,
    };
    let mut child = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            return Ok(Invocation::Help);
        }
        if !FLAGS.contains(&flag.as_str()) {
            return Err(format!("unknown flag `{flag}`"));
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        let number = |what: &str| -> Result<u64, String> {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = Workload::from_name(value)
                    .ok_or_else(|| format!("--workload: unknown workload `{value}`"))?;
                if opts.workloads.contains(&w) {
                    return Err(format!("--workload: `{value}` given twice"));
                }
                opts.workloads.push(w);
            }
            "--seed" => opts.seed = number("a non-negative integer")?,
            "--seconds" => {
                opts.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("--seconds: `{value}` is not a non-negative number"))?;
            }
            "--reps" => {
                opts.reps = number("a positive integer")?
                    .try_into()
                    .ok()
                    .filter(|n| *n > 0)
                    .ok_or("--reps must be a positive integer")?;
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: `{value}` is not 0 or 1")),
                };
            }
            "--virtual-secs" => {
                let secs = number("a positive integer")?;
                if secs == 0 {
                    return Err("--virtual-secs must be a positive integer".to_owned());
                }
                opts.virtual_secs = Some(secs);
            }
            "--out" => opts.out = Some(value.clone()),
            "--child" => {
                child = Some(
                    Mode::from_name(value).ok_or_else(|| format!("--child: bad mode `{value}`"))?,
                );
            }
            _ => unreachable!("`{flag}` is in FLAGS"),
        }
    }
    if let Some(mode) = child {
        let [workload] = opts.workloads[..] else {
            return Err("--child takes exactly one --workload".to_owned());
        };
        return Ok(Invocation::Child {
            workload,
            seed: opts.seed,
            mode,
            virtual_secs: opts.virtual_secs,
        });
    }
    if opts.workloads.is_empty() {
        opts.workloads = Workload::ALL.to_vec();
    }
    Ok(Invocation::Parent(opts))
}

/// Where and how the benchmark ran.
struct Provenance {
    commit: String,
    rustc: String,
    cpus: usize,
}

impl Provenance {
    fn probe() -> Self {
        let rustc = Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or("unknown".to_owned(), |o| {
                String::from_utf8_lossy(&o.stdout).trim().to_owned()
            });
        Self {
            commit: commit(),
            rustc,
            cpus: std::thread::available_parallelism().map_or(1, usize::from),
        }
    }
}

/// The checked-out commit, read from `.git` in the working directory
/// (which is where the benchmark runs from); "unknown" outside a git
/// checkout. Reading the files keeps the benchmark from looking at any
/// directory above its checkout.
fn commit() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return id.trim().to_owned();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|refs| {
            refs.lines()
                .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_owned()))
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The 1-minute load average, NaN where the host does not report one.
fn load_1m() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(f64::NAN)
}

/// One finished child run.
struct ChildRun {
    /// Fingerprint values in [`FINGERPRINT`] order.
    fingerprint: Vec<String>,
    metrics: BTreeMap<String, f64>,
    /// 1-minute load average before and after the run.
    load: (f64, f64),
}

impl ChildRun {
    fn metric(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(f64::NAN)
    }

    /// The first fingerprint field or deterministic end-to-end metric
    /// on which two runs disagree, with both values.
    fn first_difference(&self, other: &ChildRun) -> Option<(&'static str, String, String)> {
        for (i, field) in FINGERPRINT.iter().enumerate() {
            if self.fingerprint[i] != other.fingerprint[i] {
                let (a, b) = (&self.fingerprint[i], &other.fingerprint[i]);
                return Some((field, a.clone(), b.clone()));
            }
        }
        END_TO_END
            .iter()
            .filter(|m| m.deterministic)
            .find(|m| self.metric(m.name).to_bits() != other.metric(m.name).to_bits())
            .map(|m| {
                let (a, b) = (self.metric(m.name), other.metric(m.name));
                (m.name, format!("{a:?}"), format!("{b:?}"))
            })
    }
}

fn spawn(
    workload: Workload,
    seed: u64,
    mode: Mode,
    virtual_secs: Option<u64>,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", mode.name(), "--workload", workload.name()])
        .args(["--seed", &seed.to_string()]);
    if let Some(secs) = virtual_secs {
        cmd.args(["--virtual-secs", &secs.to_string()]);
    }
    let before = load_1m();
    // `output` waits for the child to exit.
    let output = cmd
        .output()
        .map_err(|e| format!("starting a child run: {e}"))?;
    let after = load_1m();
    if !output.status.success() {
        return Err(format!(
            "{} run failed ({}): {}",
            mode.name(),
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let parsed = stdout
        .lines()
        .last()
        .and_then(json::parse)
        .ok_or_else(|| format!("unreadable child output: {stdout}"))?;
    let fingerprint = FINGERPRINT
        .iter()
        .map(|f| {
            parsed
                .get("fingerprint")
                .and_then(|fp| fp.get(f))
                .and_then(JsonValue::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("child output lacks fingerprint field `{f}`"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let metrics = parsed
        .get("metrics")
        .and_then(JsonValue::as_object)
        .ok_or("child output lacks metrics")?
        .iter()
        .map(|(k, v)| (k.clone(), v.as_f64().unwrap_or(f64::NAN)))
        .collect();
    Ok(ChildRun {
        fingerprint,
        metrics,
        load: (before, after),
    })
}

/// The result object the benchmark prints last for each workload.
fn result_line(attempted: usize, values: &[(&Metric, f64)]) -> String {
    let mut metrics = ObjectWriter::new();
    for (m, value) in values {
        let mut v = ObjectWriter::new();
        v.f64("value", *value).str("unit", m.unit);
        metrics.raw(m.name, &v.finish());
    }
    let mut line = ObjectWriter::new();
    line.raw("correct", "true")
        .u64("attempted", attempted as u64)
        .u64("failed", 0)
        .raw("metrics", &metrics.finish());
    line.finish()
}

fn print_header(workload: Workload, runs: &[ChildRun], opts: &Options, prov: &Provenance) {
    let secs = opts.virtual_secs.unwrap_or(workload.virtual_secs());
    println!(
        "== {} | seed {} | {} virtual s | {} run(s) | commit {} | {} | {} CPUs",
        workload.name(),
        opts.seed,
        secs,
        runs.len(),
        prov.commit,
        prov.rustc,
        prov.cpus
    );
    let fp: Vec<String> = FINGERPRINT
        .iter()
        .zip(&runs[0].fingerprint)
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    println!("fingerprint: {}", fp.join(" "));
    let loads: Vec<String> = runs
        .iter()
        .map(|r| format!("{:.2}/{:.2}", r.load.0, r.load.1))
        .collect();
    let busy = runs
        .iter()
        .filter(|r| r.load.0.max(r.load.1) > prov.cpus as f64)
        .count();
    println!(
        "host load (1-min, before/after each run): {} | {busy} run(s) above {} CPUs{}",
        loads.join(" "),
        prov.cpus,
        if busy > 0 { " — NOISY HOST" } else { "" }
    );
}

/// `--trace 0`: repeated untraced runs, interleaved across workloads.
fn run_e2e(opts: &Options, prov: &Provenance) -> Result<Vec<String>, String> {
    let mut runs: Vec<Vec<ChildRun>> = opts.workloads.iter().map(|_| Vec::new()).collect();
    let budget = opts.seconds * opts.workloads.len() as f64;
    let start = Instant::now();
    for round in 1.. {
        for (w, done) in opts.workloads.iter().zip(&mut runs) {
            let run = spawn(*w, opts.seed, Mode::E2e, opts.virtual_secs)
                .map_err(|e| format!("workload {} run {round}: {e}", w.name()))?;
            if let Some((field, first, this)) = done.first().and_then(|f| f.first_difference(&run))
            {
                return Err(format!(
                    "workload {} run {round}: behaviour differs from run 1 in `{field}` \
                     ({first} vs {this})",
                    w.name()
                ));
            }
            done.push(run);
        }
        // Start another round only if it is due and fits the budget.
        let elapsed = start.elapsed().as_secs_f64();
        if round >= opts.reps && elapsed * (round + 1) as f64 / round as f64 > budget {
            break;
        }
    }
    let mut records = Vec::new();
    for (w, runs) in opts.workloads.iter().zip(&runs) {
        print_header(*w, runs, opts, prov);
        println!(
            "{:<22} {:<17} {:>16} {:>16} {:>16} {:>4}",
            "metric", "unit", "median", "q1", "q3", "n"
        );
        let mut medians = Vec::new();
        let mut detail = ObjectWriter::new();
        for m in &END_TO_END {
            let values: Vec<f64> = runs.iter().map(|r| r.metric(m.name)).collect();
            let s = summarize(&values).expect("every workload ran at least once");
            println!(
                "{:<22} {:<17} {:>16.6} {:>16.6} {:>16.6} {:>4}",
                m.name, m.unit, s.median, s.q1, s.q3, s.n
            );
            medians.push((m, s.median));
            let mut o = ObjectWriter::new();
            o.str("unit", m.unit)
                .f64("median", s.median)
                .f64("q1", s.q1)
                .f64("q3", s.q3)
                .u64("n", s.n as u64);
            detail.raw(m.name, &o.finish());
        }
        records.push(record(*w, runs, opts, prov, &detail.finish()));
        println!("{}", result_line(runs.len(), &medians));
    }
    Ok(records)
}

/// `--trace 1`: per workload, an untraced reference run, the traced
/// run, and (for the observed workload) a run with observability off.
fn run_layers(opts: &Options, prov: &Provenance) -> Result<Vec<String>, String> {
    let mut records = Vec::new();
    for &w in &opts.workloads {
        let fail = |e: String| format!("workload {}: {e}", w.name());
        let reference = spawn(w, opts.seed, Mode::E2e, opts.virtual_secs).map_err(fail)?;
        let traced = spawn(w, opts.seed, Mode::Traced, opts.virtual_secs).map_err(fail)?;
        if let Some((field, a, b)) = reference.first_difference(&traced) {
            return Err(fail(format!(
                "the traced run differs from the untraced run in `{field}` ({a} vs {b})"
            )));
        }
        let mut runs = vec![reference, traced];
        let wall = runs[0].metric("wall_s");
        let observability_share = if w.observed() {
            let plain = spawn(w, opts.seed, Mode::Plain, opts.virtual_secs).map_err(fail)?;
            let share = (wall - plain.metric("wall_s")) / wall;
            runs.push(plain);
            share
        } else {
            0.0
        };
        let traced = &mut runs[1];
        traced
            .metrics
            .insert("trace.overhead_share".to_owned(), observability_share);
        let tracing = (traced.metric("wall_s") - wall) / wall;
        traced
            .metrics
            .insert("bench.tracing_overhead_share".to_owned(), tracing);

        print_header(w, &runs, opts, prov);
        println!("{:<30} {:<6} {:>18}", "metric", "unit", "value");
        let values: Vec<(&Metric, f64)> = PER_LAYER
            .iter()
            .map(|m| (m, runs[1].metric(m.name)))
            .collect();
        let mut detail = ObjectWriter::new();
        for (m, v) in &values {
            println!("{:<30} {:<6} {:>18.6}", m.name, m.unit, v);
            detail.f64(m.name, *v);
        }
        if tracing > 0.10 {
            println!(
                "warning: tracing overhead {tracing:.3} exceeds 0.10 of the untraced wall time"
            );
        }
        if opts.virtual_secs.is_some() {
            println!("workload checks skipped: shortened run");
        } else {
            check_workload(w, &runs[1]).map_err(fail)?;
        }
        records.push(record(w, &runs, opts, prov, &detail.finish()));
        println!("{}", result_line(runs.len(), &values));
    }
    Ok(records)
}

/// "The workload does its job": each workload still stresses the layer
/// it was chosen for.
fn check_workload(workload: Workload, traced: &ChildRun) -> Result<(), String> {
    let v = |name: &str| traced.metric(name);
    let checks: &[(bool, &str)] = match workload {
        Workload::Wordcount => &[(v("logic.share") > 0.10, "logic.share > 0.10")],
        Workload::OverloadB8 => &[
            (
                v("sim.queue_high_water") > 100_000.0,
                "sim.queue_high_water > 100000",
            ),
            (v("sched.calls") == 0.0, "sched.calls == 0"),
        ],
        Workload::FaultRecorded => &[
            (v("core.recoveries") > 0.0, "core.recoveries > 0"),
            (v("trace.recorder_lines") > 0.0, "trace.recorder_lines > 0"),
        ],
        Workload::Scale100 => &[(v("sched.calls") >= 2.0, "sched.calls >= 2")],
    };
    match checks.iter().find(|(ok, _)| !ok) {
        Some((_, what)) => Err(format!("no longer stresses its layer: expected {what}")),
        None => Ok(()),
    }
}

/// One workload's detailed result for `--out`.
fn record(
    workload: Workload,
    runs: &[ChildRun],
    opts: &Options,
    prov: &Provenance,
    metrics: &str,
) -> String {
    let fingerprint = {
        let mut o = ObjectWriter::new();
        for (k, v) in FINGERPRINT.iter().zip(&runs[0].fingerprint) {
            o.str(k, v);
        }
        o.finish()
    };
    let loads = runs
        .iter()
        .map(|r| format!("[{},{}]", json_f64(r.load.0), json_f64(r.load.1)))
        .collect::<Vec<_>>()
        .join(",");
    let mut rustc = String::new();
    write_escaped(&mut rustc, &prov.rustc);
    let mut o = ObjectWriter::new();
    o.str("workload", workload.name())
        .raw("trace", if opts.trace { "1" } else { "0" })
        .u64("seed", opts.seed)
        .u64(
            "virtual_secs",
            opts.virtual_secs.unwrap_or(workload.virtual_secs()),
        )
        .u64("runs", runs.len() as u64)
        .str("commit", &prov.commit)
        .raw("rustc", &rustc)
        .u64("cpus", prov.cpus as u64)
        .raw("load_1m", &format!("[{loads}]"))
        .raw("fingerprint", &fingerprint)
        .raw("metrics", metrics);
    o.finish()
}

fn json_f64(v: f64) -> String {
    let mut s = String::new();
    json::write_f64(&mut s, v);
    s
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(Invocation::Help) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Ok(Invocation::Child {
            workload,
            seed,
            mode,
            virtual_secs,
        }) => {
            let secs = virtual_secs.unwrap_or(workload.virtual_secs());
            return match measure::run(workload, seed, mode, secs) {
                Ok(line) => {
                    println!("{line}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::FAILURE
                }
            };
        }
        Ok(Invocation::Parent(opts)) => opts,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let prov = Provenance::probe();
    let records = if opts.trace {
        run_layers(&opts, &prov)
    } else {
        run_e2e(&opts, &prov)
    };
    let records = match records {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &opts.out {
        let text = format!("[\n{}\n]\n", records.join(",\n"));
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("error: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
