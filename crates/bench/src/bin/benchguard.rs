//! `benchguard FRESH.json BENCH_sim.json` checks the records that the
//! repository benchmark (`benchmark/`) wrote with `--out FRESH.json`
//! against the committed trajectory. It measures nothing.
//!
//! `BENCH_sim.json` holds two kinds of record, newest last:
//!
//! - **Benchmark records**, appended from `--out` files: `workload`,
//!   `trace` (0 end-to-end, 1 per-layer), `seed`, `virtual_secs`, host
//!   provenance, the behaviour `fingerprint` and `metrics` (end-to-end:
//!   each metric's `median`, `q1`, `q3` and `n`).
//! - **Pre-fingerprint history**: the retired `simbench` harness's cells
//!   (`scenario`, `label`, `quick`, `events_per_sec`, …), never compared.
//!
//! Each fresh end-to-end record is checked against the newest committed
//! one with the same `workload`, `seed`, `virtual_secs` and `trace` that
//! carries a fingerprint. The guard exits 1 naming the workload when
//! there is none, when a fingerprint field differs (an intended
//! behaviour change appends the fresh records), when the fresh
//! `events_per_sec` median is below [`FLOOR`] times the committed one,
//! or when the fresh `peak_rss_mb` median is above [`CEILING`] times
//! the committed one. Per-layer records are skipped. An unreadable or
//! malformed file exits 1 naming it; arguments other than the two paths
//! or `--help` exit 2.

use std::collections::{BTreeMap, BTreeSet};
use std::process::ExitCode;
use tstorm_trace::json::{self, JsonValue};

const USAGE: &str = "usage: benchguard FRESH.json BENCH_sim.json";

/// The lowest accepted ratio of a fresh `events_per_sec` median to the
/// committed one. CI's host is not the one that measured the committed
/// medians: the floor catches step changes, such as an O(n) hot path.
const FLOOR: f64 = 0.65;

/// The highest accepted ratio of a fresh `peak_rss_mb` median to the
/// committed one. It leaves room for the ~7% by which glibc's `mmap`
/// threshold moves `scale-100`'s peak with the working directory, and
/// catches the undoing of each memory saving committed so far (the
/// smallest, the shared traffic estimates, is 1.49x).
const CEILING: f64 = 1.4;

/// The fields a committed record shares with the fresh one it guards.
const MATCH: [&str; 4] = ["workload", "seed", "virtual_secs", "trace"];

/// The fingerprinted end-to-end records of the trajectory at `path`,
/// oldest first.
fn load(path: &str) -> Result<Vec<JsonValue>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let Some(JsonValue::Array(records)) = json::parse(&text) else {
        return Err(format!("{path}: not a JSON array of records"));
    };
    Ok(records
        .into_iter()
        .filter(|r| {
            r.get("trace") == Some(&JsonValue::Number(0.0))
                && matches!(r.get("fingerprint"), Some(JsonValue::Object(_)))
        })
        .collect())
}

fn fingerprint(record: &JsonValue) -> &BTreeMap<String, JsonValue> {
    record
        .get("fingerprint")
        .and_then(JsonValue::as_object)
        .expect("`load` keeps only fingerprinted records")
}

fn median(record: &JsonValue, metric: &str) -> Option<f64> {
    record.get("metrics")?.get(metric)?.get("median")?.as_f64()
}

fn show(value: Option<&JsonValue>) -> String {
    match value {
        Some(JsonValue::String(s)) => s.clone(),
        Some(other) => format!("{other:?}"),
        None => "absent".to_owned(),
    }
}

/// Checks one fresh record against its baseline in `committed` (read
/// from `path`); the line to print when it passes.
fn check(fresh: &JsonValue, committed: &[JsonValue], path: &str) -> Result<String, String> {
    let name = show(fresh.get("workload"));
    let base = committed
        .iter()
        .rev()
        .find(|c| MATCH.iter().all(|k| c.get(k) == fresh.get(k)))
        .ok_or_else(|| format!("workload {name}: no fingerprinted record in {path} matches"))?;
    let (now, then) = (fingerprint(fresh), fingerprint(base));
    for field in now.keys().chain(then.keys()).collect::<BTreeSet<_>>() {
        if now.get(field) != then.get(field) {
            return Err(format!(
                "workload {name}: fingerprint field `{field}` is {} in the fresh run but {} \
                 in {path}; the behaviour changed. If the change is intended, append the \
                 fresh records to {path}",
                show(now.get(field)),
                show(then.get(field))
            ));
        }
    }
    let medians = |metric| match (median(fresh, metric), median(base, metric)) {
        (Some(now), Some(then)) => Ok((now, then)),
        _ => Err(format!("workload {name}: no {metric} median")),
    };
    let (now, then) = medians("events_per_sec")?;
    if now < FLOOR * then {
        return Err(format!(
            "workload {name}: events_per_sec median {now:.0} is below {FLOOR} x the \
             committed median {then:.0} in {path}"
        ));
    }
    let (rss, committed_rss) = medians("peak_rss_mb")?;
    if rss > CEILING * committed_rss {
        return Err(format!(
            "workload {name}: peak_rss_mb median {rss:.2} is above {CEILING} x the \
             committed median {committed_rss:.2} in {path}"
        ));
    }
    Ok(format!(
        "{name}: fingerprint equal; events_per_sec median {now:.0} = {:.3} x committed \
         {then:.0} (floor {FLOOR}); peak_rss_mb median {rss:.2} = {:.3} x committed \
         {committed_rss:.2} (ceiling {CEILING})",
        now / then,
        rss / committed_rss
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let [fresh_path, committed_path] = &args[..] else {
        eprintln!("error: expected two paths, got {}\n{USAGE}", args.len());
        return ExitCode::from(2);
    };
    if let Some(flag) = args.iter().find(|a| a.starts_with('-')) {
        eprintln!("error: unknown flag `{flag}`\n{USAGE}");
        return ExitCode::from(2);
    }
    let (fresh, committed) = match (load(fresh_path), load(committed_path)) {
        (Ok(fresh), Ok(committed)) => (fresh, committed),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if fresh.is_empty() {
        eprintln!("error: {fresh_path} holds no fingerprinted end-to-end record");
        return ExitCode::FAILURE;
    }
    let mut failed = false;
    for record in &fresh {
        match check(record, &committed, committed_path) {
            Ok(line) => println!("{line}"),
            Err(e) => {
                eprintln!("error: {e}");
                failed = true;
            }
        }
    }
    ExitCode::from(u8::from(failed))
}
