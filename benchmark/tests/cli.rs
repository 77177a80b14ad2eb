//! Checks of the benchmark binary and its declaration in
//! `BENCHMARK.json`.

use std::collections::BTreeSet;
use std::process::{Command, Output};
use tstorm_benchmark::workloads::Workload;
use tstorm_benchmark::{Metric, END_TO_END, PER_LAYER};
use tstorm_trace::json::{self, JsonValue};

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tstorm-benchmark"))
        .args(args)
        .output()
        .expect("the benchmark binary starts")
}

fn declaration() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    json::parse(&text).expect("BENCHMARK.json is valid JSON")
}

/// `(name, unit)` of every entry of a `BENCHMARK.json` list.
fn declared(list: &str) -> Vec<(String, String)> {
    declaration()
        .get(list)
        .and_then(JsonValue::as_array)
        .expect("list is declared")
        .iter()
        .map(|entry| {
            let field = |k| entry.get(k).and_then(JsonValue::as_str).unwrap_or("");
            (field("name").to_owned(), field("unit").to_owned())
        })
        .collect()
}

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn catalogue(metrics: &[Metric]) -> Vec<(String, String)> {
    metrics
        .iter()
        .map(|m| (m.name.to_owned(), m.unit.to_owned()))
        .collect()
}

#[test]
fn declaration_matches_the_catalogue() {
    let workloads: Vec<String> = declared("workloads").into_iter().map(|(n, _)| n).collect();
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, names);
    assert_eq!(declared("end_to_end"), catalogue(&END_TO_END));
    assert_eq!(declared("per_layer"), catalogue(&PER_LAYER));
    let all: Vec<String> = workloads
        .into_iter()
        .chain(
            END_TO_END
                .iter()
                .chain(&PER_LAYER)
                .map(|m| m.name.to_owned()),
        )
        .collect();
    for name in &all {
        assert!(valid_name(name), "`{name}` is not a valid name");
    }
    let unique: BTreeSet<&String> = all.iter().collect();
    assert_eq!(unique.len(), all.len(), "names are used once");
}

#[test]
fn junk_arguments_exit_2() {
    let cases: &[&[&str]] = &[
        &["--bogus"],
        &["--seed"],
        &["--seed", "x"],
        &["--seed", "-1"],
        &["--seconds", "-3"],
        &["--reps", "0"],
        &["--trace", "2"],
        &["--workload", "nope"],
        &["--workload", "wordcount", "--workload", "wordcount"],
        &["--virtual-secs", "0"],
        &["--child", "bogus", "--workload", "wordcount"],
        &["--child", "e2e"],
    ];
    for args in cases {
        let out = bench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}

/// Checks a run's result lines, one per workload in order, against the
/// declared metrics of `list` and the expected number of child runs.
fn check_results(out: &Output, list: &str, runs: [f64; 4]) {
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<JsonValue> = stdout
        .lines()
        .filter(|l| l.starts_with("{\"correct\""))
        .map(|l| json::parse(l).expect("result lines are JSON"))
        .collect();
    assert_eq!(lines.len(), Workload::ALL.len(), "{stdout}");
    assert!(stdout.lines().last().is_some_and(|l| l.starts_with('{')));
    assert!(stdout.contains("fingerprint: events="), "{stdout}");
    let declared = declared(list);
    for (line, runs) in lines.iter().zip(runs) {
        let keys: Vec<&String> = line.as_object().expect("object").keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&JsonValue::Bool(true)));
        assert_eq!(
            line.get("attempted").and_then(JsonValue::as_f64),
            Some(runs)
        );
        assert_eq!(line.get("failed").and_then(JsonValue::as_f64), Some(0.0));
        let metrics = line
            .get("metrics")
            .and_then(JsonValue::as_object)
            .expect("metrics");
        let emitted: Vec<(String, String)> = declared
            .iter()
            .filter_map(|(name, _)| {
                let m = metrics.get(name)?;
                assert!(
                    m.get("value").and_then(JsonValue::as_f64).is_some(),
                    "{name}"
                );
                let unit = m.get("unit").and_then(JsonValue::as_str)?;
                Some((name.clone(), unit.to_owned()))
            })
            .collect();
        assert_eq!(emitted, declared, "every declared metric, with its unit");
        assert_eq!(metrics.len(), declared.len(), "no undeclared metric");
    }
}

/// Every workload at 5 virtual seconds through the same code path as a
/// full run: two untraced runs each, which the benchmark requires to
/// share one fingerprint, then the traced pass, which must reproduce
/// the untraced fingerprint.
#[test]
fn smoke_run_of_every_workload() {
    let untraced = bench(&["--virtual-secs", "5", "--reps", "2", "--seconds", "0"]);
    check_results(&untraced, "end_to_end", [2.0; 4]);
    // An untraced reference and the traced run per workload, plus a run
    // with observability off for fault-recorded.
    let traced = bench(&["--virtual-secs", "5", "--trace", "1"]);
    check_results(&traced, "per_layer", [2.0, 2.0, 3.0, 2.0]);
}
