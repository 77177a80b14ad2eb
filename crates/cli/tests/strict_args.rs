//! End-to-end strict-argument tests for the `tstorm` binary: malformed
//! invocations must exit 2 with a diagnostic naming the bad value,
//! matching the bench binaries' convention — never panic, and never
//! silently fall back to a default.

use std::process::Command;

fn run(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_tstorm"))
        .args(args)
        .output()
        .expect("binary launches")
}

/// Each row: the invocation and a fragment its stderr must contain.
const MALFORMED: &[(&[&str], &str)] = &[
    (&["frobnicate"], "unknown command"),
    (&["run", "--frobnicate"], "unknown flag `--frobnicate`"),
    // Retired flags must fail loudly rather than be ignored.
    (&["run", "--workers", "2"], "unknown flag `--workers`"),
    (
        &["run", "--pair-backend", "dense"],
        "unknown flag `--pair-backend`",
    ),
    (
        &["run", "--engine-stats-json"],
        "unknown flag `--engine-stats-json`",
    ),
    // A flight recording holds the critical path and the decision
    // records; `inspect` renders them.
    (&["run", "--spans"], "unknown flag `--spans`"),
    (&["run", "--explain"], "unknown flag `--explain`"),
    (&["compare", "--explain"], "unknown flag `--explain`"),
    (&["run", "--rate"], "requires a value"),
    (&["run", "--rate", "fast"], "`fast` is not a number"),
    // A non-positive or non-finite rate would panic in the Redis
    // substrate, and γ feeds the capacity bound: reject both up front.
    (
        &["run", "--topology", "wordcount", "--rate", "0"],
        "--rate: `0` must be finite and positive",
    ),
    (
        &["run", "--topology", "wordcount", "--rate", "-1"],
        "--rate: `-1` must be finite and positive",
    ),
    (
        &["run", "--topology", "wordcount", "--rate", "nan"],
        "--rate: `nan` must be finite and positive",
    ),
    (
        &["run", "--topology", "wordcount", "--rate", "inf"],
        "--rate: `inf` must be finite and positive",
    ),
    (
        &["run", "--gamma", "nan"],
        "--gamma: `nan` must be finite and positive",
    ),
    (
        &["run", "--gamma", "-1"],
        "--gamma: `-1` must be finite and positive",
    ),
    (
        &["run", "--gamma", "0"],
        "--gamma: `0` must be finite and positive",
    ),
    (
        &["compare", "--gamma", "inf"],
        "--gamma: `inf` must be finite and positive",
    ),
    (&["run", "--nodes", "0"], "must be positive"),
    // A cluster too large to build must fail at parse time, not on
    // allocation.
    (
        &["run", "--nodes", "100000000"],
        "--nodes 100000000 × --slots 4 is 400000000 slots",
    ),
    (
        &["run", "--slots", "100000000"],
        "--nodes 10 × --slots 100000000 is 1000000000 slots",
    ),
    // Seeds span u64 (sweep records them so); one past it is junk.
    (
        &["run", "--seed", "18446744073709551616"],
        "--seed: `18446744073709551616` is not an integer",
    ),
    (
        &["run", "--batch-size", "0"],
        "--batch-size must be positive",
    ),
    (
        &["run", "--scale", "scale-9000"],
        "unknown preset `scale-9000`",
    ),
    // A fault window ending past the microsecond clock used to wrap its
    // restore to an early instant and run anyway.
    (
        &["run", "--fault", "nimbus-crash@t=18446744073709,dur=1"],
        "`nimbus-crash@t=18446744073709,dur=1`: `t` + `dur` overflows",
    ),
    (
        &["run", "--fault", "nimbus-crash@t=1e20,dur=1"],
        "`t` overflows the microsecond clock",
    ),
    // `compare` runs both systems with one set of options: a run-only
    // flag would be ignored, or its one output path written twice.
    (&["compare", "--system", "storm"], "--system is run-only"),
    (&["compare", "--csv", "out.csv"], "--csv is run-only"),
    (&["compare", "--trace", "t.jsonl"], "--trace is run-only"),
    (&["compare", "--prom", "m.prom"], "--prom is run-only"),
    (
        &["compare", "--flight-recorder", "r.jsonl"],
        "--flight-recorder is run-only",
    ),
    // The parser knows the registry's names, so a typo exits 2 with
    // usage instead of failing as a runtime error.
    (
        &["run", "--scheduler", "nosuch"],
        "unknown scheduler `nosuch` (known: aniello-offline, aniello-online, ",
    ),
    // A fault target outside the cluster the run would build fails at
    // parse time, not after set-up; a `--scale` preset's shape counts.
    (
        &["run", "--fault", "node-crash@t=10,node=999"],
        "--fault `node-crash@t=10,node=999`: node 999 is outside the cluster's 10 nodes",
    ),
    (
        &["run", "--fault", "worker-crash@t=1,node=0,slot=99"],
        "--fault `worker-crash@t=1,node=0,slot=99`: slot 99 is outside the 4 slots of a node",
    ),
    (
        &["run", "--fault", "nic-slow@t=1,node=50,factor=2,dur=5"],
        "--fault `nic-slow@t=1,node=50,factor=2,dur=5`: node 50 is outside the cluster's 10 nodes",
    ),
    (
        &["run", "--fault", "heartbeat-loss@t=1,node=50,dur=5"],
        "--fault `heartbeat-loss@t=1,node=50,dur=5`: node 50 is outside the cluster's 10 nodes",
    ),
    (
        &[
            "run",
            "--nodes",
            "100",
            "--scale",
            "scale-100",
            "--fault",
            "node-crash@t=1,node=100",
        ],
        "node 100 is outside the cluster's 100 nodes",
    ),
    // Without a trace there is nothing to filter or sample, and
    // `compare` takes no `--trace`.
    (
        &["run", "--trace-sample", "5"],
        "--trace-sample needs --trace",
    ),
    (
        &["run", "--trace-filter", "tuple"],
        "--trace-filter needs --trace",
    ),
    (
        &["compare", "--trace-filter", "tuple"],
        "--trace-filter needs --trace",
    ),
    (
        &["compare", "--trace-sample", "1"],
        "--trace-sample needs --trace",
    ),
];

#[test]
fn malformed_invocations_exit_two_and_name_the_problem() {
    for (args, fragment) in MALFORMED {
        let out = run(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "exit code for {args:?}: {stderr}"
        );
        assert!(
            stderr.contains(fragment),
            "stderr for {args:?} should contain `{fragment}`: {stderr}"
        );
        assert!(stderr.contains("USAGE"), "stderr shows usage for {args:?}");
    }
}

/// An unwritable `--csv` path fails before the run, as `--trace`,
/// `--prom` and `--flight-recorder` do: exit 1, and no summary, because
/// nothing was simulated.
#[test]
fn unwritable_csv_fails_before_the_run() {
    let dir = std::env::temp_dir().join("tstorm-cli-csv-test");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let not_a_dir = dir.join("file");
    std::fs::write(&not_a_dir, "").expect("write");
    let csv = not_a_dir.join("out.csv");
    let out = run(&[
        "run",
        "--duration",
        "30",
        "--quiet",
        "--csv",
        &csv.to_string_lossy(),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("--csv") && stderr.contains("cannot create"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "the run never started");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn valid_run_exits_zero() {
    let out = run(&[
        "run",
        "--topology",
        "wordcount",
        "--duration",
        "30",
        "--rate",
        "0.5",
        "--quiet",
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("completed"), "summary printed: {stdout}");
}
