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
