//! End-to-end regression tests for strict argument parsing: malformed
//! input must exit non-zero with a diagnostic, never silently fall back
//! to defaults (the old `fig5 100O` → 1000 s bug, now `repro fig5 100O`).

use std::process::Command;

fn run(bin: &str, args: &[&str]) -> std::process::Output {
    Command::new(bin)
        .args(args)
        .output()
        .expect("binary launches")
}

const REPRO: &str = env!("CARGO_BIN_EXE_repro");

#[test]
fn malformed_duration_exits_nonzero_and_names_the_value() {
    // The motivating bug: a letter O typo used to run the default
    // duration instead of erroring.
    let out = run(REPRO, &["fig5", "100O"]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "exit code for `repro fig5 100O`"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("100O"),
        "stderr names the bad value: {stderr}"
    );
    assert!(stderr.contains("usage:"), "stderr shows usage: {stderr}");
}

#[test]
fn malformed_seed_and_extra_args_exit_nonzero() {
    for args in [
        &["fig2", "10", "4x"][..],
        &["fig3", "10", "7", "9"],
        &["summary", "--frobnicate"],
    ] {
        let out = run(REPRO, args);
        assert_eq!(out.status.code(), Some(2), "repro {args:?}");
    }
}

/// A missing or unknown target name exits 2 with the usage, which
/// lists the targets.
#[test]
fn missing_or_unknown_target_exits_two_with_usage() {
    for args in [&[][..], &["nosuch"], &["tables"]] {
        let out = run(REPRO, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "repro {args:?}: {stderr}");
        assert!(
            stderr.contains("usage: repro") && stderr.contains("fig10"),
            "repro {args:?} shows usage: {stderr}"
        );
    }
}

/// `SimTime::from_secs` does not check for overflow, so a duration whose
/// microsecond count overflows `u64` would wrap to a sub-second run that
/// exits 0 (`fig3 18446744073710` printed `emitted=0`). Each row:
/// binary, arguments, the duration they pass.
#[test]
fn overflowing_durations_exit_two_and_name_the_value() {
    let cases: &[(&str, &[&str], &str)] = &[
        (REPRO, &["fig3", "18446744073710"], "18446744073710"),
        (REPRO, &["fig5", "18446744073710", "7"], "18446744073710"),
        (
            REPRO,
            &["summary", "18446744073709551615"],
            "18446744073709551615",
        ),
        (
            env!("CARGO_BIN_EXE_sweep"),
            &["--duration", "18446744073710"],
            "18446744073710",
        ),
    ];
    for (bin, args, duration) in cases {
        let out = run(bin, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("`{duration}`")) && stderr.contains("overflows"),
            "{bin} {args:?} names the duration: {stderr}"
        );
    }
}

#[test]
fn help_exits_zero_with_usage() {
    let cases: &[(&str, &[&str])] = &[
        (REPRO, &["--help"]),
        (REPRO, &["fig5", "--help"]),
        (REPRO, &["baselines", "--help"]),
        (REPRO, &["table2", "--help"]),
        (env!("CARGO_BIN_EXE_sweep"), &["--help"]),
        (env!("CARGO_BIN_EXE_alg1bench"), &["--help"]),
        (env!("CARGO_BIN_EXE_inspect"), &["--help"]),
        (env!("CARGO_BIN_EXE_benchguard"), &["--help"]),
    ];
    for (bin, args) in cases {
        let out = run(bin, args);
        assert_eq!(out.status.code(), Some(0), "{bin} {args:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("usage"), "{bin} {args:?} prints usage");
    }
}

/// `benchguard` takes two paths and nothing else: no tolerance or
/// other tuning flag.
#[test]
fn benchguard_rejects_malformed_arguments() {
    let guard = env!("CARGO_BIN_EXE_benchguard");
    for args in [
        &[][..],
        &["fresh.json"],
        &["fresh.json", "BENCH_sim.json", "extra.json"],
        &["--tolerance", "0.5"],
    ] {
        let out = run(guard, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "benchguard {args:?}: {stderr}");
        assert!(
            stderr.contains("usage: benchguard FRESH.json BENCH_sim.json"),
            "benchguard {args:?} shows usage: {stderr}"
        );
    }
    let out = run(guard, &["no-such-fresh.json", "no-such-committed.json"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("cannot read no-such-fresh.json"),
        "names the unreadable file: {stderr}"
    );
}

#[test]
fn table2_rejects_any_argument() {
    let out = run(REPRO, &["table2", "extra"]);
    assert_eq!(out.status.code(), Some(2));
    let out = run(REPRO, &["table2", "10"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn sweep_rejects_malformed_grid_flags() {
    let cases: &[&[&str]] = &[
        &["--seeds", "3O"],
        &["--gammas", "1.0,potato"],
        &["--modes", "storm,fast"],
        &["--workloads", "throughput,nope"],
        &["--threads", "0"],
        &["--duration"],
        &["--bogus"],
        &["--gammas", "1.7,1.7"], // duplicate cell labels
        // The window's end overflows the microsecond clock.
        &["--fault", "nimbus-crash@t=18446744073709,dur=1"],
    ];
    for args in cases {
        let out = run(env!("CARGO_BIN_EXE_sweep"), args);
        assert_eq!(out.status.code(), Some(2), "sweep {args:?}");
        assert!(!out.stderr.is_empty(), "sweep {args:?} explains itself");
    }
}

#[test]
fn alg1bench_rejects_malformed_and_infeasible_arguments() {
    let cases: &[(&[&str], &str)] = &[
        (&["--iters", "0"], "--iters: `0` is not a positive integer"),
        (&["--iters", "x"], "--iters: `x` is not a positive integer"),
        (&["--nodes", "0"], "--nodes: `0` is not a positive integer"),
        (&["--slots", "0"], "--slots: `0` is not a positive integer"),
        (&["--ne", "1"], "not a valid executor count"),
        (&["--fraction", "0.5"], "unknown flag `--fraction`"),
        (&["--iters"], "requires a value"),
        (&["--frobnicate"], "unknown flag `--frobnicate`"),
        (
            &[
                "--ne", "1000", "--nodes", "1", "--slots", "1", "--iters", "1",
            ],
            "Ne=1000 does not fit 1 nodes x 1 slots",
        ),
    ];
    for (args, fragment) in cases {
        let out = run(env!("CARGO_BIN_EXE_alg1bench"), args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "alg1bench {args:?}: {stderr}");
        assert!(
            stderr.contains(fragment),
            "alg1bench {args:?} should say `{fragment}`: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "alg1bench {args:?}: {stderr}");
    }
}

#[test]
fn alg1bench_prints_the_scheduler_table_and_the_scaling_row() {
    let out = run(
        env!("CARGO_BIN_EXE_alg1bench"),
        &[
            "--ne", "200", "--nodes", "8", "--slots", "4", "--iters", "1",
        ],
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    for name in [
        "storm-default",
        "t-storm-initial",
        "t-storm",
        "t-storm-ls",
        "aniello-online",
        "aniello-offline",
    ] {
        assert!(
            stdout.contains(name),
            "scheduler table lists {name}: {stdout}"
        );
    }
    assert!(stdout.contains("45 executors"), "{stdout}");
    assert!(
        stdout.contains("Algorithm 1 full solve — 8 nodes x 4 slots"),
        "scaling table header: {stdout}"
    );
    assert!(
        stdout
            .lines()
            .any(|l| l.split_whitespace().eq(["Ne", "full", "(ms)"])),
        "scaling table columns: {stdout}"
    );
    assert!(
        stdout.lines().any(|l| l.trim_start().starts_with("200 ")),
        "scaling row for Ne=200: {stdout}"
    );
}

#[test]
fn inspect_rejects_malformed_arguments_with_exit_two() {
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/recording_v1_lanes.jsonl"
    );
    let cases: &[(&[&str], &str)] = &[
        (&[fixture, "--section", "nope"], "unknown section `nope`"),
        (&[fixture, "--section"], "--section requires a value"),
        (
            &[fixture, "extra.jsonl"],
            "unexpected argument `extra.jsonl`",
        ),
        (&[fixture, "--bogus"], "unexpected argument `--bogus`"),
    ];
    for (args, fragment) in cases {
        let out = run(env!("CARGO_BIN_EXE_inspect"), args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "inspect {args:?}: {stderr}");
        assert!(stderr.contains(fragment), "inspect {args:?}: {stderr}");
    }
}

/// A recording written by `tstorm run --workers 2` before the
/// frame-parallel path was removed: a v1 file closing with a `lanes`
/// line (wordcount, 3 nodes x 2 slots, rate 20, 40 s, seed 42).
#[test]
fn inspect_renders_v1_recordings_that_carry_a_lanes_line() {
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/recording_v1_lanes.jsonl"
    );
    let text = std::fs::read_to_string(fixture).expect("fixture");
    let recorded = tstorm_trace::parse_recording(&text).expect("v1 recording parses");
    assert_eq!(recorded.lines_of("lanes").len(), 1);

    let out = run(env!("CARGO_BIN_EXE_inspect"), &[fixture]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    for header in [
        "== recording ==",
        "== critical-path breakdown ==",
        "== traffic heatmap",
        "== rebalance timeline ==",
        "== windows ==",
        "== decisions ==",
    ] {
        assert!(stdout.contains(header), "missing `{header}`: {stdout}");
    }
    assert!(stdout.contains("800 roots"), "{stdout}");
    assert!(
        stdout.contains("epoch 0 @ 0.0s (20 placements):"),
        "{stdout}"
    );
    assert!(
        !stdout.contains("lane"),
        "no lane section any more: {stdout}"
    );

    for section in ["breakdown", "heatmap", "timeline", "windows", "decisions"] {
        let out = run(
            env!("CARGO_BIN_EXE_inspect"),
            &[fixture, "--section", section],
        );
        assert_eq!(out.status.code(), Some(0), "--section {section}");
    }
    let out = run(
        env!("CARGO_BIN_EXE_inspect"),
        &[fixture, "--section", "lanes"],
    );
    assert_eq!(out.status.code(), Some(2), "--section lanes is gone");
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown section `lanes`"));
}
