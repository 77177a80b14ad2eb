//! `benchguard` on synthetic trajectories: which committed record guards
//! a fresh one, and each way the guard fails.

use std::path::PathBuf;
use std::process::{Command, Output};

/// One end-to-end benchmark record with a two-field fingerprint and a
/// 10 MiB peak.
fn record(workload: &str, seed: u64, assignment: &str, events_per_sec: f64) -> String {
    record_with_rss(workload, seed, assignment, events_per_sec, 10.0)
}

fn record_with_rss(
    workload: &str,
    seed: u64,
    assignment: &str,
    events_per_sec: f64,
    peak_rss_mb: f64,
) -> String {
    format!(
        "{{\"workload\":\"{workload}\",\"trace\":0,\"seed\":{seed},\"virtual_secs\":120,\
         \"fingerprint\":{{\"events\":\"1000\",\"assignment\":\"{assignment}\"}},\
         \"metrics\":{{\"events_per_sec\":{{\"median\":{events_per_sec},\"q1\":1,\"q3\":2,\"n\":3}},\
         \"peak_rss_mb\":{{\"median\":{peak_rss_mb},\"q1\":1,\"q3\":2,\"n\":3}}}}}}"
    )
}

/// A cell of the retired `simbench` harness.
const SIMBENCH_CELL: &str = r#"{"scenario":"wordcount","label":"baseline","quick":false,"events":3501931,"events_per_sec":9e9,"seed":42,"duration_secs":120,"batch_size":1}"#;

/// Writes `fresh` and `committed` as JSON arrays into a directory of
/// the test's own and runs the guard on them.
fn guard(test: &str, fresh: &[String], committed: &[String]) -> (Output, PathBuf) {
    let dir = std::env::temp_dir().join(format!("benchguard-{test}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let (f, c) = (dir.join("fresh.json"), dir.join("BENCH_sim.json"));
    std::fs::write(&f, format!("[\n{}\n]\n", fresh.join(",\n"))).expect("write fresh");
    std::fs::write(&c, format!("[\n  {}\n]\n", committed.join(",\n  "))).expect("write committed");
    let out = Command::new(env!("CARGO_BIN_EXE_benchguard"))
        .arg(&f)
        .arg(&c)
        .output()
        .expect("benchguard launches");
    let _ = std::fs::remove_dir_all(&dir);
    (out, c)
}

fn assert_fails(out: &Output, fragments: &[&str]) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    for fragment in fragments {
        assert!(stderr.contains(fragment), "`{fragment}` in: {stderr}");
    }
}

#[test]
fn equal_fingerprints_at_exactly_the_floor_pass() {
    // 0.65 × 2,000,000 rounds to exactly 1,300,000.
    let (out, _) = guard(
        "floor",
        &[record("wordcount", 42, "ab12", 1_300_000.0)],
        &[record("wordcount", 42, "ab12", 2_000_000.0)],
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("wordcount: fingerprint equal"), "{stdout}");
    assert!(stdout.contains("= 0.650 x committed"), "{stdout}");
}

#[test]
fn a_median_below_the_floor_fails_naming_the_workload() {
    let (out, _) = guard(
        "below",
        &[record("wordcount", 42, "ab12", 1_299_999.0)],
        &[record("wordcount", 42, "ab12", 2_000_000.0)],
    );
    assert_fails(
        &out,
        &["workload wordcount", "events_per_sec median 1299999"],
    );
}

#[test]
fn a_peak_rss_above_the_ceiling_fails_naming_the_workload() {
    // 1.4 × 10 MiB rounds to exactly 14 MiB.
    let committed = [record("overload-b8", 42, "ab12", 2_000_000.0)];
    let fresh = |mb| [record_with_rss("overload-b8", 42, "ab12", 2_000_000.0, mb)];
    let (out, _) = guard("ceiling", &fresh(14.0), &committed);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(
        stdout.contains("peak_rss_mb median 14.00 = 1.400 x committed 10.00 (ceiling 1.4)"),
        "{stdout}"
    );
    let (out, _) = guard("above", &fresh(14.01), &committed);
    assert_fails(
        &out,
        &[
            "workload overload-b8",
            "peak_rss_mb median 14.01 is above 1.4 x the committed median 10.00",
        ],
    );
}

#[test]
fn a_changed_fingerprint_field_fails_with_both_values() {
    let (out, committed) = guard(
        "fingerprint",
        &[record("scale-100", 42, "cd34", 2_000_000.0)],
        &[record("scale-100", 42, "ab12", 2_000_000.0)],
    );
    assert_fails(
        &out,
        &[
            "workload scale-100",
            "field `assignment` is cd34 in the fresh run but ab12",
            "append the fresh records to",
            &committed.to_string_lossy(),
        ],
    );
}

#[test]
fn a_workload_without_a_committed_record_fails() {
    // The seed is part of the match, so a record of another seed is no
    // baseline either.
    let (out, _) = guard(
        "missing",
        &[
            record("wordcount", 42, "ab12", 2_000_000.0),
            record("fault-recorded", 42, "ab12", 2_000_000.0),
            record("scale-100", 7, "ab12", 2_000_000.0),
        ],
        &[
            record("wordcount", 42, "ab12", 2_000_000.0),
            record("scale-100", 42, "ab12", 2_000_000.0),
        ],
    );
    assert_fails(&out, &["workload fault-recorded", "workload scale-100"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("wordcount: fingerprint equal"), "{stdout}");
}

#[test]
fn the_newest_matching_record_wins() {
    let committed = [
        record("wordcount", 42, "ab12", 1_000_000.0),
        record("wordcount", 42, "cd34", 4_000_000.0),
    ];
    let (out, _) = guard(
        "newest-fp",
        &[record("wordcount", 42, "ab12", 1_000_000.0)],
        &committed,
    );
    assert_fails(
        &out,
        &["field `assignment` is ab12 in the fresh run but cd34"],
    );
    // Above the older record's floor, below the newer one's.
    let (out, _) = guard(
        "newest-eps",
        &[record("wordcount", 42, "cd34", 2_000_000.0)],
        &committed,
    );
    assert_fails(&out, &["below 0.65 x the committed median 4000000"]);
}

#[test]
fn simbench_cells_and_per_layer_records_are_skipped() {
    let per_layer = record("wordcount", 42, "ef56", 1.0).replace(r#""trace":0"#, r#""trace":1"#);
    let (out, _) = guard(
        "skipped",
        &[
            record("wordcount", 42, "ab12", 2_000_000.0),
            per_layer.clone(),
        ],
        &[
            record("wordcount", 42, "ab12", 2_000_000.0),
            SIMBENCH_CELL.to_owned(),
            per_layer.clone(),
        ],
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert_eq!(stdout.lines().count(), 1, "{stdout}");
    // History alone guards nothing.
    let (out, _) = guard(
        "history",
        &[record("wordcount", 42, "ab12", 2_000_000.0)],
        &[SIMBENCH_CELL.to_owned(), per_layer],
    );
    assert_fails(&out, &["workload wordcount: no fingerprinted record"]);
}

#[test]
fn malformed_files_fail_naming_the_file() {
    let good = record("wordcount", 42, "ab12", 2_000_000.0);
    let (out, committed) = guard(
        "malformed",
        std::slice::from_ref(&good),
        &["{\"workload\":".to_owned()],
    );
    assert_fails(
        &out,
        &[&format!("{}: not a JSON array", committed.display())],
    );
    // A fresh file with no end-to-end record checks nothing.
    let (out, committed) = guard("empty", &[], &[good]);
    let fresh = committed.with_file_name("fresh.json");
    assert_fails(
        &out,
        &[&format!("{} holds no fingerprinted", fresh.display())],
    );
}
