//! Reduced-duration checks of the paper's headline claims. The full
//! 1000 s reproductions are the targets of `tstorm-bench`'s `repro`
//! binary, whose outputs are committed in `results/`; these tests run
//! the same experiment code shorter and assert the qualitative shape
//! (who wins, direction of tradeoffs) holds.
//!
//! Next to each shape assertion sits a band: the value the seed-42 run
//! measured at the test's duration when the band was recorded — means
//! and tuple counts within ±1 %, node counts and overload detections
//! exactly. A change that moves a paper number fails here, on any
//! platform, and must update the band, `results/` and EXPERIMENTS.md
//! together.

use tstorm_bench::experiments::{self, AppWorkload, ExperimentOutcome};
use tstorm_bench::repro;
use tstorm_core::SystemMode;
use tstorm_types::SimTime;

const DURATION: u64 = 400;
const STABLE: SimTime = SimTime::from_secs(200);

/// One Fig. 5/6/8 cell at the reduced duration, seed 42.
fn app(workload: AppWorkload, mode: SystemMode, gamma: f64) -> ExperimentOutcome {
    experiments::run_app(workload, mode, gamma, DURATION, 42, &[])
}

/// Asserts `measured` lies within ±1 % of `recorded`.
#[track_caller]
fn assert_band(what: &str, measured: f64, recorded: f64) {
    assert!(
        (measured - recorded).abs() <= recorded.abs() * 0.01,
        "{what}: measured {measured:.4}, recorded {recorded:.4} (band ±1 %)"
    );
}

/// Every `repro` target has a committed `results/` file and every
/// committed file a target, so diffing the targets' output against
/// `results/` covers each artifact.
#[test]
fn repro_targets_match_committed_results() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/results");
    let mut files: Vec<String> = std::fs::read_dir(dir)
        .expect("results/ exists")
        .map(|entry| {
            let entry = entry.expect("readable entry");
            entry.file_name().to_string_lossy().into_owned()
        })
        .collect();
    files.sort();
    let mut targets: Vec<String> = repro::TARGETS
        .iter()
        .map(|(name, ..)| format!("{name}.txt"))
        .collect();
    targets.sort();
    assert_eq!(files, targets);
}

#[test]
fn observation1_fig2_ordering() {
    let outcomes = experiments::fig2(200, 42);
    let mean = |i: usize| {
        outcomes[i]
            .report
            .proc_time_ms
            .overall_mean()
            .expect("data")
    };
    assert!(mean(0) < mean(1), "n1w1 must beat n5w5");
    assert!(mean(1) < mean(2), "n5w5 must beat n5w10");
    assert_band("fig2 n1w1 ms", mean(0), 1.1943);
    assert_band("fig2 n5w5 ms", mean(1), 3.8523);
    assert_band("fig2 n5w10 ms", mean(2), 4.6982);
}

#[test]
fn observation2_fig3_overload() {
    let outcome = experiments::fig3(150, 42);
    assert!(outcome.failed > 0, "overload must fail tuples");
    assert_band("fig3 failed", outcome.failed as f64, 59_249.0);
    assert_band("fig3 completed", outcome.completed as f64, 58_766.0);
}

#[test]
fn fig5_throughput_test_speedup_and_consolidation() {
    let storm = app(AppWorkload::Throughput, SystemMode::StormDefault, 1.0);
    let g1 = app(AppWorkload::Throughput, SystemMode::TStorm, 1.0);
    let g6 = app(AppWorkload::Throughput, SystemMode::TStorm, 6.0);

    let s = storm.report.mean_proc_time_after(STABLE).expect("data");
    let t1 = g1.report.mean_proc_time_after(STABLE).expect("data");
    let t6 = g6.report.mean_proc_time_after(STABLE).expect("data");

    // Paper: >83% speedup; we assert a decisive win (>50%).
    assert!(
        t1 < s * 0.5,
        "gamma=1: storm {s:.2} ms vs t-storm {t1:.2} ms"
    );
    assert_band("fig5 storm ms", s, 5.2719);
    assert_band("fig5 gamma=1 ms", t1, 2.0953);
    // Consolidation to very few nodes keeps comparable performance.
    let n6 = g6.report.nodes_used.last().copied().unwrap();
    assert!(n6 <= 4, "gamma=6 should use very few nodes, used {n6}");
    assert_eq!(n6, 2, "fig5 gamma=6 nodes");
    assert_band("fig5 gamma=6 ms", t6, 1.8104);
    assert!(
        t6 < s,
        "consolidated t-storm {t6:.2} ms should still beat storm {s:.2} ms"
    );
}

#[test]
fn fig6_word_count_speedup() {
    let storm = app(AppWorkload::WordCount, SystemMode::StormDefault, 1.0);
    let tstorm = app(AppWorkload::WordCount, SystemMode::TStorm, 1.8);
    let s = storm.report.mean_proc_time_after(STABLE).expect("data");
    let t = tstorm.report.mean_proc_time_after(STABLE).expect("data");
    assert!(t < s, "word count: storm {s:.2} ms vs t-storm {t:.2} ms");
    assert_band("fig6 storm ms", s, 7.4065);
    assert_band("fig6 gamma=1.8 ms", t, 6.0248);
    let nodes = tstorm.report.nodes_used.last().copied().unwrap();
    assert!(
        nodes < 10,
        "gamma=1.8 should consolidate below 10 nodes, used {nodes}"
    );
    assert_eq!(nodes, 5, "fig6 gamma=1.8 nodes");
}

#[test]
fn fig8_log_stream_speedup() {
    let storm = app(AppWorkload::LogStream, SystemMode::StormDefault, 1.0);
    let tstorm = app(AppWorkload::LogStream, SystemMode::TStorm, 1.7);
    let s = storm.report.mean_proc_time_after(STABLE).expect("data");
    let t = tstorm.report.mean_proc_time_after(STABLE).expect("data");
    assert!(t < s, "log stream: storm {s:.2} ms vs t-storm {t:.2} ms");
    assert_band("fig8 storm ms", s, 7.6268);
    assert_band("fig8 gamma=1.7 ms", t, 6.4195);
    let nodes = tstorm.report.nodes_used.last().copied().unwrap();
    assert!(
        nodes < 10,
        "gamma=1.7 should consolidate below 10 nodes, used {nodes}"
    );
    assert_eq!(nodes, 6, "fig8 gamma=1.7 nodes");
}

#[test]
fn fig9_word_count_overload_recovery() {
    let outcome = experiments::fig9(DURATION, 42);
    assert!(outcome.overload_events > 0, "overload must be detected");
    assert_eq!(outcome.overload_events, 1, "fig9 overload detections");
    let nodes = outcome.report.nodes_used.last().copied().unwrap();
    assert!(nodes > 1, "recovery must allocate more nodes, used {nodes}");
    assert_eq!(nodes, 5, "fig9 nodes after recovery");
    // Latency drops sharply after recovery relative to the overloaded
    // early windows.
    let points = outcome.report.proc_points();
    let early_max = points
        .iter()
        .take_while(|p| p.start < SimTime::from_secs(120))
        .filter(|p| p.count > 0)
        .map(|p| p.mean)
        .fold(0.0, f64::max);
    let late = outcome.report.mean_proc_time_after(STABLE).expect("data");
    assert!(
        late < early_max / 5.0,
        "late {late:.1} ms should be far below the overloaded peak {early_max:.1} ms"
    );
    assert_band("fig9 overloaded peak ms", early_max, 3120.67);
    assert_band("fig9 recovered ms", late, 6.3233);
}

#[test]
fn fig10_log_stream_overload_recovery() {
    let outcome = experiments::fig10(DURATION, 42);
    assert!(outcome.overload_events > 0, "overload must be detected");
    assert_eq!(outcome.overload_events, 1, "fig10 overload detections");
    let nodes = outcome.report.nodes_used.last().copied().unwrap();
    assert!(nodes >= 4, "recovery should spread wide, used {nodes}");
    assert_eq!(nodes, 7, "fig10 nodes after recovery");
    let late = outcome.report.mean_proc_time_after(STABLE).expect("data");
    assert!(late < 1_000.0, "post-recovery latency {late:.1} ms");
    assert_band("fig10 recovered ms", late, 6.1694);
}

#[test]
fn headline_rows_have_consistent_direction() {
    let rows = experiments::headline(300, 42);
    assert_eq!(rows.len(), 3);
    // (Storm ms, T-Storm ms); at 300 s no generation has consolidated
    // yet, so both sides still use all 10 nodes.
    let recorded = [(5.2716, 2.0949), (7.4057, 6.0062), (7.6286, 6.2028)];
    for (row, (storm, tstorm)) in rows.iter().zip(recorded) {
        assert_band(&format!("{} Storm ms", row.label), row.baseline_ms, storm);
        assert_band(
            &format!("{} T-Storm ms", row.label),
            row.candidate_ms,
            tstorm,
        );
        assert_eq!(
            (row.baseline_nodes, row.candidate_nodes),
            (10, 10),
            "{}",
            row.label
        );
    }
    for row in &rows {
        assert!(
            row.speedup_percent > 0.0,
            "{}: t-storm should win ({:.1}%)",
            row.label,
            row.speedup_percent
        );
        assert!(
            row.candidate_nodes <= row.baseline_nodes,
            "{}: t-storm should not use more nodes",
            row.label
        );
    }
}
