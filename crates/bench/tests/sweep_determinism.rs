//! Cross-thread determinism contract of the sweep harness.
//!
//! A trial's result must be byte-identical (as rendered JSON) whether
//! the trial runs on the main thread, on a freshly spawned thread, or
//! through the worker pool at any `--threads` value — and pool results
//! must land at their trial index regardless of completion order.

use tstorm_bench::experiments::{run_app, AppWorkload};
use tstorm_bench::sweep::{
    render_sweep_json, report_json, run_sweep, run_trial, run_trials, SweepGrid, TrialSpec,
};
use tstorm_core::SystemMode;
use tstorm_types::derive_seed;

const DURATION: u64 = 20;

fn small_grid() -> SweepGrid {
    SweepGrid {
        workloads: vec![AppWorkload::Throughput],
        modes: vec![SystemMode::StormDefault, SystemMode::TStorm],
        gammas: vec![1.7],
        seeds: 2,
        base_seed: 42,
        duration_secs: DURATION,
        faults: Vec::new(),
    }
}

#[test]
fn main_thread_spawned_thread_and_pool_agree_byte_for_byte() {
    let grid = small_grid();
    let specs = grid.expand().expect("expands");
    let spec = specs[1].clone();

    // Main thread.
    let on_main = report_json(&run_trial(&spec).outcome.report);

    // A spawned thread: the system is constructed inside it and only
    // the plain-data result crosses back.
    let spec_clone = spec.clone();
    let on_spawned =
        std::thread::spawn(move || report_json(&run_trial(&spec_clone).outcome.report))
            .join()
            .expect("trial thread");

    // The pool.
    let pooled = run_trials(&specs, 3);
    let on_pool = report_json(&pooled[spec.index].outcome.report);

    assert_eq!(on_main, on_spawned, "main vs spawned thread");
    assert_eq!(on_main, on_pool, "main thread vs pool");
}

#[test]
fn pooled_trial_matches_standalone_run() {
    // A trial run through the pool must equal the same scenario run
    // directly through `run_app` with the same derived seed — the
    // harness adds orchestration, never behaviour.
    let grid = small_grid();
    let specs = grid.expand().expect("expands");
    let spec = &specs[2];

    let standalone = run_app(
        spec.workload,
        spec.mode,
        spec.gamma,
        spec.duration_secs,
        spec.seed,
        &[],
    );
    let pooled = run_trials(&specs, 2);
    assert_eq!(
        report_json(&standalone.report),
        report_json(&pooled[spec.index].outcome.report),
    );
}

#[test]
fn sweep_json_is_byte_identical_across_thread_counts() {
    let grid = small_grid();
    let serial = render_sweep_json(&run_sweep(&grid, 1).expect("serial sweep"));
    let pooled = render_sweep_json(&run_sweep(&grid, 4).expect("pooled sweep"));
    assert_eq!(serial, pooled);
    // And re-running is reproducible, not merely internally consistent.
    let again = render_sweep_json(&run_sweep(&grid, 4).expect("pooled sweep"));
    assert_eq!(serial, again);
}

#[test]
fn pool_collects_by_trial_index_despite_unequal_durations() {
    // Hand-built specs with deliberately unequal work: the long trial
    // is first, so with 2+ workers later short trials *finish* first.
    // Results must still land at their trial index.
    let durations = [40u64, 5, 5, 5];
    let specs: Vec<TrialSpec> = durations
        .iter()
        .enumerate()
        .map(|(i, &d)| TrialSpec {
            index: i,
            cell: i,
            cell_label: format!("cell-{i}"),
            workload: AppWorkload::Throughput,
            mode: SystemMode::TStorm,
            gamma: 1.7,
            seed_ordinal: 0,
            seed: derive_seed(42, &format!("cell-{i}"), 0),
            duration_secs: d,
            faults: Vec::new(),
        })
        .collect();

    let results = run_trials(&specs, 3);
    assert_eq!(results.len(), specs.len());
    for (i, result) in results.iter().enumerate() {
        assert_eq!(
            result.index, i,
            "result slot {i} holds trial {}",
            result.index
        );
        assert_eq!(result.seed, specs[i].seed);
        // The long trial sees strictly more simulated time than the
        // short ones — confirms each slot holds its own trial's data.
        assert_eq!(result.cell_label, format!("cell-{i}"));
    }
    assert!(
        results[0].outcome.report.emitted > results[1].outcome.report.emitted,
        "40s trial emits more than 5s trial"
    );
}

#[test]
fn derived_seeds_match_standalone_derivation() {
    // Seeds are a pure function of (base, cell label, ordinal): anyone
    // can reproduce a single trial outside the harness.
    let grid = small_grid();
    let specs = grid.expand().expect("expands");
    for spec in &specs {
        assert_eq!(
            spec.seed,
            derive_seed(
                grid.base_seed,
                &spec.cell_label,
                u64::from(spec.seed_ordinal)
            )
        );
    }
}
