//! `tstorm-sweep` — parallel multi-seed sweep harness with
//! deterministic aggregation.
//!
//! A [`SweepGrid`] expands a scenario grid — workload × system mode ×
//! γ × seed × optional fault plan — into independent [`TrialSpec`]s.
//! Trials run on an in-tree scoped thread pool ([`run_trials`]) and are
//! collected **by trial index, never by completion order**, so the
//! results (and the aggregate JSON rendered from them) are byte-
//! identical for `--threads 1` and `--threads N`.
//!
//! # Thread-confinement boundary
//!
//! `Simulation` and `TStormSystem` are `Send` (refcount-shared state
//! uses `Arc`/`Mutex`), so moving a system across threads compiles —
//! but this harness still confines each trial's system to its worker
//! thread by convention: [`run_trial`] constructs, drives and drops
//! the system inside one call, and only the plain-data [`TrialResult`]
//! crosses the thread boundary. Confinement keeps every trial's state
//! advance strictly serial (the determinism contract) and avoids any
//! cross-trial sharing; the `trial_results_are_send` test below
//! documents the result type's portability.
//!
//! # Seed derivation
//!
//! Per-trial seeds come from
//! [`derive_seed`]`(base_seed, cell_label, seed_ordinal)` — a pure
//! function of the grid coordinates, so a trial receives the same seed
//! no matter which thread runs it, in which order, or whether it is run
//! standalone outside any pool.

use crate::experiments::{run_app, AppWorkload, ExperimentOutcome};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use tstorm_core::SystemMode;
use tstorm_metrics::aggregate::{aggregate_cells, AggregateError, ReportAggregate};
use tstorm_metrics::RunReport;
use tstorm_sim::FaultPlan;
use tstorm_trace::json::{array, write_escaped, write_f64, ObjectWriter};
use tstorm_types::{derive_seed, SimTime};

/// Everything a sweep can get wrong before any trial runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepError {
    /// Two grid cells expanded to the same label (e.g. the same γ listed
    /// twice): silently merging or shadowing them in the output table
    /// would corrupt the statistics, so expansion refuses.
    DuplicateLabel(String),
    /// The grid has no cells or no seeds.
    EmptyGrid(String),
    /// A `--fault` spec failed to parse.
    BadFaultSpec(String),
    /// Aggregation rejected the collected reports.
    Aggregate(AggregateError),
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::DuplicateLabel(l) => write!(
                f,
                "duplicate grid cell `{l}`: each workload/mode/gamma combination may appear once"
            ),
            SweepError::EmptyGrid(what) => write!(f, "empty grid: {what}"),
            SweepError::BadFaultSpec(e) => write!(f, "invalid fault spec: {e}"),
            SweepError::Aggregate(e) => write!(f, "aggregation failed: {e}"),
        }
    }
}

impl std::error::Error for SweepError {}

impl From<AggregateError> for SweepError {
    fn from(e: AggregateError) -> Self {
        SweepError::Aggregate(e)
    }
}

/// The sweep grid: the cross product of its axes, times `seeds` trials
/// per cell.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepGrid {
    /// Applications to run (Fig. 5 / 6 / 8 workloads).
    pub workloads: Vec<AppWorkload>,
    /// System modes (plain Storm, T-Storm).
    pub modes: Vec<SystemMode>,
    /// Consolidation factors γ.
    pub gammas: Vec<f64>,
    /// Trials per cell (seed ordinals `0..seeds`).
    pub seeds: u32,
    /// Base seed every per-trial seed is derived from.
    pub base_seed: u64,
    /// Virtual run length of each trial, in seconds.
    pub duration_secs: u64,
    /// Fault-plan specs applied identically to every trial (empty: none).
    pub faults: Vec<String>,
}

impl Default for SweepGrid {
    fn default() -> Self {
        Self {
            workloads: vec![AppWorkload::Throughput],
            modes: vec![SystemMode::StormDefault, SystemMode::TStorm],
            gammas: vec![1.0, 1.7],
            seeds: 3,
            base_seed: 42,
            duration_secs: 120,
            faults: Vec::new(),
        }
    }
}

/// The stable lowercase name of a mode, used in labels and CLI flags.
#[must_use]
pub fn mode_name(mode: SystemMode) -> &'static str {
    match mode {
        SystemMode::StormDefault => "storm",
        SystemMode::TStorm => "tstorm",
    }
}

/// Parses a mode name (`storm` / `tstorm`).
#[must_use]
pub fn mode_from_name(name: &str) -> Option<SystemMode> {
    match name {
        "storm" => Some(SystemMode::StormDefault),
        "tstorm" => Some(SystemMode::TStorm),
        _ => None,
    }
}

/// One independent trial: a single (workload, mode, γ, seed) scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialSpec {
    /// Position in the expanded grid; results are collected here.
    pub index: usize,
    /// Index of the owning cell in the cell list.
    pub cell: usize,
    /// The owning cell's label, e.g. `throughput/tstorm/g1.7`.
    pub cell_label: String,
    /// Application under test.
    pub workload: AppWorkload,
    /// System mode.
    pub mode: SystemMode,
    /// Consolidation factor γ.
    pub gamma: f64,
    /// Seed ordinal within the cell (`0..seeds`).
    pub seed_ordinal: u32,
    /// The derived per-trial seed (a pure function of the coordinates).
    pub seed: u64,
    /// Virtual run length in seconds.
    pub duration_secs: u64,
    /// Fault-plan specs applied to this trial.
    pub faults: Vec<String>,
}

/// The plain-data result of one trial — the only thing that crosses the
/// worker-thread boundary.
#[derive(Debug, Clone)]
pub struct TrialResult {
    /// The trial's grid position (== its slot in the result vector).
    pub index: usize,
    /// Owning cell index.
    pub cell: usize,
    /// Owning cell label.
    pub cell_label: String,
    /// Seed ordinal within the cell.
    pub seed_ordinal: u32,
    /// The derived seed this trial ran with.
    pub seed: u64,
    /// Everything the run produced.
    pub outcome: ExperimentOutcome,
}

impl SweepGrid {
    /// The cell labels of the grid, in expansion order.
    fn cell_labels(&self) -> Vec<String> {
        let mut labels = Vec::new();
        for w in &self.workloads {
            for m in &self.modes {
                for g in &self.gammas {
                    labels.push(format!("{}/{}/g{}", w.name(), mode_name(*m), g));
                }
            }
        }
        labels
    }

    /// Expands the grid into trials, validating it first: non-empty
    /// axes, parseable fault specs, and — the collision audit — unique
    /// cell labels.
    ///
    /// # Errors
    ///
    /// [`SweepError::EmptyGrid`], [`SweepError::BadFaultSpec`] or
    /// [`SweepError::DuplicateLabel`].
    pub fn expand(&self) -> Result<Vec<TrialSpec>, SweepError> {
        if self.workloads.is_empty() {
            return Err(SweepError::EmptyGrid("no workloads".to_owned()));
        }
        if self.modes.is_empty() {
            return Err(SweepError::EmptyGrid("no modes".to_owned()));
        }
        if self.gammas.is_empty() {
            return Err(SweepError::EmptyGrid("no gammas".to_owned()));
        }
        if self.seeds == 0 {
            return Err(SweepError::EmptyGrid("zero seeds per cell".to_owned()));
        }
        if self.duration_secs == 0 {
            return Err(SweepError::EmptyGrid("zero duration".to_owned()));
        }
        if let Err(e) = FaultPlan::from_specs(&self.faults) {
            return Err(SweepError::BadFaultSpec(e.to_string()));
        }
        let labels = self.cell_labels();
        for (i, label) in labels.iter().enumerate() {
            if labels[..i].contains(label) {
                return Err(SweepError::DuplicateLabel(label.clone()));
            }
        }
        let mut trials = Vec::new();
        let mut cell = 0usize;
        for w in &self.workloads {
            for m in &self.modes {
                for g in &self.gammas {
                    let cell_label = &labels[cell];
                    for ordinal in 0..self.seeds {
                        trials.push(TrialSpec {
                            index: trials.len(),
                            cell,
                            cell_label: cell_label.clone(),
                            workload: *w,
                            mode: *m,
                            gamma: *g,
                            seed_ordinal: ordinal,
                            seed: derive_seed(self.base_seed, cell_label, u64::from(ordinal)),
                            duration_secs: self.duration_secs,
                            faults: self.faults.clone(),
                        });
                    }
                    cell += 1;
                }
            }
        }
        Ok(trials)
    }

    /// The paper's "counting measurements after NNN s" boundary used by
    /// the aggregates: the stable second half of the run.
    #[must_use]
    pub fn stable_from(&self) -> SimTime {
        SimTime::from_secs((self.duration_secs / 2).max(1))
    }
}

/// Runs one trial in the calling thread. The `TStormSystem` lives and
/// dies inside this call (see the module docs on thread confinement);
/// the result is plain owned data.
#[must_use]
pub fn run_trial(spec: &TrialSpec) -> TrialResult {
    let outcome = run_app(
        spec.workload,
        spec.mode,
        spec.gamma,
        spec.duration_secs,
        spec.seed,
        &spec.faults,
    );
    TrialResult {
        index: spec.index,
        cell: spec.cell,
        cell_label: spec.cell_label.clone(),
        seed_ordinal: spec.seed_ordinal,
        seed: spec.seed,
        outcome,
    }
}

/// Runs every trial on a scoped pool of `threads` OS threads
/// (`std::thread` only), returning results **ordered by trial index**
/// regardless of completion order. `threads <= 1` runs inline on the
/// caller thread through the identical code path.
#[must_use]
pub fn run_trials(specs: &[TrialSpec], threads: usize) -> Vec<TrialResult> {
    let n = specs.len();
    if threads <= 1 || n <= 1 {
        // Same collect-by-index semantics, no pool.
        return specs.iter().map(run_trial).collect();
    }
    let results: Mutex<Vec<Option<TrialResult>>> = Mutex::new((0..n).map(|_| None).collect());
    let next = AtomicUsize::new(0);
    let workers = threads.min(n);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                // The system is constructed inside this worker thread
                // (see the module docs on thread confinement); only the
                // Send result leaves it.
                let result = run_trial(&specs[i]);
                let mut slots = results.lock().expect("no poisoned trial threads");
                debug_assert!(slots[i].is_none(), "trial {i} ran twice");
                slots[i] = Some(result);
            });
        }
    });
    results
        .into_inner()
        .expect("no poisoned trial threads")
        .into_iter()
        .map(|r| r.expect("every trial index filled"))
        .collect()
}

/// A completed sweep: per-trial results (by trial index) and per-cell
/// aggregates (in grid order).
#[derive(Debug, Clone)]
pub struct SweepResults {
    /// The grid that produced this sweep.
    pub grid: SweepGrid,
    /// One result per trial, `trials[i].index == i`.
    pub trials: Vec<TrialResult>,
    /// One aggregate per grid cell, in expansion order.
    pub aggregates: Vec<ReportAggregate>,
}

/// Expands, runs and aggregates a grid.
///
/// # Errors
///
/// Any [`SweepError`] from expansion or aggregation.
pub fn run_sweep(grid: &SweepGrid, threads: usize) -> Result<SweepResults, SweepError> {
    let specs = grid.expand()?;
    let trials = run_trials(&specs, threads);
    let aggregates = aggregate_trials(grid, &trials)?;
    Ok(SweepResults {
        grid: grid.clone(),
        trials,
        aggregates,
    })
}

/// Groups trial results into cells (by cell index, preserving seed
/// order) and aggregates each — rejecting duplicate cell labels.
///
/// # Errors
///
/// [`SweepError::Aggregate`] when a cell is empty or labels collide.
pub fn aggregate_trials(
    grid: &SweepGrid,
    trials: &[TrialResult],
) -> Result<Vec<ReportAggregate>, SweepError> {
    let n_cells = trials.iter().map(|t| t.cell + 1).max().unwrap_or(0);
    let mut cells: Vec<(String, Vec<&RunReport>)> = Vec::new();
    for c in 0..n_cells {
        let members: Vec<&TrialResult> = trials.iter().filter(|t| t.cell == c).collect();
        let label = members
            .first()
            .map_or_else(|| format!("cell-{c}"), |t| t.cell_label.clone());
        cells.push((label, members.iter().map(|t| &t.outcome.report).collect()));
    }
    Ok(aggregate_cells(&cells, grid.stable_from())?)
}

// ---------------------------------------------------------------------
// Deterministic JSON rendering
// ---------------------------------------------------------------------

/// Renders one [`RunReport`] as deterministic JSON — the per-trial
/// byte-identity contract: the same scenario must render byte-identical
/// whether it ran standalone, on the main thread, or through the pool.
#[must_use]
pub fn report_json(report: &RunReport) -> String {
    let points = array(report.proc_points(), |out, p| {
        let mut o = ObjectWriter::new();
        o.u64("t", p.start.as_secs());
        o.f64("mean", if p.count == 0 { f64::NAN } else { p.mean });
        o.u64("count", p.count);
        out.push_str(&o.finish());
    });
    let nodes = array(report.nodes_used.steps(), |out, (t, n)| {
        let _ = write!(out, "[{},{}]", t.as_secs(), n);
    });
    let recoveries = array(&report.recovery_latency_ms, |out, ms| write_f64(out, *ms));

    let mut o = ObjectWriter::new();
    o.str("label", &report.label)
        .u64("completed", report.completed)
        .u64("emitted", report.emitted)
        .u64("failed", report.failed.total())
        .u64("replays", report.replays)
        .u64("perm_failed", report.perm_failed)
        .u64("tuples_lost", report.tuples_lost)
        .u64("invalid_latency_samples", report.invalid_latency_samples())
        .f64("p50_ms", report.latency_quantile(0.5).unwrap_or(f64::NAN))
        .f64("p99_ms", report.latency_quantile(0.99).unwrap_or(f64::NAN))
        .raw("proc_points", &points)
        .raw("nodes_used", &nodes)
        .raw("recovery_latency_ms", &recoveries);
    o.finish()
}

fn stats_json(agg: &ReportAggregate) -> String {
    let mut out = String::from("{");
    let mut any = false;
    for (name, stats) in &agg.metrics {
        if any {
            out.push(',');
        }
        any = true;
        write_escaped(&mut out, name);
        out.push(':');
        match stats {
            None => out.push_str("null"),
            Some(s) => {
                let mut o = ObjectWriter::new();
                o.u64("n", s.n as u64)
                    .f64("mean", s.mean)
                    .f64("stddev", s.stddev)
                    .f64("min", s.min)
                    .f64("max", s.max)
                    .f64("ci95", s.ci95);
                out.push_str(&o.finish());
            }
        }
    }
    out.push('}');
    out
}

/// Renders the whole sweep as the `SWEEP_*.json` artifact.
///
/// The output is a pure function of the grid and the per-trial reports:
/// it carries no thread count, wall-clock time or hostnames, which is
/// what makes the `--threads 1` vs `--threads N` byte-identity test
/// possible.
#[must_use]
pub fn render_sweep_json(results: &SweepResults) -> String {
    let grid = &results.grid;
    let cells = array(&results.aggregates, |out, a| {
        let mut o = ObjectWriter::new();
        o.str("label", &a.label)
            .u64("trials", a.trials as u64)
            .raw("metrics", &stats_json(a));
        out.push_str(&o.finish());
    });
    let trials = array(&results.trials, |out, t| {
        let mut o = ObjectWriter::new();
        o.u64("index", t.index as u64)
            .str("cell", &t.cell_label)
            .u64("seed_ordinal", u64::from(t.seed_ordinal))
            .u64("seed", t.seed)
            .u64("overload_events", u64::from(t.outcome.overload_events))
            .u64("reassignments", u64::from(t.outcome.reassignments))
            .raw("report", &report_json(&t.outcome.report));
        out.push_str(&o.finish());
    });
    let gammas = array(&grid.gammas, |out, g| write_f64(out, *g));

    let mut o = ObjectWriter::new();
    o.str("tool", "tstorm-sweep")
        .u64("schema_version", 1)
        .str("workspace_version", env!("CARGO_PKG_VERSION"))
        // The fixed Section V cluster every trial runs on.
        .str("cluster", "homogeneous 10 nodes x 4 slots @ 8000 MHz")
        .raw(
            "workloads",
            &array(grid.workloads.iter().map(|w| w.name()), write_escaped),
        )
        .raw(
            "modes",
            &array(grid.modes.iter().map(|m| mode_name(*m)), write_escaped),
        )
        .raw("gammas", &gammas)
        .u64("seeds_per_cell", u64::from(grid.seeds))
        .u64("base_seed", grid.base_seed)
        .u64("duration_secs", grid.duration_secs)
        .u64("stable_from_secs", grid.stable_from().as_secs())
        .raw(
            "faults",
            &array(grid.faults.iter().map(String::as_str), write_escaped),
        )
        .raw("cells", &cells)
        .raw("trials", &trials);
    let mut out = o.finish();
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_grid() -> SweepGrid {
        SweepGrid {
            workloads: vec![AppWorkload::Throughput],
            modes: vec![SystemMode::StormDefault, SystemMode::TStorm],
            gammas: vec![1.0, 1.7],
            seeds: 2,
            base_seed: 42,
            duration_secs: 30,
            faults: Vec::new(),
        }
    }

    #[test]
    fn expansion_is_deterministic_and_indexed() {
        let grid = small_grid();
        let a = grid.expand().expect("expands");
        let b = grid.expand().expect("expands");
        assert_eq!(a, b);
        assert_eq!(a.len(), 8); // 1 workload x 2 modes x 2 gammas x 2 seeds
        for (i, spec) in a.iter().enumerate() {
            assert_eq!(spec.index, i);
        }
        // Seeds are derived per (cell, ordinal), decorrelated across both.
        assert_ne!(a[0].seed, a[1].seed);
        assert_ne!(a[0].seed, a[2].seed);
        // ... and independent of expansion order (pure function).
        assert_eq!(
            a[5].seed,
            derive_seed(42, &a[5].cell_label, u64::from(a[5].seed_ordinal))
        );
    }

    #[test]
    fn duplicate_gamma_is_rejected_at_grid_build_time() {
        let grid = SweepGrid {
            gammas: vec![1.7, 1.7],
            ..small_grid()
        };
        match grid.expand() {
            Err(SweepError::DuplicateLabel(l)) => assert!(l.contains("g1.7"), "label {l}"),
            other => panic!("expected DuplicateLabel, got {other:?}"),
        }
    }

    #[test]
    fn empty_axes_and_bad_faults_are_rejected() {
        assert!(matches!(
            SweepGrid {
                workloads: vec![],
                ..small_grid()
            }
            .expand(),
            Err(SweepError::EmptyGrid(_))
        ));
        assert!(matches!(
            SweepGrid {
                seeds: 0,
                ..small_grid()
            }
            .expand(),
            Err(SweepError::EmptyGrid(_))
        ));
        assert!(matches!(
            SweepGrid {
                faults: vec!["bogus@spec".to_owned()],
                ..small_grid()
            }
            .expand(),
            Err(SweepError::BadFaultSpec(_))
        ));
    }

    #[test]
    fn trial_results_are_send() {
        // The thread-confinement contract: results cross threads;
        // systems stay inside their worker thread by convention (they
        // are Send, so the compiler does not enforce it).
        fn assert_send<T: Send>() {}
        assert_send::<TrialResult>();
        assert_send::<TrialSpec>();
    }

    #[test]
    fn mode_names_round_trip() {
        for m in [SystemMode::StormDefault, SystemMode::TStorm] {
            assert_eq!(mode_from_name(mode_name(m)), Some(m));
        }
        assert_eq!(mode_from_name("nope"), None);
        for w in [
            AppWorkload::Throughput,
            AppWorkload::WordCount,
            AppWorkload::LogStream,
        ] {
            assert_eq!(AppWorkload::from_name(w.name()), Some(w));
        }
    }

    #[test]
    fn report_json_is_valid_and_carries_schema() {
        let mut r = RunReport::new("x");
        r.record_latency(SimTime::from_secs(10), 1.5);
        r.completed = 1;
        r.emitted = 2;
        r.nodes_used.record(SimTime::ZERO, 4);
        let text = report_json(&r);
        let v = tstorm_trace::json::parse(&text).expect("valid JSON");
        assert_eq!(v.get("label").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("completed").unwrap().as_f64(), Some(1.0));
        assert_eq!(v.get("proc_points").unwrap().as_array().unwrap().len(), 1);
        assert_eq!(v.get("nodes_used").unwrap().as_array().unwrap().len(), 1);
    }
}
