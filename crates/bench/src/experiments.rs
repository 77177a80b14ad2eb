//! Runners for every experiment in Section V of the paper.

use tstorm_cli::scenario::{run_scenario, ScenarioOutcome, Topology};
use tstorm_cli::RunOptions;
use tstorm_cluster::{Assignment, ClusterSpec};
use tstorm_core::{SystemMode, TStormConfig, TStormSystem};
use tstorm_metrics::{ComparisonRow, RunReport};
use tstorm_sim::{SimConfig, Simulation};
use tstorm_types::{Mhz, SimTime, SlotId};
use tstorm_workloads::chain::{self, ChainParams};
use tstorm_workloads::logstream::{self, LogStreamParams, LogStreamState};
use tstorm_workloads::wordcount::{self, WordCountParams, WordCountState};

/// The paper's per-experiment running time (Table II): 1000 s.
pub const PAPER_RUN_SECS: u64 = 1000;

/// Word Count input rate (lines/s): two readers paced at 5 ms sustain up
/// to 400 lines/s, so 300 keeps the topology busy without saturating the
/// source.
pub const WORDCOUNT_LINES_PER_SEC: f64 = 300.0;

/// Log Stream input rate (lines/s): five spouts sustain up to 1000.
pub const LOGSTREAM_LINES_PER_SEC: f64 = 800.0;

/// Everything one experiment run produces.
#[derive(Debug, Clone)]
pub struct ExperimentOutcome {
    /// The metrics report (1-minute series, failures, node usage),
    /// labelled `"Storm"`, `"T-Storm (gamma=1.7)"`, ….
    pub report: RunReport,
    /// Overload detections that triggered the fast path.
    pub overload_events: u32,
    /// Assignment changes applied ([`tstorm_sim::Simulation::reassignments`]).
    pub reassignments: u32,
    /// Tuples that timed out.
    pub failed: u64,
    /// Fully-acked tuples.
    pub completed: u64,
}

impl ExperimentOutcome {
    fn from_system(label: &str, system: &TStormSystem) -> Self {
        Self {
            report: system.report(label),
            overload_events: system.overload_events(),
            reassignments: system.simulation().reassignments(),
            failed: system.simulation().failed(),
            completed: system.simulation().completed(),
        }
    }

    fn from_scenario(label: String, mut outcome: ScenarioOutcome) -> Self {
        outcome.report.label = label;
        Self {
            report: outcome.report,
            overload_events: outcome.overload_events,
            reassignments: outcome.reassignments,
            failed: outcome.failed,
            completed: outcome.completed,
        }
    }

    fn from_sim(label: &str, sim: &Simulation) -> Self {
        Self {
            report: sim.report(label),
            overload_events: 0,
            reassignments: sim.reassignments(),
            failed: sim.failed(),
            completed: sim.completed(),
        }
    }
}

/// The paper's testbed shape: 10 blade servers (dual 2.0 GHz Xeons ≈
/// 8000 MHz schedulable), 4 slots each, 1 Gbps network.
#[must_use]
pub fn cluster10() -> ClusterSpec {
    ClusterSpec::homogeneous(10, 4, Mhz::new(8000.0)).expect("valid cluster")
}

/// Table II configuration for a given system/γ/seed.
#[must_use]
pub fn paper_config(mode: SystemMode, gamma: f64, seed: u64) -> TStormConfig {
    // Defaults already match Table II (α=0.5, monitor 20 s, fetch 10 s,
    // generation 300 s); only mode/γ/seed vary per experiment.
    TStormConfig::default()
        .with_mode(mode)
        .with_gamma(gamma)
        .with_seed(seed)
}

fn mode_label(mode: SystemMode, gamma: f64) -> String {
    match mode {
        SystemMode::StormDefault => "Storm".to_owned(),
        SystemMode::TStorm => format!("T-Storm (gamma={gamma})"),
    }
}

// ---------------------------------------------------------------------
// Fig. 2 — impact of inter-process and inter-node traffic
// ---------------------------------------------------------------------

/// Fig. 2: the chain topology under three manual placements —
/// `n1w1` (one node, one worker), `n5w5` (five nodes, one worker each),
/// `n5w10` (five nodes, two workers each). Returns one outcome per
/// placement, in that order.
#[must_use]
pub fn fig2(duration_secs: u64, seed: u64) -> Vec<ExperimentOutcome> {
    let params = ChainParams::fig2();
    let placements: [(&str, Vec<u32>); 3] = [
        ("n1w1", vec![0]),
        ("n5w5", vec![0, 2, 4, 6, 8]),
        ("n5w10", vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 9]),
    ];
    placements
        .into_iter()
        .map(|(label, slots)| {
            // Their testbed for this experiment: 5 blades.
            let cluster = ClusterSpec::homogeneous(5, 2, Mhz::new(8000.0)).expect("valid");
            let mut sim = Simulation::new(cluster, SimConfig::default().with_seed(seed));
            let topo = chain::topology(&params).expect("valid");
            let mut factory = chain::factory(&params, seed);
            sim.submit_topology(&topo, &mut factory);
            let assignment: Assignment = sim
                .executor_descriptors()
                .into_iter()
                .enumerate()
                .map(|(i, d)| (d.id, SlotId::new(slots[i % slots.len()])))
                .collect();
            sim.apply_assignment(&assignment);
            sim.run_until(SimTime::from_secs(duration_secs));
            ExperimentOutcome::from_sim(label, &sim)
        })
        .collect()
}

// ---------------------------------------------------------------------
// Fig. 3 — impact of overloading a worker node
// ---------------------------------------------------------------------

/// Fig. 3: the chain topology with 5 spout executors and 1 executor per
/// bolt, all packed onto a single worker node — incoming tuples outpace
/// the bolt executors, queues grow, processing time skyrockets and
/// tuples start to fail.
#[must_use]
pub fn fig3(duration_secs: u64, seed: u64) -> ExperimentOutcome {
    let params = ChainParams {
        // Larger tuples than Fig. 2 push each single bolt executor's
        // service time past the tuple arrival interval even at full core
        // speed, so the backlog grows fast enough for queueing delay to
        // cross the 30 s timeout within the experiment, as in the paper.
        tuple_bytes: 48 * 1024,
        ..ChainParams::fig3_overload()
    };
    let cluster = ClusterSpec::homogeneous(1, 2, Mhz::new(8000.0)).expect("valid");
    let mut sim = Simulation::new(cluster, SimConfig::default().with_seed(seed));
    let topo = chain::topology(&params).expect("valid");
    let mut factory = chain::factory(&params, seed);
    sim.submit_topology(&topo, &mut factory);
    let assignment: Assignment = sim
        .executor_descriptors()
        .into_iter()
        .map(|d| (d.id, SlotId::new(0)))
        .collect();
    sim.apply_assignment(&assignment);
    sim.run_until(SimTime::from_secs(duration_secs));
    ExperimentOutcome::from_sim("overloaded n1w1", &sim)
}

// ---------------------------------------------------------------------
// Figs. 5, 6, 8 — the three applications, Storm vs T-Storm, γ sweeps
// ---------------------------------------------------------------------

/// The three full applications of Section V, runnable through one shared
/// entry point ([`run_app`]) by both the `repro` targets and the
/// multi-seed sweep harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppWorkload {
    /// Fig. 5: Throughput Test (10 nodes, 40 workers, 45 executors).
    Throughput,
    /// Fig. 6: Word Count fed from the corpus queue (20 workers).
    WordCount,
    /// Fig. 8: Log Stream Processing fed IIS log lines (28 executors).
    LogStream,
}

impl AppWorkload {
    /// The stable lowercase name used in grid labels and CLI flags.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            AppWorkload::Throughput => "throughput",
            AppWorkload::WordCount => "wordcount",
            AppWorkload::LogStream => "logstream",
        }
    }

    /// Parses the CLI/grid name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "throughput" => Some(AppWorkload::Throughput),
            "wordcount" => Some(AppWorkload::WordCount),
            "logstream" => Some(AppWorkload::LogStream),
            _ => None,
        }
    }
}

/// Runs one application end-to-end on the paper testbed (Table II
/// settings, the paper's input rates) under the given system/γ/seed,
/// with optional fault specs — the runner behind Figs. 5, 6 and 8, the
/// [`headline`] rows and the sweep harness. It builds the run through
/// [`run_scenario`], the same path `tstorm run` takes.
///
/// The system (and the simulator inside it) is constructed, driven and
/// dropped entirely within the calling thread; only the returned
/// [`ExperimentOutcome`] (plain owned data) crosses thread boundaries
/// in multi-threaded callers.
///
/// # Panics
///
/// Panics if a fault spec is malformed or targets a node the cluster
/// lacks; callers validate specs first.
#[must_use]
pub fn run_app(
    workload: AppWorkload,
    mode: SystemMode,
    gamma: f64,
    duration_secs: u64,
    seed: u64,
    faults: &[String],
) -> ExperimentOutcome {
    let (topology, rate) = match workload {
        // Spout-paced: the rate is not read.
        AppWorkload::Throughput => (Topology::Throughput, WORDCOUNT_LINES_PER_SEC),
        AppWorkload::WordCount => (Topology::WordCount, WORDCOUNT_LINES_PER_SEC),
        AppWorkload::LogStream => (Topology::LogStream, LOGSTREAM_LINES_PER_SEC),
    };
    let opts = RunOptions {
        topology,
        mode,
        gamma,
        duration_secs,
        seed,
        rate,
        faults: faults.to_vec(),
        ..RunOptions::default()
    };
    let outcome = run_scenario(&opts).expect("valid scenario");
    ExperimentOutcome::from_scenario(mode_label(mode, gamma), outcome)
}

// ---------------------------------------------------------------------
// Figs. 9, 10 — overload detection and recovery
// ---------------------------------------------------------------------

/// Fig. 9: Word Count squeezed into one worker on one node, overloaded
/// with two concurrent corpus streams; T-Storm detects the overload and
/// re-schedules onto more nodes.
#[must_use]
pub fn fig9(duration_secs: u64, seed: u64) -> ExperimentOutcome {
    let params = WordCountParams::overload();
    let topo = wordcount::topology(&params).expect("valid");
    let state = WordCountState::new();
    // "We overloaded the topology by pushing two concurrent streams of
    // word files into the topology." Two 200 line/s streams saturate the
    // single node's cores (the readers cap out at 400 lines/s).
    state.attach_corpus_producer(SimTime::ZERO, 200.0);
    state.attach_corpus_producer(SimTime::ZERO, 200.0);
    let mut config = paper_config(SystemMode::TStorm, 2.0, seed);
    config.capacity_fraction = 0.8;
    let mut system = TStormSystem::new(cluster10(), config).expect("valid config");
    let mut factory = wordcount::factory(&state);
    system.submit(&topo, &mut factory).expect("submits");
    system.start().expect("starts");
    system
        .run_until(SimTime::from_secs(duration_secs))
        .expect("runs");
    ExperimentOutcome::from_system("T-Storm overload recovery (Word Count)", &system)
}

/// Fig. 10: Log Stream Processing squeezed into one worker on one node,
/// overloaded with two concurrent IIS log streams.
#[must_use]
pub fn fig10(duration_secs: u64, seed: u64) -> ExperimentOutcome {
    let params = LogStreamParams::overload();
    let topo = logstream::topology(&params).expect("valid");
    let state = LogStreamState::new();
    // "Feeding 2 streams of IIS log files into the same Redis queue."
    state.attach_log_producer(SimTime::ZERO, LOGSTREAM_LINES_PER_SEC / 2.0, seed ^ 0x11);
    state.attach_log_producer(SimTime::ZERO, LOGSTREAM_LINES_PER_SEC / 2.0, seed ^ 0x22);
    // γ = 1.4 caps nodes at ⌈1.4·28/10⌉ = 4 executors, spreading recovery
    // over ~8 nodes as in the paper's Fig. 10.
    let mut config = paper_config(SystemMode::TStorm, 1.4, seed);
    config.capacity_fraction = 0.8;
    let mut system = TStormSystem::new(cluster10(), config).expect("valid config");
    let mut factory = logstream::factory(&state);
    system.submit(&topo, &mut factory).expect("submits");
    system.start().expect("starts");
    system
        .run_until(SimTime::from_secs(duration_secs))
        .expect("runs");
    ExperimentOutcome::from_system("T-Storm overload recovery (Log Stream)", &system)
}

// ---------------------------------------------------------------------
// Tables and headline numbers
// ---------------------------------------------------------------------

/// Table II: the common experimental settings, rendered from the actual
/// configuration defaults (so drift between docs and code is impossible).
#[must_use]
pub fn table2() -> String {
    let c = TStormConfig::default();
    let cluster = cluster10();
    format!(
        "TABLE II: COMMON EXPERIMENTAL SETTINGS\n\
         {:<42} {}\n{:<42} {}\n{:<42} {}\n{:<42} {}\n{:<42} {}\n{:<42} {}\n",
        "Estimation coefficient (alpha)",
        c.alpha,
        "Load monitoring and estimation period",
        format_args!("{}s", c.monitor_period.as_secs()),
        "Number of available worker nodes",
        cluster.num_nodes(),
        "Running time of each experiment",
        format_args!("{PAPER_RUN_SECS}s"),
        "Schedule fetching period",
        format_args!("{}s", c.fetch_period.as_secs()),
        "Schedule generation period",
        format_args!("{}s", c.generation_period.as_secs()),
    )
}

/// The paper's headline comparison (Section V / abstract): Storm vs
/// T-Storm on all three topologies at the consolidating γ values,
/// counting windows after stabilisation.
#[must_use]
pub fn headline(duration_secs: u64, seed: u64) -> Vec<ComparisonRow> {
    let stable = SimTime::from_secs((duration_secs / 2).max(1));
    let cells = [
        ("Throughput Test (gamma=1.7)", AppWorkload::Throughput, 1.7),
        ("Word Count (gamma=1.8)", AppWorkload::WordCount, 1.8),
        ("Log Stream (gamma=1.7)", AppWorkload::LogStream, 1.7),
    ];
    let mut rows = Vec::new();
    for (label, workload, gamma) in cells {
        let storm = run_app(
            workload,
            SystemMode::StormDefault,
            1.0,
            duration_secs,
            seed,
            &[],
        );
        let tstorm = run_app(
            workload,
            SystemMode::TStorm,
            gamma,
            duration_secs,
            seed,
            &[],
        );
        rows.extend(ComparisonRow::from_reports(
            label,
            &storm.report,
            &tstorm.report,
            stable,
        ));
    }
    rows
}

/// Renders one outcome in the shape every `repro` figure uses: the
/// 1-minute series, a sparkline of it, and the summary line.
#[must_use]
pub fn render_outcome(outcome: &ExperimentOutcome) -> String {
    let mut out = outcome.report.render_table();
    let spark = tstorm_metrics::sparkline(&outcome.report.proc_points());
    if !spark.is_empty() {
        out.push_str(&format!("series: [{spark}]\n"));
    }
    if let (Some(p50), Some(p99)) = (
        outcome.report.latency_quantile(0.5),
        outcome.report.latency_quantile(0.99),
    ) {
        out.push_str(&format!("p50={p50:.3}ms p99={p99:.3}ms\n"));
    }
    out.push_str(&format!(
        "reassignments={} overload_events={} failed={} completed={}\n",
        outcome.reassignments, outcome.overload_events, outcome.failed, outcome.completed
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // Short-duration smoke versions of each experiment; the full-length
    // reproductions are the `repro` targets.

    #[test]
    fn fig2_ordering_holds() {
        let outcomes = fig2(120, 3);
        assert_eq!(outcomes.len(), 3);
        let mean = |o: &ExperimentOutcome| o.report.proc_time_ms.overall_mean().expect("has data");
        let (a, b, c) = (mean(&outcomes[0]), mean(&outcomes[1]), mean(&outcomes[2]));
        assert!(a < b, "n1w1 {a:.3} should beat n5w5 {b:.3}");
        assert!(b < c, "n5w5 {b:.3} should beat n5w10 {c:.3}");
    }

    #[test]
    fn fig3_overload_fails_tuples() {
        let outcome = fig3(150, 3);
        // Tuples fail in volume (Fig. 3b)...
        assert!(outcome.failed > 50, "failed {}", outcome.failed);
        // ...the few completions queue for multiple seconds (Fig. 3a)...
        let peak = outcome
            .report
            .proc_points()
            .iter()
            .filter(|p| p.count > 0)
            .map(|p| p.mean)
            .fold(0.0, f64::max);
        assert!(
            peak > 2_000.0,
            "peak latency {peak:.1} ms too low for overload"
        );
        // ...and most of the stream never completes at all.
        assert!(
            outcome.completed < outcome.report.emitted / 2,
            "completed {} of {} emitted",
            outcome.completed,
            outcome.report.emitted
        );
    }

    #[test]
    fn table2_renders_paper_values() {
        let t = table2();
        assert!(t.contains("0.5"));
        assert!(t.contains("20s"));
        assert!(t.contains("10"));
        assert!(t.contains("300s"));
        assert!(t.contains("1000s"));
    }
}
