//! The targets of the `repro` binary: one per table or figure of the
//! paper's evaluation (Section V) plus the two extensions, each named
//! after the `results/<name>.txt` file that holds what it prints at its
//! defaults.

use crate::experiments::{
    cluster10, fig10, fig2, fig3, fig9, headline, paper_config, render_outcome, run_app, table2,
    AppWorkload, ExperimentOutcome, WORDCOUNT_LINES_PER_SEC,
};
use tstorm_cli::scenario::{run_scenario, Topology};
use tstorm_cli::RunOptions;
use tstorm_core::{SystemMode, TStormSystem};
use tstorm_metrics::ComparisonRow;
use tstorm_types::SimTime;
use tstorm_workloads::throughput::{self, ThroughputParams};
use tstorm_workloads::wordcount::{self, WordCountParams, WordCountState};

/// The base seed every target runs with unless told otherwise.
pub const DEFAULT_SEED: u64 = 42;

/// Prints a target's artifact to stdout for `(duration_secs, seed)`.
pub type Render = fn(u64, u64);

/// Every target as `(name, default duration_secs, renderer)`, in the
/// paper's order. A `None` duration marks a target that takes no
/// arguments.
pub const TARGETS: [(&str, Option<u64>, Render); 11] = [
    ("table2", None, |_, _| println!("{}", table2())),
    ("fig2", Some(500), print_fig2),
    ("fig3", Some(180), print_fig3),
    ("fig5", Some(1000), |d, s| print_app(&FIG5, d, s)),
    ("fig6", Some(1000), |d, s| print_app(&FIG6, d, s)),
    ("fig8", Some(1000), |d, s| print_app(&FIG8, d, s)),
    ("fig9", Some(1000), |d, s| print_overload(&FIG9, d, s)),
    ("fig10", Some(1000), |d, s| print_overload(&FIG10, d, s)),
    ("summary", Some(1000), print_summary),
    ("baselines", Some(600), print_baselines),
    ("multi", Some(600), print_multi),
];

/// The target called `name`: its default duration and renderer.
#[must_use]
pub fn target(name: &str) -> Option<(Option<u64>, Render)> {
    TARGETS
        .iter()
        .find(|(n, ..)| *n == name)
        .map(|&(_, secs, render)| (secs, render))
}

/// The `repro` usage text, listing every target's default duration.
#[must_use]
pub fn usage() -> String {
    let mut text = "usage: repro <name> [duration_secs] [seed]\n\n\
                    \x20 name           target (default duration_secs)\n"
        .to_owned();
    for (name, secs, _) in TARGETS {
        let secs = secs.map_or("takes no arguments".to_owned(), |s| s.to_string());
        text.push_str(&format!("    {name:<12} ({secs})\n"));
    }
    text.push_str(&format!(
        "  seed           base RNG seed (default: {DEFAULT_SEED})\n\n\
         Each target prints what results/<name>.txt holds at its defaults.\n\
         Malformed values are rejected rather than silently replaced by\n\
         their defaults."
    ));
    text
}

/// What differs between Figs. 5, 6 and 8.
struct AppFigure {
    fig: u8,
    title: &'static str,
    workload: AppWorkload,
    gammas: [f64; 3],
    paper: &'static str,
}

const FIG5: AppFigure = AppFigure {
    fig: 5,
    title: "Throughput Test",
    workload: AppWorkload::Throughput,
    gammas: [1.0, 1.7, 6.0],
    paper: "~83-84% speedup at gamma 1/1.7 (10/7 nodes); similar at gamma 6 (2 nodes)",
};

const FIG6: AppFigure = AppFigure {
    fig: 6,
    title: "Word Count",
    workload: AppWorkload::WordCount,
    gammas: [1.0, 1.8, 2.2],
    paper: "49% / 42% / 35% speedup at gamma 1 / 1.8 / 2.2 (10 / 7 / 5 nodes)",
};

const FIG8: AppFigure = AppFigure {
    fig: 8,
    title: "Log Stream Processing",
    workload: AppWorkload::LogStream,
    gammas: [1.0, 1.7, 2.0],
    paper: "54% / 27% / ~0% speedup at gamma 1 / 1.7 / 2 (10 / 7 / 5 nodes)",
};

/// Storm once, then T-Storm at each γ, then the comparison table.
fn print_app(f: &AppFigure, duration: u64, seed: u64) {
    let run = |mode, gamma| run_app(f.workload, mode, gamma, duration, seed, &[]);
    let stable = SimTime::from_secs(duration / 2);
    println!("Fig. {} reproduction: {}, {duration}s\n", f.fig, f.title);
    let storm = run(SystemMode::StormDefault, 1.0);
    println!("{}", render_outcome(&storm));
    let mut rows = Vec::new();
    for gamma in f.gammas {
        let tstorm = run(SystemMode::TStorm, gamma);
        println!("{}", render_outcome(&tstorm));
        let label = format!("Fig.{} gamma={gamma}", f.fig);
        let row = ComparisonRow::from_reports(label, &storm.report, &tstorm.report, stable);
        rows.extend(row);
    }
    println!("{}", ComparisonRow::render_table(&rows));
    println!("Paper: {}.", f.paper);
}

/// What differs between Figs. 9 and 10.
struct OverloadFigure {
    fig: u8,
    title: &'static str,
    run: fn(u64, u64) -> ExperimentOutcome,
    paper: &'static str,
}

const FIG9: OverloadFigure = OverloadFigure {
    fig: 9,
    title: "Word Count",
    run: fig9,
    paper: "1 node -> detection ~120s -> 5 nodes",
};

const FIG10: OverloadFigure = OverloadFigure {
    fig: 10,
    title: "Log Stream",
    run: fig10,
    paper: "1 node -> detection ~164s -> 8 nodes",
};

/// One overloaded T-Storm run and its node-usage timeline.
fn print_overload(f: &OverloadFigure, duration: u64, seed: u64) {
    let (fig, title) = (f.fig, f.title);
    println!("Fig. {fig} reproduction: {title} overload recovery, {duration}s\n");
    let outcome = (f.run)(duration, seed);
    println!("{}", render_outcome(&outcome));
    println!("Node-usage timeline (paper: {}):", f.paper);
    for (t, n) in outcome.report.nodes_used.steps() {
        println!("  t={:>5}s  {} node(s)", t.as_secs(), n);
    }
}

/// Fig. 2: the chain topology under the n1w1 / n5w5 / n5w10 placements.
fn print_fig2(duration: u64, seed: u64) {
    println!("Fig. 2 reproduction: chain topology, three placements, {duration}s\n");
    let outcomes = fig2(duration, seed);
    for o in &outcomes {
        println!("{}", render_outcome(o));
    }
    println!("Expected shape (paper): n1w1 fastest; n5w5 ~35% slower; n5w10 ~67% slower.");
    let mean = |i: usize| {
        outcomes[i]
            .report
            .proc_time_ms
            .overall_mean()
            .unwrap_or(f64::NAN)
    };
    let (a, b, c) = (mean(0), mean(1), mean(2));
    println!(
        "Measured: n1w1 {a:.3} ms | n5w5 {b:.3} ms (+{:.0}%) | n5w10 {c:.3} ms (+{:.0}%)",
        (b - a) / a * 100.0,
        (c - a) / a * 100.0
    );
}

/// Fig. 3: an overloaded single node and its cumulative failures.
fn print_fig3(duration: u64, seed: u64) {
    println!("Fig. 3 reproduction: overloaded single node, {duration}s\n");
    let outcome = fig3(duration, seed);
    println!("{}", render_outcome(&outcome));
    println!("(a) average processing time rises without bound; (b) failed-tuple count:");
    for (t, n) in outcome.report.failed.cumulative() {
        println!("  {:>5}s  {:>8} failed (cumulative)", t.as_secs(), n);
    }
}

/// The Section V headline: Storm vs T-Storm on all three topologies at
/// consolidating γ values.
fn print_summary(duration: u64, seed: u64) {
    println!("Headline comparison over {duration}s (stable half counted):\n");
    let rows = headline(duration, seed);
    println!("{}", ComparisonRow::render_table(&rows));
    let avg_node_saving: f64 = rows
        .iter()
        .filter(|r| r.baseline_nodes > 0)
        .map(|r| 1.0 - f64::from(r.candidate_nodes) / f64::from(r.baseline_nodes))
        .sum::<f64>()
        / rows.len().max(1) as f64;
    println!(
        "Average worker-node reduction: {:.0}% (the operational-cost lever of Section I).",
        avg_node_saving * 100.0
    );
    println!("Paper abstract: >84% speedup (light) and 27% (heavy) with 30% fewer worker nodes.");
}

/// The Throughput Test under Storm's default scheduler, both Aniello et
/// al. DEBS'13 schedulers and Algorithm 1, through the same harness.
fn print_baselines(duration: u64, seed: u64) {
    let stable = SimTime::from_secs(duration / 2);
    let secs = stable.as_secs();
    println!("Throughput Test under each scheduler, {duration}s (mean after {secs}s):\n");
    println!(
        "{:<18} {:>12} {:>8} {:>8} {:>9}",
        "scheduler", "avg ms", "nodes", "resched", "failed"
    );
    for (mode, scheduler) in [
        (SystemMode::StormDefault, "storm-default"),
        (SystemMode::TStorm, "aniello-offline"),
        (SystemMode::TStorm, "aniello-online"),
        (SystemMode::TStorm, "t-storm"),
        (SystemMode::TStorm, "t-storm-ls"),
    ] {
        let run = run_scenario(&RunOptions {
            topology: Topology::Throughput,
            mode,
            scheduler: scheduler.to_owned(),
            gamma: 1.7,
            duration_secs: duration,
            seed,
            ..RunOptions::default()
        })
        .expect("valid scenario");
        println!(
            "{:<18} {:>12.3} {:>8} {:>8} {:>9}",
            scheduler,
            run.report.mean_proc_time_after(stable).unwrap_or(f64::NAN),
            run.report.nodes_used.last().copied().unwrap_or(0),
            run.reassignments,
            run.failed,
        );
    }
    println!(
        "\nNote: under the T-Storm harness every algorithm benefits from the\n\
         min(Nu, Nw) initial assignment; differences isolate the re-scheduling\n\
         algorithm itself."
    );
}

/// Throughput Test and Word Count run concurrently on one cluster, under
/// plain Storm and under T-Storm (Section IV-C's "M topologies").
fn print_multi(duration: u64, seed: u64) {
    println!("Two concurrent topologies (Throughput Test + Word Count), {duration}s:\n");
    for (mode, label) in [
        (SystemMode::StormDefault, "Storm (2 topologies)"),
        (SystemMode::TStorm, "T-Storm (2 topologies)"),
    ] {
        // gamma = 1.3 for the *combined* executor population: with two
        // topologies sharing nodes, the paper's single-topology
        // gamma = 1.7 over-consolidates (a node ends up hosting most of
        // Word Count's heavy bolts next to Throughput Test traffic and
        // saturates its cores — the "overdoing it" failure mode of
        // Section III).
        let mut config = paper_config(mode, 1.3, seed);
        config.capacity_fraction = 0.75;
        let mut system = TStormSystem::new(cluster10(), config).expect("valid");
        // Sharing a 40-slot cluster: each topology requests 20 workers
        // (Throughput Test's paper default of 40 would consume every slot).
        let tp = ThroughputParams {
            workers: 20,
            ..ThroughputParams::paper()
        };
        let t_topo = throughput::topology(&tp).expect("valid");
        let mut t_factory = throughput::factory(&tp, seed);
        system.submit(&t_topo, &mut t_factory).expect("submits");
        let w_topo = wordcount::topology(&WordCountParams::paper()).expect("valid");
        let state = WordCountState::new();
        state.attach_corpus_producer(SimTime::ZERO, WORDCOUNT_LINES_PER_SEC);
        let mut w_factory = wordcount::factory(&state);
        system.submit(&w_topo, &mut w_factory).expect("submits");
        system.start().expect("starts");
        system
            .run_until(SimTime::from_secs(duration))
            .expect("runs");

        let report = system.report(label);
        let stable = SimTime::from_secs(duration / 2);
        println!(
            "{:<24} avg {:>8.3} ms | p99 {:>8.3} ms | nodes {:?} | failed {} | rollouts {}",
            report.label,
            report.mean_proc_time_after(stable).unwrap_or(f64::NAN),
            report.latency_quantile(0.99).unwrap_or(f64::NAN),
            report.final_nodes_used().unwrap_or(0),
            system.simulation().failed(),
            system.simulation().reassignments(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_usage_lists_them() {
        let text = usage();
        for (i, (name, secs, _)) in TARGETS.iter().enumerate() {
            assert!(
                TARGETS[..i].iter().all(|(other, ..)| other != name),
                "duplicate target {name}"
            );
            assert!(text.contains(&format!("    {name:<12} (")), "{text}");
            assert_eq!(target(name).map(|(s, _)| s), Some(*secs));
        }
        assert!(
            target("tables").is_none(),
            "old binary names are not aliases"
        );
    }
}
