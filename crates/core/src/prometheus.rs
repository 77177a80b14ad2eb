//! The `--prom` exposition: what a run has counted, rendered once, at
//! its end, in the Prometheus text format.
//!
//! Every family is read from a counter the run keeps anyway — the
//! simulation's totals, its [`RunReport`](tstorm_metrics::RunReport),
//! the control-plane [`ControlStats`](crate::ControlStats), the
//! system's own counts and the monitor's [`StatsDb`](tstorm_monitor::StatsDb)
//! — so nothing is counted twice. The two gauges sampled during the
//! run are kept only after [`TStormSystem::sample_gauges`], so a run
//! that renders no exposition does not pay for them.

use crate::system::TStormSystem;
use std::fmt::Display;
use tstorm_metrics::LogHistogram;
use tstorm_trace::MetricKind::{self, Counter, Gauge, Histogram};
use tstorm_trace::{Exposition, HopClass};

/// Renders everything `system` has counted as Prometheus text.
///
/// Families are listed in name order, and a family's series in
/// label-value order. A family appears once the run has counted
/// something in it; `tstorm_tuples_lost_total` also appears, at 0, once
/// a crash stopped an occupied worker. The two gauges sampled during
/// the run (`tstorm_queue_depth`, `tstorm_node_cpu_utilisation`) appear
/// only after [`TStormSystem::sample_gauges`].
#[must_use]
pub fn render_prometheus(system: &TStormSystem) -> String {
    let sim = system.simulation();
    let control = system.control_stats();
    let report = system.report("");
    let db = system.monitor().db();
    let hops = [
        HopClass::InterNode,
        HopClass::InterProcess,
        HopClass::IntraWorker,
    ]
    .map(|hop| (hop.label().to_owned(), sim.transfers(hop)))
    .into_iter()
    .filter(|(_, (transfers, _))| *transfers > 0);
    let mut e = Exposition::default();

    counter(
        &mut e,
        "tstorm_acks_total",
        "Ack-tree edges retired by ackers",
        sim.acks(),
    );
    counter(
        &mut e,
        "tstorm_assignments_applied_total",
        "Assignments applied to the cluster",
        sim.assignments_applied(),
    );
    if sim.completed() > 0 {
        let name = "tstorm_complete_latency_ms";
        e.family(name, "End-to-end tuple completion latency", Histogram)
            .histogram(
                name,
                &[],
                &report.latency_hist,
                sim.completion_latency_sum_ms(),
            );
    }
    counter(
        &mut e,
        "tstorm_epochs_applied_total",
        "Assignment epochs applied across all supervisors",
        control.epochs_applied,
    );
    labelled(
        &mut e,
        "tstorm_executor_load_mhz",
        "Smoothed per-executor CPU load estimate",
        Gauge,
        "executor",
        db.executor_loads()
            .into_iter()
            .map(|(exec, load)| (exec.index().to_string(), load.get())),
    );
    counter(
        &mut e,
        "tstorm_false_positive_reassignments_total",
        "Healthy nodes reassigned away under a heartbeat-loss death declaration",
        control.false_positive_reassignments,
    );
    labelled(
        &mut e,
        "tstorm_faults_injected_total",
        "Fault-plan events fired",
        Counter,
        "kind",
        sim.faults_by_kind()
            .iter()
            .map(|(kind, n)| ((*kind).to_owned(), *n)),
    );
    counter(
        &mut e,
        "tstorm_heartbeats_missed_total",
        "Supervisor heartbeat ticks that never reached Nimbus",
        control.heartbeats_missed,
    );
    counter(
        &mut e,
        "tstorm_heartbeats_sent_total",
        "Supervisor heartbeats that reached Nimbus",
        control.heartbeats_sent,
    );
    counter(
        &mut e,
        "tstorm_monitor_snapshots_total",
        "Monitoring windows ingested into the EWMA database",
        db.windows_ingested(),
    );
    labelled(
        &mut e,
        "tstorm_node_cpu_utilisation",
        "Estimated node CPU load as a fraction of capacity",
        Gauge,
        "node",
        system
            .node_cpu_sample()
            .into_iter()
            .flatten()
            .enumerate()
            .map(|(node, ratio)| (node.to_string(), *ratio)),
    );
    counter(
        &mut e,
        "tstorm_nodes_declared_dead_total",
        "Nodes Nimbus declared dead from heartbeat silence",
        control.nodes_declared_dead,
    );
    counter(
        &mut e,
        "tstorm_overload_events_total",
        "Overload detections that triggered the fast path",
        u64::from(system.overload_events()),
    );
    labelled(
        &mut e,
        "tstorm_queue_depth",
        "Executor receive-queue depth at the last supervisor poll",
        Gauge,
        "executor",
        sim.queue_depth_sample()
            .into_iter()
            .flatten()
            .enumerate()
            .map(|(exec, depth)| (exec.to_string(), *depth)),
    );
    let recoveries = &report.recovery_latency_ms;
    if !recoveries.is_empty() {
        let name = "tstorm_recovery_latency_ms";
        let mut hist = LogHistogram::new();
        recoveries.iter().for_each(|ms| hist.record(*ms));
        e.family(
            name,
            "Fault to first post-reassignment completion",
            Histogram,
        )
        .histogram(name, &[], &hist, recoveries.iter().sum::<f64>());
    }
    counter(
        &mut e,
        "tstorm_recovery_reassignments_total",
        "Assignments that re-placed executors after a fault",
        sim.recovery_reassignments(),
    );
    let solves = system.solve_times();
    if !solves.is_empty() {
        let name = "tstorm_schedule_runtime_us";
        e.family(
            name,
            "Wall-clock runtime of one scheduler invocation",
            Histogram,
        );
        for (algorithm, times) in solves {
            e.histogram(
                name,
                &[("algorithm", algorithm)],
                &times.runtime_us,
                times.total_us,
            );
        }
    }
    counter(
        &mut e,
        "tstorm_schedules_generated_total",
        "Scheduler invocations that produced a candidate schedule",
        solves.values().map(|t| t.solves).sum(),
    );
    counter(
        &mut e,
        "tstorm_supervisor_fetches_total",
        "Supervisor fetches that picked up a new assignment epoch",
        control.fetches,
    );
    labelled(
        &mut e,
        "tstorm_transfer_bytes_total",
        "Bytes transferred by locality class",
        Counter,
        "hop",
        hops.clone().map(|(hop, (_, bytes))| (hop, bytes)),
    );
    labelled(
        &mut e,
        "tstorm_transfers_total",
        "Tuple transfers by locality class",
        Counter,
        "hop",
        hops.map(|(hop, (transfers, _))| (hop, transfers)),
    );
    counter(
        &mut e,
        "tstorm_tuples_completed_total",
        "Fully acked spout tuples",
        sim.completed(),
    );
    counter(
        &mut e,
        "tstorm_tuples_emitted_total",
        "Spout emissions, including replays",
        sim.emitted(),
    );
    counter(
        &mut e,
        "tstorm_tuples_failed_total",
        "Tuples that timed out with no replay possible",
        sim.perm_failed(),
    );
    if sim.tuples_lost() > 0 || sim.crashed_workers() > 0 {
        let name = "tstorm_tuples_lost_total";
        e.family(
            name,
            "Queued or in-service tuples destroyed by crashes",
            Counter,
        )
        .sample(name, &[], sim.tuples_lost());
    }
    counter(
        &mut e,
        "tstorm_tuples_replayed_total",
        "Timed-out tuples queued for spout replay",
        sim.replays_triggered(),
    );
    counter(
        &mut e,
        "tstorm_tuples_timeout_total",
        "Spout tuples whose message timeout expired",
        sim.failed(),
    );
    e.finish()
}

/// A counter family of one unlabelled series, present once it counted
/// anything.
fn counter(e: &mut Exposition, name: &str, help: &str, value: u64) {
    if value > 0 {
        e.family(name, help, Counter).sample(name, &[], value);
    }
}

/// A family of one series per `(label value, value)`, in label-value
/// order; absent when `series` is empty.
fn labelled<V: Display>(
    e: &mut Exposition,
    name: &str,
    help: &str,
    kind: MetricKind,
    label: &str,
    series: impl Iterator<Item = (String, V)>,
) {
    let mut series: Vec<(String, V)> = series.collect();
    if series.is_empty() {
        return;
    }
    series.sort_by(|a, b| a.0.cmp(&b.0));
    e.family(name, help, kind);
    for (value_label, value) in &series {
        e.sample(name, &[(label, value_label)], value);
    }
}
