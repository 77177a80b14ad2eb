//! The repository benchmark for the T-Storm simulator.
//!
//! Four long-run workloads ([`workloads::Workload`]) each stress a
//! different layer of the program. Every measured run happens in a fresh
//! child process ([`measure`]); the parent process schedules the runs,
//! checks that every run of a workload behaved identically, and reports
//! each metric of [`END_TO_END`] (untraced runs) or [`PER_LAYER`] (one
//! traced run with the [`probes`] installed) by name and unit.
//!
//! The benchmark uses only the program's stable public API: the
//! assembled `TStormSystem`, the workload factories, the `Scheduler`
//! trait, `EventQueue` and `LoadMonitor`.

pub mod measure;
pub mod probes;
pub mod stats;
pub mod workloads;

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Stable name, as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit of the reported value.
    pub unit: &'static str,
    /// Whether the value is a pure function of workload and seed. Such
    /// a metric must read the same on every run of a workload; the
    /// others are host timings or host memory.
    pub deterministic: bool,
}

const fn host(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        deterministic: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        deterministic: true,
    }
}

/// What a user of the simulator sees, measured on untraced runs. The
/// latencies and rates are in virtual (simulated) time; the first four
/// are host time and host memory.
pub const END_TO_END: [Metric; 9] = [
    host("wall_s", "s"),
    host("events_per_sec", "events/s"),
    host("setup_s", "s"),
    host("peak_rss_mb", "MiB"),
    exact("tuple_latency_ms", "virtual_ms"),
    exact("tuple_latency_p99_ms", "virtual_ms"),
    exact("throughput_tps", "roots/virtual_s"),
    exact("completed_share", "ratio"),
    exact("inter_node_tps", "tuples/virtual_s"),
];

/// Per-layer metrics of the traced run.
pub const PER_LAYER: [Metric; 34] = [
    exact("sched.calls", "count"),
    host("sched.solve_ms_p50", "ms"),
    host("sched.solve_ms_max", "ms"),
    host("sched.share", "ratio"),
    exact("sched.incremental_ratio", "ratio"),
    exact("sched.publish_ratio", "ratio"),
    host("sched.full_solve_ms", "ms"),
    exact("logic.calls", "count"),
    host("logic.ns_per_call", "ns"),
    host("logic.share", "ratio"),
    exact("monitor.tracked_pairs", "count"),
    host("monitor.ingest_ms", "ms"),
    exact("sim.events", "count"),
    exact("sim.queue_high_water", "count"),
    host("sim.queue_hold_ns", "ns"),
    exact("sim.pool_hit_rate", "ratio"),
    exact("sim.pairs_observed", "count"),
    exact("sim.pair_state_bytes", "bytes"),
    exact("sim.replays", "count"),
    exact("sim.tuples_lost", "count"),
    exact("sim.clock_inversions", "count"),
    host("engine.residual_ns_per_event", "ns"),
    exact("core.generations", "count"),
    exact("core.epochs_applied", "count"),
    exact("core.recoveries", "count"),
    exact("core.heartbeats_missed", "count"),
    exact("trace.recorder_bytes", "bytes"),
    exact("trace.recorder_lines", "count"),
    host("trace.write_ms", "ms"),
    host("trace.overhead_share", "ratio"),
    exact("span.queue_share", "ratio"),
    exact("span.service_share", "ratio"),
    exact("span.network_share", "ratio"),
    host("bench.tracing_overhead_share", "ratio"),
];
