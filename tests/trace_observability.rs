//! Cross-crate observability tests: byte-identical JSONL traces for
//! equal seeds, zero perturbation of the simulation by tracing, and
//! coverage of every trace event category in one disrupted run.

use std::collections::BTreeSet;
use std::io::Write;
use std::sync::{Arc, Mutex};
use tstorm::cluster::ClusterSpec;
use tstorm::core::{SystemMode, TStormConfig, TStormSystem};
use tstorm::sim::{FaultEvent, FaultKind, FaultPlan};
use tstorm::trace::{EventCategory, Observer, TraceFilter};
use tstorm::types::{Mhz, SimTime};
use tstorm::workloads::throughput::{self, ThroughputParams};

fn cluster() -> ClusterSpec {
    ClusterSpec::homogeneous(6, 4, Mhz::new(8000.0)).expect("valid")
}

fn fast_config(seed: u64) -> TStormConfig {
    let mut c = TStormConfig::default()
        .with_mode(SystemMode::TStorm)
        .with_seed(seed);
    c.monitor_period = SimTime::from_secs(10);
    c.fetch_period = SimTime::from_secs(5);
    c.generation_period = SimTime::from_secs(30);
    c
}

/// A trace buffer the test reads back while the observer writes to a
/// clone of it.
#[derive(Clone, Default)]
struct TraceBuf(Arc<Mutex<Vec<u8>>>);

impl Write for TraceBuf {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("trace lock").extend_from_slice(bytes);
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl TraceBuf {
    fn text(&self) -> String {
        String::from_utf8(self.0.lock().expect("trace lock").clone()).expect("utf8 trace")
    }
}

struct RunResult {
    jsonl: Option<String>,
    fingerprint: String,
}

/// Runs the Throughput Test with a scripted mid-run disruption — a
/// scheduler hot-swap, a γ change, and a worker crash from a fault
/// plan — so the control plane and failure paths all leave trace events.
fn disrupted_run(seed: u64, traced: bool) -> RunResult {
    let p = ThroughputParams::small();
    let topo = throughput::topology(&p).expect("valid");
    let mut system = TStormSystem::new(cluster(), fast_config(seed)).expect("valid");
    let trace = TraceBuf::default();
    if traced {
        system.set_observer(Observer::jsonl(trace.clone(), TraceFilter::all(), 1));
    }
    let mut f = throughput::factory(&p, seed);
    system.submit(&topo, &mut f).expect("submits");
    system.start().expect("starts");

    system.run_until(SimTime::from_secs(60)).expect("runs");
    system.swap_scheduler("t-storm-ls").expect("swaps");
    system.set_gamma(2.5).expect("gamma");
    let sim = system.simulation();
    let victim = *sim
        .current_assignment()
        .slots_used()
        .iter()
        .next()
        .expect("assignment uses slots");
    let node = sim.cluster().node_of(victim);
    let local_slot = sim
        .cluster()
        .slots_of(node)
        .find(|s| s.slot == victim)
        .expect("a slot belongs to its node")
        .local_index;
    let mut plan = FaultPlan::new();
    plan.push(FaultEvent {
        at: sim.now() + SimTime::from_secs(1),
        kind: FaultKind::WorkerCrash { node, local_slot },
    });
    system
        .simulation_mut()
        .apply_fault_plan(&plan)
        .expect("plan fits the cluster");
    system.run_until(SimTime::from_secs(150)).expect("runs");

    let jsonl = traced.then(|| trace.text());
    let fingerprint = format!(
        "{:?}",
        (
            system.simulation().completed(),
            system.simulation().emitted(),
            system.simulation().failed(),
            system.generations(),
            system.report("x").proc_time_ms.points(),
        )
    );
    RunResult { jsonl, fingerprint }
}

#[test]
fn same_seed_traces_are_byte_identical() {
    let a = disrupted_run(23, true);
    let b = disrupted_run(23, true);
    let trace_a = a.jsonl.expect("traced");
    let trace_b = b.jsonl.expect("traced");
    assert!(
        trace_a.lines().count() > 1_000,
        "expected a dense trace, got {} lines",
        trace_a.lines().count()
    );
    assert_eq!(trace_a, trace_b, "same seed must yield identical bytes");
    assert_eq!(a.fingerprint, b.fingerprint);
}

#[test]
fn tracing_does_not_perturb_the_run() {
    let traced = disrupted_run(31, true);
    let untraced = disrupted_run(31, false);
    assert!(untraced.jsonl.is_none());
    assert_eq!(
        traced.fingerprint, untraced.fingerprint,
        "attaching an observer must not change simulation outcomes"
    );
}

#[test]
fn trace_covers_every_event_category() {
    let run = disrupted_run(23, true);
    let jsonl = run.jsonl.expect("traced");

    let mut types_seen = BTreeSet::new();
    for line in jsonl.lines() {
        let v = tstorm::trace::json::parse(line).expect("every line is valid JSON");
        let ty = v
            .get("type")
            .and_then(|t| t.as_str().map(str::to_owned))
            .expect("every event has a type");
        assert!(v
            .get("t")
            .and_then(tstorm::trace::JsonValue::as_f64)
            .is_some());
        types_seen.insert(ty);
    }

    // The disruption script guarantees at least one event of every
    // category: data plane (tuple/queue/process), worker lifecycle
    // (initial rollout + worker crash) and the control plane
    // (generation, hot-swap, γ).
    for expected in [
        "tuple_emit",
        "tuple_transfer",
        "ack",
        "complete",
        "queue_enter",
        "queue_leave",
        "process_start",
        "process_done",
        "assignment_applied",
        "worker_start",
        "worker_stop",
        "schedule_generated",
        "scheduler_swapped",
        "gamma_changed",
    ] {
        assert!(
            types_seen.contains(expected),
            "missing `{expected}` in {types_seen:?}"
        );
    }
    // All five categories are represented by the types above.
    assert_eq!(EventCategory::ALL.len(), 5);
}
