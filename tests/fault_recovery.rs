//! Cross-crate fault-plan tests: a node crash mid-run leaves a
//! byte-identical JSONL trace for equal seeds, and the trace records
//! the full fault/recovery arc (fault injected, executors reassigned,
//! recovery complete, replays).

use std::collections::BTreeSet;
use std::io::Write;
use std::sync::{Arc, Mutex};
use tstorm::cluster::ClusterSpec;
use tstorm::core::{SystemMode, TStormConfig, TStormSystem};
use tstorm::sim::FaultPlan;
use tstorm::trace::{Observer, TraceFilter};
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
    jsonl: String,
    fingerprint: String,
}

/// Runs the Throughput Test under a non-empty fault plan — a node
/// crash with a later restart plus a transient NIC slowdown — with a
/// JSONL observer attached.
fn faulted_run(seed: u64) -> RunResult {
    let p = ThroughputParams::small();
    let topo = throughput::topology(&p).expect("valid");
    let mut system = TStormSystem::new(cluster(), fast_config(seed)).expect("valid");
    let trace = TraceBuf::default();
    system.set_observer(Observer::jsonl(trace.clone(), TraceFilter::all(), 1));
    let mut f = throughput::factory(&p, seed);
    system.submit(&topo, &mut f).expect("submits");
    system.start().expect("starts");

    let plan = FaultPlan::from_specs([
        "node-crash@t=60,node=2,restart=60",
        "nic-slow@t=40,node=1,factor=4,dur=30",
    ])
    .expect("valid plan");
    system
        .simulation_mut()
        .apply_fault_plan(&plan)
        .expect("applies");
    system.run_until(SimTime::from_secs(150)).expect("runs");

    let jsonl = trace.text();
    let fingerprint = format!(
        "{:?}",
        (
            system.simulation().completed(),
            system.simulation().emitted(),
            system.simulation().failed(),
            system.simulation().tuples_lost(),
            system.simulation().replays_triggered(),
            system.recovery_events(),
            system.generations(),
        )
    );
    RunResult { jsonl, fingerprint }
}

#[test]
fn same_seed_fault_traces_are_byte_identical() {
    let a = faulted_run(23);
    let b = faulted_run(23);
    assert!(
        a.jsonl.lines().count() > 1_000,
        "expected a dense trace, got {} lines",
        a.jsonl.lines().count()
    );
    assert_eq!(
        a.jsonl, b.jsonl,
        "same seed + same fault plan must yield identical bytes"
    );
    assert_eq!(a.fingerprint, b.fingerprint);
}

#[test]
fn fault_trace_records_the_recovery_arc() {
    let run = faulted_run(23);
    let mut types_seen = BTreeSet::new();
    for line in run.jsonl.lines() {
        let v = tstorm::trace::json::parse(line).expect("every line is valid JSON");
        let ty = v
            .get("type")
            .and_then(|t| t.as_str().map(str::to_owned))
            .expect("every event has a type");
        types_seen.insert(ty);
    }
    for expected in [
        "fault_injected",
        "worker_stop",
        "executors_reassigned",
        "recovery_complete",
        "replay",
    ] {
        assert!(
            types_seen.contains(expected),
            "missing `{expected}` in {types_seen:?}"
        );
    }
}
