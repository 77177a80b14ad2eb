//! The determinism contract for the hot-path engine: equal seeds give
//! byte-identical JSONL traces, with and without a fault plan.
//!
//! The tuple-level engine routes every event through pooled envelopes,
//! payloads held in counted slots of one store, a generational root
//! slab and a three-lane event queue; none of those structures may
//! influence *what* is emitted, in *which order*, with *which ids*.
//! Running the same scenario twice and comparing raw trace bytes pins
//! that contract: any reordering, id drift or RNG divergence introduced
//! by a future optimisation shows up as a byte diff here.

use tstorm_cli::args::RunOptions;
use tstorm_cli::scenario::{run_scenario, Topology};

/// Runs the scenario with a JSONL trace attached and returns the raw
/// trace bytes.
fn trace_bytes(opts: &RunOptions, tag: &str) -> Vec<u8> {
    let dir = std::env::temp_dir().join("tstorm-golden-trace-test");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join(format!("{tag}.jsonl"));
    let mut opts = opts.clone();
    opts.trace = Some(path.to_string_lossy().into_owned());
    run_scenario(&opts).expect("scenario runs");
    let bytes = std::fs::read(&path).expect("trace file");
    let _ = std::fs::remove_file(&path);
    bytes
}

#[test]
fn wordcount_trace_is_byte_identical_across_runs() {
    let opts = RunOptions {
        topology: Topology::WordCount,
        duration_secs: 60,
        rate: 100.0,
        seed: 42,
        quiet: true,
        ..RunOptions::default()
    };
    let a = trace_bytes(&opts, "wc-a");
    let b = trace_bytes(&opts, "wc-b");
    assert!(
        a.lines_count() > 100,
        "expected a substantial trace, got {} lines",
        a.lines_count()
    );
    assert_eq!(a, b, "same-seed word-count traces must be byte-identical");
}

#[test]
fn fault_plan_trace_is_byte_identical_across_runs() {
    let opts = RunOptions {
        topology: Topology::Throughput,
        duration_secs: 120,
        seed: 23,
        quiet: true,
        faults: vec![
            "node-crash@t=40,node=2,restart=40".to_owned(),
            "nic-slow@t=20,node=1,factor=4,dur=20".to_owned(),
        ],
        ..RunOptions::default()
    };
    let a = trace_bytes(&opts, "fault-a");
    let b = trace_bytes(&opts, "fault-b");
    assert!(a.lines_count() > 100);
    assert_eq!(a, b, "same-seed fault-replay traces must be byte-identical");
}

#[test]
fn control_plane_fault_trace_is_byte_identical_across_runs() {
    // The control-plane faults exercise the heartbeat/liveness machinery:
    // a healthy node is falsely declared dead and reassigned, and a
    // nimbus outage defers generations — all of it on jittered, staggered
    // per-supervisor timers that must replay byte-identically.
    let opts = RunOptions {
        topology: Topology::Throughput,
        duration_secs: 200,
        seed: 23,
        quiet: true,
        faults: vec![
            "heartbeat-loss@t=60,node=2,dur=40".to_owned(),
            "nimbus-crash@t=130,dur=30".to_owned(),
        ],
        ..RunOptions::default()
    };
    let a = trace_bytes(&opts, "ctrl-a");
    let b = trace_bytes(&opts, "ctrl-b");
    assert!(a.lines_count() > 100);
    let text = std::str::from_utf8(&a).expect("traces are UTF-8 JSONL");
    assert!(
        text.contains("node_declared_dead") && text.contains("node_reconciled"),
        "the heartbeat-loss window should surface a declaration and a reconciliation"
    );
    assert_eq!(
        a, b,
        "same-seed control-fault traces must be byte-identical"
    );
}

#[test]
fn different_seeds_give_different_traces() {
    // Sanity check that the byte comparison has teeth: a seed change
    // must actually move the trace.
    let base = RunOptions {
        topology: Topology::WordCount,
        duration_secs: 60,
        rate: 100.0,
        quiet: true,
        ..RunOptions::default()
    };
    let a = trace_bytes(
        &RunOptions {
            seed: 1,
            ..base.clone()
        },
        "seed1",
    );
    let b = trace_bytes(
        &RunOptions {
            seed: 2,
            ..base.clone()
        },
        "seed2",
    );
    assert_ne!(a, b, "different seeds should produce different traces");
}

/// Counts newline-terminated lines in raw bytes.
trait LinesCount {
    fn lines_count(&self) -> usize;
}

impl LinesCount for Vec<u8> {
    fn lines_count(&self) -> usize {
        self.iter().filter(|&&b| b == b'\n').count()
    }
}
