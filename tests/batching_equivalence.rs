//! Transfer-batching equivalence and conservation tests.
//!
//! The batching layer must be invisible at `--batch-size 1` (the staged
//! path is bypassed entirely, so the engine reproduces the pre-batching
//! report scalars byte for byte) and must conserve tuples at every
//! batch size: each spout emission terminates exactly once, as a
//! completion, a timeout failure, or a still-pending root at cutoff.

use tstorm::cluster::ClusterSpec;
use tstorm::core::{SystemMode, TStormConfig, TStormSystem};
use tstorm::sim::FaultPlan;
use tstorm::types::{Mhz, SimTime};
use tstorm::workloads::throughput::{self, ThroughputParams};
use tstorm::workloads::transfer::{self, TransferParams};
use tstorm::workloads::wordcount::{self, WordCountParams, WordCountState};

/// The per-run report scalars the equivalence contract pins.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Scalars {
    completed: u64,
    emitted: u64,
    failed: u64,
    tuples_lost: u64,
    perm_failed: u64,
    in_flight: usize,
    clock_inversions: u64,
}

fn scalars_of(system: &TStormSystem) -> Scalars {
    let sim = system.simulation();
    Scalars {
        completed: sim.completed(),
        emitted: sim.emitted(),
        failed: sim.failed(),
        tuples_lost: sim.tuples_lost(),
        perm_failed: sim.perm_failed(),
        in_flight: sim.in_flight(),
        clock_inversions: sim.engine_stats().clock_inversions,
    }
}

impl Scalars {
    /// Every emission is accounted for exactly once: completed, timed
    /// out, or still in flight at cutoff. Exact at every batch size.
    fn assert_conserved(&self, label: &str) {
        assert_eq!(
            self.emitted,
            self.completed + self.failed + self.in_flight as u64,
            "{label}: emitted != completed + failed + in_flight ({self:?})"
        );
        assert_eq!(
            self.clock_inversions, 0,
            "{label}: spans saw out-of-order timestamps ({self:?})"
        );
    }
}

/// Word Count at the paper's settings, with the requested
/// transfer-batching threshold.
fn run_wordcount(seed: u64, batch_size: u32, duration_secs: u64) -> Scalars {
    let cluster = ClusterSpec::homogeneous(10, 4, Mhz::new(8000.0)).expect("valid");
    let mut config = TStormConfig::default()
        .with_mode(SystemMode::TStorm)
        .with_seed(seed);
    config.sim.batch_size = batch_size;
    let mut system = TStormSystem::new(cluster, config).expect("valid");
    let p = WordCountParams::paper();
    let topo = wordcount::topology(&p).expect("valid");
    let state = WordCountState::new();
    state.attach_corpus_producer(SimTime::ZERO, 300.0);
    let mut f = wordcount::factory(&state);
    system.submit(&topo, &mut f).expect("submits");
    system.start().expect("starts");
    system
        .run_until(SimTime::from_secs(duration_secs))
        .expect("runs");
    scalars_of(&system)
}

/// The Throughput Test through a node crash (plus restart) and a
/// transient NIC slowdown.
fn run_fault_replay(seed: u64, batch_size: u32, duration_secs: u64) -> Scalars {
    let cluster = ClusterSpec::homogeneous(6, 4, Mhz::new(8000.0)).expect("valid");
    let mut config = TStormConfig::default()
        .with_mode(SystemMode::TStorm)
        .with_seed(seed);
    config.sim.batch_size = batch_size;
    let mut system = TStormSystem::new(cluster, config).expect("valid");
    let p = ThroughputParams::paper();
    let topo = throughput::topology(&p).expect("valid");
    let mut f = throughput::factory(&p, seed);
    system.submit(&topo, &mut f).expect("submits");
    system.start().expect("starts");
    let plan = FaultPlan::from_specs([
        "node-crash@t=30,node=2,restart=40",
        "nic-slow@t=15,node=1,factor=4,dur=20",
    ])
    .expect("valid plan");
    system
        .simulation_mut()
        .apply_fault_plan(&plan)
        .expect("applies");
    system
        .run_until(SimTime::from_secs(duration_secs))
        .expect("runs");
    scalars_of(&system)
}

/// The transfer-density overload: the fan-out pipeline on a
/// deliberately slow 10 Mbit/s link, where the wire (not
/// the CPU) is the bottleneck and most emissions are still in flight at
/// cutoff.
fn run_transfer_overload(seed: u64, batch_size: u32, duration_secs: u64) -> Scalars {
    let cluster = ClusterSpec::homogeneous(2, 1, Mhz::new(8000.0)).expect("valid");
    let mut config = TStormConfig::default()
        .with_mode(SystemMode::StormDefault)
        .with_seed(seed);
    config.sim.batch_size = batch_size;
    config.sim.network.nic_bits_per_sec = 10_000_000;
    let mut system = TStormSystem::new(cluster, config).expect("valid");
    let p = TransferParams::overload();
    let topo = transfer::topology(&p).expect("valid");
    let mut f = transfer::factory(&p, seed);
    system.submit(&topo, &mut f).expect("submits");
    system.start().expect("starts");
    system
        .run_until(SimTime::from_secs(duration_secs))
        .expect("runs");
    scalars_of(&system)
}

#[test]
fn batch_one_reproduces_the_unbatched_engine() {
    // `--batch-size 1` takes the original per-tuple send path verbatim
    // (no staging), so the run must reproduce the report scalars the
    // pre-batching engine produced at this (seed, scenario) — the same
    // values as the 30-virtual-second wordcount cells in the
    // pre-fingerprint history of BENCH_sim.json.
    let s = run_wordcount(42, 1, 30);
    assert_eq!(
        s,
        Scalars {
            completed: 9000,
            emitted: 9001,
            failed: 0,
            tuples_lost: 0,
            perm_failed: 0,
            in_flight: 1,
            clock_inversions: 0,
        },
        "batch-1 must be byte-identical to the pre-batching engine"
    );
}

#[test]
fn batched_runs_are_deterministic_per_seed() {
    for batch in [4, 16] {
        let a = run_wordcount(7, batch, 30);
        let b = run_wordcount(7, batch, 30);
        assert_eq!(a, b, "batch={batch}: same seed must reproduce the run");
        a.assert_conserved(&format!("wordcount seed=7 batch={batch}"));
    }
}

#[test]
fn conservation_holds_across_batch_sizes() {
    for seed in [42, 7] {
        for batch in [1, 4, 8, 16] {
            let s = run_wordcount(seed, batch, 30);
            s.assert_conserved(&format!("wordcount seed={seed} batch={batch}"));
            assert_eq!(s.tuples_lost, 0, "no faults were injected");
            assert!(
                s.completed > 5_000,
                "seed={seed} batch={batch}: the run must make progress ({s:?})"
            );
        }
    }
}

#[test]
fn conservation_holds_on_a_saturated_link() {
    // The NIC-bound overload backlogs most tuples on the wire by
    // design: conservation must account every root that never arrived
    // as in flight, at every batch size — and batching must widen the
    // saturated link (fixed per-message framing is amortised), so the
    // batched run completes strictly more roots in the same window.
    let unbatched = run_transfer_overload(42, 1, 10);
    unbatched.assert_conserved("transfer batch=1");
    let batched = run_transfer_overload(42, 8, 10);
    batched.assert_conserved("transfer batch=8");
    for s in [&unbatched, &batched] {
        assert!(s.completed > 0, "roots complete inline ({s:?})");
        assert!(s.in_flight > 0, "the link must stay saturated ({s:?})");
        assert_eq!(s.failed, 0, "the long message timeout must not fire");
    }
    assert!(
        batched.completed > unbatched.completed,
        "batching must amortise framing on the saturated link \
         (batch-8 completed {} vs batch-1 {})",
        batched.completed,
        unbatched.completed
    );
}

#[test]
fn conservation_holds_under_faults() {
    // The crash drops queued and in-flight tuples (including whole
    // pending batches), their roots time out and replay — conservation
    // must hold exactly through the loss/replay cycle at every batch
    // size, and batching must not change how many faults land.
    for batch in [1, 8] {
        let s = run_fault_replay(42, batch, 90);
        s.assert_conserved(&format!("fault-replay batch={batch}"));
        assert!(
            s.tuples_lost > 0,
            "batch={batch}: the crash must drop traffic ({s:?})"
        );
        assert!(
            s.completed > 10_000,
            "batch={batch}: the topology must recover ({s:?})"
        );
    }
}
