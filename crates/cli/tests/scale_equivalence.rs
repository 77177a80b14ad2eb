//! Pair-traffic accounting, and conservation at scale.
//!
//! The per-window pair store feeds the load monitor's traffic matrix,
//! so its read-out must be exact and deterministic: `pair_tuples()`
//! iterates strictly row-major and accounts for every transfer the
//! engine made. The scale-100 preset (100 heterogeneous nodes, 10,200
//! executors) must conserve tuples and keep the store sparse.

use tstorm_cli::args::{RunOptions, ScaleClass};
use tstorm_cli::scenario::run_scenario;
use tstorm_cluster::{Assignment, ClusterSpec};
use tstorm_sim::{SimConfig, Simulation};
use tstorm_trace::HopClass;
use tstorm_types::{Mhz, SimTime, SlotId};
use tstorm_workloads::chain::{self, ChainParams};

#[test]
fn pair_tuples_are_row_major_and_sum_to_the_transfer_count() {
    // A raw simulation (no monitor draining the window) spread over
    // 8 slots on 4 nodes, so every hop class carries traffic.
    let cluster = ClusterSpec::homogeneous(4, 2, Mhz::new(8000.0)).expect("valid");
    let mut sim = Simulation::new(cluster, SimConfig::default());
    let p = ChainParams {
        spouts: 2,
        bolt_parallelism: 3,
        ..ChainParams::fig2()
    };
    let topo = chain::topology(&p).expect("valid");
    let mut f = chain::factory(&p, 7);
    sim.submit_topology(&topo, &mut f);
    let a: Assignment = sim
        .executor_descriptors()
        .into_iter()
        .enumerate()
        .map(|(i, d)| (d.id, SlotId::new((i % 8) as u32)))
        .collect();
    sim.apply_assignment(&a);
    sim.run_until(SimTime::from_secs(20));
    let pairs: Vec<_> = sim.drain_counters().pair_tuples().collect();

    assert!(pairs.len() > 10, "the window should hold pair traffic");
    for w in pairs.windows(2) {
        assert!(
            (w[0].0, w[0].1) < (w[1].0, w[1].1),
            "pair_tuples() must be strictly row-major: {:?} then {:?}",
            w[0],
            w[1]
        );
    }
    assert!(pairs.iter().all(|(_, _, t)| *t > 0), "only observed pairs");

    let transfers: u64 = [
        HopClass::IntraWorker,
        HopClass::InterProcess,
        HopClass::InterNode,
    ]
    .iter()
    .map(|hop| sim.transfers(*hop).0)
    .sum();
    let tuples: u64 = pairs.iter().map(|(_, _, t)| t).sum();
    assert!(
        transfers > 1_000,
        "the run should move real volume: {transfers}"
    );
    assert_eq!(
        tuples, transfers,
        "pair counters must account for every transfer"
    );
}

#[test]
fn scale_100_conserves_tuples_and_stays_sparse() {
    let opts = RunOptions {
        scale: Some(ScaleClass::Scale100),
        duration_secs: 60,
        seed: 42,
        quiet: true,
        ..RunOptions::default()
    };
    let outcome = run_scenario(&opts).expect("scale-100 runs");
    // Conservation: every emitted tuple is completed, failed, lost to a
    // crash, permanently failed, or still in flight at cutoff — the
    // resolved counters can never exceed emissions.
    assert!(
        outcome.completed + outcome.failed + outcome.tuples_lost + outcome.perm_failed
            <= outcome.emitted,
        "resolved {} + {} + {} + {} tuples exceed {} emitted",
        outcome.completed,
        outcome.failed,
        outcome.tuples_lost,
        outcome.perm_failed,
        outcome.emitted
    );
    assert!(
        outcome.completed > 10_000,
        "the preset should move real volume, completed {}",
        outcome.completed
    );
    assert_eq!(
        outcome.report.final_nodes_used(),
        Some(100),
        "all 100 heterogeneous nodes should host executors"
    );
    // 10,200 executors: the dense matrix would hold 10,200² cells
    // (~832 MB). The default sparse store must stay far below that.
    let dense_bytes = 10_200u64 * 10_200 * 8;
    assert!(
        outcome.engine.pair_state_bytes * 5 < dense_bytes,
        "sparse footprint {} must be at least 5x below dense {}",
        outcome.engine.pair_state_bytes,
        dense_bytes
    );
    assert!(
        outcome.engine.pairs_observed > 10_000,
        "a 10k-executor shuffle mesh observes many pairs, got {}",
        outcome.engine.pairs_observed
    );
}
