//! Crash recovery through the full control loop: a fault plan kills a
//! node mid-run, the supervisor/Nimbus loop notices the dead slots at
//! the next monitoring round, the active scheduler re-places the
//! orphaned executors, and the ack-timeout machinery replays the tuple
//! trees that went down with the worker.

use tstorm_cluster::ClusterSpec;
use tstorm_core::{ControlEvent, SystemMode, TStormConfig, TStormSystem};
use tstorm_sim::FaultPlan;
use tstorm_types::{Mhz, NodeId, SimTime};
use tstorm_workloads::throughput::{self, ThroughputParams};

fn cluster10() -> ClusterSpec {
    ClusterSpec::homogeneous(10, 4, Mhz::new(8000.0)).expect("valid")
}

fn fast_config(seed: u64) -> TStormConfig {
    let mut c = TStormConfig::default()
        .with_mode(SystemMode::TStorm)
        .with_gamma(1.7)
        .with_seed(seed);
    c.monitor_period = SimTime::from_secs(10);
    c.fetch_period = SimTime::from_secs(5);
    c.generation_period = SimTime::from_secs(60);
    c
}

/// Runs Throughput under the T-Storm scheduler with node 3 crashing at
/// t = 100 s, to t = 300 s.
fn crashed_run(seed: u64) -> TStormSystem {
    let p = ThroughputParams::paper();
    let topo = throughput::topology(&p).expect("valid");
    let mut system = TStormSystem::new(cluster10(), fast_config(seed)).expect("valid");
    let mut f = throughput::factory(&p, 7);
    system.submit(&topo, &mut f).expect("submits");
    system.start().expect("starts");
    let plan = FaultPlan::from_specs(["node-crash@t=100,node=3"]).expect("valid plan");
    system
        .simulation_mut()
        .apply_fault_plan(&plan)
        .expect("applies");
    system.run_until(SimTime::from_secs(300)).expect("runs");
    system
}

#[test]
fn node_crash_mid_run_recovers_under_tstorm() {
    let system = crashed_run(42);
    let sim = system.simulation();
    let dead = NodeId::new(3);

    assert_eq!(sim.faults_injected(), 1);
    assert!(!sim.cluster().is_node_live(dead));
    assert!(
        sim.tuples_lost() > 0,
        "the crashed node's worker had queued/in-flight tuples"
    );

    // (a) Lost tuple trees are replayed by the ack-timeout machinery
    // (or counted permanently failed); throughput keeps flowing.
    assert!(
        sim.replays_triggered() > 0,
        "timeouts should replay the lost trees"
    );
    assert!(sim.completed() > 10_000, "completed {}", sim.completed());

    // The control plane noticed and re-ran the scheduler.
    assert!(system.recovery_events() >= 1);
    assert!(
        system
            .timeline()
            .iter()
            .any(|e| matches!(e, ControlEvent::RecoveryTriggered { .. })),
        "timeline should record the recovery: {:?}",
        system.timeline()
    );

    // (b) No executor remains on (or was re-placed onto) the dead node.
    assert_eq!(sim.unplaced_executors(), 0, "all executors re-placed");
    for (exec, slot) in sim.current_assignment().iter() {
        assert_ne!(
            sim.cluster().node_of(slot),
            dead,
            "{exec} still assigned to the dead node"
        );
    }

    // Recovery latency (fault -> first post-reassignment completion)
    // was measured.
    let latencies = sim.recovery_latencies();
    assert!(!latencies.is_empty(), "recovery latency recorded");
    assert!(latencies[0] > 0.0);
}

#[test]
fn crash_recovery_is_seed_deterministic() {
    // (c) Same seed + same fault plan => identical outcome, including
    // everything the failure path touches.
    let a = crashed_run(7);
    let b = crashed_run(7);
    let fingerprint = |s: &TStormSystem| {
        (
            s.simulation().completed(),
            s.simulation().failed(),
            s.simulation().tuples_lost(),
            s.simulation().replays_triggered(),
            s.simulation().perm_failed(),
            s.recovery_events(),
            s.generations(),
            s.simulation().reassignments(),
            format!("{:?}", s.simulation().current_assignment()),
            format!("{:?}", s.simulation().recovery_latencies()),
        )
    };
    assert_eq!(fingerprint(&a), fingerprint(&b));
}

#[test]
fn worker_crash_recovers_without_taking_the_node_down() {
    let p = ThroughputParams::paper();
    let topo = throughput::topology(&p).expect("valid");
    let mut system = TStormSystem::new(cluster10(), fast_config(11)).expect("valid");
    let mut f = throughput::factory(&p, 7);
    system.submit(&topo, &mut f).expect("submits");
    system.start().expect("starts");
    let plan = FaultPlan::from_specs(["worker-crash@t=100,node=2,slot=0"]).expect("valid plan");
    system
        .simulation_mut()
        .apply_fault_plan(&plan)
        .expect("applies");
    system.run_until(SimTime::from_secs(300)).expect("runs");

    let sim = system.simulation();
    assert_eq!(sim.faults_injected(), 1);
    // A worker crash leaves the node alive: the scheduler may re-use it.
    assert!(sim.cluster().is_node_live(NodeId::new(2)));
    assert_eq!(sim.unplaced_executors(), 0, "orphans re-placed");
    assert!(system.recovery_events() >= 1);
    assert!(sim.completed() > 10_000);
}

#[test]
fn a_schedule_is_published_once() {
    // `tstorm run --topology throughput --duration 200 --fault
    // node-crash@t=30,node=2,restart=40`: at 60 s node 2 is declared
    // dead and a forced generation publishes, then the overload fast
    // path, tripped by the crash's own timeouts, solves the same input
    // again before Nimbus has fetched the first publication.
    let p = ThroughputParams::paper();
    let topo = throughput::topology(&p).expect("valid");
    let config = TStormConfig::default()
        .with_mode(SystemMode::TStorm)
        .with_gamma(1.7)
        .with_seed(42);
    let mut system = TStormSystem::new(cluster10(), config).expect("valid");
    let mut f = throughput::factory(&p, 42);
    system.submit(&topo, &mut f).expect("submits");
    system.start().expect("starts");
    let plan = FaultPlan::from_specs(["node-crash@t=30,node=2,restart=40"]).expect("valid plan");
    system
        .simulation_mut()
        .apply_fault_plan(&plan)
        .expect("applies");
    system.run_until(SimTime::from_secs(200)).expect("runs");

    let timeline = system.timeline();
    let declared_at: Vec<SimTime> = timeline
        .iter()
        .filter_map(|e| match e {
            ControlEvent::NodeDeclaredDead { at, .. } => Some(*at),
            _ => None,
        })
        .collect();
    assert!(
        timeline.iter().any(|e| matches!(
            e,
            ControlEvent::OverloadDetected { at, .. } if declared_at.contains(at)
        )),
        "the scenario must re-solve at the instant of a death declaration: {timeline:?}"
    );
    let mut ids: Vec<_> = timeline
        .iter()
        .filter_map(|e| match e {
            ControlEvent::SchedulePublished { id, .. } => Some(*id),
            _ => None,
        })
        .collect();
    let published = ids.len();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(
        ids.len(),
        published,
        "a schedule was published twice: {timeline:?}"
    );
}
