//! The decomposed control plane end to end: heartbeat-derived liveness,
//! epoch-stamped schedule rollout through the store, nimbus-crash and
//! heartbeat-loss fault windows, and the hot-swap/rebalance interactions
//! with in-flight rollouts.

use std::sync::atomic::{AtomicUsize, Ordering};

use tstorm_cluster::{Assignment, ClusterSpec};
use tstorm_core::{render_timeline, ControlEvent, SystemMode, TStormConfig, TStormSystem};
use tstorm_sched::{RoundRobinScheduler, Scheduler, SchedulingInput};
use tstorm_sim::FaultPlan;
use tstorm_types::{Mhz, NodeId, SimTime};
use tstorm_workloads::throughput::{self, ThroughputParams};

fn cluster10() -> ClusterSpec {
    ClusterSpec::homogeneous(10, 4, Mhz::new(8000.0)).expect("valid")
}

fn fast_config(mode: SystemMode, gamma: f64, seed: u64) -> TStormConfig {
    let mut c = TStormConfig::default()
        .with_mode(mode)
        .with_gamma(gamma)
        .with_seed(seed);
    c.monitor_period = SimTime::from_secs(10);
    c.fetch_period = SimTime::from_secs(5);
    c.generation_period = SimTime::from_secs(60);
    c
}

/// Workers (occupied slots) under the assignment in force.
fn workers_in_use(system: &TStormSystem) -> usize {
    system.simulation().current_assignment().slots_used().len()
}

fn started_system(config: TStormConfig) -> TStormSystem {
    let p = ThroughputParams::paper();
    let topo = throughput::topology(&p).expect("valid");
    let mut system = TStormSystem::new(cluster10(), config).expect("valid");
    let mut f = throughput::factory(&p, 7);
    system.submit(&topo, &mut f).expect("submits");
    system.start().expect("starts");
    system
}

fn inject(system: &mut TStormSystem, specs: &[&str]) {
    let plan = FaultPlan::from_specs(specs.iter().copied()).expect("valid plan");
    system
        .simulation_mut()
        .apply_fault_plan(&plan)
        .expect("applies");
}

/// Heartbeats flow continuously and the counters line up between the
/// supervisors (senders) and Nimbus (receiver).
#[test]
fn heartbeats_drive_liveness_in_both_modes() {
    for mode in [SystemMode::StormDefault, SystemMode::TStorm] {
        let mut system = started_system(fast_config(mode, 1.0, 11));
        system.run_until(SimTime::from_secs(120)).expect("runs");
        let stats = system.control_stats();
        // 10 nodes, 5 s period, 120 s horizon: roughly 240 heartbeats.
        assert!(
            stats.heartbeats_sent > 150,
            "{mode:?}: sent {}",
            stats.heartbeats_sent
        );
        assert_eq!(stats.heartbeats_missed, 0, "{mode:?}: healthy cluster");
        assert_eq!(stats.nodes_declared_dead, 0, "{mode:?}: healthy cluster");
        assert!(system.nimbus().declared_dead().is_empty());
    }
}

/// The tentpole's visible behaviour change: a published schedule rolls
/// out node by node, so different nodes briefly run different epochs
/// before converging on the latest one.
#[test]
fn rollout_is_staggered_and_nodes_briefly_disagree_on_epochs() {
    let mut system = started_system(fast_config(SystemMode::TStorm, 1.7, 42));
    let mut saw_skew = false;
    for t in 1..=300 {
        system.run_until(SimTime::from_secs(t)).expect("runs");
        let epochs = system.applied_epochs();
        let target = system.nimbus().cluster_epoch();
        if target > 0
            && epochs.iter().any(|&(_, e)| e == target)
            && epochs.iter().any(|&(_, e)| e < target)
        {
            saw_skew = true;
            break;
        }
    }
    assert!(
        saw_skew,
        "expected a moment where some nodes run the new epoch and others \
         still run an older one; epochs {:?}",
        system.applied_epochs()
    );

    // Convergence: once the store is drained and timers elapse, every
    // supervisor has applied the same (latest) epoch.
    system.run_until(SimTime::from_secs(400)).expect("runs");
    let final_epoch = system.nimbus().cluster_epoch();
    assert!(final_epoch >= 1);
    if !system.schedule_store().has_unfetched() {
        for (node, epoch) in system.applied_epochs() {
            assert_eq!(epoch, final_epoch, "{node} lags the cluster epoch");
        }
    }
}

/// `heartbeat-loss` on a healthy node: Nimbus believes the silence,
/// declares the node dead, reassigns its executors, and reconciles the
/// false positive when heartbeats resume.
#[test]
fn heartbeat_loss_causes_false_positive_reassignment_then_reconciliation() {
    // gamma = 1 keeps every node hosting executors, so the forced
    // generation under the false declaration must actually move work.
    let mut system = started_system(fast_config(SystemMode::TStorm, 1.0, 42));
    inject(&mut system, &["heartbeat-loss@t=100,node=2,dur=40"]);
    system.run_until(SimTime::from_secs(300)).expect("runs");

    let victim = NodeId::new(2);
    // Ground truth: the node never failed.
    assert!(system.simulation().cluster().is_node_live(victim));
    assert_eq!(system.simulation().faults_injected(), 1);

    let declared_at = system
        .timeline()
        .iter()
        .find_map(|e| match e {
            ControlEvent::NodeDeclaredDead { at, node, .. } if *node == victim => Some(*at),
            _ => None,
        })
        .expect("nimbus should declare the muted node dead");
    let reconciled_at = system
        .timeline()
        .iter()
        .find_map(|e| match e {
            ControlEvent::NodeReconciled {
                at,
                node,
                false_positive: true,
            } if *node == victim => Some(*at),
            _ => None,
        })
        .expect("resumed heartbeats should reconcile as a false positive");
    assert!(
        declared_at < reconciled_at,
        "declaration at {declared_at:?} must precede reconciliation at {reconciled_at:?}"
    );
    // The declaration happened inside the loss window, the reconciliation
    // after it ended.
    assert!(declared_at >= SimTime::from_secs(100));
    assert!(reconciled_at >= SimTime::from_secs(140));

    let stats = system.control_stats();
    assert!(stats.heartbeats_missed > 0);
    assert!(stats.nodes_declared_dead >= 1);
    assert!(stats.false_positive_reassignments >= 1);
    // The forced generation under the false declaration was published.
    assert!(system
        .timeline()
        .iter()
        .any(|e| matches!(e, ControlEvent::SchedulePublished { at, .. }
            if *at >= declared_at && *at < reconciled_at)));
    // After reconciliation the node is schedulable again.
    assert!(!system.nimbus().is_declared_dead(victim));
}

/// `nimbus-crash` freezes the control plane: no generations, no fetches,
/// no death declarations while down; the deferred work happens after the
/// restore.
#[test]
fn nimbus_crash_window_suppresses_generations_and_recovery() {
    let mut system = started_system(fast_config(SystemMode::TStorm, 1.7, 42));
    inject(
        &mut system,
        &["nimbus-crash@t=50,dur=60", "node-crash@t=70,node=3"],
    );
    system.run_until(SimTime::from_secs(300)).expect("runs");

    let window = SimTime::from_secs(50)..SimTime::from_secs(110);
    // The suppression is visible on the control timeline...
    assert!(
        system
            .timeline()
            .iter()
            .any(|e| matches!(e, ControlEvent::NimbusSuppressed { at, .. }
                if window.contains(at))),
        "expected suppressed control actions: {:?}",
        system.timeline()
    );
    // ...and nothing control-plane-shaped happened inside the window.
    for e in system.timeline() {
        let frozen = matches!(
            e,
            ControlEvent::SchedulePublished { .. }
                | ControlEvent::ScheduleFetched { .. }
                | ControlEvent::NodeDeclaredDead { .. }
                | ControlEvent::RecoveryTriggered { .. }
        );
        assert!(
            !(frozen && window.contains(&e.at())),
            "control action inside the nimbus outage: {e}"
        );
    }
    // The generation boundary at t = 60 fell inside the outage, and so
    // did the monitoring rounds that found the crash's orphans.
    for suppressed in ["generation", "recovery"] {
        assert!(
            system.timeline().iter().any(
                |e| matches!(e, ControlEvent::NimbusSuppressed { at, action }
                    if window.contains(at) && action == suppressed)
            ),
            "expected a suppressed {suppressed}"
        );
    }

    // After the restore, the crashed node is declared dead (its
    // heartbeats stayed silent) and a re-placement is published.
    let dead = NodeId::new(3);
    assert!(system.timeline().iter().any(
        |e| matches!(e, ControlEvent::NodeDeclaredDead { at, node, .. }
            if *node == dead && *at >= window.end)
    ));
    assert!(system
        .timeline()
        .iter()
        .any(|e| matches!(e, ControlEvent::SchedulePublished { at, .. }
            if *at >= window.end)));
    assert_eq!(system.simulation().unplaced_executors(), 0);
    for (_, slot) in system.simulation().current_assignment().iter() {
        assert_ne!(
            system.simulation().cluster().node_of(slot),
            dead,
            "no executor re-placed on the dead node"
        );
    }
}

/// Same seed, same faults, same bytes: the control plane (staggered
/// heartbeats, jittered fetches, fault windows) is fully deterministic.
#[test]
fn control_plane_faults_are_deterministic() {
    let run = || {
        let mut system = started_system(fast_config(SystemMode::TStorm, 1.7, 9));
        inject(
            &mut system,
            &[
                "heartbeat-loss@t=80,node=4,dur=30",
                "nimbus-crash@t=150,dur=40",
            ],
        );
        system.run_until(SimTime::from_secs(280)).expect("runs");
        let sim = system.simulation();
        format!(
            "{:?}|{:?}|{:?}|{}|{}|{}|{}|{:?}",
            system.timeline(),
            system.control_stats(),
            system.applied_epochs(),
            sim.completed(),
            sim.failed(),
            sim.reassignments(),
            system.generations(),
            sim.current_assignment()
        )
    };
    assert_eq!(run(), run(), "same-seed runs must be byte-identical");
}

/// Regression (satellite): hot-swapping the scheduler while a published
/// schedule sits unfetched in the store must discard it — the stale
/// plan from the old algorithm must never reach Nimbus or any node.
#[test]
fn swap_scheduler_discards_published_but_unfetched_schedule() {
    let mut config = fast_config(SystemMode::TStorm, 1.7, 42);
    // Offset the fetch cadence from the publish cadence so a publication
    // reliably sits in the store for a few seconds before the fetch.
    config.fetch_period = SimTime::from_secs(9);
    let mut system = started_system(config);

    let mut t = 0;
    while t < 300 && !system.schedule_store().has_unfetched() {
        t += 1;
        system.run_until(SimTime::from_secs(t)).expect("runs");
    }
    assert!(
        system.schedule_store().has_unfetched(),
        "no publication was caught in flight by t = 300 s"
    );
    let burned = system.published_epoch();
    assert!(system.schedule_store().is_stale(burned - 1));

    system.swap_scheduler("t-storm-ls").expect("swaps");
    assert!(
        !system.schedule_store().has_unfetched(),
        "the swap must drop the stale plan"
    );
    assert_eq!(system.schedule_store().discards(), 1);
    assert!(
        system.timeline().iter().any(
            |e| matches!(e, ControlEvent::ScheduleDiscarded { epoch, .. }
                if *epoch == burned)
        ),
        "timeline should record the discard: {:?}",
        system.timeline()
    );

    // The burned epoch never rolls out: Nimbus never fetches it and no
    // supervisor ever applies it, even after further publications.
    system.run_until(SimTime::from_secs(t + 120)).expect("runs");
    assert!(!system
        .timeline()
        .iter()
        .any(|e| matches!(e, ControlEvent::ScheduleFetched { epoch, .. } if *epoch == burned)));
    assert!(!system.applied_epochs().iter().any(|&(_, e)| e == burned));
    assert_ne!(system.nimbus().cluster_epoch(), burned);
    assert_eq!(system.nimbus().scheduler_name(), "t-storm-ls");
}

static PROBE_CALLS: AtomicUsize = AtomicUsize::new(0);

struct ProbeScheduler(RoundRobinScheduler);

impl Scheduler for ProbeScheduler {
    fn name(&self) -> &'static str {
        "probe"
    }

    fn schedule(&mut self, input: &SchedulingInput) -> tstorm_types::Result<Assignment> {
        PROBE_CALLS.fetch_add(1, Ordering::SeqCst);
        self.0.schedule(input)
    }
}

/// Regression (satellite): crash recovery in StormDefault mode must go
/// through the *installed* scheduler, not a hard-coded
/// `RoundRobinScheduler::storm_default()` — a runtime swap has to stick.
#[test]
fn storm_mode_recovery_uses_the_swapped_in_scheduler() {
    let mut system = started_system(fast_config(SystemMode::StormDefault, 1.0, 5));
    system.register_scheduler("probe", || {
        Box::new(ProbeScheduler(RoundRobinScheduler::storm_default()))
    });
    system.swap_scheduler("probe").expect("swaps");
    assert_eq!(system.nimbus().scheduler_name(), "probe");
    let before = PROBE_CALLS.load(Ordering::SeqCst);

    inject(&mut system, &["node-crash@t=100,node=3"]);
    system.run_until(SimTime::from_secs(240)).expect("runs");

    assert!(
        PROBE_CALLS.load(Ordering::SeqCst) > before,
        "recovery re-placement must invoke the installed scheduler"
    );
    assert_eq!(system.simulation().unplaced_executors(), 0);
    let dead = NodeId::new(3);
    for (_, slot) in system.simulation().current_assignment().iter() {
        assert_ne!(system.simulation().cluster().node_of(slot), dead);
    }
}

/// Satellite: `rebalance()` issued while a previous rollout is still in
/// flight. The second publication supersedes the first; every live node
/// converges on the final epoch and the final worker count is the
/// rebalanced one.
#[test]
fn rebalance_during_in_flight_rollout_converges_on_final_epoch() {
    let mut config = fast_config(SystemMode::TStorm, 1.0, 13);
    // No competing periodic generations: both publications come from
    // explicit rebalances.
    config.generation_period = SimTime::from_secs(100_000);
    let p = ThroughputParams::paper();
    let topo = throughput::topology(&p).expect("valid");
    let mut system = TStormSystem::new(cluster10(), config).expect("valid");
    let mut f = throughput::factory(&p, 7);
    let handle = system.submit(&topo, &mut f).expect("submits");
    system.start().expect("starts");
    system.run_until(SimTime::from_secs(60)).expect("runs");
    assert_eq!(workers_in_use(&system), 10);

    // First rebalance publishes epoch 1; catch its rollout mid-flight.
    system.rebalance(&handle, 6).expect("rebalances");
    assert_eq!(system.published_epoch(), 1);
    let mut t = 60;
    let mut caught_in_flight = false;
    while t < 200 {
        t += 1;
        system.run_until(SimTime::from_secs(t)).expect("runs");
        let epochs = system.applied_epochs();
        let partially_applied = epochs.iter().any(|&(_, e)| e == 1);
        let lagging = epochs.iter().any(|&(_, e)| e < 1);
        if system.schedule_store().has_unfetched() || (partially_applied && lagging) {
            caught_in_flight = true;
            break;
        }
        if epochs.iter().all(|&(_, e)| e == 1) {
            break; // fully rolled out before we could interleave
        }
    }
    assert!(
        caught_in_flight,
        "the staggered rollout should be observable mid-flight"
    );

    // Second rebalance lands while nodes still disagree about epoch 1.
    system.rebalance(&handle, 4).expect("rebalances");
    assert_eq!(system.published_epoch(), 2);

    system.run_until(SimTime::from_secs(t + 120)).expect("runs");
    assert!(!system.schedule_store().has_unfetched());
    assert_eq!(system.nimbus().cluster_epoch(), 2);
    for (node, epoch) in system.applied_epochs() {
        assert_eq!(epoch, 2, "{node} must converge on the final epoch");
    }
    assert_eq!(workers_in_use(&system), 4, "the second rebalance wins");
    // Smooth rollouts end to end: nothing lost while epochs were skewed.
    assert_eq!(system.simulation().failed(), 0);
}

/// The fault plan of the repository benchmark's `fault-recorded`
/// workload, copied here so that this pin stands on its own.
const FAULT_RECORDED_PLAN: [&str; 14] = [
    "nic-slow@t=15,node=1,factor=4,dur=20",
    "node-crash@t=30,node=2,restart=40",
    "worker-crash@t=150,node=4,slot=0",
    "node-crash@t=240,node=5,restart=60",
    "heartbeat-loss@t=330,node=3,dur=40",
    "nimbus-crash@t=420,dur=60",
    "node-crash@t=500,node=1,restart=40",
    "nic-slow@t=615,node=2,factor=4,dur=20",
    "node-crash@t=630,node=3,restart=40",
    "worker-crash@t=750,node=0,slot=1",
    "node-crash@t=840,node=4,restart=60",
    "heartbeat-loss@t=930,node=5,dur=40",
    "nimbus-crash@t=1020,dur=60",
    "node-crash@t=1100,node=0,restart=40",
];

/// Every solve cause in one run: the Throughput Test on 6 × 4 slots
/// through the 14-fault plan (crashes, heartbeat loss, Nimbus outages)
/// at γ 1 and seed 42. The rendered control timeline is pinned byte for
/// byte, including the seven failure-only overloads the crashes raise.
#[test]
fn fault_recorded_control_timeline_is_pinned() {
    let p = ThroughputParams::paper();
    let topo = throughput::topology(&p).expect("valid");
    let cluster = ClusterSpec::homogeneous(6, 4, Mhz::new(8000.0)).expect("valid");
    let config = TStormConfig::default().with_seed(42);
    let mut system = TStormSystem::new(cluster, config).expect("valid");
    system
        .submit(&topo, &mut throughput::factory(&p, 42))
        .expect("submits");
    system.start().expect("starts");
    inject(&mut system, &FAULT_RECORDED_PLAN);
    system.run_until(SimTime::from_secs(1200)).expect("runs");

    let rendered = render_timeline(system.timeline());
    let expected = include_str!("fixtures/fault_recorded_timeline.txt");
    assert!(
        rendered == expected,
        "control timeline differs from the fixture:\n{rendered}"
    );
    assert_eq!(system.generations(), 19);
    assert_eq!(system.overload_events(), 7);
    assert_eq!(system.recovery_events(), 7);
}
