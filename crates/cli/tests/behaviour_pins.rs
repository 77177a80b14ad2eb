//! Exact outcome pins for both live rollout paths.
//!
//! Plain Storm rolls assignments out through `submit_assignment`
//! (kill-and-restart at the next supervisor poll); T-Storm rolls them
//! out node by node through `apply_assignment_for_node` (the smooth
//! switch of Section IV-D). Each run below drives one path through a
//! fault plan and asserts the run's scalars exactly, so a refactor of
//! either path that changes any outcome fails here. The T-Storm run
//! also raises one overload, which pins the overload-detection and
//! liveness constants of the control plane.

use tstorm_cli::args::RunOptions;
use tstorm_cli::scenario::{run_scenario, Topology};
use tstorm_core::SystemMode;

/// The scalars one pinned run must reproduce.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    completed: u64,
    emitted: u64,
    failed: u64,
    tuples_lost: u64,
    perm_failed: u64,
    generations: u32,
    rollouts: u32,
    overloads: u32,
    recoveries: u32,
    queue_high_water: u64,
}

fn outcome(opts: &RunOptions) -> Pin {
    let o = run_scenario(opts).expect("scenario runs");
    Pin {
        completed: o.completed,
        emitted: o.emitted,
        failed: o.failed,
        tuples_lost: o.tuples_lost,
        perm_failed: o.perm_failed,
        generations: o.generations,
        rollouts: o.reassignments,
        overloads: o.overload_events,
        recoveries: o.recovery_events,
        queue_high_water: o.engine.queue_high_water,
    }
}

fn faults(specs: &[&str]) -> Vec<String> {
    specs.iter().map(|s| (*s).to_owned()).collect()
}

#[test]
fn storm_kill_and_restart_rollouts_are_pinned() {
    let opts = RunOptions {
        topology: Topology::Throughput,
        mode: SystemMode::StormDefault,
        duration_secs: 400,
        seed: 9,
        quiet: true,
        faults: faults(&[
            "node-crash@t=100,node=3,restart=60",
            "worker-crash@t=300,node=1,slot=0",
        ]),
        ..RunOptions::default()
    };
    assert_eq!(
        outcome(&opts),
        Pin {
            completed: 386_634,
            emitted: 389_657,
            failed: 3_018,
            tuples_lost: 6_222,
            perm_failed: 0,
            generations: 0,
            rollouts: 3,
            overloads: 0,
            recoveries: 2,
            queue_high_water: 30_054,
        }
    );
}

#[test]
fn tstorm_per_node_smooth_rollouts_are_pinned() {
    let opts = RunOptions {
        topology: Topology::LogStream,
        mode: SystemMode::TStorm,
        duration_secs: 700,
        seed: 5,
        quiet: true,
        faults: faults(&[
            "node-crash@t=200,node=2",
            "heartbeat-loss@t=350,node=4,dur=40",
            "nimbus-crash@t=420,dur=30",
        ]),
        ..RunOptions::default()
    };
    assert_eq!(
        outcome(&opts),
        Pin {
            completed: 210_019,
            emitted: 210_404,
            failed: 384,
            tuples_lost: 456,
            perm_failed: 0,
            generations: 3,
            rollouts: 14,
            overloads: 1,
            recoveries: 1,
            queue_high_water: 21_208,
        }
    );
}
