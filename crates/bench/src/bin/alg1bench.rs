//! `alg1bench` — std-timer measurement of the schedulers' solve times.
//!
//! It prints two tables, both medians of `--iters` iterations timed
//! with `std::time::Instant`:
//!
//! 1. every built-in scheduler's cold solve on the paper-sized
//!    Throughput Test problem (45 executors over the 10-node / 40-slot
//!    testbed, diffuse shuffle traffic);
//! 2. Algorithm 1's full solve versus the incremental replay path, at
//!    scale: for each executor count it times (a) the full solve on
//!    fresh inputs, and (b) the incremental replay on load-only
//!    perturbations of a cached solve, verifying on every iteration that
//!    the replay actually took the incremental path and (once per size)
//!    that its assignment equals a fresh full re-solve.
//!
//! ```text
//! alg1bench [--ne N[,N]...] [--nodes K] [--slots S] [--iters I]
//!           [--fraction F]
//! ```
//!
//! Malformed or infeasible arguments exit 2 with a message; `--help`
//! prints the usage and exits 0.

use std::process::ExitCode;
use std::time::Instant;
use tstorm_cluster::ClusterSpec;
use tstorm_sched::{
    ExecutorInfo, SchedParams, Scheduler, SchedulerRegistry, SchedulingInput, TStormScheduler,
    TrafficMatrix,
};
use tstorm_types::{ComponentId, ExecutorId, Mhz, TopologyId};

const USAGE: &str = "usage: alg1bench [--ne N[,N]...] [--nodes K] [--slots S] [--iters I] \
                     [--fraction F]";

/// Throughput-Test-shaped input: 5 spouts -> 15 identities -> 15
/// counters -> 10 ackers, with diffuse shuffle traffic between stages.
fn throughput_like_input() -> SchedulingInput {
    let cluster = ClusterSpec::homogeneous(10, 4, Mhz::new(8000.0)).expect("valid testbed");
    let stage = |base: u32, count: u32| -> Vec<ExecutorId> {
        (0..count).map(|i| ExecutorId::new(base + i)).collect()
    };
    let spouts = stage(0, 5);
    let identities = stage(5, 15);
    let counters = stage(20, 15);
    let ackers = stage(35, 10);

    let mut executors = Vec::new();
    for (comp, ids) in [
        (0u32, &spouts),
        (1, &identities),
        (2, &counters),
        (3, &ackers),
    ] {
        for id in ids {
            executors.push(ExecutorInfo::new(
                *id,
                TopologyId::new(0),
                ComponentId::new(comp),
                Mhz::new(50.0),
            ));
        }
    }

    let mut traffic = TrafficMatrix::new();
    let connect =
        |traffic: &mut TrafficMatrix, from: &[ExecutorId], to: &[ExecutorId], total: f64| {
            let per = total / (from.len() * to.len()) as f64;
            for f in from {
                for t in to {
                    traffic.set(*f, *t, per);
                }
            }
        };
    connect(&mut traffic, &spouts, &identities, 1000.0);
    connect(&mut traffic, &identities, &counters, 1000.0);
    connect(&mut traffic, &spouts, &ackers, 1000.0);
    connect(&mut traffic, &identities, &ackers, 1000.0);
    connect(&mut traffic, &counters, &ackers, 1000.0);

    SchedulingInput::new(
        cluster,
        executors,
        traffic,
        SchedParams::default()
            .with_gamma(1.7)
            .with_workers(TopologyId::new(0), 40),
    )
    .with_component_edges(vec![
        (TopologyId::new(0), ComponentId::new(0), ComponentId::new(1)),
        (TopologyId::new(0), ComponentId::new(1), ComponentId::new(2)),
    ])
}

/// A chain of `ne` executors over `nodes`×`slots_per_node` slots.
fn chain_input(ne: u32, nodes: u32, slots_per_node: u32) -> Result<SchedulingInput, String> {
    let cluster = ClusterSpec::homogeneous(nodes, slots_per_node, Mhz::new(8000.0))
        .map_err(|e| format!("{nodes} nodes x {slots_per_node} slots: {e}"))?;
    let executors: Vec<ExecutorInfo> = (0..ne)
        .map(|i| {
            ExecutorInfo::new(
                ExecutorId::new(i),
                TopologyId::new(0),
                ComponentId::new(i % 8),
                Mhz::new(20.0),
            )
        })
        .collect();
    let mut traffic = TrafficMatrix::new();
    for i in 0..ne.saturating_sub(1) {
        traffic.set(
            ExecutorId::new(i),
            ExecutorId::new(i + 1),
            100.0 + f64::from(i),
        );
    }
    Ok(SchedulingInput::new(
        cluster,
        executors,
        traffic,
        SchedParams::default().with_gamma(2.0),
    ))
}

/// Deterministically perturbs the loads of roughly `fraction` of the
/// executors (LCG-driven, seeded) — the load-only delta the monitor
/// hands the scheduler between windows.
fn perturb_loads(input: &mut SchedulingInput, seed: u64, fraction: f64) {
    let mut state = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
    let mut next = || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) as f64 / (1u64 << 31) as f64
    };
    for e in &mut input.executors {
        if next() < fraction {
            let factor = 0.8 + 0.4 * next();
            *e = ExecutorInfo::new(
                e.id,
                e.topology,
                e.component,
                Mhz::new(e.load.get() * factor),
            );
        }
    }
}

/// Median of a non-empty sample (`--iters` is validated positive).
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Parses a strictly positive integer flag value.
fn positive(flag: &str, raw: &str) -> Result<u32, String> {
    raw.parse::<u32>()
        .ok()
        .filter(|n| *n > 0)
        .ok_or_else(|| format!("{flag}: `{raw}` is not a positive integer"))
}

struct Options {
    ne: Vec<u32>,
    nodes: u32,
    slots: u32,
    iters: u32,
    fraction: f64,
}

/// `Ok(None)` means `--help` was asked for.
fn parse_args() -> Result<Option<Options>, String> {
    let mut opts = Options {
        ne: vec![1_000, 5_000, 10_000],
        nodes: 100,
        slots: 4,
        iters: 9,
        fraction: 0.05,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--ne" => {
                opts.ne = value("--ne")?
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse::<u32>()
                            .ok()
                            .filter(|n| *n > 1)
                            .ok_or_else(|| format!("--ne: `{s}` is not a valid executor count"))
                    })
                    .collect::<Result<Vec<u32>, String>>()?;
            }
            "--nodes" => opts.nodes = positive("--nodes", &value("--nodes")?)?,
            "--slots" => opts.slots = positive("--slots", &value("--slots")?)?,
            "--iters" => opts.iters = positive("--iters", &value("--iters")?)?,
            "--fraction" => {
                opts.fraction = value("--fraction")?
                    .parse()
                    .map_err(|_| "--fraction must be a number".to_owned())?;
                if !(0.0..=0.25).contains(&opts.fraction) {
                    return Err("--fraction must be within [0, 0.25] (the incremental gate)".into());
                }
            }
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Some(opts))
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(Some(o)) => o,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    scheduler_table(opts.iters);
    match scaling_table(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// Cold solve time of every built-in scheduler on the paper-sized
/// problem: a fresh scheduler per iteration, so no solve cache helps.
fn scheduler_table(iters: u32) {
    let input = throughput_like_input();
    let registry = SchedulerRegistry::with_builtins();
    println!("Scheduler solve on the Throughput Test (45 executors, 10 nodes x 4 slots), median of {iters} iters");
    println!("{:>16} {:>12}", "scheduler", "solve (us)");
    for name in registry.names() {
        let times = (0..iters)
            .map(|_| {
                let mut s = registry.create(name).expect("registered name");
                let t = Instant::now();
                let a = s.schedule(&input).expect("the testbed problem is feasible");
                let us = t.elapsed().as_secs_f64() * 1e6;
                std::hint::black_box(a);
                us
            })
            .collect();
        println!("{name:>16} {:>12.1}", median(times));
    }
    println!();
}

/// Full Algorithm 1 solve versus incremental replay per executor count.
fn scaling_table(opts: &Options) -> Result<(), String> {
    println!(
        "Algorithm 1 full solve vs incremental replay — {} nodes x {} slots, \
         {:.0}% of loads perturbed per window, median of {} iters",
        opts.nodes,
        opts.slots,
        opts.fraction * 100.0,
        opts.iters,
    );
    println!(
        "{:>10} {:>14} {:>14} {:>9}",
        "Ne", "full (ms)", "incr (ms)", "speedup"
    );
    for &ne in &opts.ne {
        let infeasible = |e| {
            format!(
                "Ne={ne} does not fit {} nodes x {} slots: {e}",
                opts.nodes, opts.slots
            )
        };
        // Prime the incremental arm's cache with one full solve. Only an
        // unrelaxed solve is cached, so a size that forces Algorithm 1
        // to relax its constraints has nothing to replay.
        let mut inc = TStormScheduler::new();
        let inc_input = chain_input(ne, opts.nodes, opts.slots)?;
        inc.schedule(&inc_input).map_err(infeasible)?;
        if let Some(first) = inc.relaxations().first() {
            return Err(format!(
                "Ne={ne} does not fit {} nodes x {} slots without relaxing \
                 Algorithm 1's constraints ({first}); the incremental replay \
                 needs an unrelaxed solve",
                opts.nodes, opts.slots
            ));
        }

        // Full solve: incremental disabled, every call re-runs Algorithm 1.
        let mut full = TStormScheduler::new();
        full.set_incremental(false);
        let mut full_times = Vec::new();
        let mut input = chain_input(ne, opts.nodes, opts.slots)?;
        for i in 0..opts.iters {
            perturb_loads(&mut input, u64::from(i) + 1, opts.fraction);
            let t = Instant::now();
            let a = full.schedule(&input).map_err(infeasible)?;
            full_times.push(t.elapsed().as_secs_f64() * 1e3);
            std::hint::black_box(a);
        }

        // Incremental: time replays over load-only perturbations.
        let mut input = inc_input;
        let mut inc_times = Vec::new();
        for i in 0..opts.iters {
            perturb_loads(&mut input, u64::from(i) + 1, opts.fraction);
            let t = Instant::now();
            let a = inc.schedule(&input).map_err(infeasible)?;
            inc_times.push(t.elapsed().as_secs_f64() * 1e3);
            assert!(
                inc.last_solve_was_incremental(),
                "Ne={ne} iter {i}: replay fell back to a full solve"
            );
            std::hint::black_box(&a);
            if i == 0 {
                // Exactness spot-check: the replay must equal a fresh
                // full re-solve of the same input.
                let mut fresh = TStormScheduler::new();
                fresh.set_incremental(false);
                let b = fresh.schedule(&input).map_err(infeasible)?;
                assert_eq!(a, b, "Ne={ne}: incremental replay diverged from full solve");
            }
        }

        let f = median(full_times);
        let i = median(inc_times);
        println!("{ne:>10} {f:>14.3} {i:>14.3} {:>8.1}x", f / i);
    }
    Ok(())
}
