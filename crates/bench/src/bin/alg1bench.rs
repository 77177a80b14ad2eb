//! `alg1bench` — std-timer measurement of the schedulers' solve times.
//!
//! It prints two tables, both medians of `--iters` iterations timed
//! with `std::time::Instant`:
//!
//! 1. every built-in scheduler's cold solve on the paper-sized
//!    Throughput Test problem (45 executors over the 10-node / 40-slot
//!    testbed, diffuse shuffle traffic);
//! 2. Algorithm 1's full solve at scale, per executor count, on a chain
//!    input over `--nodes` × `--slots` (the DESIGN.md §3 "Alg. 1
//!    complexity" row).
//!
//! ```text
//! alg1bench [--ne N[,N]...] [--nodes K] [--slots S] [--iters I]
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

const USAGE: &str = "usage: alg1bench [--ne N[,N]...] [--nodes K] [--slots S] [--iters I]";

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
}

/// `Ok(None)` means `--help` was asked for.
fn parse_args() -> Result<Option<Options>, String> {
    let mut opts = Options {
        ne: vec![1_000, 5_000, 10_000],
        nodes: 100,
        slots: 4,
        iters: 9,
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
/// problem: a fresh scheduler per iteration.
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

/// Algorithm 1's full solve time per executor count.
fn scaling_table(opts: &Options) -> Result<(), String> {
    println!(
        "Algorithm 1 full solve — {} nodes x {} slots, chain traffic, median of {} iters",
        opts.nodes, opts.slots, opts.iters,
    );
    println!("{:>10} {:>14}", "Ne", "full (ms)");
    for &ne in &opts.ne {
        let infeasible = |e| {
            format!(
                "Ne={ne} does not fit {} nodes x {} slots: {e}",
                opts.nodes, opts.slots
            )
        };
        let input = chain_input(ne, opts.nodes, opts.slots)?;
        let mut scheduler = TStormScheduler::new();
        let mut times = Vec::new();
        for _ in 0..opts.iters {
            let t = Instant::now();
            let a = scheduler.schedule(&input).map_err(infeasible)?;
            times.push(t.elapsed().as_secs_f64() * 1e3);
            std::hint::black_box(a);
            // A relaxed solve runs up to three slot scans per executor,
            // so it would not time the algorithm this row is about.
            if let Some(first) = scheduler.relaxations().first() {
                return Err(format!(
                    "Ne={ne} does not fit {} nodes x {} slots without relaxing \
                     Algorithm 1's constraints ({first})",
                    opts.nodes, opts.slots
                ));
            }
        }
        println!("{ne:>10} {:>14.3}", median(times));
    }
    Ok(())
}
