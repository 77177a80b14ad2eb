//! `tstorm-sweep` — run a multi-seed scenario grid on a thread pool and
//! aggregate the results deterministically.
//!
//! Usage:
//!
//! ```text
//! sweep [--workloads LIST] [--modes LIST] [--gammas LIST] [--seeds N]
//!       [--base-seed N] [--duration SECS] [--threads N]
//!       [--fault SPEC]... [--out PATH]
//! ```
//!
//! Defaults: `--workloads throughput --modes storm,tstorm
//! --gammas 1.0,1.7 --seeds 3 --base-seed 42 --duration 120 --threads 1
//! --out SWEEP_results.json`.
//!
//! The JSON artifact is a pure function of the grid and the per-trial
//! reports — byte-identical for any `--threads` value. Wall-clock time
//! is printed to stdout only, never written into the artifact.

use std::process::ExitCode;
use std::time::Instant;
use tstorm_bench::args::check_duration_secs;
use tstorm_bench::experiments::AppWorkload;
use tstorm_bench::sweep::{mode_from_name, render_sweep_json, run_sweep, SweepGrid};
use tstorm_metrics::render_aggregate_table;

const USAGE: &str = "usage: sweep [--workloads LIST] [--modes LIST] [--gammas LIST]\n\
     \x20            [--seeds N] [--base-seed N] [--duration SECS] [--threads N]\n\
     \x20            [--fault SPEC]... [--out PATH]\n\
\n\
  --workloads   comma list of throughput,wordcount,logstream (default: throughput)\n\
  --modes       comma list of storm,tstorm (default: storm,tstorm)\n\
  --gammas      comma list of consolidation factors (default: 1.0,1.7)\n\
  --seeds       trials per grid cell (default: 3)\n\
  --base-seed   base seed for per-trial derivation (default: 42)\n\
  --duration    virtual seconds per trial (default: 120)\n\
  --threads     worker threads; 1 runs inline (default: 1)\n\
  --fault       fault spec applied to every trial; repeatable\n\
  --out         path for the SWEEP_*.json artifact (default: SWEEP_results.json)";

struct Cli {
    grid: SweepGrid,
    threads: usize,
    out: String,
}

fn fail(msg: &str) -> Result<Cli, String> {
    Err(msg.to_owned())
}

fn parse_u64(flag: &str, value: &str) -> Result<u64, String> {
    value
        .parse::<u64>()
        .map_err(|_| format!("sweep: invalid value `{value}` for {flag} (expected an integer)"))
}

fn parse_cli(args: &[String]) -> Result<Option<Cli>, String> {
    let mut grid = SweepGrid::default();
    let mut threads = 1usize;
    let mut out = "SWEEP_results.json".to_owned();
    let mut faults: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value_of = |flag: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("sweep: {flag} requires a value"))
        };
        match arg.as_str() {
            "--help" | "-h" => return Ok(None),
            "--workloads" => {
                let v = value_of("--workloads")?;
                grid.workloads = v
                    .split(',')
                    .map(|name| {
                        AppWorkload::from_name(name).ok_or_else(|| {
                            format!(
                                "sweep: unknown workload `{name}` \
                                 (expected throughput, wordcount or logstream)"
                            )
                        })
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--modes" => {
                let v = value_of("--modes")?;
                grid.modes = v
                    .split(',')
                    .map(|name| {
                        mode_from_name(name).ok_or_else(|| {
                            format!("sweep: unknown mode `{name}` (expected storm or tstorm)")
                        })
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--gammas" => {
                let v = value_of("--gammas")?;
                grid.gammas = v
                    .split(',')
                    .map(|g| {
                        g.parse::<f64>()
                            .ok()
                            .filter(|g| g.is_finite() && *g > 0.0)
                            .ok_or_else(|| format!("sweep: invalid gamma `{g}`"))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--seeds" => {
                let v = value_of("--seeds")?;
                grid.seeds = u32::try_from(parse_u64("--seeds", &v)?)
                    .map_err(|_| format!("sweep: --seeds value `{v}` is out of range"))?;
            }
            "--base-seed" => {
                let v = value_of("--base-seed")?;
                grid.base_seed = parse_u64("--base-seed", &v)?;
            }
            "--duration" => {
                let v = value_of("--duration")?;
                grid.duration_secs = check_duration_secs(parse_u64("--duration", &v)?)
                    .map_err(|why| format!("sweep: --duration `{v}` {why}"))?;
            }
            "--threads" => {
                let v = value_of("--threads")?;
                let t = parse_u64("--threads", &v)?;
                if t == 0 {
                    return fail("sweep: --threads must be at least 1").map(Some);
                }
                threads = usize::try_from(t)
                    .map_err(|_| format!("sweep: --threads value `{v}` is out of range"))?;
            }
            "--fault" => faults.push(value_of("--fault")?),
            "--out" => out = value_of("--out")?,
            other => {
                return Err(format!("sweep: unknown argument `{other}`"));
            }
        }
    }
    grid.faults = faults;
    Ok(Some(Cli { grid, threads, out }))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(Some(cli)) => cli,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let trial_count = match cli.grid.expand() {
        Ok(specs) => specs.len(),
        Err(e) => {
            eprintln!("sweep: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "Sweep: {} trial(s) across {} workload(s) x {} mode(s) x {} gamma(s), \
         {} seed(s)/cell, {}s each, {} thread(s)\n",
        trial_count,
        cli.grid.workloads.len(),
        cli.grid.modes.len(),
        cli.grid.gammas.len(),
        cli.grid.seeds,
        cli.grid.duration_secs,
        cli.threads,
    );

    let started = Instant::now();
    let results = match run_sweep(&cli.grid, cli.threads) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("sweep: {e}");
            return ExitCode::from(2);
        }
    };
    let elapsed = started.elapsed();

    print!("{}", render_aggregate_table(&results.aggregates));
    println!(
        "\n{} trial(s) in {:.2}s wall clock on {} thread(s)",
        results.trials.len(),
        elapsed.as_secs_f64(),
        cli.threads,
    );

    let json = render_sweep_json(&results);
    if let Err(e) = std::fs::write(&cli.out, &json) {
        eprintln!("sweep: failed to write {}: {e}", cli.out);
        return ExitCode::FAILURE;
    }
    println!("wrote {} ({} bytes)", cli.out, json.len());
    ExitCode::SUCCESS
}
