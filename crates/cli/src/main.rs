//! `tstorm` binary entry point.

use std::process::ExitCode;
use tstorm_cli::args::{self, Command, USAGE};
use tstorm_cli::scenario::run_scenario;
use tstorm_core::SystemMode;
use tstorm_metrics::ComparisonRow;
use tstorm_sched::SchedulerRegistry;
use tstorm_types::SimTime;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let command = match args::parse(argv.iter()) {
        Ok(c) => c,
        Err(e) => {
            // Exit 2 for malformed invocations, matching the bench
            // binaries' strict-args convention (1 is a runtime failure).
            eprintln!("error: {e}");
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match command {
        Command::Help => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Command::Schedulers => {
            for name in SchedulerRegistry::with_builtins().names() {
                println!("{name}");
            }
            ExitCode::SUCCESS
        }
        Command::Run(opts) => match run_scenario(&opts) {
            Ok(outcome) => {
                if !opts.quiet {
                    println!("{}", outcome.report.render_table());
                    if !outcome.timeline.is_empty() {
                        println!("control plane:");
                        print!("{}", tstorm_core::render_timeline(&outcome.timeline));
                        println!();
                    }
                }
                println!("{}", outcome.summary(opts.duration_secs));
                if opts.engine_stats {
                    println!("{}", outcome.engine_summary());
                }
                if let Some(path) = &opts.csv {
                    if let Err(e) = std::fs::write(path, outcome.report.render_csv()) {
                        eprintln!("error: writing {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                    println!("series written to {path}");
                }
                if let Some(path) = &opts.trace {
                    println!("trace written to {path}");
                }
                if let Some(path) = &opts.prom {
                    println!("metrics written to {path}");
                }
                if let Some(path) = &opts.flight_recorder {
                    let lines = outcome.recorder_lines.unwrap_or(0);
                    println!("flight recording written to {path} ({lines} lines)");
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        Command::Compare(opts) => {
            let mut storm_opts = opts.clone();
            storm_opts.mode = SystemMode::StormDefault;
            let mut tstorm_opts = opts.clone();
            tstorm_opts.mode = SystemMode::TStorm;
            let (storm, tstorm) = match (run_scenario(&storm_opts), run_scenario(&tstorm_opts)) {
                (Ok(a), Ok(b)) => (a, b),
                (Err(e), _) | (_, Err(e)) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if !opts.quiet {
                println!("{}", storm.report.render_table());
                println!("{}", tstorm.report.render_table());
            }
            println!("Storm:   {}", storm.summary(opts.duration_secs));
            println!("T-Storm: {}", tstorm.summary(opts.duration_secs));
            if opts.engine_stats {
                println!("Storm   {}", storm.engine_summary());
                println!("T-Storm {}", tstorm.engine_summary());
            }
            let stable = SimTime::from_secs(opts.duration_secs / 2);
            if let Some(row) = ComparisonRow::from_reports(
                format!("{} gamma={}", opts.topology.name(), opts.gamma),
                &storm.report,
                &tstorm.report,
                stable,
            ) {
                println!("\n{}", ComparisonRow::render_table(&[row]));
            }
            ExitCode::SUCCESS
        }
    }
}
