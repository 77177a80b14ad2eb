//! Reproduces one table or figure of the paper's evaluation
//! (Section V); `tstorm_bench::repro` lists the targets.
//!
//! Usage: `repro <name> [duration_secs] [seed]`, where `<name>` is the
//! basename of a `results/*.txt` file, e.g. `repro fig5 300 7`.

use std::process::ExitCode;
use tstorm_bench::args::{parse_fig_args, FigArgs, Parsed};
use tstorm_bench::repro::{self, Render, DEFAULT_SEED};

/// Strict parsing: a missing or unknown target, junk positionals and
/// any argument to a target that takes none are all errors, returned
/// as `Err(Some(message))`; `Err(None)` asks for the usage text.
fn parse(mut args: impl Iterator<Item = String>) -> Result<(Render, FigArgs), Option<String>> {
    let name = args
        .next()
        .ok_or_else(|| Some("missing the target name".into()))?;
    if name == "--help" || name == "-h" {
        return Err(None);
    }
    let (secs, render) =
        repro::target(&name).ok_or_else(|| Some(format!("unknown target `{name}`")))?;
    let rest: Vec<String> = args.collect();
    if secs.is_none() && rest.iter().any(|a| a != "--help" && a != "-h") {
        return Err(Some(format!("`{name}` takes no arguments, got {rest:?}")));
    }
    match parse_fig_args(rest, secs.unwrap_or(0), DEFAULT_SEED) {
        Parsed::Ok(args) => Ok((render, args)),
        Parsed::Help => Err(None),
        Parsed::Error(msg) => Err(Some(msg)),
    }
}

fn main() -> ExitCode {
    match parse(std::env::args().skip(1)) {
        Ok((render, args)) => {
            render(args.duration_secs, args.seed);
            ExitCode::SUCCESS
        }
        Err(None) => {
            println!("{}", repro::usage());
            ExitCode::SUCCESS
        }
        Err(Some(msg)) => {
            eprintln!("repro: {msg}\n{}", repro::usage());
            ExitCode::from(2)
        }
    }
}
