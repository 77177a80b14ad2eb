//! `inspect` — renders a flight recording produced by
//! `tstorm --flight-recorder PATH`.
//!
//! ```text
//! inspect RECORDING.jsonl [--section breakdown|heatmap|timeline|windows|decisions]...
//! ```
//!
//! Reads the JSONL artifact back through [`tstorm_trace::parse_recording`]
//! and prints the run's provenance (the `meta` line), then each section
//! of [`tstorm_trace::view`] under its `== title ==` heading: every
//! section in order by default, or those `--section` names. Malformed
//! arguments exit 2; a missing, empty or versionless file exits 1 with
//! the parser's `no recording: …` message so CI can distinguish
//! "nothing was recorded" from a rendering bug.

use std::process::ExitCode;
use tstorm_trace::parse_recording;
use tstorm_trace::view::{self, SECTIONS};

const USAGE: &str =
    "usage: inspect RECORDING.jsonl [--section breakdown|heatmap|timeline|windows|decisions]...";

fn main() -> ExitCode {
    let mut path: Option<String> = None;
    let mut sections = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--section" => match it.next() {
                Some(s) => match SECTIONS.iter().find(|(name, ..)| *name == s) {
                    Some(section) => sections.push(section),
                    None => {
                        let names: Vec<&str> = SECTIONS.iter().map(|(name, ..)| *name).collect();
                        eprintln!("error: unknown section `{s}` (expected one of {names:?})");
                        return ExitCode::from(2);
                    }
                },
                None => {
                    eprintln!("error: --section requires a value");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if path.is_none() && !other.starts_with('-') => path = Some(arg),
            other => {
                eprintln!("error: unexpected argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    let Some(path) = path else {
        eprintln!("error: no recording: no file given (usage: inspect RECORDING.jsonl)");
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: no recording: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let run = match parse_recording(&text) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if sections.is_empty() {
        sections = SECTIONS.iter().collect();
    }
    print!("== recording ==\n{}", view::meta(&run));
    for (_, title, render) in sections {
        print!("\n== {title} ==\n{}", render(&run));
    }
    ExitCode::SUCCESS
}
