//! Strict parsing of the `[duration_secs] [seed]` positionals that
//! `repro` targets take.
//!
//! The original figure binaries parsed positionals with
//! `.and_then(|s| s.parse().ok()).unwrap_or(default)`, so a typo like
//! `fig5 100O` silently ran the 1000 s default instead of erroring —
//! an entire paper-scale run wasted on a malformed invocation. The
//! parser here reports anything it does not understand.

/// The `[duration_secs] [seed]` positionals a `repro` target takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FigArgs {
    /// Virtual run length in seconds.
    pub duration_secs: u64,
    /// Base RNG seed.
    pub seed: u64,
}

/// Outcome of strict parsing, before process-exit policy is applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Parsed {
    /// Arguments were well-formed.
    Ok(FigArgs),
    /// `--help`/`-h` was requested: print usage, exit zero.
    Help,
    /// Malformed input: print the message, exit non-zero.
    Error(String),
}

/// Checks that a virtual duration fits the engine's clock, which counts
/// microseconds in a `u64`. `SimTime::from_secs` does not check, so a
/// longer run would silently wrap around to a much shorter one.
///
/// # Errors
///
/// Returns the reason when `secs` microseconds overflow `u64`.
pub fn check_duration_secs(secs: u64) -> Result<u64, String> {
    secs.checked_mul(1_000_000).map(|_| secs).ok_or_else(|| {
        format!(
            "overflows the microsecond clock (at most {} s)",
            u64::MAX / 1_000_000
        )
    })
}

/// Parses the standard `[duration_secs] [seed]` positionals strictly:
/// a value that does not parse as `u64`, a duration that overflows the
/// clock ([`check_duration_secs`]), or any extra argument, is an
/// error — never silently replaced by the default.
pub fn parse_fig_args<I>(args: I, default_duration: u64, default_seed: u64) -> Parsed
where
    I: IntoIterator<Item = String>,
{
    let mut values = [default_duration, default_seed];
    const NAMES: [&str; 2] = ["duration_secs", "seed"];
    for (slot, arg) in args.into_iter().enumerate() {
        if arg == "--help" || arg == "-h" {
            return Parsed::Help;
        }
        if arg.starts_with('-') && arg.parse::<u64>().is_err() {
            return Parsed::Error(format!("unknown flag `{arg}`"));
        }
        if slot >= values.len() {
            return Parsed::Error(format!("unexpected extra argument `{arg}`"));
        }
        let parsed = arg
            .parse::<u64>()
            .map_err(|_| "expected an unsigned integer".to_owned());
        let parsed = if slot == 0 {
            parsed.and_then(check_duration_secs)
        } else {
            parsed
        };
        match parsed {
            Ok(v) => values[slot] = v,
            Err(why) => return Parsed::Error(format!("invalid {} `{arg}`: {why}", NAMES[slot])),
        }
    }
    Parsed::Ok(FigArgs {
        duration_secs: values[0],
        seed: values[1],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Parsed {
        parse_fig_args(args.iter().map(|s| (*s).to_owned()), 1000, 42)
    }

    #[test]
    fn defaults_apply_with_no_args() {
        assert_eq!(
            parse(&[]),
            Parsed::Ok(FigArgs {
                duration_secs: 1000,
                seed: 42
            })
        );
    }

    #[test]
    fn positionals_override_defaults() {
        assert_eq!(
            parse(&["120", "7"]),
            Parsed::Ok(FigArgs {
                duration_secs: 120,
                seed: 7
            })
        );
        assert_eq!(
            parse(&["120"]),
            Parsed::Ok(FigArgs {
                duration_secs: 120,
                seed: 42
            })
        );
    }

    #[test]
    fn typo_is_an_error_not_the_default() {
        // The motivating bug: `fig5 100O` (letter O) used to run 1000 s.
        let Parsed::Error(msg) = parse(&["100O"]) else {
            panic!("`100O` must be rejected");
        };
        assert!(msg.contains("100O"), "message names the bad value: {msg}");
        assert!(matches!(parse(&["120", "4x"]), Parsed::Error(_)));
        assert!(matches!(parse(&["-5"]), Parsed::Error(_)));
    }

    #[test]
    fn durations_must_fit_the_microsecond_clock() {
        let max = u64::MAX / 1_000_000;
        assert_eq!(
            parse(&[&max.to_string()]),
            Parsed::Ok(FigArgs {
                duration_secs: max,
                seed: 42
            })
        );
        let Parsed::Error(msg) = parse(&[&(max + 1).to_string()]) else {
            panic!("a duration past the clock must be rejected");
        };
        assert!(msg.contains("18446744073710"), "names the value: {msg}");
        // Seeds are not durations: any u64 goes.
        assert!(matches!(
            parse(&["10", "18446744073709551615"]),
            Parsed::Ok(_)
        ));
    }

    #[test]
    fn extra_arguments_are_rejected() {
        assert!(matches!(parse(&["120", "7", "9"]), Parsed::Error(_)));
    }

    #[test]
    fn unknown_flags_are_rejected_and_help_is_honoured() {
        assert!(matches!(parse(&["--frobnicate"]), Parsed::Error(_)));
        assert_eq!(parse(&["--help"]), Parsed::Help);
        assert_eq!(parse(&["-h"]), Parsed::Help);
    }
}
