//! The run flight recorder: a versioned JSONL artifact of windowed
//! cluster state, scheduler decisions and control-plane events.
//!
//! A recording is a sequence of JSON objects, one per line. The first
//! line is always a `meta` object carrying the format version and run
//! provenance (scenario, seed, configuration); every later line has a
//! `type` discriminator and a `t` virtual timestamp in microseconds:
//!
//! ```text
//! {"type":"meta","v":1,"scenario":"wordcount","seed":42,...}
//! {"type":"window","t":20000000,"executors":[...],"nodes":[...],...}
//! {"type":"decision","t":20000000,"epoch":1,"algorithm":"t-storm",...}
//! {"type":"control","t":20000000,"event":"schedule_published",...}
//! {"type":"critical_path","t":120000000,"roots":9000,...}
//! ```
//!
//! The writer never consults wall-clock time or randomness; same-seed
//! runs produce byte-identical recordings. [`parse_recording`] is the
//! reading half used by the `inspect` tool and tests.

use crate::json::{parse, JsonValue, ObjectWriter};
use std::io::{self, Write};
use tstorm_types::SimTime;

/// Current recording format version, written into the `meta` line.
pub const FLIGHT_RECORDER_VERSION: u64 = 1;

/// Streams flight-recorder lines to any writer.
#[derive(Debug)]
pub struct FlightRecorder<W: Write + Send> {
    out: W,
    lines: u64,
}

impl<W: Write + Send> FlightRecorder<W> {
    /// Wraps a writer; callers streaming to disk should pass a
    /// `BufWriter`.
    pub fn new(out: W) -> Self {
        Self { out, lines: 0 }
    }

    /// Writes the leading `meta` line. `fill` adds provenance fields
    /// after the fixed `type`/`v` prefix.
    pub fn meta(&mut self, fill: impl FnOnce(&mut ObjectWriter)) {
        let mut o = ObjectWriter::new();
        o.str("type", "meta").u64("v", FLIGHT_RECORDER_VERSION);
        fill(&mut o);
        self.write_line(&o.finish());
    }

    /// Writes one timestamped line of kind `kind` (`window`,
    /// `decision`, `control`, `critical_path`, …).
    pub fn line(&mut self, kind: &str, at: SimTime, fill: impl FnOnce(&mut ObjectWriter)) {
        let mut o = ObjectWriter::new();
        o.str("type", kind).u64("t", at.as_micros());
        fill(&mut o);
        self.write_line(&o.finish());
    }

    fn write_line(&mut self, line: &str) {
        // Recording is best-effort, like the trace: a full disk must
        // not abort the simulation.
        if writeln!(self.out, "{line}").is_ok() {
            self.lines += 1;
        }
    }

    /// Lines written so far.
    #[must_use]
    pub fn lines_written(&self) -> u64 {
        self.lines
    }

    /// Flushes the underlying writer.
    pub fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }

    /// Flushes and returns the inner writer.
    pub fn into_inner(mut self) -> io::Result<W> {
        self.out.flush()?;
        Ok(self.out)
    }
}

/// A parsed recording: the `meta` object plus every later line in file
/// order.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordedRun {
    /// The leading `meta` object.
    pub meta: JsonValue,
    /// Every subsequent line, in order.
    pub lines: Vec<JsonValue>,
}

impl RecordedRun {
    /// All lines whose `type` field equals `kind`, in order.
    #[must_use]
    pub fn lines_of(&self, kind: &str) -> Vec<&JsonValue> {
        self.lines
            .iter()
            .filter(|l| l.get("type").and_then(JsonValue::as_str) == Some(kind))
            .collect()
    }
}

/// Parses a flight recording, validating the leading `meta` line and
/// the format version.
///
/// # Errors
///
/// Returns a human-readable message when the input is empty, is not
/// JSONL, does not start with a `meta` line, or has an unsupported
/// version.
pub fn parse_recording(text: &str) -> Result<RecordedRun, String> {
    let mut lines = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty());
    let Some((_, first)) = lines.next() else {
        return Err("no recording: the file is empty".to_owned());
    };
    let meta = parse(first).ok_or("no recording: first line is not valid JSON".to_owned())?;
    if meta.get("type").and_then(JsonValue::as_str) != Some("meta") {
        return Err("no recording: first line is not a meta object".to_owned());
    }
    match meta.get("v").and_then(JsonValue::as_f64) {
        Some(v) if v == FLIGHT_RECORDER_VERSION as f64 => {}
        Some(v) => return Err(format!("unsupported recording version {v}")),
        None => return Err("no recording: meta line lacks a version".to_owned()),
    }
    let mut parsed = Vec::new();
    for (idx, line) in lines {
        let value = parse(line).ok_or_else(|| format!("line {}: not valid JSON", idx + 1))?;
        parsed.push(value);
    }
    Ok(RecordedRun {
        meta,
        lines: parsed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_and_parses_a_recording() {
        let mut rec = FlightRecorder::new(Vec::new());
        rec.meta(|o| {
            o.str("scenario", "wordcount").u64("seed", 42);
        });
        rec.line("window", SimTime::from_secs(20), |o| {
            o.u64("queue_depth", 3);
        });
        rec.line("control", SimTime::from_secs(21), |o| {
            o.str("event", "schedule_published");
        });
        assert_eq!(rec.lines_written(), 3);
        let bytes = rec.into_inner().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with(r#"{"type":"meta","v":1,"scenario":"wordcount""#));

        let run = parse_recording(&text).expect("parses");
        assert_eq!(run.meta.get("seed").unwrap().as_f64(), Some(42.0));
        assert_eq!(run.lines.len(), 2);
        assert_eq!(run.lines_of("window").len(), 1);
        assert_eq!(
            run.lines_of("window")[0].get("t").unwrap().as_f64(),
            Some(20_000_000.0)
        );
        assert!(run.lines_of("decision").is_empty());
    }

    #[test]
    fn rejects_empty_and_headerless_input() {
        assert!(parse_recording("").unwrap_err().contains("no recording"));
        assert!(parse_recording("\n\n")
            .unwrap_err()
            .contains("no recording"));
        assert!(parse_recording("{\"type\":\"window\",\"t\":1}")
            .unwrap_err()
            .contains("not a meta object"));
        assert!(parse_recording("garbage")
            .unwrap_err()
            .contains("not valid JSON"));
    }

    #[test]
    fn rejects_unsupported_versions() {
        let err = parse_recording(r#"{"type":"meta","v":99}"#).unwrap_err();
        assert!(err.contains("unsupported recording version"), "{err}");
        let err = parse_recording(r#"{"type":"meta"}"#).unwrap_err();
        assert!(err.contains("lacks a version"), "{err}");
    }

    #[test]
    fn reports_bad_line_numbers() {
        let text = "{\"type\":\"meta\",\"v\":1}\n{oops}\n";
        let err = parse_recording(text).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }
}
