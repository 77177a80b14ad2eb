//! Trace sinks: where filtered events go.
//!
//! A sink receives `(virtual time, event)` pairs that already passed the
//! observer's category filter and sampling. Sinks are deliberately dumb
//! — no filtering logic of their own — so that a given observer
//! configuration produces the same event stream regardless of sink.

use crate::event::TraceEvent;
use std::collections::VecDeque;
use std::io::{self, Write};
use tstorm_types::SimTime;

/// A destination for trace events.
pub trait TraceSink: Send {
    /// Records one event at virtual time `at`.
    fn record(&mut self, at: SimTime, event: &TraceEvent);

    /// Flushes any buffered output. Default: no-op.
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Discards everything. Useful as an explicit "trace plumbing on, output
/// off" configuration in tests.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&mut self, _at: SimTime, _event: &TraceEvent) {}
}

/// Keeps the last `capacity` events in memory — a flight recorder for
/// post-mortem inspection in tests and interactive debugging.
#[derive(Debug)]
pub struct RingBufferSink {
    buf: VecDeque<(SimTime, TraceEvent)>,
    capacity: usize,
    /// Total events ever offered, including evicted ones.
    seen: u64,
}

impl RingBufferSink {
    /// Creates a ring holding at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring buffer capacity must be non-zero");
        Self {
            buf: VecDeque::with_capacity(capacity),
            capacity,
            seen: 0,
        }
    }

    /// Events currently retained, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &(SimTime, TraceEvent)> {
        self.buf.iter()
    }

    /// Number of events retained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing is retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total events offered over the sink's lifetime (≥ `len()`).
    #[must_use]
    pub fn total_seen(&self) -> u64 {
        self.seen
    }
}

impl TraceSink for RingBufferSink {
    fn record(&mut self, at: SimTime, event: &TraceEvent) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
        }
        self.buf.push_back((at, event.clone()));
        self.seen += 1;
    }
}

/// Streams events as JSON Lines to any writer (file, `Vec<u8>`, …).
///
/// One event per line, rendered by [`TraceEvent::to_jsonl`]; the output
/// for a fixed event stream is byte-deterministic.
#[derive(Debug)]
pub struct JsonlWriter<W: Write + Send> {
    out: W,
    lines: u64,
}

impl<W: Write + Send> JsonlWriter<W> {
    /// Wraps a writer. Callers streaming to disk should pass a
    /// `BufWriter` — this type does not buffer.
    pub fn new(out: W) -> Self {
        Self { out, lines: 0 }
    }

    /// Number of lines written so far.
    #[must_use]
    pub fn lines_written(&self) -> u64 {
        self.lines
    }

    /// Flushes and returns the inner writer.
    pub fn into_inner(mut self) -> io::Result<W> {
        self.out.flush()?;
        Ok(self.out)
    }

    /// Borrows the inner writer, e.g. to inspect an in-memory buffer
    /// while the sink stays installed.
    pub fn get_ref(&self) -> &W {
        &self.out
    }
}

impl<W: Write + Send> TraceSink for JsonlWriter<W> {
    fn record(&mut self, at: SimTime, event: &TraceEvent) {
        let line = event.to_jsonl(at);
        // Trace output is best-effort: a full disk must not abort the
        // simulation, so write errors are swallowed after first report.
        if writeln!(self.out, "{line}").is_ok() {
            self.lines += 1;
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;

    fn ev(tuple: u64) -> TraceEvent {
        TraceEvent::Ack { tuple }
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let mut ring = RingBufferSink::new(3);
        for i in 0..5 {
            ring.record(SimTime::from_micros(i), &ev(i));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.total_seen(), 5);
        let tuples: Vec<u64> = ring
            .events()
            .map(|(_, e)| match e {
                TraceEvent::Ack { tuple } => *tuple,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(tuples, vec![2, 3, 4]);
    }

    #[test]
    fn jsonl_writer_emits_one_line_per_event() {
        let mut w = JsonlWriter::new(Vec::new());
        w.record(SimTime::from_micros(10), &ev(1));
        w.record(SimTime::from_micros(20), &ev(2));
        assert_eq!(w.lines_written(), 2);
        let bytes = w.into_inner().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], r#"{"t":10,"type":"ack","tuple":1}"#);
        assert_eq!(lines[1], r#"{"t":20,"type":"ack","tuple":2}"#);
    }

    #[test]
    #[should_panic(expected = "capacity must be non-zero")]
    fn zero_capacity_ring_panics() {
        let _ = RingBufferSink::new(0);
    }
}
