//! The [`Observer`]: the simulation's trace writer.
//!
//! An observer is either *disabled* — a `None` inside, so every call is
//! a branch on an `Option` and nothing else — or *enabled*, writing
//! every event that passes its category filter and sampling stride as
//! one JSON line. The simulation owns its observer and calls
//! [`Observer::emit_with`]; when tracing is off that call costs one
//! pointer check and never constructs an event.
//!
//! Determinism contract: the observer never reads wall-clock time or
//! randomness. Filtering and sampling are pure functions of the event
//! sequence, so a fixed simulation produces a fixed trace byte stream.

use crate::event::{EventCategory, TraceEvent};
use std::io::{self, Write};
use tstorm_types::SimTime;

/// Which event categories reach the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceFilter {
    enabled: [bool; 5],
}

impl TraceFilter {
    /// Passes every category.
    #[must_use]
    pub fn all() -> Self {
        Self { enabled: [true; 5] }
    }

    /// Parses a comma-separated category list, e.g. `"tuple,control"`.
    /// Unknown tokens are reported as `Err` with the offending token.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut f = Self {
            enabled: [false; 5],
        };
        for token in spec.split(',').filter(|t| !t.trim().is_empty()) {
            match EventCategory::parse(token) {
                Some(c) => f.enabled[Self::idx(c)] = true,
                None => return Err(token.trim().to_owned()),
            }
        }
        Ok(f)
    }

    fn idx(c: EventCategory) -> usize {
        EventCategory::ALL
            .iter()
            .position(|x| *x == c)
            .expect("category in ALL")
    }

    /// True if `c` passes this filter.
    #[must_use]
    pub fn allows(&self, c: EventCategory) -> bool {
        self.enabled[Self::idx(c)]
    }
}

struct Inner {
    out: Box<dyn Write + Send>,
    filter: TraceFilter,
    /// Keep 1 in `sample` data-plane events (tuple/queue/process).
    sample: u64,
    /// Data-plane events offered so far (drives sampling).
    sampled_seen: u64,
}

/// The simulation's trace writer: disabled, or streaming JSON Lines.
pub struct Observer {
    inner: Option<Box<Inner>>,
}

impl std::fmt::Debug for Observer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Observer")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Observer {
    /// The disabled observer: every call is a no-op after one `Option`
    /// check.
    #[must_use]
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// An enabled observer writing one [`TraceEvent::to_jsonl`] line per
    /// event to `out`. It keeps the categories `filter` passes, and 1 in
    /// `sample` data-plane events (tuple/queue/process categories;
    /// `0` counts as 1); control-plane events are never sampled out.
    /// Callers streaming to disk should pass a `BufWriter`.
    #[must_use]
    pub fn jsonl(out: impl Write + Send + 'static, filter: TraceFilter, sample: u64) -> Self {
        Self {
            inner: Some(Box::new(Inner {
                out: Box::new(out),
                filter,
                sample: sample.max(1),
                sampled_seen: 0,
            })),
        }
    }

    /// True if this observer writes anything at all.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Emits the event produced by `make`, constructing it only when the
    /// observer is enabled.
    pub fn emit_with(&mut self, at: SimTime, make: impl FnOnce() -> TraceEvent) {
        if let Some(inner) = &mut self.inner {
            inner.offer(at, &make());
        }
    }

    /// Flushes the trace writer.
    pub fn flush(&mut self) -> io::Result<()> {
        match &mut self.inner {
            Some(inner) => inner.out.flush(),
            None => Ok(()),
        }
    }
}

impl Inner {
    /// Filter + sampling decision; advances the sampling counter.
    fn admit(&mut self, event: &TraceEvent) -> bool {
        let category = event.category();
        if !self.filter.allows(category) {
            return false;
        }
        if category.is_sampled() && self.sample > 1 {
            let keep = self.sampled_seen.is_multiple_of(self.sample);
            self.sampled_seen += 1;
            if !keep {
                return false;
            }
        }
        true
    }

    fn offer(&mut self, at: SimTime, event: &TraceEvent) {
        if self.admit(event) {
            // Tracing is best-effort: a full disk must not abort the
            // simulation, so a failed write is dropped.
            let _ = writeln!(self.out, "{}", event.to_jsonl(at));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    /// A writer the test reads back while the observer owns a clone.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl SharedBuf {
        fn lines(&self) -> Vec<String> {
            let bytes = self.0.lock().unwrap().clone();
            String::from_utf8(bytes)
                .unwrap()
                .lines()
                .map(str::to_owned)
                .collect()
        }
    }

    fn tuple_ev(n: u64) -> TraceEvent {
        TraceEvent::Ack { tuple: n }
    }

    #[test]
    fn disabled_observer_is_inert() {
        let mut obs = Observer::disabled();
        assert!(!obs.is_enabled());
        let mut built = false;
        obs.emit_with(SimTime::ZERO, || {
            built = true;
            tuple_ev(2)
        });
        assert!(!built, "event constructed despite disabled observer");
        assert!(obs.flush().is_ok());
    }

    #[test]
    fn writes_one_json_line_per_event() {
        let buf = SharedBuf::default();
        let mut obs = Observer::jsonl(buf.clone(), TraceFilter::all(), 1);
        obs.emit_with(SimTime::from_micros(10), || tuple_ev(1));
        obs.emit_with(SimTime::from_micros(20), || tuple_ev(2));
        assert_eq!(
            buf.lines(),
            [
                r#"{"t":10,"type":"ack","tuple":1}"#,
                r#"{"t":20,"type":"ack","tuple":2}"#
            ]
        );
    }

    #[test]
    fn filter_drops_categories() {
        let buf = SharedBuf::default();
        let mut obs = Observer::jsonl(buf.clone(), TraceFilter::parse("control").unwrap(), 1);
        obs.emit_with(SimTime::ZERO, || tuple_ev(1)); // tuple: filtered out
        obs.emit_with(SimTime::ZERO, || TraceEvent::GammaChanged { gamma: 0.5 });
        assert_eq!(buf.lines().len(), 1);
    }

    #[test]
    fn sampling_keeps_one_in_n_data_plane_events() {
        let buf = SharedBuf::default();
        let mut obs = Observer::jsonl(buf.clone(), TraceFilter::all(), 3);
        for i in 0..9 {
            obs.emit_with(SimTime::ZERO, || tuple_ev(i));
        }
        // Control events are never sampled out.
        for _ in 0..4 {
            obs.emit_with(SimTime::ZERO, || TraceEvent::GammaChanged { gamma: 1.0 });
        }
        let lines = buf.lines();
        assert_eq!(lines.len(), 3 + 4);
        assert!(lines[1].contains(r#""tuple":3"#), "{lines:?}");
    }

    #[test]
    fn filter_parse_rejects_unknown_tokens() {
        assert_eq!(TraceFilter::parse("tuple,bogus"), Err("bogus".to_owned()));
        let f = TraceFilter::parse("tuple, worker").unwrap();
        assert!(f.allows(EventCategory::Tuple));
        assert!(f.allows(EventCategory::Worker));
        assert!(!f.allows(EventCategory::Queue));
    }
}
