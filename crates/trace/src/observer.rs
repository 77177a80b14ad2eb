//! The [`Observer`]: the cloneable handle instrumentation sites hold.
//!
//! An observer is either *disabled* — a `None` inside, so every call is
//! a branch on an `Option` and nothing else — or *enabled*, wrapping a
//! shared state of sinks, a category filter, a sampling ratio, and the
//! [`MetricsRegistry`]. Simulator components store a clone and call
//! [`Observer::emit_with`] / [`Observer::metrics`]; when tracing is off
//! those calls cost one pointer check and never construct an event.
//!
//! Determinism contract: the observer never reads wall-clock time or
//! randomness. Filtering and sampling are pure functions of the event
//! sequence, so a fixed simulation produces a fixed trace byte stream.

use crate::event::{EventCategory, TraceEvent};
use crate::registry::MetricsRegistry;
use crate::sink::TraceSink;
use std::sync::{Arc, Mutex, PoisonError};
use tstorm_types::SimTime;

/// Which event categories pass to the sinks.
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

    /// Passes nothing (useful as a metrics-only configuration).
    #[must_use]
    pub fn none() -> Self {
        Self {
            enabled: [false; 5],
        }
    }

    /// Parses a comma-separated category list, e.g. `"tuple,control"`.
    /// Unknown tokens are reported as `Err` with the offending token.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut f = Self::none();
        for token in spec.split(',').filter(|t| !t.trim().is_empty()) {
            match EventCategory::parse(token) {
                Some(c) => f.set(c, true),
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

    /// Enables or disables one category.
    pub fn set(&mut self, c: EventCategory, on: bool) {
        self.enabled[Self::idx(c)] = on;
    }

    /// True if `c` passes this filter.
    #[must_use]
    pub fn allows(&self, c: EventCategory) -> bool {
        self.enabled[Self::idx(c)]
    }
}

impl Default for TraceFilter {
    fn default() -> Self {
        Self::all()
    }
}

struct Inner {
    sinks: Vec<Box<dyn TraceSink>>,
    filter: TraceFilter,
    /// Keep 1 in `sample` data-plane events (tuple/queue/process).
    sample: u64,
    /// Data-plane events offered so far (drives sampling).
    sampled_seen: u64,
    registry: MetricsRegistry,
}

/// Builder for an enabled [`Observer`].
#[derive(Default)]
pub struct ObserverBuilder {
    sinks: Vec<Box<dyn TraceSink>>,
    filter: TraceFilter,
    sample: u64,
}

impl ObserverBuilder {
    /// Starts with no sinks, an all-pass filter, and no sampling.
    #[must_use]
    pub fn new() -> Self {
        Self {
            sinks: Vec::new(),
            filter: TraceFilter::all(),
            sample: 1,
        }
    }

    /// Adds a sink. Multiple sinks all receive the same filtered stream.
    #[must_use]
    pub fn sink(mut self, sink: Box<dyn TraceSink>) -> Self {
        self.sinks.push(sink);
        self
    }

    /// Sets the category filter.
    #[must_use]
    pub fn filter(mut self, filter: TraceFilter) -> Self {
        self.filter = filter;
        self
    }

    /// Keeps 1 in `n` data-plane events (tuple/queue/process
    /// categories); control-plane events are never sampled out. `n = 1`
    /// (the default) keeps everything; `n = 0` is treated as 1.
    #[must_use]
    pub fn sample(mut self, n: u64) -> Self {
        self.sample = n.max(1);
        self
    }

    /// Builds an enabled observer.
    #[must_use]
    pub fn build(self) -> Observer {
        Observer {
            inner: Some(Arc::new(Mutex::new(Inner {
                sinks: self.sinks,
                filter: self.filter,
                sample: self.sample,
                sampled_seen: 0,
                registry: MetricsRegistry::new(),
            }))),
        }
    }
}

/// The handle instrumentation sites hold. Cloning is cheap (an `Arc`
/// bump or a `None` copy); all clones share sinks and registry.
#[derive(Clone, Default)]
pub struct Observer {
    inner: Option<Arc<Mutex<Inner>>>,
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

    /// Starts building an enabled observer.
    #[must_use]
    pub fn builder() -> ObserverBuilder {
        ObserverBuilder::new()
    }

    /// True if this observer records anything at all.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Emits an already-constructed event. Prefer [`Self::emit_with`] on
    /// hot paths so the event is never built when tracing is off.
    pub fn emit(&self, at: SimTime, event: &TraceEvent) {
        if let Some(inner) = &self.inner {
            let mut g = inner.lock().unwrap_or_else(PoisonError::into_inner);
            g.offer(at, event);
        }
    }

    /// Emits the event produced by `make`, constructing it only when the
    /// observer is enabled.
    pub fn emit_with(&self, at: SimTime, make: impl FnOnce() -> TraceEvent) {
        if let Some(inner) = &self.inner {
            let event = make();
            let mut g = inner.lock().unwrap_or_else(PoisonError::into_inner);
            g.offer(at, &event);
        }
    }

    /// Runs `f` against the shared metrics registry; skipped (returning
    /// `None`) when the observer is disabled.
    pub fn metrics<R>(&self, f: impl FnOnce(&mut MetricsRegistry) -> R) -> Option<R> {
        self.inner.as_ref().map(|inner| {
            let mut g = inner.lock().unwrap_or_else(PoisonError::into_inner);
            f(&mut g.registry)
        })
    }

    /// Prometheus text exposition of the registry (`None` if disabled).
    #[must_use]
    pub fn render_prometheus(&self) -> Option<String> {
        self.metrics(|m| m.render_prometheus())
    }

    /// Flushes every sink. Errors are collected into the first failure.
    pub fn flush(&self) -> std::io::Result<()> {
        if let Some(inner) = &self.inner {
            let mut g = inner.lock().unwrap_or_else(PoisonError::into_inner);
            for sink in &mut g.sinks {
                sink.flush()?;
            }
        }
        Ok(())
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
        if !self.admit(event) {
            return;
        }
        for sink in &mut self.sinks {
            sink.record(at, event);
        }
    }
}

/// A sink wrapper that keeps the underlying sink externally readable:
/// the observer owns one handle, the test (or CLI) keeps another and
/// inspects or extracts the sink after the run.
#[derive(Debug)]
pub struct SharedSink<S: TraceSink>(Arc<Mutex<S>>);

impl<S: TraceSink> SharedSink<S> {
    /// Wraps `sink` for shared access.
    #[must_use]
    pub fn new(sink: S) -> Self {
        Self(Arc::new(Mutex::new(sink)))
    }

    /// A second handle to the same sink.
    #[must_use]
    pub fn handle(&self) -> SharedSink<S> {
        SharedSink(Arc::clone(&self.0))
    }

    /// Runs `f` against the wrapped sink.
    pub fn with<R>(&self, f: impl FnOnce(&mut S) -> R) -> R {
        let mut g = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        f(&mut g)
    }
}

impl<S: TraceSink> TraceSink for SharedSink<S> {
    fn record(&mut self, at: SimTime, event: &TraceEvent) {
        self.with(|s| s.record(at, event));
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.with(TraceSink::flush)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::RingBufferSink;

    fn tuple_ev(n: u64) -> TraceEvent {
        TraceEvent::Ack { tuple: n }
    }

    #[test]
    fn disabled_observer_is_inert() {
        let obs = Observer::disabled();
        assert!(!obs.is_enabled());
        obs.emit(SimTime::ZERO, &tuple_ev(1));
        let mut built = false;
        obs.emit_with(SimTime::ZERO, || {
            built = true;
            tuple_ev(2)
        });
        assert!(!built, "event constructed despite disabled observer");
        assert_eq!(obs.metrics(|m| m.len()), None);
        assert_eq!(obs.render_prometheus(), None);
    }

    #[test]
    fn filter_drops_categories() {
        let ring = SharedSink::new(RingBufferSink::new(16));
        let handle = ring.handle();
        let obs = Observer::builder()
            .sink(Box::new(ring))
            .filter(TraceFilter::parse("control").unwrap())
            .build();
        obs.emit(SimTime::ZERO, &tuple_ev(1)); // tuple: filtered out
        obs.emit(SimTime::ZERO, &TraceEvent::GammaChanged { gamma: 0.5 });
        assert_eq!(handle.with(|r| r.len()), 1);
    }

    #[test]
    fn sampling_keeps_one_in_n_data_plane_events() {
        let ring = SharedSink::new(RingBufferSink::new(64));
        let handle = ring.handle();
        let obs = Observer::builder().sink(Box::new(ring)).sample(3).build();
        for i in 0..9 {
            obs.emit(SimTime::ZERO, &tuple_ev(i));
        }
        // Control events are never sampled out.
        for _ in 0..4 {
            obs.emit(SimTime::ZERO, &TraceEvent::GammaChanged { gamma: 1.0 });
        }
        assert_eq!(handle.with(|r| r.len()), 3 + 4);
    }

    #[test]
    fn filter_parse_rejects_unknown_tokens() {
        assert_eq!(TraceFilter::parse("tuple,bogus"), Err("bogus".to_owned()));
        let f = TraceFilter::parse("tuple, worker").unwrap();
        assert!(f.allows(EventCategory::Tuple));
        assert!(f.allows(EventCategory::Worker));
        assert!(!f.allows(EventCategory::Queue));
    }

    #[test]
    fn metrics_are_shared_across_clones() {
        let obs = Observer::builder().build();
        let clone = obs.clone();
        obs.metrics(|m| m.inc_counter("c_total", "c", &[], 1));
        clone.metrics(|m| m.inc_counter("c_total", "c", &[], 2));
        assert_eq!(
            obs.metrics(|m| m.counter_value("c_total", &[])),
            Some(Some(3))
        );
    }
}
