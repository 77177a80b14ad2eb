//! Structured event tracing and a simulator-wide metrics registry for
//! the T-Storm reproduction.
//!
//! Two orthogonal facilities behind one handle, the [`Observer`]:
//!
//! - **Event tracing** — every observable state transition in the
//!   simulated cluster (tuple lifecycle, queue occupancy, processing,
//!   assignment changes, scheduler decisions) is a [`TraceEvent`].
//!   Events flow through a category [`TraceFilter`] and optional 1-in-N
//!   sampling of the high-frequency data-plane categories into pluggable
//!   [`TraceSink`]s: a JSON Lines stream ([`JsonlWriter`]) or an
//!   in-memory flight recorder ([`RingBufferSink`]).
//! - **Metrics** — instrumentation sites update labelled counter, gauge,
//!   and histogram families in a [`MetricsRegistry`], exported in the
//!   Prometheus text format.
//!
//! The disabled observer ([`Observer::disabled`]) costs one pointer
//! check per call site and constructs nothing, so an untraced simulation
//! runs byte-identically to a build without instrumentation. An enabled
//! observer never consults wall-clock time or randomness, so same-seed
//! runs produce byte-identical JSONL traces.
//!
//! ```
//! use tstorm_trace::{Observer, RingBufferSink, SharedSink, TraceEvent};
//! use tstorm_types::SimTime;
//!
//! let ring = SharedSink::new(RingBufferSink::new(1024));
//! let handle = ring.handle();
//! let obs = Observer::builder().sink(Box::new(ring)).build();
//!
//! obs.emit_with(SimTime::from_millis(5), || TraceEvent::Complete {
//!     tuple: 1,
//!     latency_ms: 4.2,
//! });
//! obs.metrics(|m| m.inc_counter("tstorm_tuples_completed_total", "done", &[], 1));
//!
//! assert_eq!(handle.with(|r| r.len()), 1);
//! assert!(obs.render_prometheus().unwrap().contains("tstorm_tuples_completed_total 1"));
//! ```

pub mod event;
pub mod json;
pub mod observer;
pub mod recorder;
pub mod registry;
pub mod sink;
pub mod span;

pub use event::{EventCategory, HopClass, TraceEvent};
pub use json::JsonValue;
pub use observer::{Observer, ObserverBuilder, SharedSink, TraceFilter};
pub use recorder::{parse_recording, FlightRecorder, RecordedRun, FLIGHT_RECORDER_VERSION};
pub use registry::{MetricKind, MetricsRegistry};
pub use sink::{JsonlWriter, RingBufferSink, TraceSink};
pub use span::{
    extend as extend_span, sum_by_kind, CriticalPathCollector, PathTotals, RootBreakdown,
    SpanChain, SpanKind, SpanLink, SpanSeg,
};
