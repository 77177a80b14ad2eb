//! Structured event tracing and the Prometheus text format for the
//! T-Storm reproduction.
//!
//! - **Event tracing** — every observable state transition in the
//!   simulated cluster (tuple lifecycle, queue occupancy, processing,
//!   assignment changes, scheduler decisions) is a [`TraceEvent`]. The
//!   simulation's [`Observer`] passes events through a category
//!   [`TraceFilter`] and optional 1-in-N sampling of the high-frequency
//!   data-plane categories, and writes them as JSON Lines.
//! - **Exposition** — [`Exposition`] writes counter, gauge and
//!   histogram families in the Prometheus text format, each once, from
//!   values the caller already holds.
//! - **Flight recording** — [`FlightRecorder`] writes a run as JSON
//!   Lines, [`parse_recording`] reads it back, and [`view`] renders it.
//!
//! The disabled observer ([`Observer::disabled`]) costs one pointer
//! check per call site and constructs nothing, so an untraced simulation
//! runs byte-identically to a build without instrumentation. An enabled
//! observer never consults wall-clock time or randomness, so same-seed
//! runs produce byte-identical JSONL traces.
//!
//! ```
//! use tstorm_trace::{Observer, TraceEvent, TraceFilter};
//! use tstorm_types::SimTime;
//!
//! let path = std::env::temp_dir().join("tstorm-trace-doctest.jsonl");
//! let mut obs = Observer::jsonl(std::fs::File::create(&path)?, TraceFilter::all(), 1);
//! obs.emit_with(SimTime::from_millis(5), || TraceEvent::Complete {
//!     tuple: 1,
//!     latency_ms: 4.2,
//! });
//! obs.flush()?;
//! assert_eq!(
//!     std::fs::read_to_string(&path)?,
//!     "{\"t\":5000,\"type\":\"complete\",\"tuple\":1,\"latency_ms\":4.2}\n"
//! );
//! # std::fs::remove_file(&path)?;
//! # Ok::<(), std::io::Error>(())
//! ```

pub mod event;
pub mod exposition;
pub mod json;
pub mod observer;
pub mod recorder;
pub mod span;
pub mod view;

pub use event::{EventCategory, HopClass, TraceEvent};
pub use exposition::{Exposition, MetricKind};
pub use json::JsonValue;
pub use observer::{Observer, TraceFilter};
pub use recorder::{parse_recording, FlightRecorder, RecordedRun, FLIGHT_RECORDER_VERSION};
pub use span::{CriticalPathCollector, PathTotals, SpanKind, SpanSeg, SpanTree, NO_SPAN};
