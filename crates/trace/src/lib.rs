//! `gc-trace`: lock-free event tracing, a metrics registry, and Chrome
//! trace-event export for the "Relaxing Safely" reproduction.
//!
//! Three pillars (ROADMAP item: observability, DESIGN.md §2.10):
//!
//! * **Tracing** ([`ring`], [`event`], [`tracer`]): each instrumented
//!   thread owns a fixed-capacity lock-free SPSC ring of epoch-stamped
//!   binary events. A full ring drops (and counts) rather than blocks —
//!   tracing never adds a wait to a mutator or the collector. The
//!   runtime-disable fast path is one relaxed atomic load.
//! * **Metrics** ([`metrics`]): named counters, gauges and log-linear
//!   histograms with p50/p95/p99, a Prometheus-style text exposition, and
//!   a JSON snapshot.
//! * **Export** ([`chrome`], [`json`]): a Chrome trace-event document
//!   (cycles as spans with handshake/mark/sweep nested under them, one
//!   track per thread — loadable in Perfetto) plus a flat JSONL stream,
//!   built on a small dependency-free JSON value.
//! * **Live scrape & regression gate** ([`scrape`], [`diff`]):
//!   a std-only Prometheus endpoint over a live [`Registry`]
//!   (`/metrics`, `/metrics.json`, `/healthz`) and a trace-shape differ
//!   with configurable thresholds behind `gc-trace diff`.
//!
//! The crate is deliberately leaf-level: `otf-gc`, `mc` and the bench
//! rigs depend on it, never the reverse, so the event
//! vocabulary in [`event`] mirrors the runtime's phase and handshake
//! encodings rather than importing them.
//!
//! # Quick start
//!
//! ```
//! use gc_trace::{self as trace, EventKind};
//!
//! trace::enable();
//! trace::set_track_name("worker-0");
//! trace::emit(EventKind::SpanBegin { id: 1 });
//! trace::emit(EventKind::Instant { id: 42, value: 7 });
//! trace::emit(EventKind::SpanEnd { id: 1 });
//! trace::disable();
//!
//! let dumps = trace::Tracer::global().drain();
//! let doc = trace::chrome::chrome_trace(&dumps);
//! trace::chrome::validate_chrome_trace(&doc).unwrap();
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod chrome;
pub mod diff;
pub mod event;
pub mod flags;
pub mod json;
pub mod metrics;
pub mod ring;
pub mod scrape;
pub mod sink;
pub mod tracer;

pub use diff::{diff_shapes, DiffError, DiffReport, Finding, Summary, Thresholds, TraceShape};
pub use event::{
    Event, EventKind, Record, Role, Span, COUNTER_NAMES, HANDSHAKE_NAMES, PHASE_NAMES,
};
pub use flags::{CommaList, FlagError, Flags};
pub use json::{Json, JsonError};
pub use metrics::{escape_label_value, labeled, Counter, Gauge, Histogram, Registry};
pub use ring::Ring;
pub use scrape::{Health, Liveness, MetricsServer, METRICS_CONTENT_TYPE};
pub use sink::{SinkSummary, TraceSink};
pub use tracer::{
    disable, emit, enable, enabled, set_track_name, Tracer, TrackDump, DEFAULT_RING_CAPACITY,
};
