//! `gc-serve`: a request-serving robustness harness for the `otf-gc`
//! runtime.
//!
//! The collector's unit and torture tests exercise it from below; this
//! crate exercises it from above, the way a latency-sensitive service
//! would (DESIGN.md §2.12): worker threads pull simulated requests off a
//! bounded admission queue, hold Zipf-popular session objects across
//! requests, burn a small allocation burst per request, and answer to a
//! per-request deadline. Four robustness mechanisms are under test:
//!
//! * **Admission control and backpressure** ([`BoundedQueue`]): the queue
//!   rejects rather than blocks when full, and once heap occupancy
//!   crosses a watermark, low-priority requests are shed at admission —
//!   memory pressure pushes back on load instead of collapsing into
//!   allocation failure.
//! * **Deadline-aware allocation**
//!   ([`otf_gc::Mutator::try_alloc_with_deadline`]): allocation under
//!   pressure degrades to a *retryable* [`ServeError`] at the deadline
//!   instead of stalling unboundedly; only a true capacity exhaustion is
//!   fatal, mirroring [`otf_gc::AllocError::is_retryable`].
//! * **Adaptive collector pacing** ([`PacingMode`]): the collector idles
//!   below an occupancy watermark, cycles above it with hysteresis, and
//!   backs off (bounded-exponentially) when cycling stops helping.
//! * **Chaos-under-serve** ([`ServeConfig::with_storm`]): the runtime's
//!   deterministic fault plan — handshake-delay storms, mutator silence,
//!   mark delays, mid-barrier mutator panics, and injected *worker
//!   panics* at request boundaries — runs bounded to the middle third of
//!   the request stream, and the oracle in [`run_serve`] checks recovery:
//!   no session lost, no use-after-free, every request accounted for, and
//!   post-storm p99 latency back under the SLO.
//!
//! The ablation arm ([`ServeConfig::ablation`]) reruns the identical
//! seeded load with shedding and pacing disabled; under the default
//! sizing (session demand at 250% of heap capacity) it demonstrably
//! degrades into fatal exhaustion verdicts and deadline blowups.
//!
//! # Quick start
//!
//! ```
//! use gc_serve::{run_serve, ServeConfig};
//! use gc_trace::Registry;
//! use otf_gc::HeapLayout;
//!
//! let mut cfg = ServeConfig::quick(HeapLayout::Slab);
//! cfg.requests = 64; // doctest-sized
//! let registry = Registry::new();
//! let report = run_serve(&cfg, &registry);
//! assert!(report.is_healthy(), "{:?}", report.violations);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod config;
mod error;
mod load;
mod queue;
mod serve;

pub use config::{PacingMode, ServeConfig};
pub use error::ServeError;
pub use load::{SplitMix64, Zipf};
pub use queue::BoundedQueue;
pub use serve::{
    run_serve, Priority, Request, ServeReport, OUTCOME_ERROR, OUTCOME_OK, OUTCOME_REJECTED,
    OUTCOME_SHED, OUTCOME_TIMEOUT,
};
