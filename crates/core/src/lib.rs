//! `otf-gc`: an executable on-the-fly, concurrent mark-sweep garbage
//! collector kernel.
//!
//! This crate is the runtime counterpart of the model verified in *Relaxing
//! Safely: Verified On-the-Fly Garbage Collection for x86-TSO* (PLDI 2015)
//! — the collector design at the heart of the Schism real-time collector:
//!
//! * **on-the-fly**: the collector never stops the world; it coordinates
//!   with mutator threads through *soft handshakes* that each mutator
//!   answers individually at its own GC-safe points
//!   ([`Mutator::safepoint`]);
//! * **snapshot-based**: a *deletion barrier* (Yuasa-style) in
//!   [`Mutator::store`] keeps everything reachable at the snapshot alive,
//!   giving bounded marking work per cycle;
//! * an *insertion barrier* (Dijkstra-style) in the same write barrier
//!   keeps the on-the-fly root snapshot sound;
//! * **epoch-flipped marks**: the interpretation of the per-object mark bit
//!   flips each cycle (`f_M`), so retained objects never need their marks
//!   reset; new objects are allocated with the sense `f_A`;
//! * **CAS-avoiding marking** (the paper's Figure 5): the write barrier
//!   issues an atomic compare-and-swap only when the object is not yet
//!   marked *and* a collection is active — the common case is two plain
//!   loads;
//! * **disjoint intrusive work-lists**: the unique mark-CAS winner owns the
//!   object's intrusive work-list link, so grey lists need no further
//!   synchronisation and transfer wait-free at handshakes.
//!
//! The control variables (`phase`, `f_M`, `f_A`) are read racily by design,
//! exactly as in the paper; fences are issued only at handshake boundaries
//! and inside the marking CAS. (In Rust the racy accesses are relaxed
//! atomics — the sanctioned way to express an intentional race.)
//!
//! With validation enabled (the default), every heap access is checked
//! against a per-slot allocation epoch: a freed-while-reachable object —
//! the failure the paper's safety theorem excludes — trips an assertion
//! immediately. The ablation switches in [`GcConfig`] let the stress tests
//! reproduce the model checker's counterexamples on real threads.
//!
//! The runtime is also built to *degrade*, not hang or corrupt, under
//! hostile schedules: a handshake watchdog
//! ([`GcConfig::with_handshake_timeout`]) aborts cycles stalled on silent
//! mutators (and soundly evicts provably-dead, root-less ones), a full
//! heap triggers emergency collection from the allocating thread before
//! reporting a structured [`AllocError::Exhausted`], and a deterministic
//! fault-injection engine ([`FaultPlan`], module [`chaos`]) drives all of
//! it in tests and the `torture` harness.
//!
//! The heap is the verified model's: one slot array with a global free
//! list, swept eagerly by the collector. The §4 extension — per-mutator
//! pools of reserved slots that allocate without synchronising — is one
//! setting away ([`GcConfig::alloc_pool`]).
//!
//! # Quickstart
//!
//! ```
//! use otf_gc::{Collector, GcConfig};
//!
//! // `GcConfig::builder()` is the supported way to configure the
//! // runtime.
//! let collector = Collector::new(GcConfig::builder().capacity(1024).max_fields(2).build());
//! let mut m = collector.register_mutator();
//!
//! // Build a two-element list a -> b; b stays live only through a.
//! let a = m.alloc(2)?;
//! let b = m.alloc(2)?;
//! m.store(a, 0, Some(b));
//! m.discard(b);
//!
//! // Run the collector concurrently; this thread answers handshakes.
//! collector.start();
//! while collector.stats().cycles() < 2 {
//!     m.safepoint();
//! }
//! collector.stop();
//!
//! assert_eq!(collector.live_objects(), 2); // a and b both survive
//! let b_again = m.load(a, 0).expect("b is still there");
//! # let _ = b_again;
//! # Ok::<(), otf_gc::AllocError>(())
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

/// Emits a [`gc_trace::EventKind`] variant on the calling thread's trace
/// track. While tracing is disabled ([`gc_trace::disable`], the default)
/// a site costs one relaxed atomic load.
macro_rules! trace_event {
    ($variant:ident $($rest:tt)*) => {
        gc_trace::emit(gc_trace::EventKind::$variant $($rest)*)
    };
}

pub mod chaos;
pub mod collections;
mod collector;
mod config;
mod debug;
mod handle;
mod heap;
mod mutator;
mod stats;
mod sync;
mod worklist;

pub use chaos::{ChaosSite, FaultPlan};
pub use collections::{churn_list, GcStack, GcTree};
pub use collector::{Collector, CycleOutcome, MutId};
pub use config::{ConfigError, GcConfig, GcConfigBuilder, HeapLayout};
pub use handle::Gc;
pub use heap::{AllocError, Phase};
pub use mutator::Mutator;
pub use stats::{CycleStats, GcStats};
