//! An executable model of the on-the-fly, concurrent mark-sweep garbage
//! collector of *Relaxing Safely: Verified On-the-Fly Garbage Collection
//! for x86-TSO* (Gammie, Hosking & Engelhardt, PLDI 2015).
//!
//! The model mirrors the paper's Isabelle/HOL development:
//!
//! * the collector (Figure 2, Figure 10), the `mark` operation (Figure 5)
//!   and the mutators (Figure 6) are CIMP processes
//!   ([`gc`], [`mark`], [`mutator`]);
//! * a reactive system process encapsulates the x86-TSO memory (Figure 9),
//!   the allocator, and the soft-handshake apparatus ([`sys`], §3.1);
//! * the paper's invariant zoo (§3.2) — `valid_refs_inv` (the headline
//!   safety property), the strong and weak tricolor invariants,
//!   `valid_W_inv`, `marked_insertions` / `marked_deletions`,
//!   `sys_phase_inv`, `mutator_phase_inv`, `gc_W_empty_mut_inv`, the
//!   handshake phase relation — are executable predicates
//!   ([`invariants`]);
//! * [`GcModel`] packages the whole thing as a transition system for the
//!   `mc` explicit-state checker: exhaustive exploration of a bounded
//!   configuration re-establishes the headline theorem
//!
//!   ```text
//!   GC ∥ M₁ ∥ … ∥ Mₙ ∥ Sys  ⊨  □(∀r. reachable r → valid_ref r)
//!   ```
//!
//!   for that configuration, and the ablation knobs in [`ModelConfig`]
//!   reproduce the paper's negative results (missing barriers, missing
//!   fences, racy marking, premature black allocation) as concrete
//!   counterexample traces.
//!
//! # Example
//!
//! ```
//! use gc_model::{GcModel, ModelConfig};
//! use gc_model::invariants::safety_property;
//! use mc::{Checker, CheckerConfig};
//!
//! // A deliberately tiny instance so the doctest stays fast: one mutator,
//! // two heap slots, stores and discards only.
//! let mut cfg = ModelConfig::small(1, 2);
//! cfg.ops.alloc = false;
//! cfg.ops.load = false;
//! let outcome = Checker::with_config(CheckerConfig {
//!         max_states: 200_000,
//!         ..CheckerConfig::default()
//!     })
//!     .property(safety_property(&cfg))
//!     .run(&GcModel::new(cfg));
//! assert!(!outcome.is_violated());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod config;
pub mod gc;
pub mod invariants;
pub mod mark;
pub mod model;
pub mod mutator;
pub mod reduction;
pub mod state;
pub mod sys;
pub mod view;
pub mod vocab;

pub use config::{InitialHeap, ModelConfig, MutatorOps};
pub use model::GcModel;
pub use state::{GcState, Local, MutState, Roles, SysState};
pub use vocab::{Addr, HsPhase, HsType, Phase, Req, ReqKind, Resp, Val};

/// The CIMP program type instantiated for this model.
pub type Prog = cimp::Program<Local, Req, Resp>;

/// A global model state (what the checker stores and deduplicates).
pub type ModelState = cimp::SystemState<Roles>;

/// A trace event of the model.
pub type ModelEvent = cimp::Event<Req, Resp>;
