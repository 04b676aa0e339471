//! An explicit-state model checker.
//!
//! This crate provides the exhaustive-exploration engine used to
//! re-establish the headline safety theorem of *Relaxing Safely* (PLDI
//! 2015) on bounded configurations: it enumerates every state reachable
//! under the interleaving semantics of a [`TransitionSystem`] and evaluates
//! a set of named [`Property`] predicates in each state — the bounded,
//! algorithmic counterpart of the paper's induction over reachable states.
//!
//! A [`Checker`] is configured by a [`CheckerConfig`] (bounds and dedup
//! mode) and a [`Strategy`]:
//!
//! * [`Strategy::Bfs`] — breadth-first exploration, optionally across
//!   several worker threads. Exploration is level-synchronous: each depth's
//!   frontier is partitioned across workers, duplicate detection goes
//!   through a sharded seen-set, and discovery order is resolved
//!   deterministically, so every thread count produces the same state
//!   counts, the same verdict and (for violations) the same *shortest*
//!   counterexample [`Trace`].
//! * [`Strategy::RandomWalk`] — a seeded uniformly-random simulation for
//!   instances beyond exhaustive reach. A clean walk proves nothing, but a
//!   violation is a real (if non-minimal) counterexample.
//!
//! Bounds on states, depth and wall time are explicit: hitting one produces
//! [`Outcome::BoundReached`], never a silent truncation.
//!
//! # Example
//!
//! ```
//! use mc::{Checker, CheckerConfig, Property, Strategy, TransitionSystem};
//!
//! /// Two processes each incrementing a shared counter twice.
//! struct Counter;
//!
//! impl TransitionSystem for Counter {
//!     type State = (u8, u8, u8); // (pc0, pc1, counter)
//!     type Action = &'static str;
//!
//!     fn initial_states(&self) -> Vec<Self::State> {
//!         vec![(0, 0, 0)]
//!     }
//!
//!     fn successors(&self, s: &Self::State) -> Vec<(Self::Action, Self::State)> {
//!         let mut out = Vec::new();
//!         if s.0 < 2 {
//!             out.push(("inc0", (s.0 + 1, s.1, s.2 + 1)));
//!         }
//!         if s.1 < 2 {
//!             out.push(("inc1", (s.0, s.1 + 1, s.2 + 1)));
//!         }
//!         out
//!     }
//! }
//!
//! let outcome = Checker::with_config(CheckerConfig::default())
//!     .strategy(Strategy::Bfs { threads: 2 })
//!     .property(Property::new("counter-bounded", |s: &(u8, u8, u8)| s.2 <= 4))
//!     .run(&Counter);
//! assert!(outcome.is_verified());
//! assert_eq!(outcome.stats().states, 9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bfs;
mod checker;
mod config;
mod hash;
mod outcome;
mod property;
mod telemetry;
mod walk;

use std::hash::Hash;

pub use checker::Checker;
pub use config::{CheckerConfig, Precheck, Reduction, Strategy};
pub use hash::FxHasher;
pub use outcome::{Bound, Outcome, PrecheckDiagnostic, Stats, Trace};
pub use property::Property;

/// A transition system to be explored.
///
/// States must be hashable and comparable for duplicate detection; actions
/// label the edges of counterexample traces. The `Sync` supertrait and the
/// `Send + Sync` state bounds let [`Checker`] partition a BFS frontier
/// across worker threads; systems built from plain data and shared
/// (`Arc`-held) programs satisfy them automatically.
pub trait TransitionSystem: Sync {
    /// A global state.
    type State: Clone + Eq + Hash + Send + Sync;
    /// An edge label, used for printing traces.
    type Action: Clone + Send;

    /// The initial state(s).
    fn initial_states(&self) -> Vec<Self::State>;

    /// All `(action, successor)` pairs of `state`.
    fn successors(&self, state: &Self::State) -> Vec<(Self::Action, Self::State)>;

    /// Appends all `(action, successor)` pairs of `state` to `out`.
    ///
    /// The engines call this form with a per-worker scratch buffer so the
    /// hot successor path allocates no fresh `Vec` per state. The default
    /// delegates to [`successors`](TransitionSystem::successors); systems
    /// with hot paths should override it and implement `successors` in
    /// terms of it.
    fn successors_into(&self, state: &Self::State, out: &mut Vec<(Self::Action, Self::State)>) {
        out.extend(self.successors(state));
    }

    /// Appends a sound *ample subset* of `state`'s successors to `out`,
    /// returning `true` when a genuine reduction was applied (`out` holds a
    /// strict, provably sufficient subset) and `false` when the system
    /// cannot prove one here (in which case `out` must hold the full
    /// successor list, exactly as
    /// [`successors_into`](TransitionSystem::successors_into) would).
    ///
    /// Called only when [`Reduction::por`] is requested. Implementations
    /// are responsible for the classic ample-set conditions *except* the
    /// cycle proviso (C3), which the BFS engine enforces: when this returns
    /// `true` but every ample successor is already in the seen-set, the
    /// engine falls back to the full expansion. The default never reduces.
    fn ample_successors_into(
        &self,
        state: &Self::State,
        reduction: &Reduction,
        out: &mut Vec<(Self::Action, Self::State)>,
    ) -> bool {
        let _ = reduction;
        self.successors_into(state, out);
        false
    }

    /// Maps `state` to the canonical representative of its equivalence
    /// class under the reductions enabled in `reduction` (symmetry orbits,
    /// store-buffer normal forms). Duplicate detection, property checks and
    /// trace states all use the canonical form, so every property must be
    /// invariant on each equivalence class the implementation collapses.
    /// The default is the identity.
    fn canonicalize(&self, state: &Self::State, reduction: &Reduction) -> Self::State {
        let _ = reduction;
        state.clone()
    }

    /// Appends `state`'s encoding to `bytes`, returning `true` on success.
    /// With a working codec (and [`decode_state`](TransitionSystem::decode_state))
    /// the BFS keeps every frontier level encoded, and spills oversized
    /// ones to disk ([`CheckerConfig::spill_threshold`]). Equal states must
    /// produce equal bytes. The bytes belong to the instance that wrote
    /// them: they may name what only it holds (an id in its tables), so
    /// only the same instance's `decode_state` need read them back. The
    /// default supports no codec and returns `false`.
    fn encode_state(&self, state: &Self::State, bytes: &mut Vec<u8>) -> bool {
        let _ = (state, bytes);
        false
    }

    /// Deserializes a state this instance's
    /// [`encode_state`](TransitionSystem::encode_state) produced. Returns
    /// `None` on malformed input, never panicking. The default supports no
    /// codec.
    fn decode_state(&self, bytes: &[u8]) -> Option<Self::State> {
        let _ = bytes;
        None
    }
}

#[cfg(test)]
mod reference;
#[cfg(test)]
mod tests;
