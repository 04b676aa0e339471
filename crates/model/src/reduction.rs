//! State-space reductions for the collector model.
//!
//! Three independent techniques, each toggleable through
//! [`mc::Reduction`] and each preserving every verdict and every shortest
//! counterexample the checker can report (see `DESIGN.md` §2.13 for the
//! full soundness arguments):
//!
//! 1. **Partial-order reduction** ([`ample_filter`]). CIMP taus are pure
//!    process-local steps — shared state is only ever touched through a
//!    rendezvous with the system process — so every tau is independent of
//!    every transition of every other process (condition C1 holds by
//!    construction). The filter additionally demands *invisibility*
//!    (condition C2): only taus whose labels appear in
//!    [`CERTIFIED_INVISIBLE_TAUS`] — labels audited against every
//!    invariant in `invariants.rs` and every view in `view.rs` — may form
//!    an ample set. The cycle proviso (C3) is enforced by the BFS engine
//!    itself: when all ample successors have been seen before, it falls
//!    back to full expansion.
//!
//! 2. **Mutator symmetry** ([`canonical_under_mutator_symmetry`]). When
//!    all mutators run the same program from the same initial roots, the
//!    model is invariant under permuting mutator identity. Each state is
//!    replaced by the lexicographically-least encoding in its orbit,
//!    collapsing up to `K!` equivalent states into one. The permutation
//!    is only applied at *handshake-quiescent* states
//!    ([`symmetry_applicable`]): permuting mid-pend-loop would remap the
//!    already-pended prefix and desynchronise the collector's pend
//!    counter from the system's pending set.
//!
//! 3. **Store-buffer canonicalization** lives in
//!    [`tso_model::Machine::canonicalize_buffers`] and is wired up by
//!    [`GcModel::canonicalize`](crate::model::GcModel); only *adjacent
//!    identical duplicate* stores are coalesced, which preserves the
//!    exact sequence of distinct memory commits every other thread can
//!    observe.

use std::cmp::Ordering;

use cimp::Event;
use gc_types::RefSet;
use tso_model::{Cell, ThreadId};

use crate::state::MutState;
use crate::vocab::{Req, Resp};
use crate::{ModelEvent, ModelState};

/// Tau labels certified invisible: no invariant in `invariants.rs` and no
/// derived view in `view.rs` can distinguish the pre- and post-state of a
/// step with one of these labels. Audited per label:
///
/// * `mut-store-prime-insertion` — latches `st_dst`/`st_src`/`st_fld`
///   scratch; visible state (heap, memory, worklists) untouched.
/// * `mut-hs-pick-root` — moves one ref between the private
///   `roots_to_mark` scratch set and the marking pipeline's entry latch.
/// * `mark-racy-claim` — records the CAS-winner decision in
///   [`MarkScratch`](crate::state::MarkScratch); the memory effects of
///   the claim travel through separate system rendezvous.
/// * `gc-sweep-retain` — advances the sweep cursor past a live object
///   without freeing anything.
/// * `gc-pick-src` — latches the collector's scan cursor (`scan_src`,
///   `scan_fld`); the picked reference *stays on the collector's
///   work-list* until `gc-blacken`, so the grey set — the only derived
///   quantity that could expose the cursor — is unchanged.
pub const CERTIFIED_INVISIBLE_TAUS: [&str; 5] = [
    "mut-store-prime-insertion",
    "mut-hs-pick-root",
    "mark-racy-claim",
    "gc-sweep-retain",
    "gc-pick-src",
];

/// Shrinks `succs` to an ample subset in place, returning `true` iff a
/// *strict* reduction was applied.
///
/// The candidate ample set for process `p` is the set of `p`'s enabled
/// transitions, admissible only when every one of them is a certified
/// invisible tau. The lowest-indexed admissible process wins (a fixed
/// choice keeps exploration deterministic across thread counts). Returns
/// `false` — leaving `succs` untouched — when no process qualifies or
/// when the ample set would not actually be smaller than the full set.
pub fn ample_filter(nprocs: usize, succs: &mut Vec<(ModelEvent, ModelState)>) -> bool {
    let mut certified = vec![0usize; nprocs];
    let mut disqualified = vec![false; nprocs];
    for (ev, _) in succs.iter() {
        match ev {
            Event::Tau { proc, label } if CERTIFIED_INVISIBLE_TAUS.contains(label) => {
                certified[proc.0] += 1;
            }
            Event::Tau { proc, .. } => disqualified[proc.0] = true,
            Event::Comm {
                sender, receiver, ..
            } => {
                disqualified[sender.0] = true;
                disqualified[receiver.0] = true;
            }
        }
    }
    let Some(p) = (0..nprocs).find(|&p| certified[p] > 0 && !disqualified[p]) else {
        return false;
    };
    if certified[p] == succs.len() {
        return false; // the ample set IS the full set: nothing gained
    }
    succs.retain(|(ev, _)| matches!(ev, Event::Tau { proc, .. } if proc.0 == p));
    true
}

/// Whether mutator permutation is sound at `state`.
///
/// Permutation must commute with the handshake bookkeeping. Mid-pend-loop
/// the system's `ghost_hs_flagged` is a proper non-empty prefix of trues
/// (the set of mutators this round has already pended); permuting there
/// would make the collector re-pend a flagged mutator and skip an
/// unflagged one. Outside the loop the flags are uniform — all false
/// right after `HsBegin` (nothing pended yet), all true once the loop
/// finished (and in the initial state) — and no mutator is still pending,
/// so any permutation maps the handshake bookkeeping onto itself.
pub fn symmetry_applicable(state: &ModelState) -> bool {
    let sys = &state.locals().sys;
    let all = (1u8 << state.locals().mutators().len()) - 1;
    sys.hs_pending == 0 && (sys.ghost_hs_flagged == 0 || sys.ghost_hs_flagged == all)
}

/// The canonical representative of `state`'s orbit under mutator
/// permutation: the member whose mutators are in ascending
/// `mutator_order`. Sorting is a well-defined idempotent choice function
/// over each orbit: mutators that compare equal are interchangeable, so
/// every sorting permutation yields the same state. States where
/// permutation is not [applicable](symmetry_applicable) are returned
/// unchanged (their orbit is taken to be the singleton).
///
/// Callers must only use this on *symmetric* configurations — identical
/// programs and identical initial roots for every mutator —
/// ([`GcModel`](crate::model::GcModel) gates on exactly that).
pub fn canonical_under_mutator_symmetry(state: &ModelState) -> ModelState {
    let mutators = state.locals().mutators().len();
    if mutators < 2 || !symmetry_applicable(state) {
        return *state;
    }
    let mut perm = [0usize; tso_model::MAX_THREADS];
    let perm = &mut perm[..mutators];
    for (i, slot) in perm.iter_mut().enumerate() {
        *slot = i;
    }
    // Stable, so an already canonical state keeps the identity permutation.
    perm.sort_by(|&a, &b| mutator_order(state, a, b));
    if perm.iter().enumerate().all(|(i, &m)| i == m) {
        return *state;
    }
    apply_perm(state, perm)
}

/// The order symmetry reduction sorts a state's mutators by: control stack,
/// then local state, then store buffer, read as the words the state holds.
///
/// Which member of an orbit represents it does not affect soundness, but
/// with partial-order reduction on it does affect *which* reduced state
/// space is explored (the ample set goes to the lowest-indexed eligible
/// process), so the order is pinned: it is the byte order of the PR 9
/// state encoding, in which orbit representatives were first chosen —
/// lengths before contents, sets as ascending lists, stack frames by their
/// little-endian bytes, `idx` ignored (it is rewritten to the position).
/// The reduced state counts recorded in `EXPERIMENTS.md` depend on it.
fn mutator_order(state: &ModelState, a: usize, b: usize) -> Ordering {
    let listed = |x: RefSet, y: RefSet| x.len().cmp(&y.len()).then_with(|| x.iter().cmp(y.iter()));
    let frames = |m: usize| {
        let stack = state.control(1 + m);
        (
            stack.len(),
            stack.frames().iter().map(|c| c.raw().swap_bytes()),
        )
    };
    let ((len_a, frames_a), (len_b, frames_b)) = (frames(a), frames(b));
    let muts = state.locals().mutators();
    let (x, y) = (&muts[a], &muts[b]);
    let mem = &state.locals().sys.mem;
    let buffer = |m: usize| {
        let pending = mem.buffer(ThreadId::new(1 + m));
        (
            pending.len(),
            pending.iter().map(|(a, v)| (a.to_byte(), v.to_byte())),
        )
    };
    let ((pending_a, writes_a), (pending_b, writes_b)) = (buffer(a), buffer(b));
    let holds_lock = |m: usize| mem.lock_holder() == Some(ThreadId::new(1 + m));
    len_a
        .cmp(&len_b)
        .then_with(|| frames_a.cmp(frames_b))
        .then_with(|| listed(x.roots, y.roots))
        .then_with(|| listed(x.wl.as_set(), y.wl.as_set()))
        .then_with(|| {
            let scalars = |m: &MutState| {
                (
                    (m.ghost_honorary_grey, m.ghost_hs_phase, m.ghost_roots_done),
                    m.mark,
                    (m.st_dst, m.st_src, m.st_fld, m.st_deleted, m.st_active),
                    m.hs_type,
                )
            };
            scalars(x).cmp(&scalars(y))
        })
        .then_with(|| listed(x.roots_to_mark, y.roots_to_mark))
        .then_with(|| pending_a.cmp(&pending_b))
        .then_with(|| writes_a.cmp(writes_b))
        .then_with(|| holds_lock(b).cmp(&holds_lock(a)))
}

/// Applies mutator permutation `perm` (new index `i` takes old mutator
/// `perm[i]`) to every identity-bearing piece of the state:
///
/// * mutator process `1 + i` receives old process `1 + perm[i]`'s control
///   stack and local state, with the local `idx` rewritten to `i` (the
///   `idx` is what the mutator puts in its request `tid`s);
/// * the system's per-mutator `hs_pending` / `ghost_hs_flagged` bits are
///   reindexed the same way;
/// * the TSO machine's store buffers are permuted via
///   [`tso_model::Machine::permute_threads`] (hardware thread `0` is the
///   collector and stays put; thread `1 + i` is mutator `i`).
fn apply_perm(state: &ModelState, perm: &[usize]) -> ModelState {
    let mut next = *state;
    let old_sys = &state.locals().sys;
    next.update_local(state.len() - 1, |roles| {
        let sys = &mut roles.sys;
        (sys.hs_pending, sys.ghost_hs_flagged) = (0, 0);
        // Machine::permute_threads takes map[new] = old.
        let mut tmap = [0usize; tso_model::MAX_THREADS];
        for (i, &old) in perm.iter().enumerate() {
            sys.hs_pending |= u8::from(old_sys.pending(old)) << i;
            sys.ghost_hs_flagged |= u8::from(old_sys.flagged(old)) << i;
            tmap[1 + i] = 1 + old;
        }
        sys.mem.permute_threads(&tmap[..=perm.len()]);
        true
    });
    // The mutators through `set`, which refreshes their digests.
    for (i, &old) in perm.iter().enumerate() {
        let mut local = state.local(1 + old);
        local.mutator_mut().idx = i as u8;
        next.set(1 + i, *state.control(1 + old), local);
    }
    next
}

// Quiet the unused-import lint when the event alias is only used in docs.
const _: fn(&ModelEvent) = |_: &Event<Req, Resp>| {};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec;
    use crate::config::ModelConfig;
    use crate::model::GcModel;
    use mc::TransitionSystem;

    fn two_mutator_model() -> GcModel {
        let mut cfg = ModelConfig::small(2, 3);
        // `small` may or may not be symmetric; force identical roots.
        cfg.initial.roots = vec![vec![0], vec![0]];
        GcModel::new(cfg)
    }

    #[test]
    fn canonicalization_is_idempotent_and_orbit_invariant() {
        let model = two_mutator_model();
        let init = &model.initial_states()[0];
        // Walk a few levels, canonicalizing everything reachable; the
        // representative must be a fixed point, and explicitly swapping
        // the two mutators must not change it.
        let mut frontier = vec![*init];
        let mut checked = 0usize;
        for _ in 0..4 {
            let mut next = Vec::new();
            for s in &frontier {
                let canon = canonical_under_mutator_symmetry(s);
                let again = canonical_under_mutator_symmetry(&canon);
                assert_eq!(canon, again, "canonicalization must be idempotent");
                if symmetry_applicable(s) {
                    let swapped = apply_perm(s, &[1, 0]);
                    let canon_swapped = canonical_under_mutator_symmetry(&swapped);
                    assert_eq!(
                        canon, canon_swapped,
                        "orbit members must share a representative"
                    );
                    checked += 1;
                }
                next.extend(model.successors(s).into_iter().map(|(_, s)| s));
            }
            frontier = next;
        }
        assert!(checked > 0, "the prefix must contain applicable states");
    }

    #[test]
    fn swapping_mutators_preserves_successor_structure() {
        // Bisimulation smoke test: from a swapped state, the successor
        // set is the swap of the original successor set.
        let model = two_mutator_model();
        let init = &model.initial_states()[0];
        assert!(symmetry_applicable(init));
        let swapped = apply_perm(init, &[1, 0]);
        let of = |s: &crate::ModelState| {
            let mut v: Vec<crate::ModelState> =
                model.successors(s).into_iter().map(|(_, s)| s).collect();
            v.sort_by(|a, b| {
                let (mut ba, mut bb) = (Vec::new(), Vec::new());
                codec::encode(a, &mut ba);
                codec::encode(b, &mut bb);
                ba.cmp(&bb)
            });
            v
        };
        let direct = of(&swapped);
        let mut mirrored: Vec<crate::ModelState> =
            of(init).iter().map(|s| apply_perm(s, &[1, 0])).collect();
        mirrored.sort_by(|a, b| {
            let (mut ba, mut bb) = (Vec::new(), Vec::new());
            codec::encode(a, &mut ba);
            codec::encode(b, &mut bb);
            ba.cmp(&bb)
        });
        assert_eq!(direct, mirrored);
    }

    #[test]
    fn ample_filter_reduces_only_certified_local_steps() {
        let model = GcModel::new(ModelConfig::default());
        let nprocs = model.system().len();
        let init = &model.initial_states()[0];
        // Scan a BFS prefix for at least one state where the filter
        // fires, and check it always leaves a single-process tau set.
        let mut frontier = vec![*init];
        let mut fired = 0usize;
        for _ in 0..8 {
            let mut next = Vec::new();
            for s in &frontier {
                let full = model.successors(s);
                let mut filtered = full.clone();
                if ample_filter(nprocs, &mut filtered) {
                    fired += 1;
                    assert!(filtered.len() < full.len());
                    let proc = match &filtered[0].0 {
                        Event::Tau { proc, .. } => *proc,
                        other => panic!("ample sets hold only taus, got {other:?}"),
                    };
                    for (ev, _) in &filtered {
                        match ev {
                            Event::Tau { proc: p, label } => {
                                assert_eq!(*p, proc);
                                assert!(CERTIFIED_INVISIBLE_TAUS.contains(label));
                            }
                            other => panic!("ample sets hold only taus, got {other:?}"),
                        }
                    }
                }
                next.extend(full.into_iter().map(|(_, s)| s));
            }
            frontier = next;
        }
        assert!(fired > 0, "the prefix must contain a reducible state");
    }
}
