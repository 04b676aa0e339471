//! The paper's invariants (§3.2) as executable predicates, and the
//! [`mc::Property`] wrappers that let the checker evaluate them in every
//! reachable state.
//!
//! The headline safety property is [`valid_refs_inv`]; everything else is
//! supporting structure the paper's proof rests on, checked here as
//! additional invariants of the same exploration.

use gc_types::RefSet;
use mc::Property;

use crate::config::ModelConfig;
use crate::view::View;
use crate::vocab::{Addr, HsPhase, HsType, Val};
use crate::ModelState;

/// **The headline safety property**: every reference reachable from a
/// mutator root (including §3.2's extra roots: in-flight barrier scratch
/// and TSO-buffered insertions) has an object on the heap.
///
/// `GC ∥ M₁ ∥ … ∥ Sys ⊨ □(∀r. reachable r → valid_ref r)`
pub fn valid_refs_inv(v: &View) -> bool {
    v.valid_refs(v.all_roots())
}

/// The **strong tricolor invariant** on the committed heap: no black
/// object points to a white object. The insertion barrier plus the
/// handshake structure maintain this throughout the cycle (§2.1, §3.2).
pub fn strong_tricolor_inv(v: &View) -> bool {
    v.strong_tricolor()
}

/// The **weak tricolor invariant**: every white object referenced by a
/// black object is grey-protected. Implied by the strong invariant; checked
/// separately because the deletion-barrier ablation breaks it first.
pub fn weak_tricolor_inv(v: &View) -> bool {
    v.weak_tricolor()
}

/// `valid_W_inv`: work-list sanity (§3.2).
///
/// * Work-lists (collector's `W`, the staged list, every `W_m`) are
///   pairwise disjoint.
/// * If a reference is on a work-list or is the honorary grey of thread
///   `p`, and `p` does not hold the TSO lock, then the object is marked on
///   the committed heap.
/// * Any pending flag write uses the current `f_M`.
/// * Pending flag writes only sit in the buffer of the lock holder.
pub fn valid_w_inv(v: &View) -> bool {
    let marked = v.marked();
    let fm = v.fm();
    let sys = v.sys();
    let cfg = v.config();
    let lock = sys.mem.lock_holder().map(|t| t.index());

    if !gc_types::disjoint(v.work_lists()) {
        return false;
    }

    // Each hardware thread's own greys: its work-list and honorary grey.
    let owned = |tid: usize| {
        if tid == cfg.gc_tid() {
            (v.gc().wl.as_set(), v.gc().ghost_honorary_grey)
        } else {
            let m = v.mutator(tid - 1);
            (m.wl.as_set(), m.ghost_honorary_grey)
        }
    };

    // Honorary greys are disjoint from every work-list.
    let on_lists = v
        .work_lists()
        .fold(RefSet::new(), |all, w| all.union(w.as_set()));
    let honorary: RefSet = (0..cfg.threads()).filter_map(|tid| owned(tid).1).collect();
    if !honorary.is_disjoint(on_lists) {
        return false;
    }

    // Marked-on-heap for unlocked owners.
    for tid in (0..cfg.threads()).filter(|&tid| lock != Some(tid)) {
        let (wl, honorary) = owned(tid);
        if !wl.is_subset(marked) || honorary.is_some_and(|r| !marked.contains(r)) {
            return false;
        }
    }
    // The staged list belongs to no hardware thread; its entries were
    // published (buffer drained) before transfer, so they must be marked.
    if !sys.w_staged.as_set().is_subset(marked) {
        return false;
    }

    // Pending flag writes: correct sense, and only under the lock.
    for tid in 0..cfg.threads() {
        for (a, val) in sys.mem.buffer(tso_model::ThreadId::new(tid)).iter() {
            if let Addr::Flag(_) = a {
                if val != Val::Bool(fm) || lock != Some(tid) {
                    return false;
                }
            }
        }
    }
    true
}

/// Every grey reference is allocated (a freed object on a work-list would
/// be dereferenced by the collector's scan).
pub fn greys_allocated(v: &View) -> bool {
    v.greys().is_subset(v.domain())
}

/// `marked_insertions(m)`: every reference being written into an object by
/// a write pending in `m`'s store buffer targets a marked object.
pub fn marked_insertions(v: &View, m: usize) -> bool {
    v.insertions(v.config().mut_tid(m)).is_subset(v.marked())
}

/// `marked_deletions(m)`: every reference about to be overwritten by a
/// write pending in `m`'s store buffer targets a marked object.
pub fn marked_deletions(v: &View, m: usize) -> bool {
    v.deletions(v.config().mut_tid(m)).is_subset(v.marked())
}

/// `reachable_snapshot_inv(m)`: every reference reachable from `m`'s
/// (extended) roots is black or grey-protected — in force from the moment
/// `m` completes the root-marking handshake ("`m` is black") until the
/// cycle ends.
pub fn reachable_snapshot_inv(v: &View, m: usize) -> bool {
    let safe = v.blacks().union(v.greys()).union(v.grey_protected());
    v.reachable(v.mutator_roots(m)).is_subset(safe)
}

/// `mutator_phase_inv`: the per-mutator barrier obligations, keyed by the
/// mutator's handshake phase (§3.2):
///
/// * `hp_InitMark`: `marked_insertions` holds;
/// * `hp_IdleMarkSweep`: `marked_insertions ∧ marked_deletions`, and
///   `reachable_snapshot_inv` once the mutator has marked its roots.
pub fn mutator_phase_inv(v: &View) -> bool {
    for m in 0..v.config().mutators {
        let ms = v.mutator(m);
        match ms.ghost_hs_phase {
            HsPhase::Idle | HsPhase::IdleInit => {}
            HsPhase::InitMark => {
                if !marked_insertions(v, m) {
                    return false;
                }
            }
            HsPhase::IdleMarkSweep => {
                if !marked_insertions(v, m) || !marked_deletions(v, m) {
                    return false;
                }
                if ms.ghost_roots_done && !reachable_snapshot_inv(v, m) {
                    return false;
                }
            }
        }
    }
    true
}

/// `sys_phase_inv`: heap-coloring facts keyed by the collector's handshake
/// phase (§3.2). Like the paper's `hp_InitMark` case, the assertions are
/// conditioned on the *commit* of the collector's control-variable writes
/// (the writes sit in its TSO buffer until a fence or the bus forces them
/// out):
///
/// * `hp_Idle`: no greys; if committed `f_A = f_M` the heap is black, else
///   (the `f_M` flip has committed) the heap is white;
/// * `hp_IdleInit`: once the `f_M` flip has committed (committed
///   `f_A ≠ f_M`), no black references; until then the between-cycles
///   picture still holds (all black, no greys);
/// * `hp_InitMark`: until the `f_A` write is committed (committed
///   `f_A ≠ f_M`), no black references.
pub fn sys_phase_inv(v: &View) -> bool {
    let sys = v.sys();
    let flags_agree = sys.committed_fa() == sys.committed_fm();
    let all_black = || v.blacks() == v.domain();
    match sys.ghost_gc_phase {
        HsPhase::Idle => {
            v.greys().is_empty()
                && if flags_agree {
                    all_black()
                } else {
                    v.whites() == v.domain()
                }
        }
        HsPhase::IdleInit => {
            if flags_agree {
                // The f_M flip is still pending in the collector's buffer.
                v.greys().is_empty() && all_black()
            } else {
                v.blacks().is_empty()
            }
        }
        HsPhase::InitMark => flags_agree || v.blacks().is_empty(),
        HsPhase::IdleMarkSweep => true,
    }
}

/// The handshake phase relation (§3.2 "Handshakes", Figure 3): relative to
/// the collector's current round, a mutator that has been flagged and has
/// responded is in the collector's phase; one that has been flagged but
/// has not yet responded, or has not yet been flagged this round, is still
/// in the previous phase.
pub fn handshake_phase_rel(v: &View) -> bool {
    let sys = v.sys();
    for m in 0..v.config().mutators {
        let ms = v.mutator(m);
        let expect = if sys.flagged(m) && !sys.pending(m) {
            sys.ghost_gc_phase
        } else {
            sys.ghost_gc_prev_phase
        };
        if ms.ghost_hs_phase != expect {
            return false;
        }
        // An unflagged mutator can have no pending bit.
        if !sys.flagged(m) && sys.pending(m) {
            return false;
        }
    }
    true
}

/// `gc_W_empty_mut_inv` (§3.2 "Termination of Marking"): during a root or
/// termination handshake round, if some mutator has completed the round,
/// the collector's work (its `W` plus the staged list) is empty, and that
/// mutator nonetheless holds grey work, then some mutator that has *not*
/// yet completed the round holds grey work — so the collector is
/// guaranteed to hear about it.
pub fn gc_w_empty_mut_inv(v: &View) -> bool {
    let sys = v.sys();
    if !matches!(sys.hs_type, HsType::GetRoots | HsType::GetWork) {
        return true;
    }
    // Round in progress: some mutator is still pending.
    if sys.hs_pending == 0 {
        return true;
    }
    let collector_has_work =
        !v.gc().wl.is_empty() || !sys.w_staged.is_empty() || v.gc().ghost_honorary_grey.is_some();
    if collector_has_work {
        return true;
    }
    let has_grey = |m: usize| {
        let ms = v.mutator(m);
        !ms.wl.is_empty() || ms.ghost_honorary_grey.is_some()
    };
    for m in 0..v.config().mutators {
        let completed = sys.flagged(m) && !sys.pending(m);
        if completed && has_grey(m) {
            let witness = (0..v.config().mutators).any(|m2| sys.pending(m2) && has_grey(m2));
            if !witness {
                return false;
            }
        }
    }
    true
}

/// Control-variable writes (`f_A`, `f_M`, `phase`) are issued only by the
/// collector (a coarse TSO invariant of §3.2).
pub fn ctrl_writes_gc_only(v: &View) -> bool {
    let cfg = v.config();
    let sys = v.sys();
    for m in 0..cfg.mutators {
        let t = tso_model::ThreadId::new(cfg.mut_tid(m));
        for (a, _) in sys.mem.buffer(t).iter() {
            if matches!(a, Addr::FA | Addr::FM | Addr::Phase) {
                return false;
            }
        }
    }
    true
}

/// Evaluates the full §3.2 invariant suite on one state, in a fixed order,
/// sharing the derived sets (marked, greys, blacks, the grey-protection
/// closure) across the checks that read them. Returns the name of the
/// first violated invariant, or `None` if all hold. This is what the
/// experiment drivers run; the individual predicates above are the readable
/// reference versions (and are exercised against this one in tests).
pub fn check_all(v: &View) -> Option<&'static str> {
    // Cheap structural checks first.
    if !ctrl_writes_gc_only(v) {
        return Some("ctrl_writes_gc_only");
    }
    if !handshake_phase_rel(v) {
        return Some("handshake_phase_rel");
    }
    if !gc_w_empty_mut_inv(v) {
        return Some("gc_W_empty_mut_inv");
    }
    if !greys_allocated(v) {
        return Some("greys_allocated");
    }
    if !valid_w_inv(v) {
        return Some("valid_W_inv");
    }
    if !sys_phase_inv(v) {
        return Some("sys_phase_inv");
    }

    // mutator_phase_inv, naming the obligation that failed and sharing the
    // grey-protection closure between mutators.
    let marked = v.marked();
    let mut snapshot_safe = None;
    for m in 0..v.config().mutators {
        let ms = v.mutator(m);
        let tid = v.config().mut_tid(m);
        let barriers_on = matches!(
            ms.ghost_hs_phase,
            HsPhase::InitMark | HsPhase::IdleMarkSweep
        );
        if barriers_on && !v.insertions(tid).is_subset(marked) {
            return Some("mutator_phase_inv (marked_insertions)");
        }
        if ms.ghost_hs_phase == HsPhase::IdleMarkSweep {
            if !v.deletions(tid).is_subset(marked) {
                return Some("mutator_phase_inv (marked_deletions)");
            }
            if ms.ghost_roots_done {
                let safe = *snapshot_safe
                    .get_or_insert_with(|| v.blacks().union(v.greys()).union(v.grey_protected()));
                if !v.reachable(v.mutator_roots(m)).is_subset(safe) {
                    return Some("reachable_snapshot_inv");
                }
            }
        }
    }

    if !v.strong_tricolor() {
        return Some("strong_tricolor_inv");
    }
    if !v.weak_tricolor() {
        return Some("weak_tricolor_inv");
    }
    if !valid_refs_inv(v) {
        return Some("valid_refs_inv");
    }
    None
}

fn prop(
    cfg: &ModelConfig,
    name: &'static str,
    f: impl Fn(&View) -> bool + Send + Sync + 'static,
) -> Property<ModelState> {
    let cfg = cfg.clone();
    Property::new(name, move |st: &ModelState| f(&View::new(&cfg, st)))
}

/// The whole §3.2 suite as a single bundled property — the efficient form
/// used by the experiment drivers (shared analysis per state; violations
/// report the individual invariant's name).
pub fn combined_property(cfg: &ModelConfig) -> Property<ModelState> {
    let cfg = cfg.clone();
    Property::labeled("invariants", move |st: &ModelState| {
        check_all(&View::new(&cfg, st))
    })
}

/// The headline safety property as a checkable [`Property`].
pub fn safety_property(cfg: &ModelConfig) -> Property<ModelState> {
    prop(cfg, "valid_refs_inv", valid_refs_inv)
}

/// The full §3.2 invariant suite (including safety), in checking order:
/// cheap structural facts first, the reachability-based ones last.
pub fn all_invariants(cfg: &ModelConfig) -> Vec<Property<ModelState>> {
    vec![
        prop(cfg, "ctrl_writes_gc_only", ctrl_writes_gc_only),
        prop(cfg, "valid_W_inv", valid_w_inv),
        prop(cfg, "greys_allocated", greys_allocated),
        prop(cfg, "handshake_phase_rel", handshake_phase_rel),
        prop(cfg, "sys_phase_inv", sys_phase_inv),
        prop(cfg, "mutator_phase_inv", mutator_phase_inv),
        prop(cfg, "gc_W_empty_mut_inv", gc_w_empty_mut_inv),
        prop(cfg, "strong_tricolor_inv", strong_tricolor_inv),
        prop(cfg, "weak_tricolor_inv", weak_tricolor_inv),
        prop(cfg, "valid_refs_inv", valid_refs_inv),
    ]
}

/// Just the tricolor pair (used by the Figure 1 experiment).
pub fn tricolor_properties(cfg: &ModelConfig) -> Vec<Property<ModelState>> {
    vec![
        prop(cfg, "strong_tricolor_inv", strong_tricolor_inv),
        prop(cfg, "weak_tricolor_inv", weak_tricolor_inv),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::GcModel;
    use mc::TransitionSystem;

    fn initial_view_holds(f: impl Fn(&View) -> bool) -> bool {
        let cfg = ModelConfig::small(2, 4);
        let model = GcModel::new(cfg.clone());
        let st = &model.initial_states()[0];
        f(&View::new(&cfg, st))
    }

    #[test]
    fn all_invariants_hold_initially() {
        assert!(initial_view_holds(valid_refs_inv));
        assert!(initial_view_holds(strong_tricolor_inv));
        assert!(initial_view_holds(weak_tricolor_inv));
        assert!(initial_view_holds(valid_w_inv));
        assert!(initial_view_holds(greys_allocated));
        assert!(initial_view_holds(mutator_phase_inv));
        assert!(initial_view_holds(sys_phase_inv));
        assert!(initial_view_holds(handshake_phase_rel));
        assert!(initial_view_holds(gc_w_empty_mut_inv));
        assert!(initial_view_holds(ctrl_writes_gc_only));
    }

    #[test]
    fn property_suite_is_complete() {
        let cfg = ModelConfig::default();
        let props = all_invariants(&cfg);
        assert_eq!(props.len(), 10);
        let names: Vec<_> = props.iter().map(|p| p.name()).collect();
        assert!(names.contains(&"valid_refs_inv"));
        assert!(names.contains(&"strong_tricolor_inv"));
    }
}
