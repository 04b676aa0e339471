//! Negative tests for the invariant checkers: hand-mutate model states
//! into each forbidden shape and assert the corresponding predicate
//! *detects* it. (The model itself never reaches these states — that is
//! the theorem — so the detectors need their own direct evidence.)

use cimp::{Locals, SystemState};
use gc_model::invariants;
use gc_model::view::View;
use gc_model::{GcModel, Local, ModelConfig, ModelState, Roles};
use gc_types::Ref;
use mc::TransitionSystem;

/// A copy of the initial state's local states to operate on.
struct Surgeon {
    cfg: ModelConfig,
    state: ModelState,
    roles: Roles,
}

impl Surgeon {
    fn new(cfg: ModelConfig) -> Self {
        let model = GcModel::new(cfg.clone());
        let state = model.initial_states().remove(0);
        let roles = *state.locals();
        Surgeon { cfg, state, roles }
    }

    fn gc_mut(&mut self) -> &mut gc_model::GcState {
        &mut self.roles.gc
    }

    fn mut_mut(&mut self, m: usize) -> &mut gc_model::MutState {
        &mut self.roles.mutators_mut()[m]
    }

    fn sys_mut(&mut self) -> &mut gc_model::SysState {
        &mut self.roles.sys
    }

    /// Evaluates `f` on the initial control state with the operated-on
    /// local states.
    fn check<R>(&self, f: impl FnOnce(&View) -> R) -> R {
        let locals: Vec<Local> = (0..self.state.len()).map(|p| self.roles.get(p)).collect();
        let state = SystemState::from_parts(self.state.controls(), &locals);
        f(&View::new(&self.cfg, &state))
    }
}

fn r(i: u8) -> Ref {
    Ref::new(i)
}

#[test]
fn initial_state_satisfies_everything() {
    let s = Surgeon::new(ModelConfig::small(2, 4));
    assert_eq!(s.check(invariants::check_all), None);
}

#[test]
fn valid_refs_detects_a_dangling_root() {
    let mut s = Surgeon::new(ModelConfig::small(1, 3));
    s.mut_mut(0).roots.insert(r(2)); // slot 2 was never allocated
    assert!(!s.check(invariants::valid_refs_inv));
    assert_eq!(s.check(invariants::check_all), Some("valid_refs_inv"));
}

#[test]
fn valid_refs_detects_a_dangling_scratch_root() {
    let mut s = Surgeon::new(ModelConfig::small(1, 3));
    s.mut_mut(0).st_deleted = Some(r(2)); // in-flight barrier scratch
    assert!(!s.check(invariants::valid_refs_inv));
}

#[test]
fn valid_refs_detects_a_dangling_buffered_insertion() {
    let mut s = Surgeon::new(ModelConfig::small(1, 3));
    let tid = s.cfg.mut_tid(0);
    s.sys_mut()
        .mem
        .write(
            tso_model::ThreadId::new(tid),
            gc_model::Addr::Field(r(0), 0),
            gc_model::Val::Ref(Some(r(2))),
        )
        .unwrap();
    // The buffered insertion of an unallocated ref is itself the hazard.
    assert!(!s.check(invariants::valid_refs_inv));
}

#[test]
fn strong_tricolor_detects_black_to_white() {
    let mut s = Surgeon::new(ModelConfig::small(1, 3));
    // Make slot 1 white (flag true != fm false), keep slot 0 black, and
    // wire 0 -> 1. Slot 1 is a mutator root... remove it from the roots so
    // only the heap edge remains (safety would also fire otherwise — we
    // want the tricolor detector specifically).
    let sys = s.sys_mut();
    sys.heap.insert(r(1));
    sys.mem
        .initialize(gc_model::Addr::Flag(r(1)), gc_model::Val::Bool(true));
    sys.mem
        .initialize(gc_model::Addr::Field(r(1), 0), gc_model::Val::Ref(None));
    sys.mem.initialize(
        gc_model::Addr::Field(r(0), 0),
        gc_model::Val::Ref(Some(r(1))),
    );
    assert!(!s.check(invariants::strong_tricolor_inv));
    assert!(
        !s.check(invariants::weak_tricolor_inv),
        "no grey protects the white object either"
    );
}

#[test]
fn weak_tricolor_accepts_grey_protection() {
    let mut s = Surgeon::new(ModelConfig::small(1, 4));
    let sys = s.sys_mut();
    // white object 1 pointed to by black 0, but grey 2 also reaches it.
    for i in [1u8, 2] {
        sys.heap.insert(r(i));
        sys.mem
            .initialize(gc_model::Addr::Field(r(i), 0), gc_model::Val::Ref(None));
    }
    // 1 is white (flag != fm); 2 is marked (flag == fm) and on a work-list,
    // hence grey.
    sys.mem
        .initialize(gc_model::Addr::Flag(r(1)), gc_model::Val::Bool(true));
    sys.mem
        .initialize(gc_model::Addr::Flag(r(2)), gc_model::Val::Bool(false));
    sys.mem.initialize(
        gc_model::Addr::Field(r(0), 0),
        gc_model::Val::Ref(Some(r(1))),
    );
    sys.mem.initialize(
        gc_model::Addr::Field(r(2), 0),
        gc_model::Val::Ref(Some(r(1))),
    );
    s.gc_mut().wl.insert(r(2)); // grey
    assert!(
        !s.check(invariants::strong_tricolor_inv),
        "black→white edge"
    );
    assert!(
        s.check(invariants::weak_tricolor_inv),
        "but the white object is grey-protected"
    );
}

#[test]
fn valid_w_detects_unmarked_worklist_entries() {
    let mut s = Surgeon::new(ModelConfig::small(1, 3));
    // Slot 0 is black-in-sense-false; flip fm in memory so it reads as
    // unmarked, then put it on the collector's work-list with no lock held.
    s.sys_mut()
        .mem
        .initialize(gc_model::Addr::FM, gc_model::Val::Bool(true));
    s.gc_mut().wl.insert(r(0));
    assert!(!s.check(invariants::valid_w_inv));
}

#[test]
fn valid_w_detects_overlapping_worklists() {
    let mut s = Surgeon::new(ModelConfig::small(1, 3));
    s.gc_mut().wl.insert(r(0));
    s.mut_mut(0).wl.insert(r(0));
    assert!(!s.check(invariants::valid_w_inv));
}

#[test]
fn greys_allocated_detects_freed_grey() {
    let mut s = Surgeon::new(ModelConfig::small(1, 3));
    s.gc_mut().wl.insert(r(2)); // never allocated
    assert!(!s.check(invariants::greys_allocated));
}

#[test]
fn handshake_rel_detects_desynchronised_mutator() {
    let mut s = Surgeon::new(ModelConfig::small(1, 3));
    s.mut_mut(0).ghost_hs_phase = gc_model::HsPhase::InitMark;
    assert!(!s.check(invariants::handshake_phase_rel));
}

#[test]
fn mutator_phase_detects_unmarked_insertion() {
    let mut s = Surgeon::new(ModelConfig::small(1, 3));
    // Mutator claims to be past InitMark while holding a pending white
    // insertion: allocate a white object 1 and buffer a write of it.
    let tid = s.cfg.mut_tid(0);
    {
        let sys = s.sys_mut();
        sys.heap.insert(r(1));
        sys.mem
            .initialize(gc_model::Addr::Flag(r(1)), gc_model::Val::Bool(true)); // != fm
        sys.mem
            .initialize(gc_model::Addr::Field(r(1), 0), gc_model::Val::Ref(None));
        sys.mem
            .write(
                tso_model::ThreadId::new(tid),
                gc_model::Addr::Field(r(0), 0),
                gc_model::Val::Ref(Some(r(1))),
            )
            .unwrap();
    }
    s.mut_mut(0).ghost_hs_phase = gc_model::HsPhase::InitMark;
    // Keep the handshake relation consistent so only the target invariant
    // fires: flag the sys ghosts to match.
    s.sys_mut().ghost_gc_phase = gc_model::HsPhase::InitMark;
    s.sys_mut().ghost_gc_prev_phase = gc_model::HsPhase::IdleInit;
    assert!(!s.check(invariants::mutator_phase_inv));
    assert!(!s.check(|v| invariants::marked_insertions(v, 0)));
    // The same write is also a deletion of nothing (field was NULL):
    assert!(s.check(|v| invariants::marked_deletions(v, 0)));
}

#[test]
fn sys_phase_detects_grey_during_idle() {
    let mut s = Surgeon::new(ModelConfig::small(1, 3));
    s.sys_mut().ghost_gc_phase = gc_model::HsPhase::Idle;
    s.gc_mut().wl.insert(r(0));
    assert!(!s.check(invariants::sys_phase_inv));
}

#[test]
fn gc_w_empty_detects_silent_grey_holder() {
    let mut s = Surgeon::new(ModelConfig::small(2, 4));
    // A get-work round in progress; mutator 0 completed with grey work,
    // mutator 1 pending with none, collector empty: the completed
    // mutator's work would be lost.
    {
        let sys = s.sys_mut();
        sys.hs_type = gc_model::HsType::GetWork;
        sys.ghost_hs_flagged = 0b11;
        sys.hs_pending = 0b10;
    }
    s.mut_mut(0).wl.insert(r(0));
    assert!(!s.check(invariants::gc_w_empty_mut_inv));
    // With the pending mutator holding grey work instead, the invariant is
    // satisfied (the collector is guaranteed to hear about it).
    s.mut_mut(1).wl.insert(r(1));
    assert!(s.check(invariants::gc_w_empty_mut_inv));
}

#[test]
fn ctrl_writes_detects_mutator_writing_phase() {
    let mut s = Surgeon::new(ModelConfig::small(1, 3));
    let tid = s.cfg.mut_tid(0);
    s.sys_mut()
        .mem
        .write(
            tso_model::ThreadId::new(tid),
            gc_model::Addr::Phase,
            gc_model::Val::Phase(gc_model::Phase::Mark),
        )
        .unwrap();
    assert!(!s.check(invariants::ctrl_writes_gc_only));
}

#[test]
fn reachable_snapshot_detects_unprotected_white() {
    let mut s = Surgeon::new(ModelConfig::small(1, 3));
    // Mutator black (roots done), rooting a white object with no grey
    // protection anywhere.
    {
        let sys = s.sys_mut();
        sys.mem
            .initialize(gc_model::Addr::Flag(r(0)), gc_model::Val::Bool(true)); // white
    }
    let ms = s.mut_mut(0);
    ms.ghost_roots_done = true;
    assert!(!s.check(|v| invariants::reachable_snapshot_inv(v, 0)));
}
