//! The system process: the x86-TSO memory (Figure 9), the allocator, and
//! the handshake apparatus (§3.1).
//!
//! The system is a reactive CIMP process: an infinite loop offering one
//! `Response` per operation (the paper's non-deterministic sum `⊔`), plus a
//! single internal transition that commits the oldest pending store-buffer
//! entry of some thread — exactly the shape of the paper's `mem-TSO`.

use gc_types::{Ref, RefSet, WorkList};
use tso_model::ThreadId;

use crate::config::ModelConfig;
use crate::state::{Local, SysState};
use crate::vocab::{key, Addr, HsType, Phase, Req, ReqKind, Resp, Val};
use crate::Prog;

/// Builds the initial system-process state for `cfg`.
pub fn initial_sys_state(cfg: &ModelConfig) -> SysState {
    let mut mem = tso_model::Machine::new(cfg.threads(), cfg.memory_model);
    mem.initialize(Addr::FA, Val::Bool(false));
    mem.initialize(Addr::FM, Val::Bool(false));
    mem.initialize(Addr::Phase, Val::Phase(Phase::Idle));
    let mut heap = RefSet::new();
    for (i, fields) in cfg.initial.objects.iter().enumerate() {
        let r = Ref::new(i as u8);
        heap.insert(r);
        // Initial objects are black: flag == f_M == false.
        mem.initialize(Addr::Flag(r), Val::Bool(false));
        for (f, target) in fields.iter().enumerate() {
            mem.initialize(Addr::Field(r, f as u8), Val::Ref(target.map(Ref::new)));
        }
    }
    SysState {
        mem,
        heap,
        hs_type: HsType::Noop,
        hs_pending: 0,
        ghost_hs_flagged: all_mutators(cfg),
        w_staged: WorkList::new(),
        ghost_gc_phase: crate::vocab::HsPhase::IdleMarkSweep,
        ghost_gc_prev_phase: crate::vocab::HsPhase::IdleMarkSweep,
        ghost_roots_phase: false,
    }
}

/// The per-mutator bit mask with every mutator's bit set.
fn all_mutators(cfg: &ModelConfig) -> u8 {
    (1 << cfg.mutators) - 1
}

/// Builds the system process's CIMP program.
pub fn sys_program(cfg: &ModelConfig) -> Prog {
    let mut p = Prog::new();
    let buffer_cap = cfg.buffer_cap;
    let heap_capacity = cfg.heap_capacity;
    let fields = cfg.fields;
    let fences = cfg.handshake_fences;

    // -- TSO operations (Figure 9) ------------------------------------

    let read = p.response("sys-read", key::READ, |req: &Req, l: &Local| {
        let ReqKind::Read(addr) = &req.kind else {
            return None;
        };
        // Blocked: no rendezvous.
        let v = l.sys().mem.read(ThreadId::new(req.tid), addr).ok()?;
        Some((*l, Resp::Loaded(v)))
    });

    let write = p.response("sys-write", key::WRITE, move |req: &Req, l: &Local| {
        let ReqKind::Write(addr, val) = &req.kind else {
            return None;
        };
        let s = l.sys();
        // Finite hardware store buffers: a full buffer delays the store.
        if s.mem.buffer(ThreadId::new(req.tid)).len() >= buffer_cap {
            return None;
        }
        let mut l2 = *l;
        l2.sys_mut()
            .mem
            .write(ThreadId::new(req.tid), *addr, *val)
            .expect("buffer_cap is within the machine's capacity");
        Some((l2, Resp::Void))
    });

    let mfence = p.response("sys-mfence", key::MFENCE, |req: &Req, l: &Local| {
        let enabled = req.kind == ReqKind::MFence && l.sys().mem.can_mfence(ThreadId::new(req.tid));
        enabled.then_some((*l, Resp::Void))
    });

    let lock = p.response("sys-lock", key::LOCK, |req: &Req, l: &Local| {
        if req.kind != ReqKind::Lock {
            return None;
        }
        let mut l2 = *l;
        l2.sys_mut().mem.lock(ThreadId::new(req.tid)).ok()?;
        Some((l2, Resp::Void))
    });

    let unlock = p.response("sys-unlock", key::UNLOCK, |req: &Req, l: &Local| {
        if req.kind != ReqKind::Unlock {
            return None;
        }
        let mut l2 = *l;
        l2.sys_mut().mem.unlock(ThreadId::new(req.tid)).ok()?;
        Some((l2, Resp::Void))
    });

    // The only internal transition: commit the oldest pending write of an
    // unblocked thread (`sys-dequeue-write-buffer`).
    let dequeue = p.local_op("sys-dequeue", |l: &Local, emit| {
        let s = l.sys();
        for t in s.mem.threads_with_pending() {
            if s.mem.not_blocked(t) {
                let mut l2 = *l;
                l2.sys_mut().mem.commit(t).expect("commit enabled");
                emit(l2);
            }
        }
    });

    // -- Allocation and reclamation (§3.1: axiomatised as atomic) ------

    let alloc = p.response("sys-alloc", key::ALLOC, move |req: &Req, l: &Local| {
        let s = l.sys();
        if req.kind != ReqKind::Alloc || !s.not_blocked(req.tid) {
            return None;
        }
        // Lowest free slot (a deterministic refinement of "an arbitrary
        // free reference"; slot identity is symmetric). A full heap blocks
        // the allocation.
        let slot = (0..heap_capacity as u8)
            .map(Ref::new)
            .find(|&r| !s.heap.contains(r))?;
        let fa = s.committed_fa();
        let mut l2 = *l;
        let s2 = l2.sys_mut();
        s2.heap.insert(slot);
        s2.mem.initialize(Addr::Flag(slot), Val::Bool(fa));
        for f in 0..fields as u8 {
            s2.mem.initialize(Addr::Field(slot, f), Val::Ref(None));
        }
        Some((l2, Resp::Allocated(slot)))
    });

    let free = p.response("sys-free", key::FREE, move |req: &Req, l: &Local| {
        let ReqKind::Free(r) = req.kind else {
            return None;
        };
        let s = l.sys();
        if !s.not_blocked(req.tid) || !s.heap.contains(r) {
            return None;
        }
        let mut l2 = *l;
        let s2 = l2.sys_mut();
        s2.heap.remove(r);
        s2.mem.remove(&Addr::Flag(r));
        for f in 0..fields as u8 {
            s2.mem.remove(&Addr::Field(r, f));
        }
        Some((l2, Resp::Void))
    });

    let snapshot = p.response(
        "sys-heap-snapshot",
        key::HEAP_SNAPSHOT,
        |req: &Req, l: &Local| {
            (req.kind == ReqKind::HeapSnapshot).then(|| (*l, Resp::Domain(l.sys().heap)))
        },
    );

    // -- Handshakes (§3.1) ---------------------------------------------

    let hs_begin = p.response(
        "sys-hs-begin",
        key::HS_BEGIN,
        move |req: &Req, l: &Local| {
            let ReqKind::HsBegin(ty) = req.kind else {
                return None;
            };
            // The collector's store fence when initiating a round (§2.4): the
            // round does not begin until the collector's control-variable
            // writes have drained. Dropped by the fence ablation.
            if fences && !l.sys().mem.buffer(ThreadId::new(req.tid)).is_empty() {
                return None;
            }
            let mut l2 = *l;
            let s2 = l2.sys_mut();
            debug_assert_eq!(s2.hs_pending, 0, "handshake rounds never overlap");
            s2.hs_type = ty;
            s2.ghost_gc_prev_phase = s2.ghost_gc_phase;
            s2.ghost_gc_phase = s2.ghost_gc_phase.step(ty);
            s2.ghost_hs_flagged = 0;
            match ty {
                HsType::GetRoots => s2.ghost_roots_phase = true,
                HsType::Noop => {
                    if s2.ghost_gc_phase == crate::vocab::HsPhase::Idle {
                        s2.ghost_roots_phase = false;
                    }
                }
                HsType::GetWork => {}
            }
            Some((l2, Resp::Void))
        },
    );

    let hs_pend = p.response("sys-hs-pend", key::HS_PEND, |req: &Req, l: &Local| {
        let ReqKind::HsPend(m) = req.kind else {
            return None;
        };
        let mut l2 = *l;
        let s2 = l2.sys_mut();
        s2.hs_pending |= 1 << m;
        s2.ghost_hs_flagged |= 1 << m;
        Some((l2, Resp::Void))
    });

    let hs_await = p.response("sys-hs-await", key::HS_AWAIT, |req: &Req, l: &Local| {
        // Block until all mutators have responded.
        if req.kind != ReqKind::HsAwait || l.sys().hs_pending != 0 {
            return None;
        }
        // Hand the staged work-list to the collector in the same step (the
        // concluding load fence is vacuous here: the collector has issued
        // no stores during the round).
        let mut l2 = *l;
        let w = std::mem::take(&mut l2.sys_mut().w_staged);
        Some((l2, Resp::Work(w)))
    });

    let hs_poll = p.response("sys-hs-poll", key::HS_POLL, move |req: &Req, l: &Local| {
        let ReqKind::HsPoll(m) = req.kind else {
            return None;
        };
        let s = l.sys();
        if !s.pending(usize::from(m)) {
            return None; // no handshake pending for this mutator
        }
        // The accepting fence (§2.4): the mutator takes the handshake only
        // once its own buffer has drained. Dropped by the fence ablation.
        if fences && !s.mem.buffer(ThreadId::new(req.tid)).is_empty() {
            return None;
        }
        Some((*l, Resp::Handshake(s.hs_type)))
    });

    let hs_complete = p.response(
        "sys-hs-complete",
        key::HS_COMPLETE,
        move |req: &Req, l: &Local| {
            let ReqKind::HsComplete(m, mut wl) = req.kind else {
                return None;
            };
            let s = l.sys();
            if !s.pending(usize::from(m)) {
                return None;
            }
            // The completing store fence: the mutator's buffer must be drained
            // before it signals completion (§2.4). Dropped by the fence
            // ablation.
            if fences && !s.mem.buffer(ThreadId::new(req.tid)).is_empty() {
                return None;
            }
            let mut l2 = *l;
            let s2 = l2.sys_mut();
            s2.w_staged.absorb(&mut wl);
            s2.hs_pending &= !(1 << m);
            Some((l2, Resp::Void))
        },
    );

    let branches = [
        read,
        write,
        mfence,
        lock,
        unlock,
        dequeue,
        alloc,
        free,
        snapshot,
        hs_begin,
        hs_pend,
        hs_await,
        hs_poll,
        hs_complete,
    ];
    // The memory itself lives in the system's local state: its transitions
    // never traverse a store buffer of their own, so every branch is pure
    // from the analyzer's point of view. The requesters carry the effects.
    for b in branches {
        p.annotate(b, cimp::MemEffect::Pure);
    }
    let body = p.choose(branches);
    let entry = p.loop_forever(body);
    p.set_entry(entry);
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;

    #[test]
    fn initial_state_matches_config() {
        let cfg = ModelConfig::small(2, 4);
        let s = initial_sys_state(&cfg);
        assert_eq!(s.heap.len(), 2);
        assert!(!s.committed_fa());
        assert!(!s.committed_fm());
        assert_eq!(s.committed_phase(), Phase::Idle);
        assert_eq!((s.hs_pending, s.ghost_hs_flagged), (0b00, 0b11));
        assert_eq!(
            s.mem.memory(&Addr::Flag(Ref::new(0))),
            Some(Val::Bool(false))
        );
        assert_eq!(
            s.mem.memory(&Addr::Field(Ref::new(1), 0)),
            Some(Val::Ref(None))
        );
    }

    #[test]
    fn initial_chain_is_wired() {
        let mut cfg = ModelConfig::small(1, 4);
        cfg.initial = crate::config::InitialHeap::chain(1, 3, 1);
        cfg.validate();
        let s = initial_sys_state(&cfg);
        assert_eq!(
            s.mem.memory(&Addr::Field(Ref::new(0), 0)),
            Some(Val::Ref(Some(Ref::new(1))))
        );
        assert_eq!(
            s.mem.memory(&Addr::Field(Ref::new(2), 0)),
            Some(Val::Ref(None))
        );
    }

    #[test]
    fn program_builds() {
        let cfg = ModelConfig::default();
        let p = sys_program(&cfg);
        assert!(p.len() > 10);
    }
}
