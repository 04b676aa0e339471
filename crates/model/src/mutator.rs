//! The mutator process: a maximally non-deterministic choice among the
//! operations of Figure 6 (`Load`, `Store` with both write barriers,
//! `Alloc`, `Discard`, `MFENCE`) plus the mutator's side of the soft
//! handshakes (§3.1). Every client of the collector is expected to be a
//! refinement of this process.

use cimp::{ComId, MemEffect};
use gc_types::Ref;

use crate::config::ModelConfig;
use crate::mark::build_mark;
use crate::mark::regions::FIELD;
use crate::state::{Local, MutState};
use crate::vocab::{Addr, HsType, Req, ReqKind, Resp, Val};
use crate::Prog;

/// Builds the initial state of mutator `m` for `cfg`.
pub fn initial_mut_state(cfg: &ModelConfig, m: usize) -> MutState {
    let roots = cfg.initial.roots[m].iter().map(|&i| Ref::new(i)).collect();
    MutState::initial(m as u8, roots)
}

/// Emits a read of every field of every rooted object: the request values
/// of a load, and of a store's deletion-barrier load.
fn field_reads(m: &MutState, fields: u8, emit: &mut dyn FnMut(Req)) {
    let tid = 1 + m.idx as usize;
    for src in m.roots {
        for fld in 0..fields {
            emit(Req {
                tid,
                kind: ReqKind::Read(Addr::Field(src, fld)),
            });
        }
    }
}

/// `Load(src ∈ roots, fld)`: read a field of a rooted object into the
/// roots. One rendezvous; all `(src, fld)` choices are offered as distinct
/// request values.
fn build_load(p: &mut Prog, cfg: &ModelConfig) -> ComId {
    let fields = cfg.fields as u8;
    let load = p.request_nd(
        "mut-load",
        move |l: &Local, emit| field_reads(l.mutator(), fields, emit),
        |l: &Local, _req: &Req, beta: &Resp, emit| {
            let loaded = beta
                .loaded()
                .expect("rooted objects are allocated")
                .as_ref_val();
            let mut l2 = *l;
            if let Some(r) = loaded {
                l2.mutator_mut().roots.insert(r);
            }
            emit(l2);
        },
    );
    p.annotate(load, MemEffect::Load(FIELD))
}

/// `Store(dst ∈ roots, src ∈ roots, fld)` (Figure 6 lines 7–11):
///
/// 1. load `src.fld` — the reference about to be *deleted* (this is the
///    deletion barrier's argument load; the choice of `dst` fans out in
///    the receive);
/// 2. `mark(src.fld, W_m)` — the deletion barrier;
/// 3. `mark(dst, W_m)` — the insertion barrier;
/// 4. the TSO store `src.fld ← dst`.
///
/// With the deletion barrier ablated the initial load is skipped too (the
/// barrier is the only consumer of the loaded value; the deleted reference
/// is *not* loaded into the roots, per the paper's note on Figure 6).
fn build_store(p: &mut Prog, cfg: &ModelConfig) -> ComId {
    let fields = cfg.fields as u8;

    let begin = if cfg.deletion_barrier {
        let b = p.request_nd(
            "mut-store-begin",
            move |l: &Local, emit| field_reads(l.mutator(), fields, emit),
            |l: &Local, req: &Req, beta: &Resp, emit| {
                let ReqKind::Read(Addr::Field(src, fld)) = req.kind else {
                    panic!("store begins with a field read");
                };
                let deleted = beta
                    .loaded()
                    .expect("rooted objects are allocated")
                    .as_ref_val();
                // Fan out over the choice of dst.
                for dst in l.mutator().roots {
                    let mut l2 = *l;
                    let m2 = l2.mutator_mut();
                    m2.st_active = true;
                    m2.st_dst = Some(dst);
                    m2.st_src = Some(src);
                    m2.st_fld = fld;
                    m2.st_deleted = deleted;
                    m2.mark.target = deleted; // prime the deletion barrier
                    emit(l2);
                }
            },
        );
        p.annotate(b, MemEffect::Load(FIELD))
    } else {
        // Ablation: no deletion barrier, hence no load of the old value.
        let b = p.local_op("mut-store-begin-unbarriered", move |l: &Local, emit| {
            let m = l.mutator();
            for src in m.roots {
                for fld in 0..fields {
                    for dst in m.roots {
                        let mut l2 = *l;
                        let m2 = l2.mutator_mut();
                        m2.st_active = true;
                        m2.st_dst = Some(dst);
                        m2.st_src = Some(src);
                        m2.st_fld = fld;
                        m2.st_deleted = None;
                        emit(l2);
                    }
                }
            }
        });
        p.annotate(b, MemEffect::Pure)
    };

    let mut steps = vec![begin];
    if cfg.deletion_barrier {
        let deletion_mark = build_mark(p, cfg);
        steps.push(deletion_mark);
    }
    if cfg.insertion_barrier {
        let prime = p.assign("mut-store-prime-insertion", |l: &mut Local| {
            let m = l.mutator_mut();
            m.mark.target = m.st_dst;
        });
        p.annotate(prime, MemEffect::Pure);
        let mark = build_mark(p, cfg);
        steps.push(prime);
        steps.push(mark);
    }
    let write = p.request(
        "mut-store-write",
        |l: &Local| {
            let m = l.mutator();
            Req {
                tid: 1 + m.idx as usize,
                kind: ReqKind::Write(
                    Addr::Field(m.st_src.expect("store in flight"), m.st_fld),
                    Val::Ref(m.st_dst),
                ),
            }
        },
        |l: &Local, _beta: &Resp| {
            let mut l2 = *l;
            let m2 = l2.mutator_mut();
            m2.st_active = false;
            m2.st_dst = None;
            m2.st_src = None;
            m2.st_fld = 0;
            m2.st_deleted = None;
            l2
        },
    );
    p.annotate(write, MemEffect::Store(FIELD));
    steps.push(write);
    p.seq(steps)
}

/// `Alloc` (Figure 6 lines 13–18): an atomic allocation, mark sense `f_A`.
fn build_alloc(p: &mut Prog) -> ComId {
    let alloc = p.request(
        "mut-alloc",
        |l: &Local| Req {
            tid: 1 + l.mutator().idx as usize,
            kind: ReqKind::Alloc,
        },
        |l: &Local, beta: &Resp| {
            let Resp::Allocated(r) = beta else {
                panic!("Alloc answers with Allocated");
            };
            let mut l2 = *l;
            l2.mutator_mut().roots.insert(*r);
            l2
        },
    );
    // Allocation is axiomatised as atomic (§3.1): the fresh object's flag
    // and fields are initialised directly in memory, never buffered.
    p.annotate(alloc, MemEffect::Pure)
}

/// `Discard(ref ∈ roots)` (Figure 6 lines 20–21).
fn build_discard(p: &mut Prog) -> ComId {
    let discard = p.local_op("mut-discard", |l: &Local, emit| {
        for r in l.mutator().roots {
            let mut l2 = *l;
            l2.mutator_mut().roots.remove(r);
            emit(l2);
        }
    });
    p.annotate(discard, MemEffect::Pure)
}

/// The mutator's side of a handshake: poll the pending bit, load-fence, do
/// the requested work (marking roots for a get-roots round), then transfer
/// `W_m` and clear the bit (with the completing store fence).
fn build_handshake(p: &mut Prog, cfg: &ModelConfig) -> ComId {
    // The fence discipline lives in the system's responses (sys-hs-poll /
    // sys-hs-complete block on a non-empty buffer); the static annotation
    // mirrors it so the analyzer sees the same discipline the checker does.
    let hs_effect = if cfg.handshake_fences {
        MemEffect::Fence
    } else {
        MemEffect::Pure
    };
    let poll = p.request(
        "mut-hs-poll",
        |l: &Local| Req {
            tid: 1 + l.mutator().idx as usize,
            kind: ReqKind::HsPoll(l.mutator().idx),
        },
        |l: &Local, beta: &Resp| {
            let Resp::Handshake(ty) = beta else {
                panic!("HsPoll answers with Handshake");
            };
            let mut l2 = *l;
            let m = l2.mutator_mut();
            m.hs_type = Some(*ty);
            if *ty == HsType::GetRoots {
                m.roots_to_mark = m.roots;
            }
            l2
        },
    );
    p.annotate(poll, hs_effect);

    let pick_root = p.assign("mut-hs-pick-root", |l: &mut Local| {
        let m = l.mutator_mut();
        m.mark.target = Some(m.roots_to_mark.pop_first().expect("roots loop guard"));
    });
    p.annotate(pick_root, MemEffect::Pure);
    let mark = build_mark(p, cfg);
    let mark_root = p.seq([pick_root, mark]);
    let mark_roots = p.while_do(|l: &Local| !l.mutator().roots_to_mark.is_empty(), mark_root);

    let complete = p.request(
        "mut-hs-complete",
        |l: &Local| {
            let m = l.mutator();
            // Work-lists are handed over only when the collector asked for
            // them (root marking / termination rounds); noop rounds merely
            // acknowledge.
            let wl = if m.hs_type == Some(HsType::Noop) {
                gc_types::WorkList::new()
            } else {
                m.wl
            };
            Req {
                tid: 1 + m.idx as usize,
                kind: ReqKind::HsComplete(m.idx, wl),
            }
        },
        |l: &Local, _beta: &Resp| {
            let mut l2 = *l;
            let m = l2.mutator_mut();
            let ty = m.hs_type.take().expect("handshake in flight");
            if ty != HsType::Noop {
                m.wl = gc_types::WorkList::new();
            }
            let new_phase = m.ghost_hs_phase.step(ty);
            m.ghost_hs_phase = new_phase;
            match ty {
                HsType::GetRoots => m.ghost_roots_done = true,
                HsType::Noop => {
                    if new_phase == crate::vocab::HsPhase::Idle {
                        m.ghost_roots_done = false;
                    }
                }
                HsType::GetWork => {}
            }
            l2
        },
    );
    p.annotate(complete, hs_effect);

    p.seq([poll, mark_roots, complete])
}

/// A spontaneous `MFENCE` (part of the mutator vocabulary in §3.1).
fn build_mfence(p: &mut Prog) -> ComId {
    let f = p.request_ignore("mut-mfence", |l: &Local| Req {
        tid: 1 + l.mutator().idx as usize,
        kind: ReqKind::MFence,
    });
    p.annotate(f, MemEffect::Fence)
}

/// Builds mutator `m`'s full program: `LOOP (op₁ ⊓ op₂ ⊓ …)`.
pub fn mutator_program(cfg: &ModelConfig, _m: usize) -> Prog {
    let mut p = Prog::new();
    let mut branches = Vec::new();
    if cfg.ops.load {
        branches.push(build_load(&mut p, cfg));
    }
    if cfg.ops.store {
        branches.push(build_store(&mut p, cfg));
    }
    if cfg.ops.alloc {
        branches.push(build_alloc(&mut p));
    }
    if cfg.ops.discard {
        branches.push(build_discard(&mut p));
    }
    if cfg.ops.mfence {
        branches.push(build_mfence(&mut p));
    }
    branches.push(build_handshake(&mut p, cfg));
    let body = p.choose(branches);
    let entry = p.loop_forever(body);
    p.set_entry(entry);
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use cimp::step::at_labels;

    fn local(cfg: &ModelConfig) -> Local {
        Local::Mut(initial_mut_state(cfg, 0))
    }

    #[test]
    fn initial_roots_follow_config() {
        let cfg = ModelConfig::small(2, 4);
        let m = initial_mut_state(&cfg, 1);
        assert_eq!(m.idx, 1);
        assert!(m.roots.contains(Ref::new(1)));
    }

    #[test]
    fn op_menu_offers_enabled_ops() {
        let cfg = ModelConfig::default();
        let p = mutator_program(&cfg, 0);
        let mut labels = at_labels(&p, &p.entry().into(), &local(&cfg));
        labels.sort_unstable();
        labels.dedup();
        // Load/store/alloc/discard plus the handshake poll; no pending
        // handshake means the poll is *offered* (it just cannot complete).
        assert!(labels.contains(&"mut-load"));
        assert!(labels.contains(&"mut-store-begin"));
        assert!(labels.contains(&"mut-alloc"));
        assert!(labels.contains(&"mut-discard"));
        assert!(labels.contains(&"mut-hs-poll"));
    }

    #[test]
    fn rootless_mutator_cannot_load_or_discard() {
        let cfg = ModelConfig::default();
        let p = mutator_program(&cfg, 0);
        let mut st = initial_mut_state(&cfg, 0);
        st.roots = gc_types::RefSet::new();
        let labels = at_labels(&p, &p.entry().into(), &Local::Mut(st));
        assert!(!labels.contains(&"mut-load"));
        assert!(!labels.contains(&"mut-discard"));
        assert!(labels.contains(&"mut-alloc"));
    }

    #[test]
    fn barrier_ablations_change_program_shape() {
        let faithful = mutator_program(&ModelConfig::default(), 0);
        let no_del = mutator_program(
            &ModelConfig {
                deletion_barrier: false,
                ..ModelConfig::default()
            },
            0,
        );
        let no_ins = mutator_program(
            &ModelConfig {
                insertion_barrier: false,
                ..ModelConfig::default()
            },
            0,
        );
        assert!(no_del.len() < faithful.len());
        assert!(no_ins.len() < faithful.len());
    }
}
