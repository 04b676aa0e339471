//! The collector process: Figure 2's non-terminating control loop, with
//! the mark loop of Figure 10 and the handshake protocol of §3.1.

use cimp::{ComId, MemEffect};
use gc_types::Ref;

use crate::config::ModelConfig;
use crate::mark::build_mark;
use crate::mark::regions::{FA, FIELD, FLAG, FM, PHASE};
use crate::state::Local;
use crate::vocab::{Addr, HsType, Phase, Req, ReqKind, Resp, Val};
use crate::Prog;

/// Builds one collector-side handshake round of the given type (Figure 4):
/// set the type, store-fence, flag every mutator, await completion,
/// load-fence, and (for root/work handshakes) take the staged work-list.
fn build_handshake(p: &mut Prog, cfg: &ModelConfig, ty: HsType) -> ComId {
    let tid = cfg.gc_tid();
    let mutators = cfg.mutators as u8;

    // The initiating store fence (§2.4) is the enabling condition of
    // `HsBegin` on the system side: the rendezvous fires only once the
    // collector's buffer has drained (unless the fence ablation is on).
    let begin = p.request(
        "gc-hs-begin",
        move |_l: &Local| Req {
            tid,
            kind: ReqKind::HsBegin(ty),
        },
        |l: &Local, _beta: &Resp| {
            let mut l2 = *l;
            l2.gc_mut().hs_idx = 0;
            l2
        },
    );
    p.annotate(
        begin,
        if cfg.handshake_fences {
            MemEffect::Fence
        } else {
            MemEffect::Pure
        },
    );

    let pend = p.request(
        "gc-hs-pend",
        move |l: &Local| Req {
            tid,
            kind: ReqKind::HsPend(l.gc().hs_idx),
        },
        |l: &Local, _beta: &Resp| {
            let mut l2 = *l;
            l2.gc_mut().hs_idx += 1;
            l2
        },
    );
    p.annotate(pend, MemEffect::Pure);
    let pend_all = p.while_do(move |l: &Local| l.gc().hs_idx < mutators, pend);

    // Await completion; the response hands over the staged work-list
    // (non-empty only for root/work rounds).
    let awaited = p.request(
        "gc-hs-await",
        move |_l: &Local| Req {
            tid,
            kind: ReqKind::HsAwait,
        },
        |l: &Local, beta: &Resp| {
            let Resp::Work(mut w) = *beta else {
                panic!("HsAwait answers with Work");
            };
            let mut l2 = *l;
            l2.gc_mut().wl.absorb(&mut w);
            l2
        },
    );
    p.annotate(awaited, MemEffect::Pure);

    p.seq([begin, pend_all, awaited])
}

/// A TSO store of a control variable by the collector. `effect` names the
/// abstract region written, for the static analyzer.
fn build_ctrl_write(
    p: &mut Prog,
    cfg: &ModelConfig,
    label: cimp::Label,
    effect: MemEffect,
    addr_val: impl Fn(&Local) -> (Addr, Val) + Send + Sync + Copy + 'static,
    update: impl Fn(&mut Local) + Send + Sync + 'static,
) -> ComId {
    let tid = cfg.gc_tid();
    let w = p.request(
        label,
        move |l: &Local| {
            let (addr, val) = addr_val(l);
            Req {
                tid,
                kind: ReqKind::Write(addr, val),
            }
        },
        move |l: &Local, _beta: &Resp| {
            let mut l2 = *l;
            update(&mut l2);
            l2
        },
    );
    p.annotate(w, effect)
}

/// Builds the collector's scan of one grey object: load each field via TSO
/// and `mark` its target (Figure 2 lines 27–30; Figure 10).
fn build_scan(p: &mut Prog, cfg: &ModelConfig) -> ComId {
    let tid = cfg.gc_tid();
    let fields = cfg.fields as u8;

    // src ← r. r ∈ W (lowest-first: a deterministic refinement of the
    // arbitrary choice; the collector implementation scans in some
    // concrete order too).
    let pick = p.assign("gc-pick-src", |l: &mut Local| {
        let g = l.gc_mut();
        g.scan_src = Some(g.wl.iter().next().expect("mark loop guard"));
        g.scan_fld = 0;
    });
    p.annotate(pick, MemEffect::Pure);

    let load_field = p.request(
        "gc-load-field",
        move |l: &Local| {
            let g = l.gc();
            Req {
                tid,
                kind: ReqKind::Read(Addr::Field(g.scan_src.expect("scanning"), g.scan_fld)),
            }
        },
        |l: &Local, beta: &Resp| {
            let loaded = beta
                .loaded()
                .expect("scanned objects are grey, hence allocated")
                .as_ref_val();
            let mut l2 = *l;
            l2.gc_mut().scan_fld += 1;
            l2.mark_mut().target = loaded;
            l2
        },
    );
    p.annotate(load_field, MemEffect::Load(FIELD));
    let mark = build_mark(p, cfg);
    let field_body = p.seq([load_field, mark]);
    let fields_loop = p.while_do(move |l: &Local| l.gc().scan_fld < fields, field_body);

    // Blacken: only now is src removed from W (it stays grey while its
    // children are processed).
    let blacken = p.assign("gc-blacken", |l: &mut Local| {
        let g = l.gc_mut();
        let src = g.scan_src.take().expect("scanning");
        g.wl.remove(src);
    });
    p.annotate(blacken, MemEffect::Pure);

    p.seq([pick, fields_loop, blacken])
}

/// Builds the sweep loop (Figure 2 lines 38–45): snapshot the heap domain,
/// then for each reference load its flag and free it if unmarked.
fn build_sweep(p: &mut Prog, cfg: &ModelConfig) -> ComId {
    let tid = cfg.gc_tid();

    let snapshot = p.request(
        "gc-heap-snapshot",
        move |_l: &Local| Req {
            tid,
            kind: ReqKind::HeapSnapshot,
        },
        |l: &Local, beta: &Resp| {
            let Resp::Domain(refs) = beta else {
                panic!("HeapSnapshot answers with Domain");
            };
            let mut l2 = *l;
            l2.gc_mut().sweep_refs = *refs;
            l2
        },
    );
    p.annotate(snapshot, MemEffect::Pure);

    // Load the flag of the lowest remaining reference (choice of `ref` is
    // folded into the load's request computation).
    let load_flag = p.request(
        "gc-sweep-load-flag",
        move |l: &Local| {
            let r = l.gc().sweep_refs.first().expect("sweep loop guard");
            Req {
                tid,
                kind: ReqKind::Read(Addr::Flag(r)),
            }
        },
        |l: &Local, beta: &Resp| {
            let mut l2 = *l;
            let g = l2.gc_mut();
            g.sweep_cur = Some(g.sweep_refs.first().expect("sweep loop guard"));
            g.sweep_flag = beta.loaded().map(|v| v.as_bool());
            l2
        },
    );
    p.annotate(load_flag, MemEffect::Load(FLAG));

    let free = p.request(
        "gc-free",
        move |l: &Local| Req {
            tid,
            kind: ReqKind::Free(l.gc().sweep_cur.expect("sweeping")),
        },
        |l: &Local, _beta: &Resp| {
            let mut l2 = *l;
            let g = l2.gc_mut();
            let r = g.sweep_cur.take().expect("sweeping");
            g.sweep_refs.remove(r);
            g.sweep_flag = None;
            l2
        },
    );
    // Reclamation is axiomatised as atomic, like allocation.
    p.annotate(free, MemEffect::Pure);
    let retain = p.assign("gc-sweep-retain", |l: &mut Local| {
        let g = l.gc_mut();
        let r = g.sweep_cur.take().expect("sweeping");
        g.sweep_refs.remove(r);
        g.sweep_flag = None;
    });
    p.annotate(retain, MemEffect::Pure);
    // Free when the flag differs from f_M (white) — the collector knows
    // f_M exactly (it is the sole writer).
    let test = p.if_else(
        |l: &Local| l.gc().sweep_flag != Some(l.gc().fm),
        free,
        retain,
    );
    let body = p.seq([load_flag, test]);
    let sweep_loop = p.while_do(|l: &Local| !l.gc().sweep_refs.is_empty(), body);

    p.seq([snapshot, sweep_loop])
}

/// Builds the full collector program (Figure 2).
pub fn gc_program(cfg: &ModelConfig) -> Prog {
    let mut p = Prog::new();

    let h1 = build_handshake(&mut p, cfg, HsType::Noop);

    // f_M ← ¬f_M (line 5). The collector tracks the value exactly.
    let flip_fm = build_ctrl_write(
        &mut p,
        cfg,
        "gc-flip-fM",
        MemEffect::Store(FM),
        |l| (Addr::FM, Val::Bool(!l.gc().fm)),
        |l| {
            let g = l.gc_mut();
            g.fm = !g.fm;
        },
    );

    let set_fa = |p: &mut Prog, label| {
        build_ctrl_write(
            p,
            cfg,
            label,
            MemEffect::Store(FA),
            |l| (Addr::FA, Val::Bool(l.gc().fm)),
            |_| (),
        )
    };

    let phase_write = |p: &mut Prog, label, phase: Phase| {
        build_ctrl_write(
            p,
            cfg,
            label,
            MemEffect::Store(PHASE),
            move |_| (Addr::Phase, Val::Phase(phase)),
            |_| (),
        )
    };

    let mut prologue = vec![h1, flip_fm];
    if cfg.premature_alloc_black {
        // Ablation: set f_A before the mutators are known to have their
        // insertion barriers installed (§3.2 hp_InitMark's warning).
        prologue.push(set_fa(&mut p, "gc-set-fA-early"));
    }
    if !cfg.skip_noop2 {
        prologue.push(build_handshake(&mut p, cfg, HsType::Noop)); // h2
    }
    prologue.push(phase_write(&mut p, "gc-phase-init", Phase::Init));
    if !cfg.skip_noop3 {
        prologue.push(build_handshake(&mut p, cfg, HsType::Noop)); // h3
    }
    prologue.push(phase_write(&mut p, "gc-phase-mark", Phase::Mark));
    if !cfg.premature_alloc_black {
        prologue.push(set_fa(&mut p, "gc-set-fA")); // f_A ← f_M (line 12)
    }
    prologue.push(build_handshake(&mut p, cfg, HsType::Noop)); // h4
    prologue.push(build_handshake(&mut p, cfg, HsType::GetRoots)); // lines 15–20

    // The mark loop (lines 25–34; Figure 10).
    let scan = build_scan(&mut p, cfg);
    let inner = p.while_do(|l: &Local| !l.gc().wl.is_empty(), scan);
    let get_work = build_handshake(&mut p, cfg, HsType::GetWork);
    let outer_body = p.seq([inner, get_work]);
    let mark_loop = p.while_do(|l: &Local| !l.gc().wl.is_empty(), outer_body);

    let to_sweep = phase_write(&mut p, "gc-phase-sweep", Phase::Sweep);
    let sweep = build_sweep(&mut p, cfg);
    let to_idle = phase_write(&mut p, "gc-phase-idle", Phase::Idle);

    let mut cycle = prologue;
    cycle.extend([mark_loop, to_sweep, sweep, to_idle]);
    let body = p.seq(cycle);
    let entry = p.loop_forever(body);
    p.set_entry(entry);
    p
}

/// The collector's extra grey witnesses beyond its work-list: the object it
/// is currently scanning remains grey, and its honorary grey covers the CAS
/// window. (Used by the invariant checker.)
pub fn gc_grey_extras(l: &Local) -> impl Iterator<Item = Ref> {
    let g = l.gc();
    g.ghost_honorary_grey.into_iter().chain(g.scan_src)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::GcState;
    use cimp::step::at_labels;

    #[test]
    fn collector_starts_with_idle_handshake() {
        let cfg = ModelConfig::default();
        let p = gc_program(&cfg);
        let labels = at_labels(&p, &p.entry().into(), &Local::Gc(GcState::initial()));
        assert_eq!(labels, vec!["gc-hs-begin"]);
    }

    #[test]
    fn fence_ablation_leaves_program_shape_alone() {
        // The fence discipline lives in the system's response conditions,
        // not in the collector's program text.
        let faithful = gc_program(&ModelConfig::default());
        let ablated = gc_program(&ModelConfig {
            handshake_fences: false,
            ..ModelConfig::default()
        });
        assert_eq!(ablated.len(), faithful.len());
    }

    #[test]
    fn skipping_noops_shrinks_the_program() {
        let faithful = gc_program(&ModelConfig::default());
        let ablated = gc_program(&ModelConfig {
            skip_noop2: true,
            skip_noop3: true,
            ..ModelConfig::default()
        });
        assert!(ablated.len() < faithful.len());
    }
}
