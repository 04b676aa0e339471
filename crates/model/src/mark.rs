//! The `mark` operation (Figure 5) as a reusable CIMP sub-program.
//!
//! Both the collector (mark loop) and the mutators (write barriers, root
//! marking) execute this sequence. The caller primes the thread's
//! [`MarkScratch`](crate::state::MarkScratch) `target` register with the
//! reference to mark (or `None` for a `mark(NULL)`, which is skipped
//! structurally with zero steps); on completion the scratch is reset.
//!
//! The fine-grained step breakdown matches §3.2's discussion:
//!
//! 1. load `f_M` (TSO; may be stale relative to pending collector writes),
//!    compute `expected ← ¬f_M`;
//! 2. load `flag(target)` (TSO) — if it is not `expected`, the object is
//!    already marked in this sense and the mark is a no-op (the fast path
//!    that makes the write barriers cheap);
//! 3. load `phase` (TSO) — barriers are inert while the collector is idle;
//! 4. take the bus lock, re-load the flag (the CAS comparison), and if it
//!    is still `expected` issue the flag store and set
//!    `ghost_honorary_grey` (the object is now white *and* grey: the mark
//!    sits in the store buffer until the unlock forces it out);
//! 5. release the lock — enabled only once the buffer has drained, which
//!    publishes the mark — and, if this thread won, move the reference
//!    onto its private work-list and clear the honorary grey.
//!
//! With [`ModelConfig::mark_cas`](crate::config::ModelConfig::mark_cas)
//! disabled, steps 4–5 degenerate to an unsynchronised store after the
//! check in step 2: two racing markers may then both claim victory, which
//! the `valid_W_inv` work-list-disjointness check catches.

use cimp::{ComId, MemEffect};

use crate::config::ModelConfig;
use crate::state::{Local, MarkScratch};
use crate::vocab::{Addr, Phase, Req, ReqKind, Resp, Val};
use crate::Prog;

/// Abstract shared-memory regions of the model, used for the static
/// [`MemEffect`] annotations consumed by `gc-analysis`. One region per
/// [`Addr`](crate::vocab::Addr) constructor: the analysis does not track
/// individual objects or fields.
pub mod regions {
    use cimp::AbsLoc;

    /// The allocation-color flag `f_A`.
    pub const FA: AbsLoc = "fA";
    /// The mark-sense flag `f_M`.
    pub const FM: AbsLoc = "fM";
    /// The collector phase variable.
    pub const PHASE: AbsLoc = "phase";
    /// Any object's header mark flag.
    pub const FLAG: AbsLoc = "flag";
    /// Any object's reference fields.
    pub const FIELD: AbsLoc = "field";
}

/// Appends the `mark` sub-program to `p` and returns its entry command.
/// The issuing hardware thread is read from the local state, so one
/// builder serves the collector and every mutator.
pub fn build_mark(p: &mut Prog, cfg: &ModelConfig) -> ComId {
    use regions::*;

    // Step 1: expected ← ¬f_M.
    let load_fm = p.request(
        "mark-load-fM",
        |l: &Local| Req {
            tid: l.tid(),
            kind: ReqKind::Read(Addr::FM),
        },
        |l: &Local, beta: &Resp| {
            let fm = beta.loaded().expect("fM is always mapped").as_bool();
            let mut l2 = *l;
            let m = l2.mark_mut();
            m.fm = fm;
            m.expected = !fm;
            l2
        },
    );
    p.annotate(load_fm, MemEffect::Load(FM));

    // Step 2: the unsynchronised flag load. A mismatch ends the mark (the
    // recv clears the scratch, and the following structural `If` skips).
    let load_flag = p.request(
        "mark-load-flag",
        |l: &Local| Req {
            tid: l.tid(),
            kind: ReqKind::Read(Addr::Flag(l.mark().target.expect("mark target set"))),
        },
        |l: &Local, beta: &Resp| {
            let flag = beta.loaded().map(|v| v.as_bool());
            let mut l2 = *l;
            let m = l2.mark_mut();
            if flag == Some(m.expected) {
                m.flag = flag;
            } else {
                *m = MarkScratch::default(); // already marked (or unmapped): done
            }
            l2
        },
    );
    p.annotate(load_flag, MemEffect::Load(FLAG));

    // Step 3: the phase check — barriers are inert while Idle.
    let load_phase = p.request(
        "mark-load-phase",
        |l: &Local| Req {
            tid: l.tid(),
            kind: ReqKind::Read(Addr::Phase),
        },
        |l: &Local, beta: &Resp| {
            let phase = beta.loaded().expect("phase is always mapped").as_phase();
            let mut l2 = *l;
            let m = l2.mark_mut();
            if phase == Phase::Idle {
                *m = MarkScratch::default();
            } else {
                m.phase_ok = true;
            }
            l2
        },
    );
    p.annotate(load_phase, MemEffect::Load(PHASE));

    // The flag store: issue `flag(target) ← f_M` and become honorary grey
    // (Figure 5 lines 8–9).
    let set_flag = p.request(
        "mark-set-flag",
        |l: &Local| {
            let m = l.mark();
            Req {
                tid: l.tid(),
                kind: ReqKind::Write(
                    Addr::Flag(m.target.expect("mark target set")),
                    Val::Bool(m.fm),
                ),
            }
        },
        |l: &Local, _beta: &Resp| {
            let mut l2 = *l;
            let target = l2.mark().target;
            *l2.ghg_mut() = target;
            l2
        },
    );
    p.annotate(set_flag, MemEffect::Store(FLAG));

    // Win-or-lose join. With the CAS enabled the join is the unlock, whose
    // enabling condition (drained buffer) publishes the mark before the
    // reference can appear on a work-list; the winner's work-list insert
    // and honorary-grey clear ride on the same rendezvous (Figure 5
    // lines 12–14).
    let finish = |l: &mut Local| {
        if l.mark().winner {
            let target = l.mark().target.expect("winner has a target");
            l.wl_mut().insert(target);
            *l.ghg_mut() = None;
        }
        *l.mark_mut() = MarkScratch::default();
    };

    let cas_body = if cfg.mark_cas {
        // Step 4 (CAS body): re-load the flag under the lock. The re-load
        // runs with the bus lock held but the store buffer possibly
        // non-empty (the drain is forced by the unlock, not the lock), so
        // it is an ordinary load; the unlock carries the fence effect.
        let recheck = p.request(
            "mark-cas-load-flag",
            |l: &Local| Req {
                tid: l.tid(),
                kind: ReqKind::Read(Addr::Flag(l.mark().target.expect("mark target set"))),
            },
            |l: &Local, beta: &Resp| {
                let flag = beta.loaded().map(|v| v.as_bool());
                let mut l2 = *l;
                let m = l2.mark_mut();
                // Some other thread may have marked it since step 2: we lose.
                m.winner = flag == Some(m.expected);
                l2
            },
        );
        p.annotate(recheck, MemEffect::Load(FLAG));
        let lock = p.request_ignore("mark-lock", |l: &Local| Req {
            tid: l.tid(),
            kind: ReqKind::Lock,
        });
        p.annotate(lock, MemEffect::Pure);
        let store_if_won = p.if_then(|l: &Local| l.mark().winner, set_flag);
        let unlock = p.request(
            "mark-unlock",
            |l: &Local| Req {
                tid: l.tid(),
                kind: ReqKind::Unlock,
            },
            move |l: &Local, _beta: &Resp| {
                let mut l2 = *l;
                finish(&mut l2);
                l2
            },
        );
        // The unlock is enabled only once this thread's buffer has drained
        // (§3.2): it publishes the mark exactly like an mfence would.
        p.annotate(unlock, MemEffect::Fence);
        p.seq([lock, recheck, store_if_won, unlock])
    } else {
        // Ablation: an unsynchronised read-then-write marker. The initial
        // check (step 2) stands in for the comparison; the store and the
        // "we won" conclusion are unconditional — the race the paper's CAS
        // exists to resolve.
        let claim = p.assign("mark-racy-claim", |l: &mut Local| {
            l.mark_mut().winner = true;
        });
        p.annotate(claim, MemEffect::Pure);
        let racy_finish = p.assign("mark-racy-finish", finish);
        p.annotate(racy_finish, MemEffect::Pure);
        p.seq([claim, set_flag, racy_finish])
    };

    // Assemble: each stage is guarded structurally by `target` still being
    // set (cleared by a recv as soon as the mark is known to be a no-op);
    // a skipped stage produces no step at all.
    let live = |l: &Local| l.mark().target.is_some();
    let guarded_cas = p.if_then(live, cas_body);
    let tail2 = p.seq([load_phase, guarded_cas]);
    let guarded_tail2 = p.if_then(live, tail2);
    let tail1 = p.seq([load_fm, load_flag, guarded_tail2]);
    p.if_then(live, tail1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::GcState;
    use cimp::step::{at_labels, enabled_steps};

    fn gc_local(target: Option<gc_types::Ref>) -> Local {
        let mut g = GcState::initial();
        g.mark.target = target;
        Local::Gc(g)
    }

    #[test]
    fn null_mark_is_skipped_structurally() {
        let cfg = ModelConfig::default();
        let mut p = Prog::new();
        let m = build_mark(&mut p, &cfg);
        p.set_entry(m);
        // With no target the whole sub-program falls through: as the only
        // command on the stack, the process simply terminates — zero steps.
        let labels = at_labels(&p, &p.entry().into(), &gc_local(None));
        assert!(labels.is_empty());
    }

    #[test]
    fn live_mark_starts_with_fm_load() {
        let cfg = ModelConfig::default();
        let mut p = Prog::new();
        let m = build_mark(&mut p, &cfg);
        p.set_entry(m);
        let labels = at_labels(
            &p,
            &p.entry().into(),
            &gc_local(Some(gc_types::Ref::new(0))),
        );
        assert_eq!(labels, vec!["mark-load-fM"]);
    }

    #[test]
    fn racy_variant_has_no_lock() {
        let cfg = ModelConfig {
            mark_cas: false,
            ..ModelConfig::default()
        };
        let mut p = Prog::new();
        let m = build_mark(&mut p, &cfg);
        p.set_entry(m);
        // Walk the program textually: no "mark-lock" label should exist in
        // any enabled step from any scratch configuration we can reach
        // here; a cheap proxy is that the first step is still the fM load
        // and the program is smaller than the CAS variant.
        let mut p2 = Prog::new();
        let m2 = build_mark(&mut p2, &ModelConfig::default());
        p2.set_entry(m2);
        assert!(p.len() < p2.len());
        let steps = enabled_steps(
            &p,
            &p.entry().into(),
            &gc_local(Some(gc_types::Ref::new(0))),
        );
        assert_eq!(steps.len(), 1);
    }
}
