//! The GC-protocol lint suite (`A001`–`A004`).
//!
//! Each lint is a pure function from a CFG (plus, for `A001`, the source
//! program arena) to diagnostics with a stable code, so callers can run
//! any subset and suppress individual codes via
//! [`filter_and_sort`](crate::diag::filter_and_sort).

use cimp::{AbsLoc, Label, MemEffect, Program};

use crate::cfg::Cfg;
use crate::diag::{Diagnostic, A001, A002, A003, A004};

/// `A001`: labelled commands in the arena with no CFG node — code that no
/// path from the entry point can reach (typically a branch that was built
/// but never wired into the program).
pub fn unreachable_labels<S, Req, Resp>(p: &Program<S, Req, Resp>, cfg: &Cfg) -> Vec<Diagnostic> {
    p.com_ids()
        .filter_map(|id| {
            let label = p.label(id)?;
            if cfg.node_of_com(id).is_some() {
                return None;
            }
            Some(Diagnostic::at(
                A001,
                label,
                format!(
                    "labelled command `{label}` is not reachable from the entry \
                     point of `{}`",
                    cfg.name
                ),
            ))
        })
        .collect()
}

/// `A002`: a collector write to a control variable (one of `controls`)
/// that lies on a cycle never passing through a handshake (a node labelled
/// `handshake_label`). Mutators only observe control variables at barrier
/// and handshake points, so a handshake-free cycle lets the collector spin
/// for ever without its control writes being acknowledged — the protocol
/// the paper's `hp_InitMark`/handshake obligations (§3.1) rule out.
pub fn handshake_free_control_cycle(
    cfg: &Cfg,
    handshake_label: Label,
    controls: &[AbsLoc],
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for n in cfg.atomic_nodes() {
        let Some(MemEffect::Store(x)) = cfg.node(n).effect else {
            continue;
        };
        if !controls.contains(&x) {
            continue;
        }
        let not_handshake = |m| cfg.display_label(m) != handshake_label;
        if cfg.reaches_through(n, n, not_handshake) {
            diags.push(Diagnostic::at(
                A002,
                cfg.display_label(n),
                format!(
                    "control-variable write `{}` (store {x}) in `{}` lies on a \
                     cycle with no `{handshake_label}` handshake: mutators may \
                     never observe the new value",
                    cfg.display_label(n),
                    cfg.name
                ),
            ));
        }
    }
    diags
}

/// `A003`: a heap store (a `Store(heap)` node) not dominated by every one
/// of the `barriers` labels. In the faithful mutator each `mut-store-write`
/// is preceded on *every* path by the deletion barrier's load
/// (`mut-store-begin`) and the insertion barrier's priming
/// (`mut-store-prime-insertion`); an ablated barrier breaks dominance and
/// the lint reproduces the paper's Figure 6 obligations statically.
pub fn store_barrier_dominance(cfg: &Cfg, heap: AbsLoc, barriers: &[Label]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let dom = cfg.dominators();
    for n in cfg.atomic_nodes() {
        let Some(MemEffect::Store(x)) = cfg.node(n).effect else {
            continue;
        };
        if x != heap {
            continue;
        }
        for &barrier in barriers {
            let dominated = dom
                .of(n)
                .iter()
                .any(|d| d != n && cfg.display_label(d) == barrier);
            if !dominated {
                diags.push(Diagnostic::at(
                    A003,
                    cfg.display_label(n),
                    format!(
                        "heap store `{}` (store {heap}) in `{}` is not dominated \
                         by its `{barrier}` write barrier: some execution stores \
                         without the barrier having run",
                        cfg.display_label(n),
                        cfg.name
                    ),
                ));
            }
        }
    }
    diags
}

/// `A004`: reachable atomic commands with no [`MemEffect`] annotation. The
/// dataflow must treat such commands as pure, which is unsound if they in
/// fact touch shared memory — so new atomics are forced to declare
/// themselves.
pub fn unannotated_atomics(cfg: &Cfg) -> Vec<Diagnostic> {
    cfg.atomic_nodes()
        .filter(|&n| cfg.node(n).effect.is_none())
        .map(|n| {
            Diagnostic::at(
                A004,
                cfg.display_label(n),
                format!(
                    "atomic command `{}` in `{}` has no MemEffect annotation; \
                     the store-buffer analysis must assume it is pure",
                    cfg.display_label(n),
                    cfg.name
                ),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cimp::MemEffect;

    type P = Program<u32, u8, u8>;

    fn atom(p: &mut P, label: Label, e: MemEffect) -> cimp::ComId {
        let id = p.skip(label);
        p.annotate(id, e)
    }

    #[test]
    fn a001_flags_orphaned_command() {
        let mut p = P::new();
        let a = atom(&mut p, "live", MemEffect::Pure);
        let _orphan = atom(&mut p, "dead", MemEffect::Pure);
        p.set_entry(a);
        let cfg = Cfg::from_program("t", &p);
        let diags = unreachable_labels(&p, &cfg);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, A001);
        assert_eq!(diags[0].label.as_deref(), Some("dead"));
    }

    #[test]
    fn a002_fires_without_handshake_on_cycle() {
        // LOOP { store phase } — no handshake anywhere.
        let mut p = P::new();
        let st = atom(&mut p, "set-phase", MemEffect::Store("phase"));
        let l = p.loop_forever(st);
        p.set_entry(l);
        let cfg = Cfg::from_program("gc", &p);
        let diags = handshake_free_control_cycle(&cfg, "hs-begin", &["phase"]);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, A002);

        // LOOP { store phase; hs-begin } — every cycle handshakes: clean.
        let mut p = P::new();
        let st = atom(&mut p, "set-phase", MemEffect::Store("phase"));
        let hs = atom(&mut p, "hs-begin", MemEffect::Fence);
        let body = p.seq([st, hs]);
        let l = p.loop_forever(body);
        p.set_entry(l);
        let cfg = Cfg::from_program("gc", &p);
        assert!(handshake_free_control_cycle(&cfg, "hs-begin", &["phase"]).is_empty());
    }

    #[test]
    fn a002_ignores_non_control_stores_and_straight_line() {
        let mut p = P::new();
        let st = atom(&mut p, "set-phase", MemEffect::Store("phase"));
        p.set_entry(st); // no cycle at all
        let cfg = Cfg::from_program("gc", &p);
        assert!(handshake_free_control_cycle(&cfg, "hs-begin", &["phase"]).is_empty());
    }

    #[test]
    fn a003_requires_every_barrier_on_every_path() {
        // barrier; store — dominated: clean.
        let mut p = P::new();
        let b = atom(&mut p, "barrier", MemEffect::Pure);
        let st = atom(&mut p, "write", MemEffect::Store("field"));
        let s = p.seq([b, st]);
        p.set_entry(s);
        let cfg = Cfg::from_program("mut", &p);
        assert!(store_barrier_dominance(&cfg, "field", &["barrier"]).is_empty());

        // if _ { barrier }; store — a barrier-free path exists: flagged.
        let mut p = P::new();
        let b = atom(&mut p, "barrier", MemEffect::Pure);
        let i = p.if_then(|_| true, b);
        let st = atom(&mut p, "write", MemEffect::Store("field"));
        let s = p.seq([i, st]);
        p.set_entry(s);
        let cfg = Cfg::from_program("mut", &p);
        let diags = store_barrier_dominance(&cfg, "field", &["barrier"]);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, A003);
        assert!(diags[0].message.contains("`barrier`"));
    }

    #[test]
    fn a004_flags_missing_annotation() {
        let mut p = P::new();
        let a = p.skip("mystery"); // deliberately unannotated
        p.set_entry(a);
        let cfg = Cfg::from_program("t", &p);
        let diags = unannotated_atomics(&cfg);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, A004);
        assert_eq!(diags[0].label.as_deref(), Some("mystery"));
    }
}
