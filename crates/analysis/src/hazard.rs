//! Cross-thread TSO store-buffer hazard detection (lint `A005`).
//!
//! A thread is *vulnerable on `(x, y)`* if it can reach a `Load(y)` while a
//! write to `x ≠ y` may still sit in its store buffer: it reads `y` before
//! its `x`-write is globally visible. Reading a location you yourself have
//! buffered is fine — store forwarding returns your own value — which is
//! why same-location pairs are excluded.
//!
//! Two threads `p ≠ q` form the store-buffering (SB) litmus shape exactly
//! when `(x, y)` is vulnerable in `p` and the mirrored `(y, x)` is
//! vulnerable in `q`: both loads may then return the initial values, an
//! outcome sequential consistency forbids. One `MFENCE` (or locked RMW) on
//! either side between the store and the load breaks the shape, so each
//! hazard is reported with the label of a load before which inserting an
//! `mfence` closes it.

use std::collections::BTreeMap;

use cimp::{AbsLoc, MemEffect};

use crate::cfg::Cfg;
use crate::dataflow::may_buffered;
use crate::diag::{Diagnostic, A005};

/// A vulnerable pair within one thread: evidence that a `Load(load_loc)`
/// is reachable with a `Store(store_loc)` possibly still buffered.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Vulnerability {
    /// The buffered location.
    pub store_loc: AbsLoc,
    /// The location loaded while the store may be buffered.
    pub load_loc: AbsLoc,
    /// Label of the witnessing store command.
    pub store_label: String,
    /// Label of the load command; an `mfence` immediately before it closes
    /// the vulnerability.
    pub load_label: String,
}

/// All vulnerable pairs of `cfg`, keyed by `(store_loc, load_loc)` with the
/// first (lowest-node-id) witness kept per pair.
pub fn vulnerable_pairs(cfg: &Cfg) -> BTreeMap<(AbsLoc, AbsLoc), Vulnerability> {
    let buf = may_buffered(cfg);
    let mut pairs = BTreeMap::new();
    for n in cfg.atomic_nodes() {
        let Some(MemEffect::Load(y)) = cfg.node(n).effect else {
            continue;
        };
        for (&x, &witness) in &buf[n] {
            if x == y {
                continue; // store forwarding: own buffered value is seen
            }
            pairs.entry((x, y)).or_insert_with(|| Vulnerability {
                store_loc: x,
                load_loc: y,
                store_label: cfg.display_label(witness).to_string(),
                load_label: cfg.display_label(n).to_string(),
            });
        }
    }
    pairs
}

/// Finds SB-shaped hazards across a system of named threads: for each pair
/// of distinct threads, a vulnerability `(x, y)` in one matched by `(y, x)`
/// in the other. Returns one `A005` diagnostic per hazard, anchored at the
/// first thread's load with a concrete fence suggestion.
pub fn sb_hazards(threads: &[(&str, &Cfg)]) -> Vec<Diagnostic> {
    let pairs: Vec<_> = threads
        .iter()
        .map(|&(name, cfg)| (name, vulnerable_pairs(cfg)))
        .collect();
    let mut diags = Vec::new();
    for (i, (pname, pv)) in pairs.iter().enumerate() {
        for (qname, qv) in pairs.iter().skip(i + 1) {
            for ((x, y), v) in pv {
                let Some(w) = qv.get(&(*y, *x)) else {
                    continue;
                };
                diags.push(Diagnostic::at(
                    A005,
                    v.load_label.clone(),
                    format!(
                        "store-buffer hazard between threads `{pname}` and `{qname}`: \
                         `{pname}` loads {y} at `{}` while its store to {x} at `{}` may \
                         still be buffered, and `{qname}` loads {x} at `{}` while its \
                         store to {y} at `{}` may still be buffered (SB shape); \
                         suggest an mfence immediately before `{}` (or before `{}`)",
                        v.load_label,
                        v.store_label,
                        w.load_label,
                        w.store_label,
                        v.load_label,
                        w.load_label,
                    ),
                ));
            }
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use cimp::Program;

    type P = Program<u32, u8, u8>;

    fn thread(ops: &[(&'static str, MemEffect)]) -> Cfg {
        let mut p = P::new();
        let ids: Vec<_> = ops
            .iter()
            .map(|(label, e)| {
                let id = p.skip(label);
                p.annotate(id, *e)
            })
            .collect();
        let s = p.seq(ids);
        p.set_entry(s);
        Cfg::from_program("t", &p)
    }

    #[test]
    fn sb_shape_is_flagged_and_fence_fixes_it() {
        let t0 = thread(&[
            ("st-x", MemEffect::Store("x")),
            ("ld-y", MemEffect::Load("y")),
        ]);
        let t1 = thread(&[
            ("st-y", MemEffect::Store("y")),
            ("ld-x", MemEffect::Load("x")),
        ]);
        let diags = sb_hazards(&[("p0", &t0), ("p1", &t1)]);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, A005);
        assert!(diags[0]
            .message
            .contains("mfence immediately before `ld-y`"));

        let t0f = thread(&[
            ("st-x", MemEffect::Store("x")),
            ("mfence", MemEffect::Fence),
            ("ld-y", MemEffect::Load("y")),
        ]);
        let t1 = thread(&[
            ("st-y", MemEffect::Store("y")),
            ("ld-x", MemEffect::Load("x")),
        ]);
        assert!(sb_hazards(&[("p0", &t0f), ("p1", &t1)]).is_empty());
    }

    #[test]
    fn mp_shape_is_clean() {
        // Message passing: writer stores both, reader loads both — no
        // symmetric vulnerable pair, TSO preserves the SC outcomes.
        let w = thread(&[
            ("st-d", MemEffect::Store("data")),
            ("st-f", MemEffect::Store("flag")),
        ]);
        let r = thread(&[
            ("ld-f", MemEffect::Load("flag")),
            ("ld-d", MemEffect::Load("data")),
        ]);
        assert!(sb_hazards(&[("w", &w), ("r", &r)]).is_empty());
    }

    #[test]
    fn same_location_reload_is_store_forwarding_not_hazard() {
        let t0 = thread(&[
            ("st-x", MemEffect::Store("x")),
            ("ld-x", MemEffect::Load("x")),
        ]);
        let t1 = thread(&[
            ("st-x2", MemEffect::Store("x")),
            ("ld-x2", MemEffect::Load("x")),
        ]);
        assert!(sb_hazards(&[("p0", &t0), ("p1", &t1)]).is_empty());
    }

    #[test]
    fn vulnerability_needs_both_threads() {
        // Only one side vulnerable: no hazard.
        let t0 = thread(&[
            ("st-x", MemEffect::Store("x")),
            ("ld-y", MemEffect::Load("y")),
        ]);
        let t1 = thread(&[
            ("ld-x", MemEffect::Load("x")),
            ("st-y", MemEffect::Store("y")),
        ]);
        assert!(sb_hazards(&[("p0", &t0), ("p1", &t1)]).is_empty());
    }
}
