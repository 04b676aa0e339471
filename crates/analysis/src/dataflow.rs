//! The "dirty store buffer" forward dataflow.
//!
//! For every program point the analysis computes the set of abstract
//! locations that *may* still sit unflushed in the issuing thread's store
//! buffer when control reaches that point. The domain per point is a map
//! from location to a witness node — the earliest (lowest-id) store that
//! could have put the write there — so fence suggestions can point at a
//! concrete command.
//!
//! Transfer function over [`MemEffect`](cimp::MemEffect):
//!
//! * `Store(x)`   — adds `x` (the write is enqueued, not yet visible);
//! * `Fence` / `LockedRmw(_)` — clears the set (the buffer drains);
//! * `Load(_)` / `Pure` / unannotated — identity.
//!
//! The join over predecessors is set union (may-analysis); witness ids are
//! joined by minimum so the fixpoint is deterministic. Termination:
//! the domain is finite (locations named by annotations) and transfer
//! functions are monotone under the subset order.

use std::collections::{BTreeMap, VecDeque};

use cimp::{AbsLoc, MemEffect};

use crate::cfg::{Cfg, NodeId};

/// May-buffered write-set at a program point: location → witness store node.
pub type BufferSet = BTreeMap<AbsLoc, NodeId>;

/// Computes, for every node, the may-buffered write-set *on entry to* the
/// node (before its own effect applies). The entry node starts empty:
/// threads begin with drained buffers.
pub fn may_buffered(cfg: &Cfg) -> Vec<BufferSet> {
    let mut input: Vec<BufferSet> = cfg.node_ids().map(|_| BufferSet::new()).collect();
    let mut work: VecDeque<NodeId> = cfg.node_ids().collect();
    let mut queued = vec![true; cfg.len()];
    // The set on exit from the node being visited: its input with its own
    // effect applied by the transfer function of the module doc; a fence
    // drains it, so nothing flows on.
    let mut out: Vec<(AbsLoc, NodeId)> = Vec::new();
    while let Some(n) = work.pop_front() {
        queued[n] = false;
        out.clear();
        match cfg.node(n).effect {
            Some(MemEffect::Fence) | Some(MemEffect::LockedRmw(_)) => continue,
            effect => {
                out.extend(input[n].iter().map(|(&loc, &witness)| (loc, witness)));
                if let Some(MemEffect::Store(x)) = effect {
                    if !input[n].contains_key(x) {
                        out.push((x, n));
                    }
                }
            }
        }
        for s in cfg.succs(n) {
            let mut changed = false;
            for &(loc, witness) in &out {
                match input[s].get(&loc) {
                    Some(&w) if w <= witness => {}
                    _ => {
                        input[s].insert(loc, witness);
                        changed = true;
                    }
                }
            }
            if changed && !std::mem::replace(&mut queued[s], true) {
                work.push_back(s);
            }
        }
    }
    input
}

#[cfg(test)]
mod tests {
    use super::*;
    use cimp::Program;

    type P = Program<u32, u8, u8>;

    fn atom(p: &mut P, label: cimp::Label, e: MemEffect) -> cimp::ComId {
        let id = p.skip(label);
        p.annotate(id, e)
    }

    #[test]
    fn store_buffers_until_fence() {
        let mut p = P::new();
        let st = atom(&mut p, "st", MemEffect::Store("x"));
        let ld = atom(&mut p, "ld", MemEffect::Load("y"));
        let fence = atom(&mut p, "fence", MemEffect::Fence);
        let after = atom(&mut p, "after", MemEffect::Load("y"));
        let s = p.seq([st, ld, fence, after]);
        p.set_entry(s);
        let cfg = Cfg::from_program("t", &p);
        let buf = may_buffered(&cfg);
        let n_st = cfg.node_of_com(st).unwrap();
        let n_ld = cfg.node_of_com(ld).unwrap();
        let n_after = cfg.node_of_com(after).unwrap();
        assert!(buf[n_st].is_empty(), "nothing buffered before the store");
        assert_eq!(
            buf[n_ld].get("x"),
            Some(&n_st),
            "store still buffered at load"
        );
        assert!(buf[n_after].is_empty(), "fence drained the buffer");
    }

    #[test]
    fn locked_rmw_drains_like_a_fence() {
        let mut p = P::new();
        let st = atom(&mut p, "st", MemEffect::Store("x"));
        let cas = atom(&mut p, "cas", MemEffect::LockedRmw("z"));
        let ld = atom(&mut p, "ld", MemEffect::Load("y"));
        let s = p.seq([st, cas, ld]);
        p.set_entry(s);
        let cfg = Cfg::from_program("t", &p);
        let buf = may_buffered(&cfg);
        assert!(buf[cfg.node_of_com(ld).unwrap()].is_empty());
    }

    #[test]
    fn loop_carries_buffered_write_around_back_edge() {
        // LOOP { st x; ld y } — on the second iteration the load sees x
        // possibly buffered from the previous one.
        let mut p = P::new();
        let st = atom(&mut p, "st", MemEffect::Store("x"));
        let ld = atom(&mut p, "ld", MemEffect::Load("y"));
        let body = p.seq([st, ld]);
        let l = p.loop_forever(body);
        p.set_entry(l);
        let cfg = Cfg::from_program("t", &p);
        let buf = may_buffered(&cfg);
        let n_st = cfg.node_of_com(st).unwrap();
        assert_eq!(
            buf[n_st].get("x"),
            Some(&n_st),
            "the back edge feeds the store's own output into its input"
        );
    }

    #[test]
    fn join_is_union_over_branches() {
        // if _ { st x } else { st y }; ld z — both x and y may be buffered
        // at the load.
        let mut p = P::new();
        let sx = atom(&mut p, "sx", MemEffect::Store("x"));
        let sy = atom(&mut p, "sy", MemEffect::Store("y"));
        let i = p.if_else(|_| true, sx, sy);
        let ld = atom(&mut p, "ld", MemEffect::Load("z"));
        let s = p.seq([i, ld]);
        p.set_entry(s);
        let cfg = Cfg::from_program("t", &p);
        let buf = may_buffered(&cfg);
        let at_ld = &buf[cfg.node_of_com(ld).unwrap()];
        assert!(at_ld.contains_key("x") && at_ld.contains_key("y"));
    }
}
