//! A read-only view over a global model state, providing the derived
//! quantities the invariants are stated in terms of: the committed heap,
//! its coloring, the grey set, the extended root set, buffered insertions
//! and deletions.
//!
//! Every set here is a [`RefSet`]: greys and roots are unions of words the
//! state already holds, colors are intersections of the heap domain with
//! the marked set, and reachability walks the committed fields in the TSO
//! machine's memory directly, so evaluating the whole §3.2 suite on a state
//! allocates nothing.

use gc_types::{Ref, RefSet, WorkList};
use tso_model::ThreadId;

use crate::config::ModelConfig;
use crate::state::{GcState, MutState, SysState};
use crate::vocab::{Addr, Val};
use crate::ModelState;

/// A per-state view binding a configuration to a global state.
#[derive(Debug, Clone, Copy)]
pub struct View<'a> {
    cfg: &'a ModelConfig,
    st: &'a ModelState,
    /// The two sets every coloring question starts from, computed once.
    marked: RefSet,
    greys: RefSet,
}

impl<'a> View<'a> {
    /// Creates a view of `st` under `cfg`.
    pub fn new(cfg: &'a ModelConfig, st: &'a ModelState) -> Self {
        let mut v = View {
            cfg,
            st,
            marked: RefSet::new(),
            greys: RefSet::new(),
        };
        let fm = v.fm();
        v.marked = v
            .domain()
            .iter()
            .filter(|&r| v.flag(r) == Some(fm))
            .collect();
        let gc = v.gc();
        v.greys = gc.wl.as_set().union(v.sys().w_staged.as_set());
        v.greys.extend(gc.ghost_honorary_grey);
        for m in 0..cfg.mutators {
            v.greys = v.greys.union(v.mutator(m).wl.as_set());
            v.greys.extend(v.mutator(m).ghost_honorary_grey);
        }
        v
    }

    /// The configuration.
    pub fn config(&self) -> &ModelConfig {
        self.cfg
    }

    /// The collector's local state.
    pub fn gc(&self) -> &'a GcState {
        &self.st.locals().gc
    }

    /// Mutator `m`'s local state.
    pub fn mutator(&self, m: usize) -> &'a MutState {
        &self.st.locals().mutators()[m]
    }

    /// All mutator states in index order.
    pub fn mutators(&self) -> impl Iterator<Item = &'a MutState> + '_ {
        (0..self.cfg.mutators).map(|m| self.mutator(m))
    }

    /// The system's local state.
    pub fn sys(&self) -> &'a SysState {
        &self.st.locals().sys
    }

    /// The committed (shared-memory) value of `f_M`.
    pub fn fm(&self) -> bool {
        self.sys().committed_fm()
    }

    /// The heap domain: the allocated references. Pending buffered writes
    /// are *not* part of the committed heap this view describes — paths go
    /// via the heap (§3.2).
    pub fn domain(&self) -> RefSet {
        self.sys().heap
    }

    /// The committed mark flag of `r`, or `None` if `r` is unallocated.
    pub fn flag(&self, r: Ref) -> Option<bool> {
        self.domain().contains(r).then(|| {
            let flag = self.sys().mem.memory(&Addr::Flag(r));
            flag.expect("allocated objects have a flag").as_bool()
        })
    }

    /// The allocated references marked on the committed heap (flag equal to
    /// the committed `f_M`).
    pub fn marked(&self) -> RefSet {
        self.marked
    }

    /// The non-`NULL` references in the committed fields of `r`; empty if
    /// `r` is unallocated (a dangling reference has no fields to follow).
    pub fn children(&self, r: Ref) -> RefSet {
        if !self.domain().contains(r) {
            return RefSet::new();
        }
        let field = |f| self.sys().mem.memory(&Addr::Field(r, f as u8));
        (0..self.cfg.fields)
            .filter_map(|f| {
                field(f)
                    .expect("allocated objects have fields")
                    .as_ref_val()
            })
            .collect()
    }

    /// The closure of `from` under "child of an allocated member that
    /// `through` admits": the shared walk of reachability (every allocated
    /// object is walked through) and grey protection (white ones only).
    fn closure(&self, from: RefSet, through: RefSet) -> RefSet {
        let mut seen = from;
        let mut frontier = from;
        while let Some(r) = frontier.pop_first() {
            if through.contains(r) {
                let fresh = self.children(r).difference(seen);
                seen = seen.union(fresh);
                frontier = frontier.union(fresh);
            }
        }
        seen
    }

    /// The references reachable from `roots` by following committed
    /// fields. A reachable reference need not be allocated: a dangling one
    /// found in a field (or among the roots) is *in* the result, so that
    /// [`valid_refs`](View::valid_refs) detects it, but has no fields to
    /// follow.
    pub fn reachable(&self, roots: RefSet) -> RefSet {
        self.closure(roots, self.domain())
    }

    /// The paper's `valid_refs_inv` for one root set: every reference
    /// reachable from `roots` is allocated.
    pub fn valid_refs(&self, roots: RefSet) -> bool {
        self.reachable(roots).is_subset(self.domain())
    }

    /// The grey set: every work-list (collector, mutators, staged) plus
    /// every honorary grey (§3.2's color interpretation).
    pub fn greys(&self) -> RefSet {
        self.greys
    }

    /// The allocated references that are white: unmarked on the committed
    /// heap (possibly also grey — the CAS window).
    pub fn whites(&self) -> RefSet {
        self.domain().difference(self.marked())
    }

    /// The allocated references that are black: marked and not grey.
    pub fn blacks(&self) -> RefSet {
        self.marked().difference(self.greys())
    }

    /// The white references that are **grey-protected**: reachable from
    /// some grey reference via a chain of zero or more white objects
    /// (`Grey →w* White` in the paper). Greys themselves are not in the
    /// result unless such a chain also leads to them.
    pub fn grey_protected(&self) -> RefSet {
        let whites = self.whites();
        let mut heads = RefSet::new();
        for g in self.greys() {
            heads = heads.union(self.children(g).intersection(whites));
        }
        self.closure(heads, whites).intersection(whites)
    }

    /// The **strong tricolor invariant**: no black object points to a
    /// white object.
    pub fn strong_tricolor(&self) -> bool {
        let whites = self.whites();
        let clean = |b| self.children(b).is_disjoint(whites);
        self.blacks().iter().all(clean)
    }

    /// The **weak tricolor invariant**: every white object a black object
    /// points to is grey-protected (or grey itself).
    pub fn weak_tricolor(&self) -> bool {
        let whites = self.whites();
        let safe = self.grey_protected().union(self.greys());
        let covered = |b| self.children(b).intersection(whites).is_subset(safe);
        self.blacks().iter().all(covered)
    }

    /// All work-lists in the system (collector, staged, each mutator), for
    /// disjointness checking.
    pub fn work_lists(&self) -> impl Iterator<Item = &'a WorkList> + '_ {
        let shared = [&self.gc().wl, &self.sys().w_staged];
        shared.into_iter().chain(self.mutators().map(|m| &m.wl))
    }

    /// References inserted by writes pending in thread `tid`'s store buffer
    /// (the paper's *insertions*).
    pub fn insertions(&self, tid: usize) -> RefSet {
        let pending = self.sys().mem.buffer(ThreadId::new(tid)).iter();
        pending
            .filter_map(|(a, v)| match (a, v) {
                (Addr::Field(..), Val::Ref(r)) => r,
                _ => None,
            })
            .collect()
    }

    /// References that will be *overwritten* by writes pending in thread
    /// `tid`'s buffer (the paper's *deletions*): for each pending field
    /// write, the value the field holds just before that write commits
    /// (i.e. after all earlier pending writes to the same field).
    pub fn deletions(&self, tid: usize) -> RefSet {
        let sys = self.sys();
        let buffer = sys.mem.buffer(ThreadId::new(tid));
        let mut out = RefSet::new();
        for (i, (addr, _)) in buffer.iter().enumerate() {
            if let Addr::Field(..) = addr {
                let earlier = buffer.iter().take(i).filter(|(a, _)| *a == addr).last();
                let current = earlier.map(|(_, v)| v).or_else(|| sys.mem.memory(&addr));
                if let Some(Val::Ref(Some(r))) = current {
                    out.insert(r);
                }
            }
        }
        out
    }

    /// The extended root set of mutator `m`: its declared roots, its
    /// in-flight operation scratch (§3.2's extra roots), and the references
    /// in its pending buffered writes.
    pub fn mutator_roots(&self, m: usize) -> RefSet {
        let ms = self.mutator(m);
        ms.roots
            .union(ms.scratch_roots())
            .union(ms.roots_to_mark)
            .union(self.insertions(self.cfg.mut_tid(m)))
    }

    /// The union of every mutator's extended roots — the root set of the
    /// headline safety property.
    pub fn all_roots(&self) -> RefSet {
        (0..self.cfg.mutators).fold(RefSet::new(), |roots, m| roots.union(self.mutator_roots(m)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::InitialHeap;
    use crate::model::GcModel;
    use gc_types::{AbstractHeap, Tricolor};
    use mc::TransitionSystem;

    #[test]
    fn initial_view_is_consistent() {
        let cfg = ModelConfig::small(2, 4);
        let model = GcModel::new(cfg.clone());
        let st = &model.initial_states()[0];
        let v = View::new(&cfg, st);

        assert!(!v.fm());
        assert_eq!(v.domain().len(), 2);
        assert!(v.greys().is_empty());
        // Initial heap is black: everything marked.
        assert_eq!(v.marked(), v.domain());
        assert_eq!(v.blacks(), v.domain());
        let roots = v.all_roots();
        assert_eq!(roots.len(), 2);
        assert!(v.valid_refs(roots));
    }

    #[test]
    fn insertions_and_deletions_track_buffers() {
        let cfg = ModelConfig::small(1, 3);
        let model = GcModel::new(cfg.clone());
        let mut st = model.initial_states()[0];
        let t = ThreadId::new(cfg.mut_tid(0));
        let a = Ref::new(0);
        let b = Ref::new(1);
        // Manually enqueue field writes on the mutator's buffer: r0.f0
        // initially NULL; write b then write NULL.
        st.update_local(model.sys_proc(), |roles| {
            let mem = &mut roles.sys.mem;
            mem.write(t, Addr::Field(a, 0), Val::Ref(Some(b))).unwrap();
            mem.write(t, Addr::Field(a, 0), Val::Ref(None)).unwrap();
            true
        });

        let v = View::new(&cfg, &st);
        let just_b: RefSet = [b].into_iter().collect();
        assert_eq!(v.insertions(cfg.mut_tid(0)), just_b);
        // The second write deletes b (the value of the first pending write).
        assert_eq!(v.deletions(cfg.mut_tid(0)), just_b);
        // Buffered insertions count as roots.
        assert!(v.all_roots().contains(b));
    }

    /// The committed heap as `gc-types`' reference `AbstractHeap`: the
    /// `BTreeSet`-based reading the bitset one replaced.
    fn reference_heap(v: &View) -> AbstractHeap {
        let cfg = v.config();
        let mut heap = AbstractHeap::new(cfg.heap_capacity, cfg.fields);
        for r in v.domain() {
            assert!(heap.alloc_at(r, v.flag(r).unwrap()));
            for f in 0..cfg.fields {
                let value = v.sys().mem.memory(&Addr::Field(r, f as u8)).unwrap();
                heap.set_field(r, f, value.as_ref_val());
            }
        }
        heap
    }

    /// Along seeded walks of a few configurations (one with a broken
    /// barrier, so that dangling and unprotected references occur), every
    /// derived set equals what `AbstractHeap`/`Tricolor` compute.
    #[test]
    fn derived_sets_agree_with_the_reference_heap_and_tricolor() {
        let mut chain = ModelConfig::small(1, 3);
        chain.initial = InitialHeap::chain(1, 3, 1);
        chain.deletion_barrier = false;
        let mut wide = ModelConfig::small(2, 3);
        wide.fields = 2;
        wide.initial = InitialHeap::shared_object(2, 2);
        let mut checked = 0;
        for cfg in [ModelConfig::small(2, 4), chain, wide] {
            let model = GcModel::new(cfg.clone());
            for seed in 0..6u64 {
                let mut rng = seed;
                let mut state = model.initial_states()[0];
                for _ in 0..600 {
                    let v = View::new(&cfg, &state);
                    let heap = reference_heap(&v);
                    let tri = Tricolor::new(&heap, v.fm(), v.greys());
                    let set = |refs: &std::collections::BTreeSet<Ref>| -> RefSet {
                        refs.iter().copied().collect()
                    };
                    assert_eq!(v.whites(), set(&tri.whites()));
                    assert_eq!(v.blacks(), set(&tri.blacks()));
                    assert_eq!(v.greys(), set(tri.greys()));
                    assert_eq!(v.grey_protected(), set(&tri.grey_protected()));
                    assert_eq!(v.strong_tricolor(), tri.strong_invariant());
                    assert_eq!(v.weak_tricolor(), tri.weak_invariant());
                    for roots in [v.all_roots(), v.greys(), v.domain()] {
                        assert_eq!(v.reachable(roots), set(&heap.reachable(roots)));
                        assert_eq!(v.valid_refs(roots), heap.valid_refs(roots));
                    }
                    checked += 1;
                    let succs = model.successors(&state);
                    rng = rng
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    state = succs[(rng >> 33) as usize % succs.len()].1;
                }
            }
        }
        assert_eq!(checked, 3 * 6 * 600);
    }
}
