//! Typed structures built on the raw heap protocol — what downstream code
//! looks like on top of the collector.
//!
//! The collector's API is deliberately low-level (Figure 6's `Load`/
//! `Store`/`Alloc`/`Discard`); this module shows the intended idiom by
//! packaging the shapes the examples and stress tests use:
//!
//! * [`GcStack`] — a cons-list used as a stack (push/pop/iterate);
//! * [`GcTree`] — a binary tree builder (the GCBench-style workload);
//! * [`churn_list`] — the shared-list churn loop of the experiment rigs.
//!
//! The two structures follow the rooting discipline strictly: exactly one
//! handle (the head/root) stays in the mutator's roots; interior nodes
//! live only through heap edges, so they are collected as soon as the
//! structure drops them.

use crate::handle::Gc;
use crate::heap::AllocError;
use crate::mutator::Mutator;

/// A stack of nodes threaded through field 0; field 1 is a payload slot
/// usable by the caller (each node is a 2-field object).
///
/// The head handle is kept rooted by the owning [`Mutator`]; everything
/// else is reachable only through the heap. Dropping the `GcStack` value
/// does *not* discard the root — call [`GcStack::clear`] (or discard the
/// head yourself) to release the structure.
#[derive(Debug)]
pub struct GcStack {
    head: Option<Gc>,
}

impl GcStack {
    /// Creates an empty stack.
    pub fn new() -> Self {
        GcStack { head: None }
    }

    /// Whether the stack is empty.
    pub fn is_empty(&self) -> bool {
        self.head.is_none()
    }

    /// The current head node, if any (rooted).
    pub fn head(&self) -> Option<Gc> {
        self.head
    }

    /// Pushes a fresh node carrying `payload` in field 1.
    ///
    /// # Errors
    ///
    /// Propagates [`AllocError`] when the heap is full.
    pub fn push(&mut self, m: &mut Mutator, payload: Option<Gc>) -> Result<Gc, AllocError> {
        let node = m.alloc(2)?;
        if let Some(p) = payload {
            m.store(node, 1, Some(p));
        }
        m.store(node, 0, self.head);
        if let Some(old) = self.head {
            m.discard(old); // now reachable through the new head
        }
        self.head = Some(node);
        Ok(node)
    }

    /// Pops the head node, returning its payload. The popped node becomes
    /// garbage immediately (nothing else references it).
    pub fn pop(&mut self, m: &mut Mutator) -> Option<Option<Gc>> {
        let head = self.head?;
        let next = m.load(head, 0);
        let payload = m.load(head, 1);
        m.discard(head);
        self.head = next; // `load` rooted it already
        Some(payload)
    }

    /// Walks the stack top-down, returning the number of nodes; validates
    /// every access on the way (a cheap integrity scan).
    pub fn len(&self, m: &mut Mutator) -> usize {
        let mut n = 0;
        let mut cur = self.head;
        while let Some(c) = cur {
            n += 1;
            let next = m.load(c, 0); // roots the cursor's successor
            if Some(c) != self.head {
                m.discard(c); // unroot the transient cursor
            }
            cur = next;
        }
        n
    }

    /// Drops the whole stack: the head is discarded and every node becomes
    /// garbage for the next cycle(s).
    pub fn clear(&mut self, m: &mut Mutator) {
        if let Some(h) = self.head.take() {
            m.discard(h);
        }
    }
}

impl Default for GcStack {
    fn default() -> Self {
        Self::new()
    }
}

/// A binary-tree builder over 2-field nodes (left = field 0, right =
/// field 1) — the classic GC benchmark shape: build a complete tree of
/// depth `d`, drop it, repeat.
#[derive(Debug)]
pub struct GcTree {
    root: Option<Gc>,
}

impl GcTree {
    /// Creates an empty tree.
    pub fn new() -> Self {
        GcTree { root: None }
    }

    /// The rooted tree root, if any.
    pub fn root(&self) -> Option<Gc> {
        self.root
    }

    /// Builds a complete binary tree of the given depth bottom-up,
    /// replacing any previous tree (which becomes garbage).
    ///
    /// # Errors
    ///
    /// Propagates [`AllocError`]; a partially built tree is discarded
    /// cleanly.
    pub fn build(&mut self, m: &mut Mutator, depth: usize) -> Result<(), AllocError> {
        self.clear(m);
        self.root = Some(Self::build_node(m, depth)?);
        Ok(())
    }

    fn build_node(m: &mut Mutator, depth: usize) -> Result<Gc, AllocError> {
        let node = m.alloc(2)?;
        if depth > 0 {
            match Self::build_node(m, depth - 1) {
                Ok(left) => {
                    m.store(node, 0, Some(left));
                    m.discard(left);
                }
                Err(e) => {
                    m.discard(node);
                    return Err(e);
                }
            }
            match Self::build_node(m, depth - 1) {
                Ok(right) => {
                    m.store(node, 1, Some(right));
                    m.discard(right);
                }
                Err(e) => {
                    m.discard(node);
                    return Err(e);
                }
            }
        }
        Ok(node)
    }

    /// Counts the tree's nodes by depth-first walk, validating every access.
    pub fn count(&self, m: &mut Mutator) -> usize {
        fn walk(m: &mut Mutator, node: Gc) -> usize {
            let mut n = 1;
            for f in 0..2 {
                if let Some(child) = m.load(node, f) {
                    n += walk(m, child);
                    m.discard(child);
                }
            }
            n
        }
        match self.root {
            Some(r) => walk(m, r),
            None => 0,
        }
    }

    /// Drops the tree; all nodes become garbage.
    pub fn clear(&mut self, m: &mut Mutator) {
        if let Some(r) = self.root.take() {
            m.discard(r);
        }
    }
}

impl Default for GcTree {
    fn default() -> Self {
        Self::new()
    }
}

/// One mutator's share of the shared-list churn the `stress`, `torture`
/// and `fig5` experiments and the `gc-trace` demo all run: `ops` times,
/// answer the handshake, push a fresh 2-field node onto the list hanging
/// off `anchor`'s field 0 (a full heap is backpressure: yield and go on),
/// cut the whole list loose every `cut_every` ops (mass garbage), and —
/// when `walk > 0` — every 16 ops walk up to `walk` nodes of the visible
/// prefix, so the use-after-free oracle checks every link another mutator
/// may be editing. `anchor` must be rooted in `m`.
pub fn churn_list(m: &mut Mutator, anchor: Gc, ops: usize, cut_every: usize, walk: usize) {
    for op in 0..ops {
        m.safepoint();
        match m.alloc(2) {
            Ok(node) => {
                let old = m.load(anchor, 0);
                m.store(node, 0, old);
                m.store(anchor, 0, Some(node));
                if let Some(o) = old {
                    m.discard(o);
                }
                m.discard(node);
            }
            Err(_) => std::thread::yield_now(),
        }
        if op.is_multiple_of(cut_every) {
            m.store(anchor, 0, None);
        }
        if walk > 0 && op.is_multiple_of(16) {
            let mut cur = m.load(anchor, 0);
            let mut n = 0;
            while let Some(c) = cur {
                cur = m.load(c, 0);
                m.discard(c);
                n += 1;
                if n > walk {
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Collector, GcConfig};
    use std::sync::atomic::{AtomicBool, Ordering};

    fn run_cycle(c: &Collector, m: &mut Mutator) {
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                c.collect();
                done.store(true, Ordering::Release);
            });
            while !done.load(Ordering::Acquire) {
                m.safepoint();
                std::thread::yield_now();
            }
        });
    }

    #[test]
    fn stack_push_pop_round_trip() {
        let c = Collector::new(GcConfig::new(64, 2));
        let mut m = c.register_mutator();
        let mut st = GcStack::new();
        assert!(st.is_empty());
        let payload = m.alloc(2).unwrap();
        st.push(&mut m, Some(payload)).unwrap();
        st.push(&mut m, None).unwrap();
        assert_eq!(st.len(&mut m), 2);
        assert_eq!(st.pop(&mut m), Some(None));
        assert_eq!(st.pop(&mut m), Some(Some(payload)));
        assert_eq!(st.pop(&mut m), None);
    }

    #[test]
    fn stack_interior_nodes_survive_collection() {
        let c = Collector::new(GcConfig::new(64, 2));
        let mut m = c.register_mutator();
        let mut st = GcStack::new();
        for _ in 0..10 {
            st.push(&mut m, None).unwrap();
        }
        run_cycle(&c, &mut m);
        assert_eq!(st.len(&mut m), 10);
        assert_eq!(c.live_objects(), 10);
    }

    #[test]
    fn cleared_stack_is_collected() {
        let c = Collector::new(GcConfig::new(64, 2));
        let mut m = c.register_mutator();
        let mut st = GcStack::new();
        for _ in 0..10 {
            st.push(&mut m, None).unwrap();
        }
        st.clear(&mut m);
        run_cycle(&c, &mut m);
        run_cycle(&c, &mut m);
        assert_eq!(c.live_objects(), 0);
    }

    #[test]
    fn tree_builds_counts_and_collects() {
        let c = Collector::new(GcConfig::new(256, 2));
        let mut m = c.register_mutator();
        let mut t = GcTree::new();
        t.build(&mut m, 5).unwrap();
        assert_eq!(t.count(&mut m), 63);
        run_cycle(&c, &mut m);
        assert_eq!(c.live_objects(), 63);
        // Rebuild a smaller tree: the old one is garbage.
        t.build(&mut m, 3).unwrap();
        run_cycle(&c, &mut m);
        run_cycle(&c, &mut m);
        assert_eq!(c.live_objects(), 15);
        t.clear(&mut m);
    }

    #[test]
    fn tree_build_failure_cleans_up() {
        let c = Collector::new(GcConfig::new(10, 2));
        let mut m = c.register_mutator();
        let mut t = GcTree::new();
        assert!(t.build(&mut m, 5).is_err(), "63 nodes into 10 slots");
        assert!(t.root().is_none());
        // Everything transiently allocated is unrooted again.
        run_cycle(&c, &mut m);
        run_cycle(&c, &mut m);
        assert_eq!(c.live_objects(), 0);
    }
}
