//! Intrusive grey work-lists and the wait-free transfer channel.
//!
//! Each object header carries one intrusive `next` link, so an object can
//! be on at most one list — the representation Schism uses, justified by
//! the paper's `valid_W_inv`: work-lists are pairwise disjoint because only
//! the unique mark-CAS winner enlists an object.
//!
//! A [`LocalList`] is thread-private and needs no synchronisation. At a
//! handshake a mutator *transfers* its whole list to the shared
//! [`Staged`] channel in O(1): link the segment's tail to the current
//! staged head with a single CAS retry loop. Only mutators push and only
//! the collector (after the handshake round completes) takes, so the
//! channel is a single-consumer Treiber stack of segments — wait-free in
//! practice (the CAS fails only when another mutator transfers at the same
//! instant).

use std::sync::atomic::{AtomicU64, Ordering};

use crate::handle::Gc;
use crate::heap::Heap;

/// A thread-private grey list threaded through object headers.
#[derive(Debug, Default)]
pub(crate) struct LocalList {
    head: Option<Gc>,
    tail: Option<Gc>,
    len: usize,
}

impl LocalList {
    pub(crate) fn new() -> Self {
        LocalList::default()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.head.is_none()
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Pushes a freshly-marked object. The caller must be the mark winner
    /// (sole owner of the object's link).
    pub(crate) fn push(&mut self, heap: &Heap, g: Gc) {
        heap.set_link(g, self.head);
        self.head = Some(g);
        if self.tail.is_none() {
            self.tail = Some(g);
        }
        self.len += 1;
    }

    /// Pops an object.
    pub(crate) fn pop(&mut self, heap: &Heap) -> Option<Gc> {
        let g = self.head?;
        self.head = heap.link(g);
        if self.head.is_none() {
            self.tail = None;
        }
        self.len -= 1;
        Some(g)
    }

    /// Detaches the whole list as `(head, tail)`, leaving it empty.
    fn take(&mut self) -> Option<(Gc, Gc)> {
        let head = self.head.take()?;
        let tail = self.tail.take().expect("non-empty list has a tail");
        self.len = 0;
        Some((head, tail))
    }
}

/// The shared transfer channel: a lock-free stack of list segments.
#[derive(Debug, Default)]
pub(crate) struct Staged {
    head: AtomicU64,
}

impl Staged {
    pub(crate) fn new() -> Self {
        Staged::default()
    }

    /// Transfers every entry of `list` into the channel (O(1), one CAS
    /// loop). `list` is left empty.
    pub(crate) fn push_all(&self, heap: &Heap, list: &mut LocalList) {
        let Some((head, tail)) = list.take() else {
            return;
        };
        let mut cur = self.head.load(Ordering::Acquire);
        loop {
            heap.set_link(tail, Gc::decode(cur));
            match self.head.compare_exchange_weak(
                cur,
                Gc::encode(Some(head)),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Empties the channel without walking it: what it holds is stale (an
    /// aborted cycle's greys) and may not even be a well-formed list.
    pub(crate) fn discard(&self) {
        self.head.store(0, Ordering::Release);
    }

    /// Takes the whole channel contents as a local list (single consumer:
    /// the collector, after a handshake round).
    ///
    /// # Panics
    ///
    /// Panics when the walk exceeds the heap's capacity: an object on two
    /// work-lists has made the intrusive list cyclic.
    pub(crate) fn take_all(&self, heap: &Heap) -> LocalList {
        let head = Gc::decode(self.head.swap(0, Ordering::AcqRel));
        let mut list = LocalList::new();
        // Rebuild bookkeeping by walking the links.
        let mut cur = head;
        let mut len = 0;
        let mut tail = None;
        while let Some(g) = cur {
            len += 1;
            assert!(len <= heap.capacity(), "work-list cycle: valid_W_inv");
            tail = Some(g);
            cur = heap.link(g);
        }
        list.head = head;
        list.tail = tail;
        list.len = len;
        list
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heap() -> Heap {
        Heap::new(8, 1, true)
    }

    #[test]
    fn push_pop_is_lifo() {
        let h = heap();
        let a = h.alloc(0, false).unwrap();
        let b = h.alloc(0, false).unwrap();
        let mut l = LocalList::new();
        l.push(&h, a);
        l.push(&h, b);
        assert_eq!(l.len(), 2);
        assert_eq!(l.pop(&h), Some(b));
        assert_eq!(l.pop(&h), Some(a));
        assert_eq!(l.pop(&h), None);
        assert!(l.is_empty());
    }

    #[test]
    fn transfer_moves_whole_segments() {
        let h = heap();
        let staged = Staged::new();
        let mut l1 = LocalList::new();
        let mut l2 = LocalList::new();
        let objs: Vec<Gc> = (0..4).map(|_| h.alloc(0, false).unwrap()).collect();
        l1.push(&h, objs[0]);
        l1.push(&h, objs[1]);
        l2.push(&h, objs[2]);
        l2.push(&h, objs[3]);
        staged.push_all(&h, &mut l1);
        staged.push_all(&h, &mut l2);
        assert!(l1.is_empty() && l2.is_empty());
        let mut got = staged.take_all(&h);
        assert_eq!(got.len(), 4);
        let mut seen = Vec::new();
        while let Some(g) = got.pop(&h) {
            seen.push(g);
        }
        seen.sort();
        let mut want = objs.clone();
        want.sort();
        assert_eq!(seen, want);
        // Channel is now empty.
        assert!(staged.take_all(&h).is_empty());
    }

    #[test]
    fn empty_transfer_is_a_noop() {
        let h = heap();
        let staged = Staged::new();
        let mut l = LocalList::new();
        staged.push_all(&h, &mut l);
        assert!(staged.take_all(&h).is_empty());
    }

    #[test]
    fn concurrent_transfers_preserve_every_entry() {
        use std::sync::Arc;
        let h = Arc::new(Heap::new(64, 0, true));
        let staged = Arc::new(Staged::new());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let h = Arc::clone(&h);
                let staged = Arc::clone(&staged);
                std::thread::spawn(move || {
                    for _ in 0..4 {
                        let mut l = LocalList::new();
                        for _ in 0..4 {
                            l.push(&h, h.alloc(0, false).unwrap());
                        }
                        staged.push_all(&h, &mut l);
                    }
                    t
                })
            })
            .collect();
        for th in handles {
            th.join().unwrap();
        }
        assert_eq!(staged.take_all(&h).len(), 64);
    }
}
