//! Grey work-lists.
//!
//! Both the collector (its shared list `W`) and each mutator (its private
//! `W_m`, filled by write barriers and root marking) accumulate grey
//! references in work-lists. A key structural fact the paper proves
//! (`valid_W_inv`) is that all work-lists are pairwise **disjoint**: an
//! object is placed on a list only by the unique winner of the mark CAS.
//! Disjointness is what justifies Schism's intrusive representation, where
//! each object header holds a single next-pointer.

use std::fmt;

use crate::refs::Ref;
use crate::refset::{self, RefSet};

/// A work-list of grey references.
///
/// Represented as a set: insertion order is irrelevant to the model (the
/// collector picks an arbitrary element), and a [`RefSet`] is canonical and
/// `Copy`, which keeps the model states that embed work-lists flat.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct WorkList(RefSet);

impl WorkList {
    /// Creates an empty work-list.
    pub fn new() -> Self {
        WorkList::default()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether `r` is on the list.
    pub fn contains(&self, r: Ref) -> bool {
        self.0.contains(r)
    }

    /// Inserts `r`; returns `false` if it was already present (which the
    /// disjointness discipline should make impossible across lists, and the
    /// CAS-winner rule within one list).
    pub fn insert(&mut self, r: Ref) -> bool {
        self.0.insert(r)
    }

    /// Removes `r`; returns whether it was present.
    pub fn remove(&mut self, r: Ref) -> bool {
        self.0.remove(r)
    }

    /// Removes and returns an arbitrary element (the lowest, for canonical
    /// exploration; the model separately enumerates all choices when that
    /// matters).
    pub fn pop(&mut self) -> Option<Ref> {
        self.0.pop_first()
    }

    /// Moves every entry of `other` into `self`, leaving `other` empty —
    /// the atomic `W ← W ∪ W_m; W_m ← ∅` transfer of Figure 2.
    pub fn absorb(&mut self, other: &mut WorkList) {
        self.0 = self.0.union(std::mem::take(&mut other.0));
    }

    /// Iterates over the entries in ascending order.
    pub fn iter(&self) -> refset::Iter {
        self.0.iter()
    }

    /// The entries as a set.
    pub fn as_set(&self) -> RefSet {
        self.0
    }
}

impl fmt::Debug for WorkList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkList").field("refs", &self.0).finish()
    }
}

impl From<RefSet> for WorkList {
    fn from(refs: RefSet) -> Self {
        WorkList(refs)
    }
}

impl FromIterator<Ref> for WorkList {
    fn from_iter<T: IntoIterator<Item = Ref>>(iter: T) -> Self {
        WorkList(iter.into_iter().collect())
    }
}

impl Extend<Ref> for WorkList {
    fn extend<T: IntoIterator<Item = Ref>>(&mut self, iter: T) {
        self.0.extend(iter);
    }
}

impl IntoIterator for &WorkList {
    type Item = Ref;
    type IntoIter = refset::Iter;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

/// Whether the given work-lists are pairwise disjoint (part of the paper's
/// `valid_W_inv`).
pub fn disjoint<'a>(lists: impl IntoIterator<Item = &'a WorkList>) -> bool {
    let mut seen = RefSet::new();
    for list in lists {
        if !seen.is_disjoint(list.0) {
            return false;
        }
        seen = seen.union(list.0);
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u8) -> Ref {
        Ref::new(i)
    }

    #[test]
    fn insert_remove_contains() {
        let mut w = WorkList::new();
        assert!(w.insert(r(1)));
        assert!(!w.insert(r(1)));
        assert!(w.contains(r(1)));
        assert!(w.remove(r(1)));
        assert!(!w.remove(r(1)));
        assert!(w.is_empty());
    }

    #[test]
    fn pop_yields_each_entry_once() {
        let mut w: WorkList = [r(3), r(1), r(2)].into_iter().collect();
        let mut popped = Vec::new();
        while let Some(x) = w.pop() {
            popped.push(x);
        }
        assert_eq!(popped, vec![r(1), r(2), r(3)]);
    }

    #[test]
    fn absorb_models_atomic_transfer() {
        let mut w: WorkList = [r(1)].into_iter().collect();
        let mut wm: WorkList = [r(2), r(3)].into_iter().collect();
        w.absorb(&mut wm);
        assert!(wm.is_empty());
        assert_eq!(w.len(), 3);
    }

    #[test]
    fn disjointness_check() {
        let a: WorkList = [r(1), r(2)].into_iter().collect();
        let b: WorkList = [r(3)].into_iter().collect();
        let c: WorkList = [r(2)].into_iter().collect();
        assert!(disjoint([&a, &b]));
        assert!(!disjoint([&a, &b, &c]));
        assert!(disjoint(std::iter::empty()));
    }
}
