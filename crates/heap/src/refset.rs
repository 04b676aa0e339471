//! A set of references as one machine word.

use std::fmt;

use crate::refs::Ref;

/// A set of [`Ref`]s with indices below [`RefSet::CAPACITY`], one bit each.
///
/// Model-checker states are made of these: roots, work-lists, the heap
/// domain and the sweep snapshot are all sets over a bounded ℛ, and as a
/// word they copy, compare and hash in one instruction with no heap behind
/// them. Iteration is in ascending index order, so anything derived from a
/// set is as canonical as the set.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct RefSet(u64);

impl RefSet {
    /// Indices `0..CAPACITY` are representable.
    pub const CAPACITY: usize = 64;

    /// The empty set.
    pub const fn new() -> Self {
        RefSet(0)
    }

    /// The set whose members are the set bits of `bits` (bit `i` ↔ `Ref` `i`).
    pub const fn from_bits(bits: u64) -> Self {
        RefSet(bits)
    }

    /// One bit per member (bit `i` ↔ `Ref` `i`).
    pub const fn bits(self) -> u64 {
        self.0
    }

    fn bit(r: Ref) -> u64 {
        assert!(
            r.index() < Self::CAPACITY,
            "{r} does not fit a RefSet (capacity {})",
            Self::CAPACITY
        );
        1 << r.index()
    }

    /// Whether the set has no members.
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of members.
    pub const fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether `r` is a member. References beyond the capacity never are.
    pub fn contains(self, r: Ref) -> bool {
        r.index() < Self::CAPACITY && self.0 & (1 << r.index()) != 0
    }

    /// Adds `r`; returns `false` if it was already a member.
    ///
    /// # Panics
    ///
    /// Panics if `r`'s index is not below [`RefSet::CAPACITY`].
    pub fn insert(&mut self, r: Ref) -> bool {
        let bit = Self::bit(r);
        let fresh = self.0 & bit == 0;
        self.0 |= bit;
        fresh
    }

    /// Removes `r`; returns whether it was a member.
    pub fn remove(&mut self, r: Ref) -> bool {
        let had = self.contains(r);
        if had {
            self.0 &= !Self::bit(r);
        }
        had
    }

    /// The member with the lowest index.
    pub fn first(self) -> Option<Ref> {
        (self.0 != 0).then(|| Ref::new(self.0.trailing_zeros() as u8))
    }

    /// Removes and returns the member with the lowest index.
    pub fn pop_first(&mut self) -> Option<Ref> {
        let r = self.first()?;
        self.0 &= self.0 - 1;
        Some(r)
    }

    /// Members of either set.
    pub const fn union(self, other: RefSet) -> RefSet {
        RefSet(self.0 | other.0)
    }

    /// Members of both sets.
    pub const fn intersection(self, other: RefSet) -> RefSet {
        RefSet(self.0 & other.0)
    }

    /// Members of `self` that are not in `other`.
    pub const fn difference(self, other: RefSet) -> RefSet {
        RefSet(self.0 & !other.0)
    }

    /// Whether every member of `self` is in `other`.
    pub const fn is_subset(self, other: RefSet) -> bool {
        self.0 & !other.0 == 0
    }

    /// Whether the sets share no member.
    pub const fn is_disjoint(self, other: RefSet) -> bool {
        self.0 & other.0 == 0
    }

    /// Iterates over the members in ascending index order.
    pub fn iter(self) -> Iter {
        Iter(self)
    }
}

/// Ascending iterator over a [`RefSet`].
#[derive(Debug, Clone)]
pub struct Iter(RefSet);

impl Iterator for Iter {
    type Item = Ref;

    fn next(&mut self) -> Option<Ref> {
        self.0.pop_first()
    }
}

impl IntoIterator for RefSet {
    type Item = Ref;
    type IntoIter = Iter;

    fn into_iter(self) -> Iter {
        self.iter()
    }
}

impl FromIterator<Ref> for RefSet {
    fn from_iter<T: IntoIterator<Item = Ref>>(iter: T) -> Self {
        let mut set = RefSet::new();
        set.extend(iter);
        set
    }
}

impl Extend<Ref> for RefSet {
    fn extend<T: IntoIterator<Item = Ref>>(&mut self, iter: T) {
        for r in iter {
            self.insert(r);
        }
    }
}

/// Prints like a set of references: `{Ref(0), Ref(3)}`.
impl fmt::Debug for RefSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;

    /// SplitMix64, the workspace's usual seeded stream.
    fn next(seed: &mut u64) -> u64 {
        *seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn same(set: RefSet, model: &BTreeSet<Ref>) {
        assert_eq!(set.len(), model.len());
        assert_eq!(set.is_empty(), model.is_empty());
        assert!(set.iter().eq(model.iter().copied()), "ascending iteration");
        assert_eq!(set.first(), model.iter().next().copied());
        assert_eq!(format!("{set:?}"), format!("{model:?}"));
    }

    #[test]
    fn behaves_like_a_btreeset_over_random_operations() {
        for seed in 0..32u64 {
            let mut rng = seed;
            let (mut a, mut b) = (RefSet::new(), RefSet::new());
            let (mut ma, mut mb) = (BTreeSet::new(), BTreeSet::new());
            for _ in 0..400 {
                let r = Ref::new((next(&mut rng) % 64) as u8);
                match next(&mut rng) % 6 {
                    0 | 1 => assert_eq!(a.insert(r), ma.insert(r)),
                    2 => assert_eq!(a.remove(r), ma.remove(&r)),
                    3 => assert_eq!(b.insert(r), mb.insert(r)),
                    4 => assert_eq!(a.pop_first(), ma.pop_first()),
                    _ => {
                        let union: BTreeSet<Ref> = ma.union(&mb).copied().collect();
                        same(a.union(b), &union);
                        let both: BTreeSet<Ref> = ma.intersection(&mb).copied().collect();
                        same(a.intersection(b), &both);
                        let only: BTreeSet<Ref> = ma.difference(&mb).copied().collect();
                        same(a.difference(b), &only);
                        assert_eq!(a.is_subset(b), ma.is_subset(&mb));
                        assert_eq!(a.is_disjoint(b), ma.is_disjoint(&mb));
                    }
                }
                assert_eq!(a.contains(r), ma.contains(&r));
                same(a, &ma);
                same(b, &mb);
                assert_eq!(a == b, ma == mb);
            }
        }
    }

    #[test]
    fn collects_and_round_trips_its_bits() {
        let set: RefSet = [Ref::new(5), Ref::new(0), Ref::new(63)]
            .into_iter()
            .collect();
        assert_eq!(set.bits(), 1 | 1 << 5 | 1 << 63);
        assert_eq!(RefSet::from_bits(set.bits()), set);
        assert!(!set.contains(Ref::new(64)));
    }

    #[test]
    #[should_panic(expected = "does not fit a RefSet")]
    fn inserting_beyond_the_capacity_panics() {
        RefSet::new().insert(Ref::new(64));
    }
}
