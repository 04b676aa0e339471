//! Garbage-collected object handles.

use std::fmt;

/// A handle to a heap object: a slot index paired with the slot's
/// allocation *epoch*.
///
/// The epoch is bumped every time a slot is freed, so a stale handle — one
/// that survived the collection of its object — can never be confused with
/// a handle to the slot's next tenant. Every heap access through a stale
/// handle panics immediately: this is the runtime oracle
/// for the paper's safety property, and it is what the barrier-ablation
/// stress tests trip.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Gc(u64);

impl Gc {
    pub(crate) fn new(index: u32, epoch: u32) -> Self {
        Gc((u64::from(epoch) << 32) | u64::from(index))
    }

    /// The slot index within the heap.
    pub fn index(self) -> u32 {
        self.0 as u32
    }

    /// The allocation epoch this handle was issued under.
    pub fn epoch(self) -> u32 {
        (self.0 >> 32) as u32
    }

    /// Encodes an optional handle as a non-zero word for storage in an
    /// atomic field (`0` is `NULL`).
    pub(crate) fn encode(v: Option<Gc>) -> u64 {
        match v {
            None => 0,
            Some(g) => g.0.wrapping_add(1),
        }
    }

    /// Decodes a field word back to an optional handle.
    pub(crate) fn decode(word: u64) -> Option<Gc> {
        if word == 0 {
            None
        } else {
            Some(Gc(word.wrapping_sub(1)))
        }
    }
}

impl fmt::Debug for Gc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Gc({}@e{})", self.index(), self.epoch())
    }
}

impl fmt::Display for Gc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj{}", self.index())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        let g = Gc::new(7, 42);
        assert_eq!(g.index(), 7);
        assert_eq!(g.epoch(), 42);
        assert_eq!(Gc::decode(Gc::encode(Some(g))), Some(g));
        assert_eq!(Gc::decode(Gc::encode(None)), None);
    }

    #[test]
    fn zero_handle_is_distinct_from_null() {
        let g = Gc::new(0, 0);
        assert_ne!(Gc::encode(Some(g)), 0);
        assert_eq!(Gc::decode(Gc::encode(Some(g))), Some(g));
    }
}
