//! The hashers of the duplicate-detection tables.
//!
//! They hash whatever a state's `Hash` feeds them. A state that caches
//! hashes of its parts — as `cimp::SystemState` does, one 64-bit digest per
//! process, refreshed by the writes that change it — feeds only those, so a
//! fingerprint mixes a few words however large the state; the cost of
//! walking the state moves to whoever writes it. Hash-compact dedup then
//! merges two distinct states if their 128-bit fingerprints collide or if
//! a part's two distinct values share a digest.

use std::hash::{BuildHasherDefault, Hasher};

/// Feeds `bytes` to `word` eight at a time as little-endian words, then the
/// remaining zero to seven bytes as one more word tagged with how many they
/// are: permuted bytes, a trailing zero byte and the empty slice all feed
/// different words.
fn words(bytes: &[u8], mut word: impl FnMut(u64)) {
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        word(u64::from_le_bytes(chunk.try_into().expect("chunk of 8")));
    }
    let rest = chunks.remainder();
    let mut tail = [0u8; 8];
    tail[..rest.len()].copy_from_slice(rest);
    tail[7] = rest.len() as u8 + 1;
    word(u64::from_le_bytes(tail));
}

/// A fast, non-cryptographic hasher (the FxHash multiply-rotate scheme used
/// by rustc) for the duplicate-detection tables. Model states are large, so
/// hashing speed dominates exploration throughput.
#[derive(Default)]
pub struct FxHasher(u64);

impl Hasher for FxHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        words(bytes, |w| self.write_u64(w));
    }

    fn write_u8(&mut self, v: u8) {
        self.write_u64(u64::from(v));
    }

    fn write_u16(&mut self, v: u16) {
        self.write_u64(u64::from(v));
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    fn write_u64(&mut self, v: u64) {
        const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(SEED);
    }

    fn write_u128(&mut self, v: u128) {
        self.write_u64(v as u64);
        self.write_u64((v >> 64) as u64);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

pub(crate) type FxBuild = BuildHasherDefault<FxHasher>;

/// The hash-compact fingerprint: two 64-bit lanes with their own keys and
/// multipliers, both fed by **one** traversal of the state's `Hash`.
///
/// Each lane's step — xor the word in, multiply by an odd constant, fold
/// the high half down — is a bijection of the lane for a fixed word and of
/// the word for a fixed lane, so states differing in a single word never
/// collide; [`Fingerprint::finish128`] avalanches each lane once more so
/// that every bit of the 128 (the seen-set is sharded by the top ones)
/// depends on the whole input.
pub(crate) struct Fingerprint {
    lanes: [u64; 2],
}

impl Fingerprint {
    const MULTIPLIERS: [u64; 2] = [0x9E37_79B9_7F4A_7C15, 0xD6E8_FEB8_6659_FD93];

    /// A fingerprint hasher whose lanes start from `keys`.
    pub(crate) fn keyed(keys: [u64; 2]) -> Self {
        Fingerprint { lanes: keys }
    }

    /// The 128-bit fingerprint of everything written.
    pub(crate) fn finish128(&self) -> u128 {
        let [a, b] = self.lanes.map(|lane| {
            let lane = (lane ^ (lane >> 29)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            lane ^ (lane >> 32)
        });
        (u128::from(a) << 64) | u128::from(b)
    }
}

impl Hasher for Fingerprint {
    fn finish(&self) -> u64 {
        self.finish128() as u64
    }

    fn write(&mut self, bytes: &[u8]) {
        words(bytes, |w| self.write_u64(w));
    }

    fn write_u64(&mut self, v: u64) {
        for (lane, k) in self.lanes.iter_mut().zip(Self::MULTIPLIERS) {
            let mixed = (*lane ^ v).wrapping_mul(k);
            *lane = mixed ^ (mixed >> 32);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fx(bytes: &[u8]) -> u64 {
        let mut h = FxHasher::default();
        h.write(bytes);
        h.finish()
    }

    fn fingerprint(bytes: &[u8]) -> u128 {
        let mut h = Fingerprint::keyed([1, 2]);
        h.write(bytes);
        h.finish128()
    }

    /// Slices that differ only in byte order, in a trailing zero, or in
    /// being empty; and one long enough for two words and a tail.
    const SLICES: [&[u8]; 9] = [
        b"",
        b"\0",
        b"\0\0",
        b"ab",
        b"ba",
        b"ab\0",
        b"abcdefgh",
        b"abcdefgh\0",
        b"hgfedcbaabcdefghxyz",
    ];

    #[test]
    fn byte_slices_that_differ_hash_differently() {
        for (i, a) in SLICES.iter().enumerate() {
            for b in &SLICES[i + 1..] {
                assert_ne!(fx(a), fx(b), "{a:?} vs {b:?}");
                assert_ne!(fingerprint(a), fingerprint(b), "{a:?} vs {b:?}");
            }
        }
        // The empty slice still moves the state: it is not "nothing written".
        assert_ne!(fx(b""), FxHasher::default().finish());
    }

    #[test]
    fn a_slice_is_consumed_as_little_endian_words() {
        let mut by_word = FxHasher::default();
        by_word.write_u64(u64::from_le_bytes(*b"abcdefgh"));
        by_word.write_u64(u64::from_le_bytes([b'i', 0, 0, 0, 0, 0, 0, 2]));
        assert_eq!(fx(b"abcdefghi"), by_word.finish());
    }

    #[test]
    fn write_u128_is_two_words_low_half_first() {
        // `benchmark/` keys a `HashSet<u128>` with this hasher.
        let v = 0x0123_4567_89AB_CDEF_0011_2233_4455_6677u128;
        let mut whole = FxHasher::default();
        whole.write_u128(v);
        let mut halves = FxHasher::default();
        halves.write_u64(0x0011_2233_4455_6677);
        halves.write_u64(0x0123_4567_89AB_CDEF);
        assert_eq!(whole.finish(), halves.finish());
        assert_eq!(whole.finish(), 0xf60961df8541c661);
    }

    #[test]
    fn fingerprint_lanes_are_keyed_and_independent() {
        let mut a = Fingerprint::keyed([1, 2]);
        let mut b = Fingerprint::keyed([3, 2]);
        for h in [&mut a, &mut b] {
            h.write_u64(42);
            h.write_u8(7);
        }
        let (fa, fb) = (a.finish128(), b.finish128());
        assert_ne!(fa >> 64, fb >> 64, "the first lane has its own key");
        assert_eq!(fa as u64, fb as u64, "the second lane never saw it");
        assert_ne!(
            fa >> 64,
            u128::from(fa as u64),
            "equal keys would still differ"
        );
    }
}
