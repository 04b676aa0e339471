//! A self-contained byte view of a [`ModelState`]: bytes that name the
//! state without the model that reached it, where the checker's own
//! encoding ([`GcModel::encode_state`](mc::TransitionSystem::encode_state))
//! is the state's slot ids in one model's memos. Tests digest it to pin
//! successor order across builds.
//!
//! The state is already a handful of words and byte tables (see
//! [`state`](crate::state)), so there is nothing to derive: per process the
//! control stack's frames, then the local state's words with their leading
//! zero bytes dropped, then — for the system process — the TSO machine's own
//! encoding. Equal states give equal bytes; the layout is versioned only by
//! this code.

use cimp::{ComId, Stack, SystemState, MAX_PROCESSES};
use tso_model::Machine;

use crate::state::{GcState, Local, MutState, SysState};
use crate::ModelState;

/// Serializes `state` into `out` (appending).
pub fn encode(state: &ModelState, out: &mut Vec<u8>) {
    out.push(state.len() as u8);
    for (p, control) in state.controls().iter().enumerate() {
        out.push(control.len() as u8);
        for com in control.frames() {
            out.extend_from_slice(&com.raw().to_le_bytes());
        }
        match state.local(p) {
            Local::Gc(g) => put_words(out, 0, &g.words()),
            Local::Mut(m) => put_words(out, 1, &m.words()),
            Local::Sys(s) => {
                put_words(out, 2, &s.words());
                s.mem.encode(out);
            }
        }
    }
}

/// A role tag, then each word as its count of significant bytes and those
/// bytes: reference sets over a handful of slots are one byte, not eight.
fn put_words(out: &mut Vec<u8>, role: u8, words: &[u64]) {
    out.push(role);
    for word in words {
        let significant = (u64::BITS - word.leading_zeros()).div_ceil(8) as usize;
        out.push(significant as u8);
        out.extend_from_slice(&word.to_le_bytes()[..significant]);
    }
}

/// Deserializes a state produced by [`encode`]. Returns `None` on any
/// malformed input.
pub fn decode(bytes: &[u8]) -> Option<ModelState> {
    let mut d = Dec(bytes);
    let n = usize::from(d.u8()?);
    if !(1..=MAX_PROCESSES).contains(&n) {
        return None;
    }
    let mut controls = [Stack::new(); MAX_PROCESSES];
    let mut locals = Vec::with_capacity(n);
    for control in &mut controls[..n] {
        let depth = usize::from(d.u8()?);
        if depth > cimp::MAX_STACK_DEPTH {
            return None;
        }
        for _ in 0..depth {
            control.push(ComId::from_raw(u16::from_le_bytes(d.take()?)));
        }
        locals.push(match d.u8()? {
            0 => Local::Gc(GcState::from_words(d.words()?)?),
            1 => Local::Mut(MutState::from_words(d.words()?)?),
            2 => {
                let words = d.words()?;
                let (mem, rest) = Machine::decode(d.0)?;
                d.0 = rest;
                Local::Sys(SysState::from_words(words, mem)?)
            }
            _ => return None,
        });
    }
    // Trailing garbage is malformed too.
    d.0.is_empty()
        .then(|| SystemState::from_parts(&controls[..n], &locals))
}

/// The bytes not yet read.
struct Dec<'a>(&'a [u8]);

impl Dec<'_> {
    fn take<const N: usize>(&mut self) -> Option<[u8; N]> {
        let (front, rest) = self.0.split_first_chunk::<N>()?;
        self.0 = rest;
        Some(*front)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take::<1>().map(|[b]| b)
    }

    fn words<const N: usize>(&mut self) -> Option<[u64; N]> {
        let mut words = [0u64; N];
        for word in &mut words {
            let significant = usize::from(self.u8()?);
            let mut bytes = [0u8; 8];
            let (front, rest) = self.0.split_at_checked(significant)?;
            bytes.get_mut(..significant)?.copy_from_slice(front);
            self.0 = rest;
            *word = u64::from_le_bytes(bytes);
        }
        Some(words)
    }
}

#[cfg(test)]
mod tests {
    use std::hash::{BuildHasher, BuildHasherDefault};

    use super::*;
    use crate::config::{InitialHeap, ModelConfig};
    use crate::model::GcModel;
    use mc::{Reduction, TransitionSystem};

    fn encoded(s: &ModelState) -> Vec<u8> {
        let mut bytes = Vec::new();
        encode(s, &mut bytes);
        bytes
    }

    fn hashed(s: &ModelState) -> u64 {
        BuildHasherDefault::<std::collections::hash_map::DefaultHasher>::default().hash_one(s)
    }

    /// Along seeded random walks of three configurations — deep buffers
    /// with every canonicalization applied, two fields with allocation, and
    /// three mutators — every state round-trips through the codec, and for
    /// each pair of a state with a recent one, with its decoded copy (which
    /// was built afresh and has never popped a stack frame or committed a
    /// store) and with its canonical forms (symmetry-permuted,
    /// buffer-coalesced, both): `a == b`, `encode(a) == encode(b)` and
    /// `hash(a) == hash(b)` all agree. Each canonical form also equals and
    /// hashes like its own decoded copy. A slot left behind in an inline
    /// stack, buffer or memory table would break one of these, and so would
    /// a canonicalization that left a process's digest stale.
    #[test]
    fn equality_encoding_and_hash_agree_along_random_walks() {
        let only = |symmetry, sb_canon| Reduction {
            por: false,
            symmetry,
            sb_canon,
        };
        let canonicalizations = [Reduction::all(), only(true, false), only(false, true)];
        let mut changed = [0usize; 3];
        let mut deep = ModelConfig::small(2, 2);
        deep.initial = InitialHeap::shared_object(2, 1);
        deep.buffer_cap = 6;
        let mut wide = ModelConfig::small(2, 3);
        wide.fields = 2;
        wide.initial = InitialHeap::shared_object(2, 2);
        let mut compared = 0usize;
        for cfg in [deep, wide, ModelConfig::small(3, 5)] {
            let model = GcModel::new(cfg);
            for seed in 0..4u64 {
                let mut rng = seed;
                let mut state = model.initial_states()[0];
                let mut recent: Vec<ModelState> = Vec::new();
                for _ in 0..1_500 {
                    let bytes = encoded(&state);
                    let back = decode(&bytes).expect("decodes");
                    let canonical = canonicalizations.map(|r| model.canonicalize(&state, &r));
                    for (c, count) in canonical.iter().zip(&mut changed) {
                        let twin = decode(&encoded(c)).expect("decodes");
                        assert_eq!(twin, *c);
                        assert_eq!(hashed(&twin), hashed(c));
                        *count += usize::from(*c != state);
                    }
                    for other in recent.iter().chain([&back]).chain(&canonical) {
                        let same = state == *other;
                        assert_eq!(same, bytes == encoded(other));
                        // Distinct states may share a 64-bit hash, but not
                        // among the few thousand pairs compared here.
                        assert_eq!(same, hashed(&state) == hashed(other));
                        compared += 1;
                    }
                    assert_eq!(back, state, "round trip");
                    recent.push(state);
                    if recent.len() > 8 {
                        recent.remove(0);
                    }
                    let succs = model.successors(&state);
                    rng = rng
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    state = succs[(rng >> 33) as usize % succs.len()].1;
                }
            }
        }
        assert!(compared > 100_000);
        // Measured [1160, 1153, 7]: adjacent duplicate stores are rare.
        assert!(
            changed.iter().all(|&n| n > 0),
            "a canonicalization changed no state: {changed:?}"
        );
    }

    /// Truncations, trailing garbage and ids no memo issued all fail
    /// cleanly: in the model's slot ids and in the self-contained view.
    #[test]
    fn decode_rejects_malformed_input() {
        let model = GcModel::new(ModelConfig::default());
        let (_, state) = model.successors(&model.initial_states()[0]).swap_remove(0);
        let mut ids = Vec::new();
        assert!(model.encode_state(&state, &mut ids));
        assert_eq!(model.decode_state(&ids), Some(state));
        type Decode<'a> = &'a dyn Fn(&[u8]) -> Option<ModelState>;
        let view = encoded(&state);
        let decoders: [(&[u8], Decode); 2] =
            [(&ids, &|bytes| model.decode_state(bytes)), (&view, &decode)];
        for (bytes, decode) in decoders {
            assert!(decode(&[7]).is_none());
            for cut in 0..bytes.len() {
                assert!(decode(&bytes[..cut]).is_none(), "cut at {cut}");
            }
            let mut padded = bytes.to_vec();
            padded.push(0);
            assert!(decode(&padded).is_none());
        }
        for p in 0..state.len() {
            let mut wrong = ids.clone();
            wrong[4 * p..4 * p + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            assert!(model.decode_state(&wrong).is_none(), "process {p}");
        }
    }
}
