//! A litmus-test harness for the x86-TSO machine.
//!
//! Litmus tests are the standard way relaxed-memory models are communicated
//! and validated: tiny multi-threaded programs whose set of permitted final
//! outcomes distinguishes one model from another. This module provides a
//! small instruction set and an exhaustive explorer that enumerates *every*
//! interleaving of a test (including all store-buffer commit points) and
//! collects the set of reachable final register valuations.
//!
//! This is the executable counterpart of the paper's Figure 9: the same
//! machine that underlies the garbage collector model, demonstrated on the
//! classic SB/MP shapes (see the crate's tests and `experiments fig9` in
//! `gc-bench`).
//!
//! # Example
//!
//! ```
//! use tso_model::litmus::{Instr, LitmusTest, Outcome};
//! use tso_model::MemoryModel;
//!
//! // SB: t0: x=1; r0=y   ∥   t1: y=1; r0=x
//! let sb = LitmusTest::new("SB")
//!     .init("x", 0)
//!     .init("y", 0)
//!     .thread(vec![Instr::Write("x", 1), Instr::Read("y", 0)])
//!     .thread(vec![Instr::Write("y", 1), Instr::Read("x", 0)]);
//!
//! let tso = sb.outcomes(MemoryModel::Tso);
//! let sc = sb.outcomes(MemoryModel::Sc);
//! let both_zero = Outcome::new(vec![vec![0], vec![0]]);
//! assert!(tso.contains(&both_zero)); // the TSO-only relaxed outcome
//! assert!(!sc.contains(&both_zero)); // forbidden under SC
//! ```

use std::collections::{BTreeSet, HashSet};

use crate::machine::{Machine, MemoryModel, ThreadId};

/// A litmus-test instruction over string-named locations and `u32` values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instr {
    /// Store a constant to a location.
    Write(&'static str, u32),
    /// Load a location into the numbered thread-local register.
    Read(&'static str, usize),
    /// A full memory fence (`MFENCE`).
    MFence,
    /// A locked compare-and-swap: if the location holds `expected`, replace
    /// it by `new`. The register receives 1 on success, 0 on failure.
    ///
    /// Executed as one atomic transition (lock–flush–read–write–flush–unlock),
    /// matching the coarse view of `LOCK CMPXCHG`.
    Cas {
        /// Target location.
        addr: &'static str,
        /// Value the location must hold for the swap to happen.
        expected: u32,
        /// Replacement value.
        new: u32,
        /// Register receiving the success flag.
        reg: usize,
    },
}

/// A final register valuation: `regs[t][r]` is register `r` of thread `t`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Outcome {
    regs: Vec<Vec<u32>>,
}

impl Outcome {
    /// Creates an outcome from per-thread register files.
    pub fn new(regs: Vec<Vec<u32>>) -> Self {
        Outcome { regs }
    }

    /// The register files, indexed by thread then register.
    pub fn regs(&self) -> &[Vec<u32>] {
        &self.regs
    }
}

/// A litmus test: initial memory plus one instruction sequence per thread.
#[derive(Debug, Clone)]
pub struct LitmusTest {
    name: &'static str,
    init: Vec<(&'static str, u32)>,
    threads: Vec<Vec<Instr>>,
}

/// The machine stores bytes: a location is its rank among the test's
/// sorted location names, and values must fit a byte.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ExplState {
    machine: Machine<u8, u8>,
    pcs: Vec<usize>,
    regs: Vec<Vec<u32>>,
}

impl LitmusTest {
    /// Creates an empty test with the given display name.
    pub fn new(name: &'static str) -> Self {
        LitmusTest {
            name,
            init: Vec::new(),
            threads: Vec::new(),
        }
    }

    /// The test's display name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The initial memory bindings, in insertion order.
    pub fn init_bindings(&self) -> &[(&'static str, u32)] {
        &self.init
    }

    /// The per-thread instruction sequences.
    pub fn threads(&self) -> &[Vec<Instr>] {
        &self.threads
    }

    /// Adds an initial memory binding.
    #[must_use]
    pub fn init(mut self, addr: &'static str, value: u32) -> Self {
        self.init.push((addr, value));
        self
    }

    /// Adds a thread executing `program`.
    #[must_use]
    pub fn thread(mut self, program: Vec<Instr>) -> Self {
        self.threads.push(program);
        self
    }

    fn register_count(&self, thread: usize) -> usize {
        self.threads[thread]
            .iter()
            .filter_map(|i| match *i {
                Instr::Read(_, r) | Instr::Cas { reg: r, .. } => Some(r + 1),
                _ => None,
            })
            .max()
            .unwrap_or(0)
    }

    /// Every location the test names, sorted: a location's machine address
    /// is its index here, so the machine's address order is name order.
    fn locations(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = self.init.iter().map(|&(a, _)| a).collect();
        for instr in self.threads.iter().flatten() {
            match *instr {
                Instr::Write(a, _) | Instr::Read(a, _) | Instr::Cas { addr: a, .. } => {
                    names.push(a);
                }
                Instr::MFence => {}
            }
        }
        names.sort_unstable();
        names.dedup();
        names
    }

    fn initial_state(&self, model: MemoryModel, locations: &[&'static str]) -> ExplState {
        let mut machine = Machine::new(self.threads.len(), model);
        for &(a, v) in &self.init {
            machine.initialize(address(locations, a), byte(v));
        }
        ExplState {
            machine,
            pcs: vec![0; self.threads.len()],
            regs: (0..self.threads.len())
                .map(|t| vec![u32::MAX; self.register_count(t)])
                .collect(),
        }
    }

    /// Successor states of `s`: every enabled program step of every thread,
    /// plus every enabled store-buffer commit. Appends into a
    /// caller-provided scratch buffer — the explorers reuse one buffer
    /// across the whole search instead of allocating a `Vec` per state.
    ///
    /// With `canonicalize`, each successor's store buffers are normalized
    /// by coalescing adjacent duplicate writes
    /// ([`Machine::canonicalize_buffers`]) so observationally-equivalent
    /// buffer contents dedup to one state.
    fn successors_into(
        &self,
        s: &ExplState,
        locations: &[&'static str],
        canonicalize: bool,
        out: &mut Vec<ExplState>,
    ) {
        let at = |name| address(locations, name);
        let base = out.len();
        for (ti, program) in self.threads.iter().enumerate() {
            let t = ThreadId::new(ti);
            // Program step.
            if let Some(&instr) = program.get(s.pcs[ti]) {
                let mut next = s.clone();
                next.pcs[ti] += 1;
                let ok = match instr {
                    Instr::Write(a, v) => next.machine.write(t, at(a), byte(v)).is_ok(),
                    Instr::Read(a, r) => match next.machine.read(t, &at(a)) {
                        Ok(v) => {
                            next.regs[ti][r] = v.map_or(u32::MAX, u32::from);
                            true
                        }
                        Err(_) => false,
                    },
                    Instr::MFence => next.machine.mfence(t).is_ok(),
                    Instr::Cas {
                        addr,
                        expected,
                        new,
                        reg,
                    } => match next
                        .machine
                        .locked_cmpxchg(t, at(addr), &byte(expected), byte(new))
                    {
                        Ok(won) => {
                            next.regs[ti][reg] = u32::from(won);
                            true
                        }
                        Err(_) => false,
                    },
                };
                if ok {
                    out.push(next);
                }
            }
            // Commit step.
            if !s.machine.buffer(t).is_empty() {
                let mut next = s.clone();
                if next.machine.commit(t).is_ok() {
                    out.push(next);
                }
            }
        }
        if canonicalize {
            for next in &mut out[base..] {
                next.machine.canonicalize_buffers();
            }
        }
    }

    /// The shared exhaustive DFS: visits every distinct state once, calls
    /// `on_state` for each final state, and returns the number of distinct
    /// states seen. One scratch successor buffer serves the whole search.
    fn explore(
        &self,
        model: MemoryModel,
        canonicalize: bool,
        mut on_final: impl FnMut(&ExplState, &[&'static str]),
    ) -> usize {
        let locations = self.locations();
        let mut seen: HashSet<ExplState> = HashSet::new();
        let mut stack = vec![self.initial_state(model, &locations)];
        let mut scratch: Vec<ExplState> = Vec::new();
        while let Some(s) = stack.pop() {
            if !seen.insert(s.clone()) {
                continue;
            }
            let done = s
                .pcs
                .iter()
                .enumerate()
                .all(|(t, &pc)| pc == self.threads[t].len())
                && s.machine.threads_with_pending().next().is_none();
            if done {
                on_final(&s, &locations);
            }
            scratch.clear();
            self.successors_into(&s, &locations, canonicalize, &mut scratch);
            stack.append(&mut scratch);
        }
        seen.len()
    }

    /// Exhaustively explores every interleaving under `model` and returns
    /// the set of final outcomes.
    ///
    /// A state is final when every thread has run to completion *and* every
    /// store buffer has drained (the standard litmus final-state convention).
    /// Registers never written read back as `u32::MAX`; locations never
    /// initialized read as `u32::MAX` as well, so use explicit
    /// [`init`](LitmusTest::init) bindings.
    pub fn outcomes(&self, model: MemoryModel) -> BTreeSet<Outcome> {
        self.outcomes_with(model, false)
    }

    /// [`outcomes`](LitmusTest::outcomes) with store-buffer
    /// canonicalization optionally enabled. Canonicalization coalesces
    /// adjacent duplicate pending writes, which preserves every committed
    /// memory and every forwarded read — so the outcome set is identical;
    /// only the number of distinct explored states shrinks.
    pub fn outcomes_with(&self, model: MemoryModel, canonicalize: bool) -> BTreeSet<Outcome> {
        let mut finals = BTreeSet::new();
        self.explore(model, canonicalize, |s, _| {
            finals.insert(Outcome::new(s.regs.clone()));
        });
        finals
    }

    /// Exhaustively explores every interleaving under `model` and returns
    /// the set of reachable *final memories* (address-sorted), for tests
    /// whose interesting observable is the committed state rather than
    /// registers (e.g. `2+2W`).
    pub fn final_memories(&self, model: MemoryModel) -> BTreeSet<Vec<(&'static str, u32)>> {
        let mut finals = BTreeSet::new();
        self.explore(model, false, |s, locations| {
            finals.insert(
                s.machine
                    .memory_iter()
                    .map(|(a, v)| (locations[usize::from(a)], u32::from(v)))
                    .collect::<Vec<_>>(),
            );
        });
        finals
    }

    /// The number of distinct states explored under `model` — used by the
    /// state-space statistics experiment.
    pub fn state_count(&self, model: MemoryModel) -> usize {
        self.state_count_with(model, false)
    }

    /// [`state_count`](LitmusTest::state_count) with store-buffer
    /// canonicalization optionally enabled, for measuring the per-test
    /// savings of the normalization.
    pub fn state_count_with(&self, model: MemoryModel, canonicalize: bool) -> usize {
        self.explore(model, canonicalize, |_, _| {})
    }
}

fn address(locations: &[&'static str], name: &'static str) -> u8 {
    let rank = locations.iter().position(|&l| l == name);
    rank.expect("every named location is in the table") as u8
}

fn byte(value: u32) -> u8 {
    u8::try_from(value).expect("litmus values fit a byte")
}

/// The store-buffering litmus test (`SB`): the signature TSO relaxation.
pub fn sb() -> LitmusTest {
    LitmusTest::new("SB")
        .init("x", 0)
        .init("y", 0)
        .thread(vec![Instr::Write("x", 1), Instr::Read("y", 0)])
        .thread(vec![Instr::Write("y", 1), Instr::Read("x", 0)])
}

/// Store buffering with an `MFENCE` between each thread's store and load
/// (`SB+mfences`): the relaxed outcome is forbidden again.
pub fn sb_fenced() -> LitmusTest {
    LitmusTest::new("SB+mfences")
        .init("x", 0)
        .init("y", 0)
        .thread(vec![
            Instr::Write("x", 1),
            Instr::MFence,
            Instr::Read("y", 0),
        ])
        .thread(vec![
            Instr::Write("y", 1),
            Instr::MFence,
            Instr::Read("x", 0),
        ])
}

/// Message passing (`MP`): t0 writes data then flag; t1 reads flag then
/// data. TSO preserves this idiom (no relaxed outcome), unlike weaker models.
pub fn mp() -> LitmusTest {
    LitmusTest::new("MP")
        .init("data", 0)
        .init("flag", 0)
        .thread(vec![Instr::Write("data", 1), Instr::Write("flag", 1)])
        .thread(vec![Instr::Read("flag", 0), Instr::Read("data", 1)])
}

/// Load buffering (`LB`): each thread reads the other's location then
/// writes its own. The cyclic outcome r0=r1=1 requires reordering loads
/// after later stores, which TSO (like SC) forbids.
pub fn lb() -> LitmusTest {
    LitmusTest::new("LB")
        .init("x", 0)
        .init("y", 0)
        .thread(vec![Instr::Read("y", 0), Instr::Write("x", 1)])
        .thread(vec![Instr::Read("x", 0), Instr::Write("y", 1)])
}

/// Sewell et al.'s example n6: a thread reads its *own* buffered store
/// while an older store to another location is still pending — exhibiting
/// store forwarding. The outcome r0=1 ∧ r1=0 ∧ x=1 is allowed under TSO
/// and surprising under naive interleaving-with-fences reasoning.
pub fn n6() -> LitmusTest {
    LitmusTest::new("n6")
        .init("x", 0)
        .init("y", 0)
        .thread(vec![
            Instr::Write("x", 1),
            Instr::Read("x", 0), // forwarded from the buffer: 1
            Instr::Read("y", 1), // may still read 0
        ])
        .thread(vec![Instr::Write("y", 2), Instr::Write("x", 2)])
}

/// Independent reads of independent writes (`IRIW`): two writers, two
/// readers. TSO is multi-copy atomic (a single shared memory), so the two
/// readers can never disagree on the order of the two writes.
pub fn iriw() -> LitmusTest {
    LitmusTest::new("IRIW")
        .init("x", 0)
        .init("y", 0)
        .thread(vec![Instr::Write("x", 1)])
        .thread(vec![Instr::Write("y", 1)])
        .thread(vec![
            Instr::Read("x", 0),
            Instr::MFence,
            Instr::Read("y", 1),
        ])
        .thread(vec![
            Instr::Read("y", 0),
            Instr::MFence,
            Instr::Read("x", 1),
        ])
}

/// `R`: one thread writes both locations, the other writes then reads.
/// The outcome r0=0 with x=1 final... the store-buffer delay of thread 1's
/// write lets its read of `x` miss thread 0's second store under TSO.
pub fn r_shape() -> LitmusTest {
    LitmusTest::new("R")
        .init("x", 0)
        .init("y", 0)
        .thread(vec![Instr::Write("x", 1), Instr::Write("y", 1)])
        .thread(vec![Instr::Write("y", 2), Instr::Read("x", 0)])
}

/// `2+2W`: both threads write both locations, in opposite orders. Under
/// TSO the final memory must be an interleaving of the two FIFO-committed
/// streams `[x:=1; y:=1]` and `[y:=2; x:=2]` — which rules out the final
/// state `x = 1 ∧ y = 2` (it would need `x:=2` before `x:=1` *and* `y:=1`
/// before `y:=2`, a cycle through the program orders).
pub fn two_plus_two_w() -> LitmusTest {
    LitmusTest::new("2+2W")
        .init("x", 0)
        .init("y", 0)
        .thread(vec![Instr::Write("x", 1), Instr::Write("y", 1)])
        .thread(vec![Instr::Write("y", 2), Instr::Write("x", 2)])
}

/// Every named litmus test in this module, for suite-wide harnesses (the
/// static analyzer's oracle-agreement tests iterate over exactly this set).
pub fn suite() -> Vec<LitmusTest> {
    vec![
        sb(),
        sb_fenced(),
        mp(),
        lb(),
        n6(),
        iriw(),
        r_shape(),
        two_plus_two_w(),
        cas_race(),
    ]
}

/// Store buffering with each store issued twice (`SB+dups`): the repeated
/// adjacent writes are observationally redundant, so buffer
/// canonicalization collapses them — a worst case for naive exploration
/// and the demonstration test for `sb_canon` savings.
pub fn sb_dups() -> LitmusTest {
    LitmusTest::new("SB+dups")
        .init("x", 0)
        .init("y", 0)
        .thread(vec![
            Instr::Write("x", 1),
            Instr::Write("x", 1),
            Instr::Write("x", 1),
            Instr::Read("y", 0),
        ])
        .thread(vec![
            Instr::Write("y", 1),
            Instr::Write("y", 1),
            Instr::Write("y", 1),
            Instr::Read("x", 0),
        ])
}

/// Two threads race a CAS on the same location: exactly one must win.
pub fn cas_race() -> LitmusTest {
    LitmusTest::new("CAS-race")
        .init("x", 0)
        .thread(vec![Instr::Cas {
            addr: "x",
            expected: 0,
            new: 1,
            reg: 0,
        }])
        .thread(vec![Instr::Cas {
            addr: "x",
            expected: 0,
            new: 2,
            reg: 0,
        }])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(regs: Vec<Vec<u32>>) -> Outcome {
        Outcome::new(regs)
    }

    #[test]
    fn sb_relaxed_outcome_is_tso_only() {
        let t = sb();
        let tso = t.outcomes(MemoryModel::Tso);
        let sc = t.outcomes(MemoryModel::Sc);
        let relaxed = outcome(vec![vec![0], vec![0]]);
        assert!(tso.contains(&relaxed));
        assert!(!sc.contains(&relaxed));
        // TSO admits strictly more behaviours, and all SC behaviours.
        assert!(sc.iter().all(|o| tso.contains(o)));
        assert!(tso.len() > sc.len());
    }

    #[test]
    fn fences_restore_sc_for_sb() {
        let t = sb_fenced();
        let tso = t.outcomes(MemoryModel::Tso);
        let sc = sb().outcomes(MemoryModel::Sc);
        assert_eq!(tso, sc);
    }

    #[test]
    fn mp_is_preserved_by_tso() {
        let t = mp();
        let tso = t.outcomes(MemoryModel::Tso);
        // flag=1 observed but data=0: forbidden under TSO (FIFO buffers).
        let violation = outcome(vec![vec![], vec![1, 0]]);
        assert!(!tso.contains(&violation));
        // Sanity: the in-order outcome is reachable.
        assert!(tso.contains(&outcome(vec![vec![], vec![1, 1]])));
    }

    #[test]
    fn cas_race_has_exactly_one_winner() {
        let t = cas_race();
        for model in [MemoryModel::Tso, MemoryModel::Sc] {
            let outs = t.outcomes(model);
            assert!(!outs.is_empty());
            for o in &outs {
                let wins: u32 = o.regs().iter().map(|r| r[0]).sum();
                assert_eq!(wins, 1, "exactly one CAS must win: {o:?}");
            }
        }
    }

    #[test]
    fn lb_cycle_is_forbidden_even_under_tso() {
        let t = lb();
        let cyclic = outcome(vec![vec![1], vec![1]]);
        assert!(!t.outcomes(MemoryModel::Tso).contains(&cyclic));
        // TSO adds no behaviours at all for LB (no stores precede loads).
        assert_eq!(t.outcomes(MemoryModel::Tso), t.outcomes(MemoryModel::Sc));
    }

    #[test]
    fn n6_store_forwarding_is_observable() {
        let t = n6();
        let tso = t.outcomes(MemoryModel::Tso);
        // r0 = 1 (own buffered store), r1 = 0 (y write not yet visible):
        // needs forwarding + buffering together.
        let fwd = outcome(vec![vec![1, 0], vec![]]);
        assert!(tso.contains(&fwd));
        // Own stores are never invisible to the issuing thread.
        for o in &tso {
            assert_ne!(o.regs()[0][0], 0, "t0 must see x=1 or x=2, never 0");
        }
    }

    #[test]
    fn iriw_readers_agree_on_write_order() {
        let t = iriw();
        for o in t.outcomes(MemoryModel::Tso) {
            let (r2, r3) = (&o.regs()[2], &o.regs()[3]);
            // Disagreement: reader 2 sees x before y while reader 3 sees y
            // before x. TSO's single shared memory forbids it.
            let disagree = r2[0] == 1 && r2[1] == 0 && r3[0] == 1 && r3[1] == 0;
            assert!(!disagree, "IRIW violation under TSO: {o:?}");
        }
    }

    #[test]
    fn r_shape_relaxed_outcome_is_tso_only() {
        let t = r_shape();
        // t1 reads x=0 even though its own y-write is ordered after t0's
        // stores in the final memory (y = 1): only buffering explains it.
        let tso = t.outcomes(MemoryModel::Tso);
        let sc = t.outcomes(MemoryModel::Sc);
        assert!(sc.iter().all(|o| tso.contains(o)));
        assert!(tso.len() >= sc.len());
    }

    #[test]
    fn two_plus_two_w_forbids_the_cyclic_final_state() {
        let t = two_plus_two_w();
        let finals = t.final_memories(MemoryModel::Tso);
        // x = 1 ∧ y = 2 needs x:=2 < x:=1 and y:=1 < y:=2, contradicting
        // both threads' FIFO commit orders.
        assert!(!finals.contains(&vec![("x", 1), ("y", 2)]));
        // The other three combinations are all reachable interleavings.
        for want in [
            vec![("x", 1), ("y", 1)],
            vec![("x", 2), ("y", 1)],
            vec![("x", 2), ("y", 2)],
        ] {
            assert!(finals.contains(&want), "missing {want:?}");
        }
        // TSO adds nothing over SC for a write-only test's final states.
        assert_eq!(finals, t.final_memories(MemoryModel::Sc));
    }

    #[test]
    fn tso_explores_more_states_than_sc() {
        let t = sb();
        assert!(t.state_count(MemoryModel::Tso) > t.state_count(MemoryModel::Sc));
    }

    #[test]
    fn canonicalization_preserves_outcomes_across_the_suite() {
        for t in suite().into_iter().chain([sb_dups()]) {
            for model in [MemoryModel::Tso, MemoryModel::Sc] {
                assert_eq!(
                    t.outcomes_with(model, false),
                    t.outcomes_with(model, true),
                    "{} outcomes changed under sb_canon ({model:?})",
                    t.name()
                );
            }
        }
    }

    #[test]
    fn canonicalization_shrinks_duplicate_write_state_spaces() {
        let t = sb_dups();
        let naive = t.state_count_with(MemoryModel::Tso, false);
        let canon = t.state_count_with(MemoryModel::Tso, true);
        assert!(
            canon < naive,
            "expected canon ({canon}) < naive ({naive}) for SB+dups"
        );
        // SB has no adjacent duplicates, so canon must be a no-op there.
        let sb = sb();
        assert_eq!(
            sb.state_count_with(MemoryModel::Tso, false),
            sb.state_count_with(MemoryModel::Tso, true)
        );
        // The relaxed outcome survives canonicalization.
        assert!(t
            .outcomes_with(MemoryModel::Tso, true)
            .contains(&outcome(vec![vec![0], vec![0]])));
    }

    #[test]
    fn uninitialized_reads_are_flagged() {
        let t = LitmusTest::new("uninit").thread(vec![Instr::Read("z", 0)]);
        let outs = t.outcomes(MemoryModel::Tso);
        assert_eq!(outs.len(), 1);
        assert!(outs.contains(&outcome(vec![vec![u32::MAX]])));
    }

    /// Explored state counts (plain, then buffer-canonical) and outcome
    /// sets of every suite test, as the `BTreeMap`/`VecDeque` machine of
    /// PR 11 (541c051) produced them.
    #[test]
    fn suite_outcomes_and_state_counts_match_the_recorded_ones() {
        use MemoryModel::{Sc, Tso};
        #[rustfmt::skip]
        let recorded: [(&str, MemoryModel, usize, usize, &str); 20] = [
            ("SB", Tso, 34, 34, "[[[0], [0]], [[0], [1]], [[1], [0]], [[1], [1]]]"),
            ("SB", Sc, 13, 13, "[[[0], [1]], [[1], [0]], [[1], [1]]]"),
            ("SB+mfences", Tso, 31, 31, "[[[0], [1]], [[1], [0]], [[1], [1]]]"),
            ("SB+mfences", Sc, 22, 22, "[[[0], [1]], [[1], [0]], [[1], [1]]]"),
            ("MP", Tso, 23, 23, "[[[], [0, 0]], [[], [0, 1]], [[], [1, 1]]]"),
            ("MP", Sc, 13, 13, "[[[], [0, 0]], [[], [0, 1]], [[], [1, 1]]]"),
            ("LB", Tso, 22, 22, "[[[0], [0]], [[0], [1]], [[1], [0]]]"),
            ("LB", Sc, 13, 13, "[[[0], [0]], [[0], [1]], [[1], [0]]]"),
            ("n6", Tso, 54, 54, "[[[1, 0], []], [[1, 2], []], [[2, 2], []]]"),
            ("n6", Sc, 19, 19, "[[[1, 0], []], [[1, 2], []], [[2, 2], []]]"),
            ("IRIW", Tso, 284, 284, "[[[], [], [0, 0], [0, 0]], [[], [], [0, 0], [0, 1]], [[], [], [0, 0], [1, 0]], [[], [], [0, 0], [1, 1]], [[], [], [0, 1], [0, 0]], [[], [], [0, 1], [0, 1]], [[], [], [0, 1], [1, 0]], [[], [], [0, 1], [1, 1]], [[], [], [1, 0], [0, 0]], [[], [], [1, 0], [0, 1]], [[], [], [1, 0], [1, 1]], [[], [], [1, 1], [0, 0]], [[], [], [1, 1], [0, 1]], [[], [], [1, 1], [1, 0]], [[], [], [1, 1], [1, 1]]]"),
            ("IRIW", Sc, 166, 166, "[[[], [], [0, 0], [0, 0]], [[], [], [0, 0], [0, 1]], [[], [], [0, 0], [1, 0]], [[], [], [0, 0], [1, 1]], [[], [], [0, 1], [0, 0]], [[], [], [0, 1], [0, 1]], [[], [], [0, 1], [1, 0]], [[], [], [0, 1], [1, 1]], [[], [], [1, 0], [0, 0]], [[], [], [1, 0], [0, 1]], [[], [], [1, 0], [1, 1]], [[], [], [1, 1], [0, 0]], [[], [], [1, 1], [0, 1]], [[], [], [1, 1], [1, 0]], [[], [], [1, 1], [1, 1]]]"),
            ("R", Tso, 39, 39, "[[[], [0]], [[], [1]]]"),
            ("R", Sc, 13, 13, "[[[], [0]], [[], [1]]]"),
            ("2+2W", Tso, 42, 42, "[[[], []]]"),
            ("2+2W", Sc, 13, 13, "[[[], []]]"),
            ("CAS-race", Tso, 5, 5, "[[[0], [1]], [[1], [0]]]"),
            ("CAS-race", Sc, 5, 5, "[[[0], [1]], [[1], [0]]]"),
            ("SB+dups", Tso, 277, 189, "[[[0], [0]], [[0], [1]], [[1], [0]], [[1], [1]]]"),
            ("SB+dups", Sc, 33, 33, "[[[0], [1]], [[1], [0]], [[1], [1]]]"),
        ];
        let mut rows = recorded.iter();
        for t in suite().into_iter().chain([sb_dups()]) {
            for model in [Tso, Sc] {
                let &(name, m, states, canonical, outcomes) = rows.next().expect("a row per run");
                assert_eq!((name, m), (t.name(), model));
                assert_eq!(t.state_count(model), states, "{name} {model:?}");
                assert_eq!(
                    t.state_count_with(model, true),
                    canonical,
                    "{name} {model:?}"
                );
                let got: Vec<_> = t
                    .outcomes(model)
                    .iter()
                    .map(|o| o.regs().to_vec())
                    .collect();
                assert_eq!(format!("{got:?}"), outcomes, "{name} {model:?}");
            }
        }
        assert!(rows.next().is_none());
    }
}
