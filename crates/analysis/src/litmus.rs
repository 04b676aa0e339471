//! Analyzing litmus tests, and validating the analyzer against the
//! exhaustive x86-TSO explorer.
//!
//! Each [`LitmusTest`] thread is straight-line code, so its translation to
//! a CIMP program is direct: one annotated skip per instruction. The
//! interesting part is the *oracle*: [`tso_relaxes`] asks the
//! `tso-model` explorer whether the test has any final register valuation
//! under TSO that sequential consistency forbids. The analyzer is validated
//! by demanding agreement — it must flag a test iff the explorer exhibits a
//! relaxed outcome — over the whole named suite
//! ([`tso_model::litmus::suite`]).

use cimp::{MemEffect, Program};
use tso_model::litmus::{Instr, LitmusTest};
use tso_model::MemoryModel;

use crate::cfg::Cfg;
use crate::diag::Diagnostic;
use crate::hazard::sb_hazards;

/// The CIMP instantiation for litmus threads: no interesting local state,
/// no rendezvous (the TSO machine semantics lives in `tso-model`; here only
/// the static effect summary matters).
type LitmusProg = Program<(), u8, u8>;

/// Labels are `&'static str`; litmus programs are tiny and enumerable, so
/// leaking one label per instruction is bounded and keeps the CIMP label
/// type unchanged.
fn leak(s: String) -> &'static str {
    Box::leak(s.into_boxed_str())
}

/// Builds the CIMP program for one litmus thread.
fn thread_program(test_name: &str, tid: usize, instrs: &[Instr]) -> LitmusProg {
    let mut p = LitmusProg::new();
    let ids: Vec<_> = instrs
        .iter()
        .enumerate()
        .map(|(i, instr)| {
            let (desc, effect) = match *instr {
                Instr::Write(a, v) => (format!("write-{a}={v}"), MemEffect::Store(a)),
                Instr::Read(a, r) => (format!("read-{a}-r{r}"), MemEffect::Load(a)),
                Instr::MFence => ("mfence".to_string(), MemEffect::Fence),
                Instr::Cas { addr, .. } => (format!("cas-{addr}"), MemEffect::LockedRmw(addr)),
            };
            let label = leak(format!("{test_name}/t{tid}#{i}:{desc}"));
            let id = p.skip(label);
            p.annotate(id, effect)
        })
        .collect();
    let entry = p.seq(ids);
    p.set_entry(entry);
    p
}

/// One CFG per thread of `test`, named `t0`, `t1`, ….
pub fn litmus_cfgs(test: &LitmusTest) -> Vec<(String, Cfg)> {
    test.threads()
        .iter()
        .enumerate()
        .map(|(tid, instrs)| {
            let name = format!("t{tid}");
            let p = thread_program(test.name(), tid, instrs);
            (name.clone(), Cfg::from_program(name, &p))
        })
        .collect()
}

/// Runs the store-buffer hazard analysis over `test`. A non-empty result
/// means the analyzer predicts TSO-only behaviour and suggests fences.
pub fn analyze_litmus(test: &LitmusTest) -> Vec<Diagnostic> {
    let cfgs = litmus_cfgs(test);
    let threads: Vec<(&str, &Cfg)> = cfgs
        .iter()
        .map(|(name, cfg)| (name.as_str(), cfg))
        .collect();
    sb_hazards(&threads)
}

/// The exhaustive oracle: does `test` exhibit any final register valuation
/// under TSO that SC forbids? (Both sets are finite; the explorer
/// enumerates every interleaving including all commit points.)
pub fn tso_relaxes(test: &LitmusTest) -> bool {
    test.outcomes(MemoryModel::Tso) != test.outcomes(MemoryModel::Sc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tso_model::litmus;

    #[test]
    fn sb_is_flagged_with_a_concrete_fence_suggestion() {
        let diags = analyze_litmus(&litmus::sb());
        assert_eq!(diags.len(), 1);
        assert!(
            diags[0]
                .message
                .contains("mfence immediately before `SB/t0#1:read-y-r0`"),
            "suggestion should name the load: {}",
            diags[0].message
        );
    }

    #[test]
    fn fenced_sb_and_mp_are_clean() {
        assert!(analyze_litmus(&litmus::sb_fenced()).is_empty());
        assert!(analyze_litmus(&litmus::mp()).is_empty());
    }

    #[test]
    fn analyzer_agrees_with_the_exhaustive_oracle_on_the_whole_suite() {
        for test in litmus::suite() {
            let flagged = !analyze_litmus(&test).is_empty();
            let relaxed = tso_relaxes(&test);
            assert_eq!(
                flagged,
                relaxed,
                "analyzer and oracle disagree on `{}`: static analysis {} it, \
                 but the exhaustive explorer says TSO {} relaxed register \
                 outcomes",
                test.name(),
                if flagged { "flags" } else { "accepts" },
                if relaxed { "has" } else { "has no" },
            );
        }
    }

    #[test]
    fn applying_the_suggested_fence_makes_sb_agree_again() {
        // The analyzer's suggestion for SB is an mfence before the load;
        // sb_fenced() is exactly that program, and both the analyzer and
        // the oracle accept it.
        assert!(tso_relaxes(&litmus::sb()));
        assert!(!tso_relaxes(&litmus::sb_fenced()));
        assert!(analyze_litmus(&litmus::sb_fenced()).is_empty());
    }
}
