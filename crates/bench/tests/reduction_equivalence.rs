//! Verdict-equivalence suite for the state-space reductions.
//!
//! The reductions (`por`, `symmetry`, `sb_canon` — see `DESIGN.md` §2.13)
//! are sound iff they change *state counts only*: every combination must
//! produce the same verdict, the same violated property, and a
//! byte-identical counterexample trace as the unreduced baseline, at any
//! worker-thread count. This suite pins that down across all 2³ reduction
//! combinations × 1/2/4 BFS threads, and once more with every reduction at
//! two threads and every level past a few dozen states spilled to disk, on
//! faithful (verifying) instances and on each paper ablation (violating
//! instances), plus the TSO litmus suite for the buffer-canonicalization
//! leg on its own.

use gc_bench::{check_config_opts, CheckReport, Suite};
use gc_model::{InitialHeap, ModelConfig};
use mc::{CheckerConfig, Reduction, Strategy};
use tso_model::litmus;
use tso_model::MemoryModel;

/// State cap per run. Every instance in this suite completes (verifies or
/// finds its counterexample) well under it; hitting the cap fails the
/// baseline assertion rather than silently weakening the comparison.
const MAX_STATES: usize = 2_000_000;

/// All 2³ reduction combinations, `none` first.
fn combos() -> Vec<Reduction> {
    let mut out = Vec::new();
    for por in [false, true] {
        for symmetry in [false, true] {
            for sb_canon in [false, true] {
                out.push(Reduction {
                    por,
                    symmetry,
                    sb_canon,
                });
            }
        }
    }
    out
}

/// Levels past this many states spill in the spilled configuration.
const SPILL_THRESHOLD: usize = 48;

fn run(
    name: &str,
    cfg: &ModelConfig,
    suite: Suite,
    r: Reduction,
    threads: usize,
    spill_threshold: Option<usize>,
) -> CheckReport {
    check_config_opts(
        format!(
            "{name} por={} sym={} sb={} threads={threads} spill={spill_threshold:?}",
            r.por, r.symmetry, r.sb_canon
        ),
        cfg,
        suite.properties(cfg),
        CheckerConfig {
            max_states: MAX_STATES,
            hash_compact: true,
            spill_threshold,
            ..CheckerConfig::default()
        }
        .reduction(r),
        Strategy::Bfs { threads },
    )
}

/// Checks `cfg` under every reduction combination at 1/2/4 worker threads,
/// and spilled under all of them at two, and asserts verdict,
/// violated-property, and trace equality against the unreduced
/// single-threaded baseline.
fn assert_equivalent(name: &str, cfg: &ModelConfig, suite: Suite) {
    let baseline = run(name, cfg, suite, Reduction::default(), 1, None);
    assert!(
        !baseline.outcome.contains("BOUNDED"),
        "{name}: baseline must complete, got {}",
        baseline.outcome
    );
    let runs = combos()
        .into_iter()
        .flat_map(|r| [1usize, 2, 4].map(|threads| (r, threads, None)));
    let spilled = (Reduction::all(), 2, Some(SPILL_THRESHOLD));
    for (r, threads, spill_threshold) in runs.chain([spilled]) {
        if !r.any() && threads == 1 {
            continue; // that is the baseline itself
        }
        let report = run(name, cfg, suite, r, threads, spill_threshold);
        assert_eq!(
            report.outcome, baseline.outcome,
            "{}: verdict differs from baseline",
            report.label
        );
        assert_eq!(
            report.violated, baseline.violated,
            "{}: violated property differs from baseline",
            report.label
        );
        assert_eq!(
            report.trace, baseline.trace,
            "{}: counterexample trace differs from baseline",
            report.label
        );
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "exhausts a verifying state space 24 times; run with --release (CI: reduction-bench)"
)]
fn faithful_one_mutator_store_discard() {
    let mut cfg = ModelConfig::small(1, 2);
    cfg.ops.alloc = false;
    cfg.ops.load = false;
    assert_equivalent("1mut store/discard", &cfg, Suite::Full);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "exhausts a verifying state space 24 times; run with --release (CI: reduction-bench)"
)]
fn faithful_two_mutators_symmetric_store_only() {
    // Symmetric (identical root sets), so the symmetry leg actually
    // engages; store-only keeps the space small enough for debug builds.
    let mut cfg = ModelConfig::small(2, 2);
    cfg.initial = InitialHeap::shared_object(2, 1);
    cfg.ops.alloc = false;
    cfg.ops.load = false;
    cfg.ops.discard = false;
    assert_equivalent("2mut symmetric store-only", &cfg, Suite::Full);
}

#[test]
fn ablation_no_deletion_barrier() {
    let mut cfg = ModelConfig::small(1, 3);
    cfg.deletion_barrier = false;
    cfg.initial = InitialHeap::chain(1, 2, 1); // Figure 1's hiding shape
    cfg.ops.alloc = false;
    assert_equivalent("no deletion barrier", &cfg, Suite::Full);
}

#[test]
fn ablation_no_insertion_barrier() {
    let mut cfg = ModelConfig::small(1, 3);
    cfg.insertion_barrier = false;
    assert_equivalent("no insertion barrier", &cfg, Suite::Full);
}

#[test]
fn ablation_no_handshake_fences_tso() {
    let mut cfg = ModelConfig::small(1, 2);
    cfg.handshake_fences = false;
    assert_equivalent("no handshake fences", &cfg, Suite::SafetyOnly);
}

#[test]
fn ablation_racy_mark_two_mutators_symmetric() {
    // Violating *and* symmetric: the counterexample replay must stay
    // byte-identical even when the orbit merging was active on the way.
    let mut cfg = ModelConfig::small(2, 2);
    cfg.mark_cas = false;
    cfg.initial = InitialHeap::shared_object(2, 1);
    cfg.ops.alloc = false;
    cfg.ops.load = false;
    assert_equivalent("racy mark, 2mut shared", &cfg, Suite::Full);
}

#[test]
fn litmus_outcomes_unchanged_by_buffer_canonicalization() {
    let mut tests = litmus::suite();
    tests.push(litmus::sb_dups());
    tests.push(litmus::cas_race());
    for t in &tests {
        for model in [MemoryModel::Tso, MemoryModel::Sc] {
            let plain = t.outcomes_with(model, false);
            let canon = t.outcomes_with(model, true);
            assert_eq!(
                plain,
                canon,
                "{} ({model:?}): canonicalization changed the observable outcomes",
                t.name()
            );
            assert!(
                t.state_count_with(model, true) <= t.state_count_with(model, false),
                "{} ({model:?}): canonicalization grew the state space",
                t.name()
            );
        }
    }
}
