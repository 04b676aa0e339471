//! Counterexamples pinned across PRs.
//!
//! `parallel_equivalence` and `reduction_equivalence` compare one run of a
//! build against another run of the same build; nothing there notices a
//! change that shifts every run alike. The files in `tests/golden/` were
//! written by the commit *before* the model state was packed (PR 11,
//! 541c051) and hold `GcModel::format_trace` of each ablation's shortest
//! counterexample; every later build must reproduce them byte for byte at
//! 1, 2 and 4 BFS threads, with reductions off and with all of them on
//! (debug builds, an order of magnitude slower, run the two largest
//! searches once each: two threads, every reduction, hence also the
//! unreduced replay).
//!
//! To re-record after an intended change to the model's programs or labels:
//! `cargo test --release --test golden_traces -- --ignored record`.

use std::path::PathBuf;

use relaxing_safely::mc::{Checker, CheckerConfig, Property, Reduction, Strategy};
use relaxing_safely::model::invariants::{combined_property, safety_property};
use relaxing_safely::model::{GcModel, InitialHeap, ModelConfig, ModelState};

struct Case {
    name: &'static str,
    cfg: ModelConfig,
    property: fn(&ModelConfig) -> Property<ModelState>,
    violates: &'static str,
    steps: usize,
    /// States the unreduced search has visited when it reports.
    states: usize,
}

/// The benchmark's negative control, then every ablation of
/// `tests/model_safety.rs`.
fn cases() -> Vec<Case> {
    let small = ModelConfig::small;
    let chain_no_deletion = |capacity| {
        let mut cfg = small(1, capacity);
        cfg.initial = InitialHeap::chain(1, 2, 1);
        cfg.deletion_barrier = false;
        cfg.ops.alloc = false;
        cfg
    };
    let case = |name, cfg, violates, steps, states| Case {
        name,
        cfg,
        property: combined_property,
        violates,
        steps,
        states,
    };
    vec![
        case(
            "negative_control",
            chain_no_deletion(2),
            "mutator_phase_inv (marked_deletions)",
            38,
            65_461,
        ),
        case(
            "no_deletion_barrier",
            chain_no_deletion(3),
            "mutator_phase_inv (marked_deletions)",
            38,
            65_461,
        ),
        case(
            "no_insertion_barrier",
            ModelConfig {
                insertion_barrier: false,
                ..small(1, 3)
            },
            "mutator_phase_inv (marked_insertions)",
            20,
            971_205,
        ),
        case(
            "premature_black_allocation",
            ModelConfig {
                premature_alloc_black: true,
                ..small(1, 3)
            },
            "sys_phase_inv",
            9,
            867,
        ),
        case(
            "racy_mark",
            ModelConfig {
                mark_cas: false,
                ..small(1, 3)
            },
            "valid_W_inv",
            21,
            129_242,
        ),
        Case {
            name: "missing_fences_tso",
            cfg: ModelConfig {
                handshake_fences: false,
                ..small(1, 2)
            },
            property: safety_property,
            violates: "valid_refs_inv",
            steps: 40,
            states: 265_225,
        },
    ]
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.trace"))
}

/// The formatted shortest counterexample of `case`, after checking the
/// violated property and the trace length against the table.
fn counterexample(case: &Case, threads: usize, reduction: Reduction) -> String {
    let model = GcModel::new(case.cfg.clone());
    let config = CheckerConfig {
        max_states: 3_000_000,
        hash_compact: true,
        ..CheckerConfig::default()
    }
    .reduction(reduction);
    let outcome = Checker::with_config(config)
        .strategy(Strategy::Bfs { threads })
        .property((case.property)(&case.cfg))
        .run(&model);
    let what = format!("{} threads={threads} {}", case.name, reduction.label());
    assert_eq!(outcome.violated_property(), Some(case.violates), "{what}");
    assert_eq!(outcome.stats().states, case.states, "{what}");
    let trace = outcome.trace().expect("a violation carries a trace");
    assert_eq!(trace.actions.len(), case.steps, "{what}");
    model.format_trace(&trace.actions)
}

/// Checks the case called `name` over the grid of thread counts and
/// reductions.
fn check(name: &str) {
    let case = cases()
        .into_iter()
        .find(|c| c.name == name)
        .expect("a case");
    let path = golden_path(case.name);
    let golden =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let mut grid = Vec::new();
    for reduction in [Reduction::default(), Reduction::all()] {
        grid.extend([1, 2, 4].map(|threads| (threads, reduction)));
    }
    if cfg!(debug_assertions) && case.states > 200_000 {
        grid = vec![(2, Reduction::all())];
    }
    for (threads, reduction) in grid {
        let got = counterexample(&case, threads, reduction);
        assert!(
            got == golden,
            "{name} threads={threads} {}: trace differs from {}\n--- got ---\n{got}",
            reduction.label(),
            path.display()
        );
    }
}

// One test per case, so the harness runs them side by side.

#[test]
fn negative_control() {
    check("negative_control");
}

#[test]
fn no_deletion_barrier() {
    check("no_deletion_barrier");
}

#[test]
fn no_insertion_barrier() {
    check("no_insertion_barrier");
}

#[test]
fn premature_black_allocation() {
    check("premature_black_allocation");
}

#[test]
fn racy_mark() {
    check("racy_mark");
}

#[test]
fn missing_fences_tso() {
    check("missing_fences_tso");
}

#[test]
#[ignore = "overwrites tests/golden/*.trace with this build's counterexamples"]
fn record() {
    for case in cases() {
        let trace = counterexample(&case, 1, Reduction::default());
        std::fs::write(golden_path(case.name), trace).expect("write golden trace");
    }
}
