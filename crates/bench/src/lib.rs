//! The experiments of the reproduction: every figure, ablation and
//! observation of *Relaxing Safely* (PLDI 2015), plus the runtime and
//! checker rigs, as entries of one table ([`table::EXPERIMENTS`]) behind
//! one binary, `experiments`. See the workspace `EXPERIMENTS.md` for the
//! index and the recorded results.
//!
//! This file holds what the entries share: the model-checking driver and
//! its report table, and the verdict an entry ends with.

mod ablations;
mod checker;
mod figures;
mod runtime;
pub mod table;

use std::time::{Duration, Instant};

use gc_model::invariants::{combined_property, safety_property};
use gc_model::{GcModel, ModelConfig};
use gc_trace::{FlagError, Flags};
use mc::{Checker, CheckerConfig, Property, Strategy};

/// How an experiment ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The claim held (exit 0).
    Holds,
    /// The state bound was reached before the claim could be decided
    /// (exit 2): raise `--max-states`.
    Bounded(String),
    /// The claim is refuted (exit 1).
    Fails(String),
}

/// What an entry returns: its verdict, or why its command line was
/// rejected.
pub type Run = Result<Verdict, FlagError>;

/// The ending of a model-checking experiment: `held` is its claim
/// evaluated on `reports`. A claim that did not hold is refuted only if
/// every run was exhaustive; under a reached bound it is merely undecided.
pub fn conclude(reports: &[CheckReport], held: bool, claim: &str) -> Verdict {
    if held {
        Verdict::Holds
    } else if reports.iter().any(CheckReport::bounded) {
        Verdict::Bounded(claim.to_owned())
    } else {
        Verdict::Fails(claim.to_owned())
    }
}

/// The ending of an experiment whose claim is that no invariant is
/// violated: the refutation naming the first violated row, if any. (A
/// bounded row without a violation is a partial verification, which the
/// table already says.)
pub fn violation(reports: &[CheckReport]) -> Option<Verdict> {
    let r = reports.iter().find(|r| r.violated.is_some())?;
    Some(Verdict::Fails(format!("{}: {}", r.label, r.outcome)))
}

/// The command line of an entry whose only flag is the state bound.
pub fn max_states(f: &mut Flags, default: usize) -> Result<usize, FlagError> {
    let max = f.get("--max-states", default)?;
    f.finish()?;
    Ok(max)
}

/// Which invariants a run checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suite {
    /// The full §3.2 suite (including the phase-ghost-indexed invariants,
    /// which presuppose the faithful handshake structure).
    Full,
    /// Only the headline safety property `valid_refs_inv` — used for
    /// ablations that intentionally change the handshake structure.
    SafetyOnly,
}

impl Suite {
    /// The property set this suite checks for `cfg`.
    pub fn properties(self, cfg: &ModelConfig) -> Vec<Property<gc_model::ModelState>> {
        match self {
            Suite::Full => vec![combined_property(cfg)],
            Suite::SafetyOnly => vec![safety_property(cfg)],
        }
    }
}

/// The distilled result of one model-checking run.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// Human-readable configuration label.
    pub label: String,
    /// `VERIFIED`, `VIOLATED <inv>`, or `BOUNDED (...)`.
    pub outcome: String,
    /// Distinct states visited.
    pub states: usize,
    /// Transitions traversed.
    pub transitions: usize,
    /// Deepest BFS level reached.
    pub depth: usize,
    /// Wall-clock time.
    pub elapsed: Duration,
    /// The violated invariant, if any.
    pub violated: Option<&'static str>,
    /// The formatted counterexample trace, if any.
    pub trace: Option<String>,
}

impl CheckReport {
    /// Whether the run verified exhaustively.
    pub fn verified(&self) -> bool {
        self.outcome == "VERIFIED"
    }

    /// Whether the run stopped at its state bound.
    pub fn bounded(&self) -> bool {
        self.outcome.starts_with("BOUNDED")
    }
}

/// The default exploration bounds for experiment runs: hash-compact dedup
/// under a state cap.
pub fn bounded_config(max_states: usize) -> CheckerConfig {
    CheckerConfig {
        max_states,
        hash_compact: true,
        ..CheckerConfig::default()
    }
}

/// Model-checks each `(label, configuration)` row with `suite`, up to
/// `max_states` (hash-compacted, sequential BFS), and prints the table.
pub fn check_table(
    max_states: usize,
    suite: Suite,
    rows: &[(&str, &ModelConfig)],
) -> Vec<CheckReport> {
    let reports: Vec<CheckReport> = rows
        .iter()
        .map(|&(label, cfg)| check_config_with(label, cfg, max_states, suite.properties(cfg)))
        .collect();
    print_table(&reports);
    reports
}

/// Model-checks `cfg` against caller-supplied properties, up to
/// `max_states` (hash-compacted, sequential BFS).
pub fn check_config_with(
    label: impl Into<String>,
    cfg: &ModelConfig,
    max_states: usize,
    properties: Vec<Property<gc_model::ModelState>>,
) -> CheckReport {
    check_config_opts(
        label,
        cfg,
        properties,
        bounded_config(max_states),
        Strategy::default(),
    )
}

/// The fully general driver: model-checks `cfg` with caller-supplied
/// properties, checker configuration and strategy.
pub fn check_config_opts(
    label: impl Into<String>,
    cfg: &ModelConfig,
    properties: Vec<Property<gc_model::ModelState>>,
    checker_config: CheckerConfig,
    strategy: Strategy,
) -> CheckReport {
    let model = GcModel::new(cfg.clone());
    let mut checker = Checker::with_config(checker_config).strategy(strategy);
    for p in properties {
        checker = checker.property(p);
    }
    let t0 = Instant::now();
    let outcome = checker.run(&model);
    let elapsed = t0.elapsed();
    let stats = outcome.stats();
    CheckReport {
        label: label.into(),
        outcome: outcome.verdict(),
        states: stats.states,
        transitions: stats.transitions,
        depth: stats.depth,
        elapsed,
        violated: outcome.violated_property(),
        trace: outcome
            .trace()
            .map(|trace| model.format_trace(&trace.actions)),
    }
}

/// Prints a row-per-report table.
pub fn print_table(reports: &[CheckReport]) {
    println!(
        "{:<44} {:>12} {:>13} {:>6} {:>9}  outcome",
        "configuration", "states", "transitions", "depth", "time"
    );
    println!("{}", "-".repeat(118));
    for r in reports {
        println!(
            "{:<44} {:>12} {:>13} {:>6} {:>8.1}s  {}",
            r.label,
            r.states,
            r.transitions,
            r.depth,
            r.elapsed.as_secs_f64(),
            r.outcome
        );
    }
}

/// Prints a counterexample trace, if present, under a header.
pub fn print_trace(report: &CheckReport) {
    if let Some(trace) = &report.trace {
        println!("\ncounterexample for `{}`:", report.label);
        println!("{trace}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_table_distils_outcomes() {
        let mut cfg = ModelConfig::small(1, 2);
        cfg.ops.alloc = false;
        cfg.ops.load = false;
        cfg.ops.store = false;
        let reports = check_table(500_000, Suite::Full, &[("tiny", &cfg)]);
        assert!(reports[0].states > 0);
        assert!(reports[0].verified(), "outcome: {}", reports[0].outcome);
        assert_eq!(conclude(&reports, true, "c"), Verdict::Holds);
        assert_eq!(conclude(&reports, false, "c"), Verdict::Fails("c".into()));
    }

    #[test]
    fn a_claim_undecided_under_the_bound_is_inconclusive_not_refuted() {
        let reports = check_table(50, Suite::Full, &[("cut", &ModelConfig::small(1, 2))]);
        assert!(reports[0].bounded(), "outcome: {}", reports[0].outcome);
        assert_eq!(
            conclude(&reports, false, "needs more states"),
            Verdict::Bounded("needs more states".into())
        );
    }
}
