//! Running the full analysis over the GC model.
//!
//! Builds one CFG per process of `GC ∥ M₁ ∥ … ∥ Mₙ ∥ Sys` from the same
//! [`ModelConfig`] the model checker uses, runs every lint plus the
//! cross-thread store-buffer hazard search, and (via [`precheck`]) packages
//! the whole thing as an [`mc::Precheck`] so the checker can refuse to
//! explore a model the analyzer already rejects.

use std::sync::Arc;

use gc_model::gc::gc_program;
use gc_model::mark::regions::{FA, FIELD, PHASE};
use gc_model::mutator::mutator_program;
use gc_model::sys::sys_program;
use gc_model::{ModelConfig, Prog};

use crate::cfg::Cfg;
use crate::diag::{filter_and_sort, Diagnostic};
use crate::hazard::sb_hazards;
use crate::lint;

/// The label of the collector-side handshake initiation; `A002` demands
/// one on every cycle through a control-variable write.
pub const HANDSHAKE_LABEL: &str = "gc-hs-begin";

/// The write-barrier labels every mutator heap store must be dominated by
/// (`A003`): the deletion barrier's initial load and the insertion
/// barrier's priming step.
pub const BARRIER_LABELS: &[&str] = &["mut-store-begin", "mut-store-prime-insertion"];

/// One process of the model, with its program and CFG.
pub struct ProcessCfg {
    /// Display name (`"gc"`, `"mutator-0"`, …, `"sys"`).
    pub name: String,
    /// The CIMP program the CFG was built from.
    pub program: Prog,
    /// Its control-flow graph.
    pub cfg: Cfg,
}

/// Builds the CFG of every process in the model described by `cfg`.
pub fn model_cfgs(cfg: &ModelConfig) -> Vec<ProcessCfg> {
    let mut out = Vec::new();
    let gc = gc_program(cfg);
    out.push(ProcessCfg {
        cfg: Cfg::from_program("gc", &gc),
        name: "gc".to_string(),
        program: gc,
    });
    for m in 0..cfg.mutators {
        let name = format!("mutator-{m}");
        let p = mutator_program(cfg, m);
        out.push(ProcessCfg {
            cfg: Cfg::from_program(name.clone(), &p),
            name,
            program: p,
        });
    }
    let sys = sys_program(cfg);
    out.push(ProcessCfg {
        cfg: Cfg::from_program("sys", &sys),
        name: "sys".to_string(),
        program: sys,
    });
    out
}

/// Runs the full lint suite and hazard search over the model, dropping any
/// codes listed in `allow`. The returned list is sorted and deduplicated;
/// empty means the model is clean.
pub fn analyze_model_with(cfg: &ModelConfig, allow: &[String]) -> Vec<Diagnostic> {
    let procs = model_cfgs(cfg);
    let mut diags = Vec::new();
    for p in &procs {
        diags.extend(lint::unreachable_labels(&p.program, &p.cfg));
        diags.extend(lint::unannotated_atomics(&p.cfg));
        if p.name == "gc" {
            diags.extend(lint::handshake_free_control_cycle(
                &p.cfg,
                HANDSHAKE_LABEL,
                &[FA, gc_model::mark::regions::FM, PHASE],
            ));
        }
        if p.name.starts_with("mutator-") {
            diags.extend(lint::store_barrier_dominance(&p.cfg, FIELD, BARRIER_LABELS));
        }
    }
    // The hazard search is cross-thread: the sys process mediates memory
    // via rendezvous and issues no TSO accesses of its own (all its
    // commands are Pure), so including it is harmless.
    let threads: Vec<(&str, &Cfg)> = procs.iter().map(|p| (p.name.as_str(), &p.cfg)).collect();
    diags.extend(sb_hazards(&threads));
    filter_and_sort(diags, allow)
}

/// [`analyze_model_with`] with nothing suppressed.
pub fn analyze_model(cfg: &ModelConfig) -> Vec<Diagnostic> {
    analyze_model_with(cfg, &[])
}

/// Packages the analysis as an [`mc::Precheck`] for
/// [`CheckerConfig::static_precheck`](mc::CheckerConfig): the checker runs
/// it before exploring and returns
/// [`Outcome::PrecheckFailed`](mc::Outcome::PrecheckFailed) if any
/// diagnostic (not in `allow`) fires.
pub fn precheck(cfg: ModelConfig, allow: Vec<String>) -> mc::Precheck {
    Arc::new(move || {
        analyze_model_with(&cfg, &allow)
            .iter()
            .map(Diagnostic::to_precheck)
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::{A003, A005};

    #[test]
    fn faithful_model_is_clean() {
        let cfg = ModelConfig::default();
        let diags = analyze_model(&cfg);
        assert!(
            diags.is_empty(),
            "faithful model should be clean: {diags:?}"
        );
    }

    #[test]
    fn fence_ablation_produces_sb_hazard() {
        let cfg = ModelConfig {
            handshake_fences: false,
            ..ModelConfig::default()
        };
        let diags = analyze_model(&cfg);
        assert!(
            diags.iter().any(|d| d.code == A005),
            "missing handshake fences must surface a store-buffer hazard: {diags:?}"
        );
    }

    #[test]
    fn barrier_ablations_fail_dominance() {
        for (name, cfg) in [
            (
                "deletion",
                ModelConfig {
                    deletion_barrier: false,
                    ..ModelConfig::default()
                },
            ),
            (
                "insertion",
                ModelConfig {
                    insertion_barrier: false,
                    ..ModelConfig::default()
                },
            ),
        ] {
            let diags = analyze_model(&cfg);
            assert!(
                diags.iter().any(|d| d.code == A003),
                "{name}-barrier ablation must fail A003: {diags:?}"
            );
        }
    }

    #[test]
    fn racy_mark_produces_sb_hazard() {
        let cfg = ModelConfig {
            mark_cas: false,
            ..ModelConfig::default()
        };
        let diags = analyze_model(&cfg);
        assert!(
            diags.iter().any(|d| d.code == A005),
            "racy marking loses the unlock fence, so a hazard must appear: {diags:?}"
        );
    }

    #[test]
    fn suppression_silences_a_code() {
        let cfg = ModelConfig {
            mark_cas: false,
            ..ModelConfig::default()
        };
        let codes: Vec<_> = analyze_model(&cfg).iter().map(|d| d.code).collect();
        assert!(codes.contains(&A005));
        let remaining = analyze_model_with(&cfg, &["A005".to_string()]);
        assert!(remaining.iter().all(|d| d.code != A005));
    }

    #[test]
    fn precheck_mirrors_the_analysis() {
        let clean = precheck(ModelConfig::default(), Vec::new());
        assert!(clean().is_empty());
        let dirty = precheck(
            ModelConfig {
                mark_cas: false,
                ..ModelConfig::default()
            },
            Vec::new(),
        );
        assert!(!dirty().is_empty());
    }
}
