//! Assembly of the full model: `GC ∥ M₁ ∥ … ∥ M_n ∥ Sys`, wrapped as an
//! [`mc::TransitionSystem`] so the explicit-state checker can explore it.

use cimp::{Event, System, SystemState};
use mc::{Reduction, TransitionSystem};

use crate::config::ModelConfig;
use crate::gc::gc_program;
use crate::mutator::{initial_mut_state, mutator_program};
use crate::reduction;
use crate::state::{GcState, Local, Roles};
use crate::sys::{initial_sys_state, sys_program};
use crate::vocab::{Req, Resp};

/// The process names in index order: `gc`, `mut0`, …, `sys`.
pub const GC_PROC: usize = 0;

/// The full collector model for a configuration.
///
/// Process indices: `0` is the collector, `1..=n` are the mutators, `n+1`
/// is the system.
pub struct GcModel {
    cfg: ModelConfig,
    system: System<Local, Req, Resp, Roles>,
    /// Whether the configuration is invariant under mutator permutation:
    /// at least two mutators, all running the same program (always true —
    /// `mutator_program` ignores the index) from identical initial root
    /// sets. Symmetry reduction is requested per-run via
    /// [`mc::Reduction::symmetry`] but only honoured when this holds.
    symmetric: bool,
}

impl std::fmt::Debug for GcModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GcModel").field("cfg", &self.cfg).finish()
    }
}

impl GcModel {
    /// Builds the model for `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent
    /// (see [`ModelConfig::validate`]).
    pub fn new(cfg: ModelConfig) -> Self {
        cfg.validate();
        let mut procs = Vec::new();
        procs.push(("gc", gc_program(&cfg), Local::Gc(GcState::initial())));
        // Mutator display names; CIMP wants 'static strs, so use a
        // small fixed table (configs are bounded anyway).
        const NAMES: [&str; 8] = [
            "mut0", "mut1", "mut2", "mut3", "mut4", "mut5", "mut6", "mut7",
        ];
        for (m, name) in NAMES.iter().enumerate().take(cfg.mutators) {
            procs.push((
                *name,
                mutator_program(&cfg, m),
                Local::Mut(initial_mut_state(&cfg, m)),
            ));
        }
        procs.push((
            "sys",
            sys_program(&cfg),
            Local::Sys(initial_sys_state(&cfg)),
        ));
        let symmetric = cfg.mutators >= 2 && cfg.initial.roots.windows(2).all(|w| w[0] == w[1]);
        GcModel {
            system: System::with_layout(procs),
            cfg,
            symmetric,
        }
    }

    /// Whether the configuration admits mutator-symmetry reduction.
    pub fn is_symmetric(&self) -> bool {
        self.symmetric
    }

    /// The model's configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    /// The underlying CIMP system.
    pub fn system(&self) -> &System<Local, Req, Resp, Roles> {
        &self.system
    }

    /// The process index of the system process.
    pub fn sys_proc(&self) -> usize {
        1 + self.cfg.mutators
    }

    /// The process index of mutator `m`.
    pub fn mut_proc(&self, m: usize) -> usize {
        1 + m
    }

    /// Renders a counterexample trace in a human-readable, one-event-per-
    /// line form with process names substituted.
    pub fn format_trace(&self, actions: &[Event<Req, Resp>]) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (i, ev) in actions.iter().enumerate() {
            match ev {
                Event::Tau { proc, label } => {
                    let _ = writeln!(out, "{i:4}. {:<5} {label}", self.system.name(*proc));
                }
                Event::Comm {
                    sender,
                    receiver,
                    send_label,
                    recv_label: _,
                    req,
                    resp,
                } => {
                    let _ = writeln!(
                        out,
                        "{i:4}. {:<5} {send_label}  [{req} => {resp:?}]  @{}",
                        self.system.name(*sender),
                        self.system.name(*receiver),
                    );
                }
            }
        }
        out
    }
}

impl TransitionSystem for GcModel {
    type State = SystemState<Roles>;
    type Action = Event<Req, Resp>;

    fn initial_states(&self) -> Vec<Self::State> {
        vec![self.system.initial_state()]
    }

    fn successors(&self, state: &Self::State) -> Vec<(Self::Action, Self::State)> {
        self.system.successors(state)
    }

    fn successors_into(&self, state: &Self::State, out: &mut Vec<(Self::Action, Self::State)>) {
        self.system.successors_into(state, out);
    }

    fn ample_successors_into(
        &self,
        state: &Self::State,
        reduction: &Reduction,
        out: &mut Vec<(Self::Action, Self::State)>,
    ) -> bool {
        self.system.successors_into(state, out);
        if reduction.por {
            reduction::ample_filter(self.system.len(), out)
        } else {
            false
        }
    }

    fn canonicalize(&self, state: &Self::State, reduction: &Reduction) -> Self::State {
        // Buffer canonicalization first: mutator permutation commutes with
        // per-buffer coalescing, and comparing symmetry-orbit candidates
        // on already-normalized buffers keeps the representative stable.
        let mut state = *state;
        if reduction.sb_canon {
            // Most successors have nothing to coalesce: only a change costs
            // the system process's digest.
            state.update_local(self.sys_proc(), |roles| {
                roles.sys.mem.canonicalize_buffers() > 0
            });
        }
        if reduction.symmetry && self.symmetric {
            state = reduction::canonical_under_mutator_symmetry(&state);
        }
        state
    }

    /// A state as its slot ids in this model's memos
    /// ([`cimp::System::encode`]): four bytes per process.
    fn encode_state(&self, state: &Self::State, bytes: &mut Vec<u8>) -> bool {
        self.system.encode(state, bytes);
        true
    }

    fn decode_state(&self, bytes: &[u8]) -> Option<Self::State> {
        self.system.decode(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_builds_and_has_initial_state() {
        let model = GcModel::new(ModelConfig::default());
        let init = model.initial_states();
        assert_eq!(init.len(), 1);
        // gc + 1 mutator + sys.
        assert_eq!(model.system().len(), 3);
        assert_eq!(model.sys_proc(), 2);
    }

    #[test]
    fn initial_state_has_successors() {
        let model = GcModel::new(ModelConfig::default());
        let init = &model.initial_states()[0];
        let succs = model.successors(init);
        assert!(
            !succs.is_empty(),
            "the model must not deadlock in its initial state"
        );
    }

    #[test]
    fn two_mutator_model_builds() {
        let model = GcModel::new(ModelConfig::small(2, 3));
        assert_eq!(model.system().len(), 4);
        let init = &model.initial_states()[0];
        assert!(!model.successors(init).is_empty());
    }
}
