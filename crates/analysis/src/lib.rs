//! Static analysis for CIMP programs under x86-TSO.
//!
//! The model checker in `mc` answers questions about one *bounded
//! configuration* by exhaustive exploration; this crate answers a cheaper
//! question about *program text*: does the process code respect the
//! store-buffer discipline the paper's proofs rely on (§3, Figure 9), and
//! does it follow the GC protocol's structural obligations? The two are
//! complementary — the analyzer is validated against the exhaustive TSO
//! explorer on the litmus suite, and plugs into the checker as a
//! [`static_precheck`](mc::CheckerConfig) so structurally-broken models are
//! rejected before any state is explored.
//!
//! The pieces:
//!
//! * [`cfg`](mod@cfg) — control-flow graphs over the CIMP `Com` arena, with a
//!   Graphviz dot dump;
//! * [`dataflow`] — the "dirty store buffer" forward analysis: which
//!   abstract locations may still be buffered at each program point;
//! * [`hazard`] — cross-thread store-buffering (SB) hazard detection with
//!   concrete `mfence` placement suggestions (`A005`);
//! * [`lint`] — the GC-protocol lints: unreachable code (`A001`),
//!   handshake-free control writes (`A002`), write-barrier dominance
//!   (`A003`), missing effect annotations (`A004`);
//! * [`gcmodel`] — runs everything over `GC ∥ M₁ ∥ … ∥ Mₙ ∥ Sys` straight
//!   from a [`ModelConfig`](gc_model::ModelConfig), and packages it as an
//!   [`mc::Precheck`];
//! * [`litmus`] — litmus-test translation and the analyzer-vs-oracle
//!   agreement harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cfg;
pub mod dataflow;
pub mod diag;
pub mod gcmodel;
pub mod hazard;
pub mod lint;
pub mod litmus;

pub use cfg::{Cfg, Dominators, Node, NodeId, NodeKind, NodeSet};
pub use diag::{Diagnostic, ALL_CODES};
pub use gcmodel::{analyze_model, analyze_model_with, model_cfgs, precheck};
pub use hazard::{sb_hazards, vulnerable_pairs};
pub use litmus::{analyze_litmus, litmus_cfgs, tso_relaxes};
