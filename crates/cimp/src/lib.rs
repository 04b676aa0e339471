//! CIMP: a small imperative language for modelling concurrent systems.
//!
//! This crate is an executable Rust rendition of the modelling language used
//! in *Relaxing Safely: Verified On-the-Fly Garbage Collection for x86-TSO*
//! (PLDI 2015, §3, Figures 7 and 8). CIMP extends Winskel's IMP with:
//!
//! * **process-algebra-style rendezvous** (synchronous message passing):
//!   a [`Request`](program::Com::Request) by one process synchronises with a
//!   [`Response`](program::Com::Response) by another, exchanging a request
//!   value α and a response value β in a single indivisible system step
//!   (each response answers one [kind](Keyed) of request);
//! * **control and data non-determinism**: [`Choose`](program::Com::Choose)
//!   between branches, and local operations that emit *sets* of successor
//!   states;
//! * **flat parallel composition**: a [`System`] interleaves
//!   the steps of its processes at the top level, with no action hiding.
//!
//! Each process has purely local control and data state — there is *no*
//! shared global state. Anything shared (in the paper: the TSO memory, the
//! handshake bits, the global work-list) lives in the local state of a
//! distinguished system process that other processes talk to via rendezvous.
//!
//! The operational semantics follows the paper's frame-stack presentation: a
//! process's control state is a stack of commands; sequencing, loops, choice
//! and conditionals are resolved structurally, and only the three *atomic*
//! commands — `LocalOp`, `Request`, `Response` — produce transitions. This
//! makes the atomicity of distinct operations independent, which the paper
//! singles out as a key strength of the approach.
//!
//! # Example
//!
//! A one-shot client/server rendezvous:
//!
//! ```
//! use cimp::{Program, System};
//!
//! // Local state: a counter. Requests and responses are numbers (`u32`
//! // requests are of a single kind, 0).
//! let mut client: Program<u32, u32, u32> = Program::new();
//! let ask = client.request(
//!     "ask",
//!     |s| *s,                              // α = current counter
//!     |s, beta| s + beta,                  // add the response
//! );
//! client.set_entry(ask);
//!
//! let mut server: Program<u32, u32, u32> = Program::new();
//! let answer = server.response("answer", 0, |alpha, s| Some((*s, alpha * 2)));
//! server.set_entry(answer);
//!
//! let sys = System::new(vec![("client", client, 21), ("server", server, 0)]);
//! let init = sys.initial_state();
//! let succs = sys.successors(&init);
//! assert_eq!(succs.len(), 1); // exactly one rendezvous possible
//! let (_event, next) = &succs[0];
//! assert_eq!(next.local(0), 21 + 42);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod memo;
pub mod pretty;
pub mod program;
pub mod step;
pub mod system;

pub use program::{AbsLoc, Com, ComId, Keyed, Label, MemEffect, Program};
pub use step::{PendingStep, Stack, MAX_STACK_DEPTH};
pub use system::{Event, Locals, ProcId, System, SystemState, UniformState, MAX_PROCESSES};
