//! CIMP process semantics: the local small-step relation `→γ` of Figure 7.
//!
//! A process's control state is a [`Stack`] of command ids (a frame stack,
//! top at the end). Control structure — `Seq`, `If`, `While`,
//! `Loop`, `Choose` — is resolved *structurally* while computing the enabled
//! steps; only the atomic commands (`LocalOp`, `Request`, `Response`)
//! produce [`PendingStep`]s. Because branch conditions read only the
//! process's own local state, which no other process can modify, folding
//! their evaluation into the next atomic action preserves the reachable
//! state set while removing needless interleaving points.

use std::fmt;
use std::hash::{Hash, Hasher};

use crate::program::{Com, ComId, Label, Program, RecvFn, RespFn};

/// Frames a [`Stack`] can hold. Entering a sequence pushes one frame per
/// command in it, and every enclosing loop or sequence keeps one, so this
/// bounds a program's longest sequence plus the nesting around it.
pub const MAX_STACK_DEPTH: usize = 24;

/// A process's control state: a frame stack of commands, **top at the end**.
/// An empty stack means the process has terminated.
///
/// The frames live inline (at most [`MAX_STACK_DEPTH`]), so control states
/// copy, compare and hash without touching the heap; only the live frames
/// take part in `==` and `Hash`.
#[derive(Clone, Copy)]
pub struct Stack {
    len: u8,
    frames: [ComId; MAX_STACK_DEPTH],
}

impl Stack {
    /// The empty stack: a terminated process.
    pub fn new() -> Self {
        Stack {
            len: 0,
            frames: [ComId::from_raw(0); MAX_STACK_DEPTH],
        }
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        usize::from(self.len)
    }

    /// Whether the process has terminated.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The frames, bottom first.
    pub fn frames(&self) -> &[ComId] {
        &self.frames[..self.len()]
    }

    /// Pushes a frame.
    ///
    /// # Panics
    ///
    /// Panics if the stack already holds [`MAX_STACK_DEPTH`] frames.
    pub fn push(&mut self, com: ComId) {
        assert!(
            self.len() < MAX_STACK_DEPTH,
            "control stack holds at most {MAX_STACK_DEPTH} frames"
        );
        self.frames[self.len()] = com;
        self.len += 1;
    }

    /// Pops the top frame.
    pub fn pop(&mut self) -> Option<ComId> {
        self.len = self.len.checked_sub(1)?;
        Some(self.frames[self.len()])
    }
}

impl Default for Stack {
    fn default() -> Self {
        Stack::new()
    }
}

/// The stack a process starts with: its program's entry command.
impl From<ComId> for Stack {
    fn from(entry: ComId) -> Self {
        let mut stack = Stack::new();
        stack.push(entry);
        stack
    }
}

impl PartialEq for Stack {
    fn eq(&self, other: &Self) -> bool {
        self.frames() == other.frames()
    }
}

impl Eq for Stack {}

impl Hash for Stack {
    /// Feeds the depth and then the frames as 16-bit values packed four to
    /// a `u64`, the last word zero-padded (the depth makes the padding
    /// unambiguous): one `write_u64` per four values, no byte buffer.
    fn hash<H: Hasher>(&self, state: &mut H) {
        let pack = |frames: &[ComId]| {
            let shifts = frames.iter().zip((0..).step_by(16));
            shifts.fold(0, |word, (c, shift): (_, u32)| {
                word | u64::from(c.raw()) << shift
            })
        };
        let (head, tail) = self.frames().split_at(self.len().min(3));
        state.write_u64(u64::from(self.len) | pack(head) << 16);
        for chunk in tail.chunks(4) {
            state.write_u64(pack(chunk));
        }
    }
}

impl fmt::Debug for Stack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.frames()).finish()
    }
}

/// An enabled atomic step of a single process, before any system-level
/// pairing. The embedded `stack` is the control state *after* the step.
pub enum PendingStep<'p, S, Req, Resp> {
    /// A `τ` step: local computation.
    Tau {
        /// Label of the `LocalOp` taken.
        label: Label,
        /// Control state after the step.
        stack: Stack,
        /// Local data state after the step.
        state: S,
    },
    /// An offered `Request` with one specific α (a request offering several
    /// α values yields several `Send`s): the rendezvous completes only if
    /// some other process offers a matching `Response`.
    Send {
        /// Label of the `Request`.
        label: Label,
        /// The request value α, already computed from the sender's state.
        req: Req,
        /// Control state after the rendezvous.
        stack: Stack,
        /// Applies the chosen α and the eventual response β to the sender's
        /// state.
        recv: &'p RecvFn<S, Req, Resp>,
    },
    /// An offered `Response`.
    Recv {
        /// Label of the `Response`.
        label: Label,
        /// The [kind](crate::Keyed) of request it answers.
        kind: u8,
        /// Control state after the rendezvous.
        stack: Stack,
        /// The response relation, applied to the incoming α.
        resp: &'p RespFn<S, Req, Resp>,
    },
}

impl<S, Req: fmt::Debug, Resp> fmt::Debug for PendingStep<'_, S, Req, Resp> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PendingStep::Tau { label, .. } => write!(f, "Tau({label})"),
            PendingStep::Send { label, req, .. } => write!(f, "Send({label}, {req:?})"),
            PendingStep::Recv { label, .. } => write!(f, "Recv({label})"),
        }
    }
}

/// Upper bound on structural unfoldings while computing one step, to turn
/// busy loops with no atomic action (`WHILE true DO <nothing atomic>`) into
/// a panic instead of divergence. Generously larger than any real program's
/// nesting depth.
const MAX_STRUCTURAL_DEPTH: usize = 10_000;

/// Computes the enabled atomic steps of a process with control `stack` and
/// local state `state` (the `→γ` relation restricted to its atomic heads).
///
/// # Panics
///
/// Panics if structural unfolding exceeds an internal bound, which indicates
/// a control loop containing no atomic command.
pub fn enabled_steps<'p, S, Req, Resp>(
    program: &'p Program<S, Req, Resp>,
    stack: &Stack,
    state: &S,
) -> Vec<PendingStep<'p, S, Req, Resp>> {
    let mut out = Vec::new();
    for_each_enabled_step(program, stack, state, &mut Vec::new(), |_, step| {
        out.push(step)
    });
    out
}

/// Hands each enabled atomic step of a process to `found`, with the atomic
/// command it steps, in the order [`enabled_steps`] lists them. `work` is
/// scratch space for the unfolding (left empty), so that a caller stepping
/// many processes reuses one allocation.
pub(crate) fn for_each_enabled_step<'p, S, Req, Resp>(
    program: &'p Program<S, Req, Resp>,
    stack: &Stack,
    state: &S,
    work: &mut Vec<Stack>,
    mut found: impl FnMut(ComId, PendingStep<'p, S, Req, Resp>),
) {
    // Hands over the steps of command `id` continuing with `stack`, if it
    // is atomic; whether it was.
    let mut offer = |id: ComId, stack: Stack| {
        match program.com(id) {
            Com::LocalOp { label, op } => op(state, &mut |state| {
                found(
                    id,
                    PendingStep::Tau {
                        label,
                        stack,
                        state,
                    },
                )
            }),
            Com::Request { label, act, recv } => act(state, &mut |req| {
                found(
                    id,
                    PendingStep::Send {
                        label,
                        req,
                        stack,
                        recv,
                    },
                )
            }),
            Com::Response { label, kind, resp } => found(
                id,
                PendingStep::Recv {
                    label,
                    kind: *kind,
                    stack,
                    resp,
                },
            ),
            _ => return false,
        }
        true
    };
    work.push(*stack);
    let mut expansions = 0usize;
    while let Some(mut stack) = work.pop() {
        expansions += 1;
        assert!(
            expansions < MAX_STRUCTURAL_DEPTH,
            "structural unfolding diverged: control loop with no atomic command"
        );
        let Some(top) = stack.pop() else {
            continue; // terminated process: no steps
        };
        if offer(top, stack) {
            continue;
        }
        match program.com(top) {
            Com::LocalOp { .. } | Com::Request { .. } | Com::Response { .. } => {
                unreachable!("offered above")
            }
            Com::Seq(a, b) => {
                stack.push(*b);
                stack.push(*a);
                work.push(stack);
            }
            Com::If {
                cond,
                then_c,
                else_c,
            } => {
                if cond(state) {
                    stack.push(*then_c);
                } else if let Some(e) = else_c {
                    stack.push(*e);
                }
                work.push(stack);
            }
            Com::While { cond, body } => {
                if cond(state) {
                    stack.push(top); // the While itself: re-test after the body
                    stack.push(*body);
                }
                work.push(stack);
            }
            Com::Loop(body) => {
                stack.push(top);
                stack.push(*body);
                work.push(stack);
            }
            Com::Choose(branches) => {
                // The work stack unfolds the branches last first. Atomic
                // ones at the end are offered right here from `stack` in
                // that same order, instead of through a copy pushed and
                // popped each; the rest go through the work stack.
                let mut rest = branches.len();
                while rest > 0 && offer(branches[rest - 1], stack) {
                    rest -= 1;
                }
                for &branch in &branches[..rest] {
                    let mut s = stack;
                    s.push(branch);
                    work.push(s);
                }
            }
        }
    }
}

/// The labels of the atomic commands that could execute next from `stack`
/// in `state` — the executable analogue of the paper's `at p ℓ` predicate.
///
/// Branch conditions are resolved against `state`, so the result is the set
/// of labels reachable without executing any atomic command. For a `Choose`
/// this can contain several labels; for straight-line code exactly one.
pub fn at_labels<S, Req, Resp>(
    program: &Program<S, Req, Resp>,
    stack: &Stack,
    state: &S,
) -> Vec<Label> {
    enabled_steps(program, stack, state)
        .iter()
        .map(|s| match s {
            PendingStep::Tau { label, .. }
            | PendingStep::Send { label, .. }
            | PendingStep::Recv { label, .. } => *label,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Program;

    type P = Program<u32, u32, u32>;

    fn initial(p: &P) -> Stack {
        Stack::from(p.entry())
    }

    #[test]
    fn stacks_hash_as_packed_words() {
        /// Records the words it is fed.
        #[derive(Default)]
        struct Words(Vec<u64>);
        impl Hasher for Words {
            fn finish(&self) -> u64 {
                0
            }
            fn write(&mut self, _: &[u8]) {
                unreachable!("stacks feed whole words")
            }
            fn write_u64(&mut self, word: u64) {
                self.0.push(word);
            }
        }
        let words = |depth: u16| {
            let mut stack = Stack::new();
            (1..=depth).for_each(|c| stack.push(ComId::from_raw(c)));
            let mut h = Words::default();
            stack.hash(&mut h);
            h.0
        };
        assert_eq!(words(0), [0]);
        assert_eq!(words(3), [0x0003_0002_0001_0003]);
        assert_eq!(words(5), [0x0003_0002_0001_0005, 0x0005_0004]);
        assert_eq!(words(MAX_STACK_DEPTH as u16).len(), 7);
    }

    #[test]
    fn popped_frames_leave_no_trace_in_equality_or_hash() {
        use std::hash::{BuildHasher, BuildHasherDefault};
        let hash = |s: &Stack| {
            BuildHasherDefault::<std::collections::hash_map::DefaultHasher>::default().hash_one(s)
        };
        let ids = |n: u16| (0..n).map(ComId::from_raw);
        let mut stack = Stack::new();
        let mut fresh: Vec<Stack> = Vec::new();
        // Grow to the full depth, remembering a freshly built stack of
        // each depth, then shrink back and compare at every depth.
        for com in ids(MAX_STACK_DEPTH as u16) {
            fresh.push(stack);
            stack.push(com);
        }
        while let Some(top) = stack.pop() {
            let built = fresh.pop().expect("one per depth");
            assert_eq!(usize::from(top.raw()), built.len());
            assert_eq!(stack, built);
            assert_eq!(hash(&stack), hash(&built));
            assert!(stack.frames().iter().copied().eq(ids(built.len() as u16)));
        }
        // Depth is part of the identity even when every frame is command 0.
        let (mut one, mut two) = (Stack::new(), Stack::new());
        one.push(ComId::from_raw(0));
        two.push(ComId::from_raw(0));
        two.push(ComId::from_raw(0));
        assert_ne!(one, two);
        assert_ne!(hash(&one), hash(&two));
        assert_ne!(hash(&one), hash(&Stack::new()));
    }

    #[test]
    #[should_panic(expected = "at most 24 frames")]
    fn a_stack_deeper_than_its_bound_panics() {
        let mut stack = Stack::new();
        (0..=MAX_STACK_DEPTH as u16).for_each(|i| stack.push(ComId::from_raw(i)));
    }

    #[test]
    fn local_op_steps_and_pops() {
        let mut p = P::new();
        let inc = p.assign("inc", |s| *s += 1);
        p.set_entry(inc);
        let steps = enabled_steps(&p, &initial(&p), &0);
        assert_eq!(steps.len(), 1);
        match &steps[0] {
            PendingStep::Tau {
                label,
                stack,
                state,
            } => {
                assert_eq!(*label, "inc");
                assert!(stack.is_empty());
                assert_eq!(*state, 1);
            }
            other => panic!("expected Tau, got {other:?}"),
        }
    }

    #[test]
    fn nondeterministic_local_op_yields_all_successors() {
        let mut p = P::new();
        let flip = p.local_op("flip", |s, emit| {
            emit(*s);
            emit(*s + 10);
        });
        p.set_entry(flip);
        let steps = enabled_steps(&p, &initial(&p), &1);
        assert_eq!(steps.len(), 2);
    }

    #[test]
    fn disabled_guard_blocks() {
        let mut p = P::new();
        let g = p.guard("await", |s| *s > 5);
        p.set_entry(g);
        assert!(enabled_steps(&p, &initial(&p), &0).is_empty());
        assert_eq!(enabled_steps(&p, &initial(&p), &6).len(), 1);
    }

    #[test]
    fn seq_exposes_first_then_second() {
        let mut p = P::new();
        let a = p.assign("a", |s| *s += 1);
        let b = p.assign("b", |s| *s *= 2);
        let s = p.seq2(a, b);
        p.set_entry(s);
        let steps = enabled_steps(&p, &initial(&p), &1);
        assert_eq!(steps.len(), 1);
        let PendingStep::Tau {
            label,
            stack,
            state,
        } = &steps[0]
        else {
            panic!()
        };
        assert_eq!(*label, "a");
        assert_eq!(*state, 2);
        // Continue from the post-step stack: `b` is next.
        let steps2 = enabled_steps(&p, stack, state);
        let PendingStep::Tau { label, state, .. } = &steps2[0] else {
            panic!()
        };
        assert_eq!(*label, "b");
        assert_eq!(*state, 4);
    }

    #[test]
    fn if_resolves_on_local_state() {
        let mut p = P::new();
        let t = p.skip("then");
        let e = p.skip("else");
        let c = p.if_else(|s| *s == 0, t, e);
        p.set_entry(c);
        assert_eq!(at_labels(&p, &initial(&p), &0), vec!["then"]);
        assert_eq!(at_labels(&p, &initial(&p), &1), vec!["else"]);
    }

    #[test]
    fn while_iterates_and_exits() {
        let mut p = P::new();
        let body = p.assign("inc", |s| *s += 1);
        let w = p.while_do(|s| *s < 3, body);
        let done = p.skip("done");
        let all = p.seq2(w, done);
        p.set_entry(all);
        // Drive the loop to completion.
        let mut stack = initial(&p);
        let mut state = 0u32;
        let mut labels = Vec::new();
        loop {
            let steps = enabled_steps(&p, &stack, &state);
            if steps.is_empty() {
                break;
            }
            assert_eq!(steps.len(), 1);
            let PendingStep::Tau {
                label,
                stack: s2,
                state: st2,
            } = &steps[0]
            else {
                panic!()
            };
            labels.push(*label);
            stack = *s2;
            state = *st2;
        }
        assert_eq!(labels, vec!["inc", "inc", "inc", "done"]);
        assert_eq!(state, 3);
    }

    #[test]
    fn loop_never_terminates() {
        let mut p = P::new();
        let body = p.assign("tick", |s| *s = s.wrapping_add(1));
        let l = p.loop_forever(body);
        p.set_entry(l);
        let mut stack = initial(&p);
        let mut state = 0u32;
        for _ in 0..100 {
            let steps = enabled_steps(&p, &stack, &state);
            assert_eq!(steps.len(), 1);
            let PendingStep::Tau {
                stack: s2,
                state: st2,
                ..
            } = &steps[0]
            else {
                panic!()
            };
            stack = *s2;
            state = *st2;
        }
        assert_eq!(state, 100);
    }

    #[test]
    fn choose_offers_all_enabled_branches() {
        let mut p = P::new();
        let a = p.skip("a");
        let b = p.guard("b", |s| *s > 0);
        let c = p.choose([a, b]);
        p.set_entry(c);
        assert_eq!(at_labels(&p, &initial(&p), &0), vec!["a"]);
        let mut at1 = at_labels(&p, &initial(&p), &1);
        at1.sort_unstable();
        assert_eq!(at1, vec!["a", "b"]);
    }

    #[test]
    fn choose_offers_its_branches_last_first_and_each_continues_alike() {
        let mut p = P::new();
        let [a, b, c, d] = ["a", "b", "c", "d"].map(|l| p.skip(l));
        let bc = p.seq2(b, c);
        let pick = p.choose([a, bc, d]);
        let after = p.skip("after");
        let entry = p.seq2(pick, after);
        p.set_entry(entry);
        let steps = enabled_steps(&p, &initial(&p), &0);
        assert_eq!(at_labels(&p, &initial(&p), &0), vec!["d", "b", "a"]);
        let next = |i: usize| match &steps[i] {
            PendingStep::Tau { stack, .. } => at_labels(&p, stack, &0),
            other => panic!("expected Tau, got {other:?}"),
        };
        assert_eq!(next(0), vec!["after"]);
        assert_eq!(next(1), vec!["c"]);
        assert_eq!(next(2), vec!["after"]);
    }

    #[test]
    fn request_carries_computed_alpha() {
        let mut p = P::new();
        let r = p.request("ask", |s| s * 2, |s, beta| s + beta);
        p.set_entry(r);
        let steps = enabled_steps(&p, &initial(&p), &21);
        let PendingStep::Send { req, recv, .. } = &steps[0] else {
            panic!()
        };
        assert_eq!(*req, 42);
        let mut got = Vec::new();
        recv(&21, req, &1, &mut |s| got.push(s));
        assert_eq!(got, vec![22]);
    }

    #[test]
    fn terminated_process_has_no_steps() {
        let p = P::new();
        assert!(enabled_steps(&p, &Stack::new(), &0).is_empty());
    }

    #[test]
    #[should_panic(expected = "structural unfolding diverged")]
    fn busy_control_loop_panics() {
        let mut p = P::new();
        // WHILE true DO (if true then ... with no atomic action): encode a
        // loop whose body is another empty while.
        let inner = p.while_do(|_| false, crate::program::ComId::dummy_for_test());
        let outer = p.while_do(|_| true, inner);
        p.set_entry(outer);
        let _ = enabled_steps(&p, &Stack::from(p.entry()), &0);
    }
}
