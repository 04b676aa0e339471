//! CIMP system semantics: top-level interleaving and rendezvous (Figure 8).
//!
//! A [`System`] is a flat parallel composition of named processes, each with
//! its own [`Program`](crate::Program) and local state. The global
//! transition relation `⇒` has two rules:
//!
//! * **interleaving**: any process with an enabled `τ` step takes it alone;
//! * **rendezvous**: a process offering a `Request` (α computed from its
//!   state) pairs with a *different* process offering a `Response`; both
//!   update their local states simultaneously, the responder choosing β.
//!
//! All processes share one local-state type `S` (in heterogeneous models,
//! an enum over the per-role states) and one request/response vocabulary.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::marker::PhantomData;
use std::sync::Arc;

use crate::program::{Keyed, Label, Program};
use crate::step::{at_labels, for_each_enabled_step, PendingStep, Stack};

/// Index of a process within a [`System`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcId(pub usize);

impl fmt::Display for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// What happened in one global step — used for counterexample traces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event<Req, Resp> {
    /// Process `proc` performed local computation at `label`.
    Tau {
        /// The stepping process.
        proc: ProcId,
        /// Program location of the `LocalOp`.
        label: Label,
    },
    /// `sender` and `receiver` completed a rendezvous.
    Comm {
        /// The requesting process.
        sender: ProcId,
        /// The responding process.
        receiver: ProcId,
        /// Location of the `Request`.
        send_label: Label,
        /// Location of the `Response`.
        recv_label: Label,
        /// The request value α.
        req: Req,
        /// The response value β.
        resp: Resp,
    },
}

impl<Req: fmt::Debug, Resp: fmt::Debug> fmt::Display for Event<Req, Resp> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::Tau { proc, label } => write!(f, "{proc}: {label}"),
            Event::Comm {
                sender,
                receiver,
                send_label,
                recv_label,
                req,
                resp,
            } => write!(
                f,
                "{sender}:{send_label} --{req:?}--> {receiver}:{recv_label} ==> {resp:?}"
            ),
        }
    }
}

/// Processes a [`System`] can compose.
pub const MAX_PROCESSES: usize = 9;

/// Where a system keeps the local states of its processes: an inline layout
/// that hands out and takes back one process's state at a time.
///
/// The uniform layout is an array, `[S; MAX_PROCESSES]`, and is what
/// [`System::new`] uses. A model whose processes differ widely in size — a
/// large shared-memory process among small threads — pays the largest
/// state once per slot that way, and can instead lay its roles out side by
/// side and implement this trait for the layout
/// ([`System::with_layout`]).
pub trait Locals: Copy {
    /// A process's local state, as its program sees it.
    type Local: Copy + Hash;

    /// The layout holding `locals`, one per process in index order.
    fn new(locals: &[Self::Local]) -> Self;

    /// The local state of process `p`.
    fn get(&self, p: usize) -> Self::Local;

    /// Replaces the local state of process `p`.
    fn set(&mut self, p: usize, local: Self::Local);

    /// Feeds the local state of process `p` to `state` exactly as
    /// `self.get(p).hash(state)` would. A layout that can read a process's
    /// state where it lies overrides this to skip the copy `get` makes.
    fn hash_local<H: Hasher>(&self, p: usize, state: &mut H) {
        self.get(p).hash(state);
    }
}

impl<S: Copy + Hash> Locals for [S; MAX_PROCESSES] {
    type Local = S;

    /// Slots past the last process are never read; they repeat it.
    fn new(locals: &[S]) -> Self {
        std::array::from_fn(|p| locals[p.min(locals.len() - 1)])
    }

    fn get(&self, p: usize) -> S {
        self[p]
    }

    fn set(&mut self, p: usize, local: S) {
        self[p] = local;
    }
}

/// The hasher of a process's digest. Each word is xored into the lane,
/// multiplied by an odd constant and its high half folded down — a
/// bijection of the lane for a fixed word and of the word for a fixed lane,
/// so values differing in a single word never share a digest — and the
/// lane is avalanched once more at the end, so that every bit of a digest
/// depends on every bit fed. Unkeyed but for the slot: a digest is part of
/// the state, and equal states must carry equal digests in every run.
struct SlotHasher(u64);

impl SlotHasher {
    /// The hasher of process `p`'s digest: one value in two slots digests
    /// differently.
    fn slot(p: usize) -> Self {
        SlotHasher(0x243F_6A88_85A3_08D3 ^ (p as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

impl Hasher for SlotHasher {
    fn finish(&self) -> u64 {
        let lane = (self.0 ^ (self.0 >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let lane = (lane ^ (lane >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        lane ^ (lane >> 31)
    }

    /// Whole little-endian words, then the rest zero-padded into one more
    /// word tagged with how many bytes it holds.
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.write_u64(u64::from_le_bytes(word.try_into().expect("eight bytes")));
        }
        let rest = words.remainder();
        let mut tail = [0u8; 8];
        tail[..rest.len()].copy_from_slice(rest);
        tail[7] = rest.len() as u8 + 1;
        self.write_u64(u64::from_le_bytes(tail));
    }

    fn write_u64(&mut self, word: u64) {
        let mixed = (self.0 ^ word).wrapping_mul(0xD6E8_FEB8_6659_FD93);
        self.0 = mixed ^ (mixed >> 32);
    }
}

/// A global state: the control stack and local data state of every process.
///
/// Both live inline — control stacks one slot per process up to
/// [`MAX_PROCESSES`], local states in the layout `L` — so that a state whose
/// local states are plain data is plain data itself: cloning one is a
/// `memcpy`, and a successor is a copy with the stepped processes' slots
/// overwritten. `==` and `Hash` read the processes that exist and nothing
/// else.
///
/// Beside each process the state keeps its *digest*: a 64-bit hash of its
/// control stack and local state, keyed by its index. Every write refreshes
/// the digests of the processes it writes and no others, so a successor
/// pays for hashing what its step changed — most steps change one or two
/// processes — and `Hash` feeds one word per process.
#[derive(Debug, Clone, Copy)]
pub struct SystemState<L> {
    len: u8,
    controls: [Stack; MAX_PROCESSES],
    locals: L,
    digests: [u64; MAX_PROCESSES],
}

/// A global state in the uniform layout: what [`System::new`]'s systems
/// step.
pub type UniformState<S> = SystemState<[S; MAX_PROCESSES]>;

impl<L: Locals> SystemState<L> {
    /// Builds a state directly from parts (for decoding, tests and
    /// invariant satisfiability witnesses).
    ///
    /// # Panics
    ///
    /// Panics unless there is one control stack per local state, at least
    /// one and at most [`MAX_PROCESSES`] of them.
    pub fn from_parts(controls: &[Stack], locals: &[L::Local]) -> Self {
        assert_eq!(controls.len(), locals.len());
        assert!(
            (1..=MAX_PROCESSES).contains(&locals.len()),
            "a system has 1 to {MAX_PROCESSES} processes"
        );
        let mut state = SystemState {
            len: locals.len() as u8,
            // Slots past the last process are never read; they repeat it.
            controls: std::array::from_fn(|p| controls[p.min(controls.len() - 1)]),
            locals: L::new(locals),
            digests: [0; MAX_PROCESSES],
        };
        for p in 0..state.len() {
            state.refresh(p);
        }
        state
    }

    /// Process `p`'s digest, computed afresh.
    fn digest(&self, p: usize) -> u64 {
        let mut hasher = SlotHasher::slot(p);
        self.controls[p].hash(&mut hasher);
        self.locals.hash_local(p, &mut hasher);
        hasher.finish()
    }

    fn refresh(&mut self, p: usize) {
        self.digests[p] = self.digest(p);
    }

    /// Number of processes.
    pub fn len(&self) -> usize {
        usize::from(self.len)
    }

    /// Whether there are no processes (never true for a constructed state).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The local data state of process `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn local(&self, p: usize) -> L::Local {
        assert!(p < self.len(), "process {p} out of range");
        self.locals.get(p)
    }

    /// The local data states in their layout.
    pub fn locals(&self) -> &L {
        &self.locals
    }

    /// Edits the local states where they lie through `edit`, which may
    /// change process `p`'s and no other's and returns whether it did; `p`'s
    /// digest is refreshed if so. For canonicalization and tests, which
    /// rewrite part of a process's state in place.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range. In debug builds, hashing the state
    /// panics if `edit` changed a process other than `p`, or changed `p`
    /// and returned `false`.
    pub fn update_local(&mut self, p: usize, edit: impl FnOnce(&mut L) -> bool) -> bool {
        assert!(p < self.len(), "process {p} out of range");
        let changed = edit(&mut self.locals);
        if changed {
            self.refresh(p);
        }
        changed
    }

    /// The control stack of process `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn control(&self, p: usize) -> &Stack {
        &self.controls()[p]
    }

    /// All control stacks, indexed by process.
    pub fn controls(&self) -> &[Stack] {
        &self.controls[..self.len()]
    }

    /// Whether process `p` has terminated (empty control stack).
    pub fn terminated(&self, p: usize) -> bool {
        self.control(p).is_empty()
    }

    /// Replaces process `p`'s control stack and local state.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn set(&mut self, p: usize, control: Stack, local: L::Local) {
        assert!(p < self.len(), "process {p} out of range");
        self.controls[p] = control;
        self.locals.set(p, local);
        self.refresh(p);
    }

    /// The digests of the processes that exist.
    fn digests(&self) -> &[u64] {
        &self.digests[..self.len()]
    }
}

/// Equal states have equal digests, so those are compared first.
impl<L: Locals<Local: PartialEq>> PartialEq for SystemState<L> {
    fn eq(&self, other: &Self) -> bool {
        self.digests() == other.digests()
            && self.controls() == other.controls()
            && (0..self.len()).all(|p| self.locals.get(p) == other.locals.get(p))
    }
}

impl<L: Locals<Local: Eq>> Eq for SystemState<L> {}

/// Feeds each process's digest and nothing else: one word per process,
/// whatever the processes hold. Two distinct states therefore hash alike
/// only if one process's two distinct values share a digest or the words
/// collide in the caller's hasher.
impl<L: Locals> Hash for SystemState<L> {
    /// # Panics
    ///
    /// In debug builds, panics if a cached digest differs from the one
    /// computed afresh: a write that skipped its refresh.
    fn hash<H: Hasher>(&self, state: &mut H) {
        for (p, &digest) in self.digests().iter().enumerate() {
            debug_assert_eq!(digest, self.digest(p), "process {p}'s digest is stale");
            state.write_u64(digest);
        }
    }
}

struct Process<S, Req, Resp> {
    name: &'static str,
    program: Arc<Program<S, Req, Resp>>,
    initial: S,
}

/// A flat parallel composition of CIMP processes, whose states keep their
/// local states in the layout `L`.
pub struct System<S, Req, Resp, L = [S; MAX_PROCESSES]> {
    procs: Vec<Process<S, Req, Resp>>,
    layout: PhantomData<fn() -> L>,
}

impl<S, Req, Resp, L> fmt::Debug for System<S, Req, Resp, L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("System")
            .field(
                "processes",
                &self.procs.iter().map(|p| p.name).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl<S: Copy + Hash, Req: Clone + Keyed, Resp: Clone> System<S, Req, Resp> {
    /// Creates a system from `(name, program, initial local state)` triples,
    /// with the uniform layout of local states.
    ///
    /// # Panics
    ///
    /// Panics if `procs` is empty or holds more than [`MAX_PROCESSES`], or
    /// if any program lacks an entry point.
    pub fn new(procs: Vec<(&'static str, Program<S, Req, Resp>, S)>) -> Self {
        System::with_layout(procs)
    }
}

impl<S, Req, Resp, L> System<S, Req, Resp, L>
where
    L: Locals<Local = S>,
    S: Copy,
    Req: Clone + Keyed,
    Resp: Clone,
{
    /// Creates a system from `(name, program, initial local state)` triples
    /// whose states keep their local states in the layout `L`.
    ///
    /// # Panics
    ///
    /// Panics if `procs` is empty or holds more than [`MAX_PROCESSES`], or
    /// if any program lacks an entry point.
    pub fn with_layout(procs: Vec<(&'static str, Program<S, Req, Resp>, S)>) -> Self {
        assert!(
            (1..=MAX_PROCESSES).contains(&procs.len()),
            "a system has 1 to {MAX_PROCESSES} processes"
        );
        System {
            procs: procs
                .into_iter()
                .map(|(name, program, initial)| {
                    let _ = program.entry(); // panic early if unset
                    Process {
                        name,
                        program: Arc::new(program),
                        initial,
                    }
                })
                .collect(),
            layout: PhantomData,
        }
    }

    /// Number of processes.
    pub fn len(&self) -> usize {
        self.procs.len()
    }

    /// Whether the system has no processes (never true for a constructed
    /// system).
    pub fn is_empty(&self) -> bool {
        self.procs.is_empty()
    }

    /// The display name of process `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn name(&self, p: ProcId) -> &'static str {
        self.procs[p.0].name
    }

    /// The index of the process named `name`, if any.
    pub fn find(&self, name: &str) -> Option<ProcId> {
        self.procs.iter().position(|p| p.name == name).map(ProcId)
    }

    /// The initial global state.
    pub fn initial_state(&self) -> SystemState<L> {
        let controls: Vec<Stack> = self
            .procs
            .iter()
            .map(|p| p.program.entry().into())
            .collect();
        let locals: Vec<S> = self.procs.iter().map(|p| p.initial).collect();
        SystemState::from_parts(&controls, &locals)
    }

    /// The executable `at p ℓ` predicate: the labels process `p` may execute
    /// next from `state`.
    pub fn at(&self, state: &SystemState<L>, p: ProcId) -> Vec<Label> {
        at_labels(
            &self.procs[p.0].program,
            state.control(p.0),
            &state.local(p.0),
        )
    }

    /// All global successor states with the events that produce them — the
    /// `⇒` relation of Figure 8.
    pub fn successors(&self, state: &SystemState<L>) -> Vec<(Event<Req, Resp>, SystemState<L>)> {
        let mut out = Vec::new();
        self.successors_into(state, &mut out);
        out
    }

    /// Like [`System::successors`], but appends into a caller-provided
    /// buffer instead of allocating a fresh `Vec` — the hot path for the
    /// model checker's per-worker scratch buffers.
    ///
    /// Each successor is one copy of `state` with the slots of the stepped
    /// process(es) overwritten and their digests refreshed. τ successors
    /// are appended while the processes' enabled steps are enumerated; the
    /// offered requests and responses are kept aside and paired afterwards,
    /// a request only with the responses of its [kind](Keyed).
    ///
    /// # Panics
    ///
    /// In debug builds, panics if a response answers a request of another
    /// kind than its own: release builds never offer it one, and would
    /// silently lose that successor.
    pub fn successors_into(
        &self,
        state: &SystemState<L>,
        out: &mut Vec<(Event<Req, Resp>, SystemState<L>)>,
    ) {
        let mut push = |event, stepped: &[(usize, Stack, S)]| {
            out.push((event, *state));
            let next = &mut out.last_mut().expect("just pushed").1;
            for &(p, control, local) in stepped {
                next.set(p, control, local);
            }
        };
        // Each process's local state, taken out of the layout once; the
        // slots past the last process stay empty.
        let mut locals: [Option<S>; MAX_PROCESSES] = [None; MAX_PROCESSES];
        for (p, local) in locals[..state.len()].iter_mut().enumerate() {
            *local = Some(state.locals.get(p));
        }
        let local_of = |p: usize| locals[p].as_ref().expect("a process's local state");

        // Interleaved τ steps, and each process's offers.
        let mut sends = Vec::with_capacity(16);
        let mut recvs = Vec::with_capacity(16);
        let mut work = Vec::with_capacity(16);
        for (i, p) in self.procs.iter().enumerate() {
            for_each_enabled_step(
                &p.program,
                state.control(i),
                local_of(i),
                &mut work,
                |step| match step {
                    PendingStep::Tau {
                        label,
                        stack,
                        state: local,
                    } => {
                        let proc = ProcId(i);
                        push(Event::Tau { proc, label }, &[(i, stack, local)]);
                    }
                    PendingStep::Send {
                        label,
                        req,
                        stack,
                        recv,
                    } => sends.push((i, label, req, stack, recv)),
                    PendingStep::Recv {
                        label,
                        kind,
                        stack,
                        resp,
                    } => recvs.push((i, label, kind, stack, resp)),
                },
            );
        }

        // Rendezvous: sender i, receiver j, i ≠ j, of one kind.
        for (i, send_label, req, send_stack, recv) in &sends {
            let req_kind = req.kind();
            for (j, recv_label, kind, recv_stack, resp) in &recvs {
                if i == j {
                    continue;
                }
                if *kind != req_kind {
                    if cfg!(debug_assertions) {
                        resp(req, local_of(*j), &mut |_, _| {
                            panic!(
                                "response {recv_label} is keyed {kind} but answers \
                                 {send_label}'s request of kind {req_kind}"
                            )
                        });
                    }
                    continue;
                }
                resp(req, local_of(*j), &mut |recv_local, beta| {
                    recv(local_of(*i), req, &beta, &mut |send_local| {
                        let event = Event::Comm {
                            sender: ProcId(*i),
                            receiver: ProcId(*j),
                            send_label,
                            recv_label,
                            req: req.clone(),
                            resp: beta.clone(),
                        };
                        let stepped =
                            [(*i, *send_stack, send_local), (*j, *recv_stack, recv_local)];
                        push(event, &stepped);
                    });
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type P = Program<u32, u32, u32>;

    fn counter(label: Label) -> P {
        let mut p = P::new();
        let inc = p.assign(label, |s| *s += 1);
        p.set_entry(inc);
        p
    }

    #[test]
    fn taus_interleave() {
        let sys = System::new(vec![("a", counter("inc_a"), 0), ("b", counter("inc_b"), 0)]);
        let init = sys.initial_state();
        let succs = sys.successors(&init);
        assert_eq!(succs.len(), 2);
        // One step leaves the other process untouched.
        let (_, s0) = &succs[0];
        assert_eq!(s0.locals()[..2], [1, 0]);
    }

    #[test]
    fn rendezvous_updates_both_parties() {
        let mut client = P::new();
        let ask = client.request("ask", |s| *s, |s, beta| s + beta);
        client.set_entry(ask);

        let mut server = P::new();
        let ans = server.response("answer", 0, |alpha, s| Some((s + 1, alpha * 2)));
        server.set_entry(ans);

        let sys = System::new(vec![("client", client, 10), ("server", server, 100)]);
        let succs = sys.successors(&sys.initial_state());
        assert_eq!(succs.len(), 1);
        let (ev, next) = &succs[0];
        match ev {
            Event::Comm {
                sender,
                receiver,
                req,
                resp,
                ..
            } => {
                assert_eq!(sys.name(*sender), "client");
                assert_eq!(sys.name(*receiver), "server");
                assert_eq!(*req, 10);
                assert_eq!(*resp, 20);
            }
            other => panic!("expected Comm, got {other:?}"),
        }
        assert_eq!(next.locals()[..2], [30, 101]);
        // Both processes have terminated.
        assert!(next.terminated(0));
        assert!(next.terminated(1));
    }

    #[test]
    fn no_self_rendezvous() {
        // A single process offering both a Request and (next) a Response
        // cannot synchronise with itself.
        let mut p = P::new();
        let ask = p.request("ask", |s| *s, |s, _| *s);
        p.set_entry(ask);
        let sys = System::new(vec![("lonely", p, 0)]);
        assert!(sys.successors(&sys.initial_state()).is_empty());
    }

    #[test]
    fn responder_filters_requests() {
        // The server only answers even requests: odd client blocks forever.
        let build = |init: u32| {
            let mut client = P::new();
            let ask = client.request("ask", |s| *s, |s, _| *s);
            client.set_entry(ask);
            let mut server = P::new();
            let ans = server.response("answer", 0, |alpha, s| {
                if alpha % 2 == 0 {
                    Some((*s, 0))
                } else {
                    None
                }
            });
            server.set_entry(ans);
            System::new(vec![("client", client, init), ("server", server, 0)])
        };
        assert_eq!(build(2).successors(&build(2).initial_state()).len(), 1);
        assert!(build(3).successors(&build(3).initial_state()).is_empty());
    }

    #[test]
    fn nondeterministic_response_fans_out() {
        let mut client = P::new();
        let ask = client.request("ask", |s| *s, |_, beta| *beta);
        client.set_entry(ask);
        let mut server = P::new();
        let ans = server.response_nd("answer", 0, |_, s, emit| {
            emit(*s, 7);
            emit(*s, 8);
        });
        server.set_entry(ans);
        let sys = System::new(vec![("client", client, 0), ("server", server, 0)]);
        let succs = sys.successors(&sys.initial_state());
        assert_eq!(succs.len(), 2);
        let mut finals: Vec<u32> = succs.iter().map(|(_, s)| s.local(0)).collect();
        finals.sort_unstable();
        assert_eq!(finals, vec![7, 8]);
    }

    /// A request whose kind is its value.
    #[derive(Debug, Clone, Copy)]
    struct Tagged(u8);

    impl Keyed for Tagged {
        fn kind(&self) -> u8 {
            self.0
        }
    }

    /// A client asking `Tagged(kind)` of a server whose one response is
    /// keyed `key` and answers every request.
    fn keyed_pair(kind: u8, key: u8) -> System<u32, Tagged, u32> {
        let mut client = Program::new();
        let ask = client.request("ask", move |_| Tagged(kind), |_, beta| *beta);
        client.set_entry(ask);
        let mut server = Program::new();
        let ans = server.response("answer", key, |_, s| Some((*s, 7)));
        server.set_entry(ans);
        System::new(vec![("client", client, 0), ("server", server, 0)])
    }

    #[test]
    fn requests_meet_only_the_responses_of_their_kind() {
        let sys = keyed_pair(3, 3);
        assert_eq!(sys.successors(&sys.initial_state()).len(), 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "response answer is keyed 2 but answers ask's request of kind 3")]
    fn a_mis_keyed_response_panics_in_debug_builds() {
        let sys = keyed_pair(3, 2);
        let _ = sys.successors(&sys.initial_state());
    }

    fn hash_of<T: Hash>(value: &T) -> u64 {
        use std::hash::{BuildHasher, BuildHasherDefault};
        BuildHasherDefault::<std::collections::hash_map::DefaultHasher>::default().hash_one(value)
    }

    /// The same state built in one go, from its parts.
    fn twin(state: &UniformState<u32>) -> UniformState<u32> {
        let locals: Vec<u32> = (0..state.len()).map(|p| state.local(p)).collect();
        SystemState::from_parts(state.controls(), &locals)
    }

    fn three_counters() -> System<u32, u32, u32> {
        System::new(vec![
            ("a", counter("inc"), 0),
            ("b", counter("inc"), 7),
            ("c", counter("inc"), 7),
        ])
    }

    #[test]
    fn every_write_leaves_a_state_equal_to_and_hashing_like_its_from_parts_twin() {
        let sys = three_counters();
        let init = sys.initial_state();
        let mut written: Vec<UniformState<u32>> =
            sys.successors(&init).into_iter().map(|(_, s)| s).collect();
        let mut set = init;
        set.set(1, Stack::new(), 40);
        written.push(set);
        let mut edited = init;
        assert!(edited.update_local(2, |locals| {
            locals[2] += 1;
            true
        }));
        written.push(edited);
        let mut untouched = init;
        assert!(!untouched.update_local(0, |_| false));
        written.push(untouched);
        for state in &written {
            assert_eq!(*state, twin(state));
            assert_eq!(hash_of(state), hash_of(&twin(state)));
            assert_eq!(*state == init, hash_of(state) == hash_of(&init));
        }
        // Processes 1 and 2 hold one value at one program point: only the
        // slot keys their digests apart.
        assert_ne!(init.digests()[1], init.digests()[2]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "process 2's digest is stale")]
    fn hashing_a_state_whose_write_skipped_its_refresh_panics_in_debug_builds() {
        let mut state = three_counters().initial_state();
        state.update_local(2, |locals| {
            locals[2] += 1;
            false
        });
        let _ = hash_of(&state);
    }

    #[test]
    fn at_reports_next_labels() {
        let sys = System::new(vec![("a", counter("inc_a"), 0)]);
        let init = sys.initial_state();
        assert_eq!(sys.at(&init, ProcId(0)), vec!["inc_a"]);
    }

    #[test]
    fn find_locates_processes_by_name() {
        let sys = System::new(vec![("a", counter("x"), 0), ("b", counter("y"), 0)]);
        assert_eq!(sys.find("b"), Some(ProcId(1)));
        assert_eq!(sys.find("zz"), None);
    }

    #[test]
    fn event_display_is_readable() {
        let ev: Event<u32, u32> = Event::Comm {
            sender: ProcId(0),
            receiver: ProcId(1),
            send_label: "ask",
            recv_label: "answer",
            req: 5,
            resp: 10,
        };
        assert_eq!(ev.to_string(), "p0:ask --5--> p1:answer ==> 10");
    }
}
