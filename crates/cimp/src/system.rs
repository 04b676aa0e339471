//! CIMP system semantics: top-level interleaving and rendezvous (Figure 8).
//!
//! A [`System`] is a flat parallel composition of named processes, each with
//! its own [`Program`] and local state. The global
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
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::memo::{Entry, Memo, Offers, RecvOffer, SendOffer, Walked, NO_ID};
use crate::program::{Com, Keyed, Label, Program, RecvFn, RespFn};
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

    /// Whether the local state of process `p` equals `local`, exactly as
    /// `self.get(p) == *local` would say. A layout that can read a
    /// process's state where it lies overrides this to skip the copy `get`
    /// makes.
    fn local_eq(&self, p: usize, local: &Self::Local) -> bool
    where
        Self::Local: PartialEq,
    {
        self.get(p) == *local
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
///
/// A state a [`System`] built also keeps, for each process, the *id* of
/// the process's slot in that system's memo, and the system's tag. The ids
/// are a cache, never the state's identity: `==`, `Hash` and `Debug` ignore
/// them and the tag, and a system trusts them only under its own tag. A
/// slot written from a memo entry takes that entry's id; any other write
/// ([`set`](SystemState::set), an [`update_local`](SystemState::update_local)
/// that changed it) forgets it.
#[derive(Clone, Copy)]
pub struct SystemState<L> {
    len: u8,
    controls: [Stack; MAX_PROCESSES],
    locals: L,
    digests: [u64; MAX_PROCESSES],
    /// Each process's memo id, or `NO_ID` where none is known.
    ids: [u32; MAX_PROCESSES],
    /// The tag of the system that issued `ids`; `0` for none.
    tag: u64,
}

/// Everything but the ids and the tag, as a derived `Debug` would print it.
impl<L: fmt::Debug> fmt::Debug for SystemState<L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SystemState")
            .field("len", &self.len)
            .field("controls", &self.controls)
            .field("locals", &self.locals)
            .field("digests", &self.digests)
            .finish()
    }
}

/// A global state in the uniform layout: what [`System::new`]'s systems
/// step.
pub type UniformState<S> = SystemState<[S; MAX_PROCESSES]>;

impl<L: Locals> SystemState<L> {
    /// Builds a state directly from parts (for the initial state, tests
    /// and invariant satisfiability witnesses).
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
            ids: [NO_ID; MAX_PROCESSES],
            tag: 0,
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

    /// Writes process `p`'s slot from memo entry `id`, whose digest is
    /// `digest`.
    fn put(&mut self, p: usize, control: Stack, local: L::Local, digest: u64, id: u32) {
        self.controls[p] = control;
        self.locals.set(p, local);
        self.digests[p] = digest;
        self.ids[p] = id;
    }

    /// Recomputes process `p`'s digest and forgets its id: its slot was
    /// written from something other than a memo entry.
    fn refresh(&mut self, p: usize) {
        self.digests[p] = self.digest(p);
        self.ids[p] = NO_ID;
    }

    /// Process `p`'s memo id, if the system tagged `tag` issued it.
    fn id(&self, p: usize, tag: u64) -> Option<u32> {
        let id = self.ids[p];
        (self.tag == tag && id != NO_ID).then_some(id)
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
    /// digest is refreshed, and its id forgotten, if so. For
    /// canonicalization and tests, which rewrite part of a process's state
    /// in place.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range. In debug builds, hashing the state
    /// panics if `edit` changed a process other than `p`, or changed `p`
    /// and returned `false`; so does stepping or encoding it in the system
    /// that issued its ids.
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

    /// Replaces process `p`'s control stack and local state, and forgets
    /// its id.
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

/// The digest process `p` has with control `stack` and local state `local`:
/// the one [`SystemState`] keeps for it.
fn slot_digest<S: Hash>(p: usize, stack: &Stack, local: &S) -> u64 {
    let mut hasher = SlotHasher::slot(p);
    stack.hash(&mut hasher);
    local.hash(&mut hasher);
    hasher.finish()
}

struct Process<S, Req, Resp> {
    name: &'static str,
    program: Arc<Program<S, Req, Resp>>,
    initial: S,
    /// The steps of every slot of this process met so far.
    memo: Memo<S, Req>,
}

/// The tag the next [`System`] takes: no two systems of a process share
/// one, and no system has tag `0`.
static NEXT_TAG: AtomicU64 = AtomicU64::new(1);

/// A flat parallel composition of CIMP processes, whose states keep their
/// local states in the layout `L`.
pub struct System<S, Req, Resp, L = [S; MAX_PROCESSES]> {
    procs: Vec<Process<S, Req, Resp>>,
    /// What this system's states carry beside the ids it issued them.
    tag: u64,
    /// The initial local states, which [`decode`](System::decode)
    /// overwrites: set on first use.
    blank: OnceLock<L>,
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

impl<S: Copy + Eq + Hash, Req: Clone + PartialEq + Keyed, Resp: Clone> System<S, Req, Resp> {
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
    S: Copy + Eq + Hash,
    Req: Clone + PartialEq + Keyed,
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
                        memo: Memo::new(),
                    }
                })
                .collect(),
            tag: NEXT_TAG.fetch_add(1, Ordering::Relaxed),
            blank: OnceLock::new(),
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
    /// Each process's enabled steps come from its memo, keyed by its exact
    /// slot `(stack, local)`: the program is walked once per distinct slot
    /// a system meets, not once per state. A slot whose id this system
    /// issued is its memo entry at once; any other is found by its digest
    /// and compared in full. Every successor carries the ids of its slots
    /// this system knows. A τ successor is one copy of `state` with the
    /// stepped process's slot, digest and id overwritten by those of the
    /// memo entry the step leads to: no operation runs and nothing is
    /// hashed. The offered requests and responses are then paired, a
    /// request only with the responses of its [kind](Keyed); a rendezvous
    /// runs both processes' relations and rewrites, and rehashes, the slot
    /// of each party it changed.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if a response answers a request of another
    /// kind than its own: release builds never offer it one, and would
    /// silently lose that successor. Debug builds also walk the program
    /// again on every memo hit, and panic unless the walk yields exactly
    /// what the memo holds: a step that read anything but its own slot;
    /// and they panic if an id `state` carries names a memo entry of
    /// another slot: a write that skipped forgetting it.
    pub fn successors_into(
        &self,
        state: &SystemState<L>,
        out: &mut Vec<(Event<Req, Resp>, SystemState<L>)>,
    ) {
        // Each process's entry and offers, and the copy every successor
        // starts from: `state` with every id known.
        let mut slots: [Option<(&Entry<S>, &Offers<Req>)>; MAX_PROCESSES] = [None; MAX_PROCESSES];
        let mut base = *state;
        base.tag = self.tag;
        for (i, p) in self.procs.iter().enumerate() {
            let (id, entry) = self.slot(i, state);
            base.ids[i] = id;
            slots[i] = Some((
                entry,
                p.memo.offers(entry.steps().expect("an expanded entry")),
            ));
        }
        let slots = &slots[..self.procs.len()];

        // Interleaved τ steps.
        for (i, (p, &(entry, _))) in self.procs.iter().zip(slots.iter().flatten()).enumerate() {
            for tau in entry.steps().expect("an expanded entry").taus() {
                let label = p.program.label(tau.com).expect("a LocalOp's label");
                let target = p.memo.get(tau.target);
                let stack = *p.memo.stack_of(target);
                out.push((
                    Event::Tau {
                        proc: ProcId(i),
                        label,
                    },
                    base,
                ));
                let next = &mut out.last_mut().expect("just pushed").1;
                next.put(i, stack, target.local, target.digest, tau.target);
            }
        }

        // Rendezvous: sender i, receiver j, i ≠ j, of one kind.
        for (i, &(send_entry, send_offers)) in slots.iter().flatten().enumerate() {
            for send in &send_offers.sends {
                let (send_label, recv) = self.request(i, send);
                let send_stack = *self.procs[i].memo.stack(send.stack);
                let req = &send.req;
                let req_kind = req.kind();
                for (j, &(recv_entry, recv_offers)) in slots.iter().flatten().enumerate() {
                    if i == j {
                        continue;
                    }
                    for offer in &recv_offers.recvs {
                        if offer.kind != req_kind {
                            if cfg!(debug_assertions) {
                                let (recv_label, resp) = self.response(j, offer);
                                resp(req, &recv_entry.local, &mut |_, _| {
                                    panic!(
                                        "response {recv_label} is keyed {} but answers \
                                         {send_label}'s request of kind {req_kind}",
                                        offer.kind
                                    )
                                });
                            }
                            continue;
                        }
                        let (recv_label, resp) = self.response(j, offer);
                        let recv_stack = *self.procs[j].memo.stack(offer.stack);
                        resp(req, &recv_entry.local, &mut |recv_local, beta| {
                            recv(&send_entry.local, req, &beta, &mut |send_local| {
                                let event = Event::Comm {
                                    sender: ProcId(i),
                                    receiver: ProcId(j),
                                    send_label,
                                    recv_label,
                                    req: req.clone(),
                                    resp: beta.clone(),
                                };
                                out.push((event, base));
                                let next = &mut out.last_mut().expect("just pushed").1;
                                // A party the rendezvous leaves as it was (a
                                // load answered from memory) keeps its slot
                                // and digest: no copy, no rehash.
                                if send.stack != send_entry.stack || send_local != send_entry.local
                                {
                                    next.set(i, send_stack, send_local);
                                }
                                if offer.stack != recv_entry.stack || recv_local != recv_entry.local
                                {
                                    next.set(j, recv_stack, recv_local);
                                }
                            });
                        });
                    }
                }
            }
        }
    }

    /// The id and memo entry of process `p`'s slot in `state`, expanded:
    /// found, or walked and added.
    fn slot(&self, p: usize, state: &SystemState<L>) -> (u32, &Entry<S>) {
        let (stack, digest) = (state.control(p), state.digests[p]);
        let memo = &self.procs[p].memo;
        let found = match state.id(p, self.tag) {
            Some(id) => Some((id, self.trusted(p, state, id))),
            None => memo.find(stack, digest, |local| state.locals.local_eq(p, local)),
        };
        if let Some((id, entry)) = found.filter(|(_, entry)| entry.steps().is_some()) {
            if cfg!(debug_assertions) {
                self.check_hit(p, entry);
            }
            return (id, entry);
        }
        let local = state.locals.get(p);
        memo.fill(stack, &local, digest, self.walk(p, stack, &local))
    }

    /// Memo entry `id` of process `p`, which `state` carries for its slot
    /// under this system's tag.
    ///
    /// # Panics
    ///
    /// In debug builds, panics unless the entry is `state`'s slot: its
    /// digest, stack and local state.
    fn trusted(&self, p: usize, state: &SystemState<L>, id: u32) -> &Entry<S> {
        let memo = &self.procs[p].memo;
        let entry = memo.get(id);
        if cfg!(debug_assertions) {
            let same = entry.digest == state.digests[p]
                && memo.stack_of(entry) == state.control(p)
                && state.locals.local_eq(p, &entry.local);
            assert!(same, "process {p}'s slot id is stale");
        }
        entry
    }

    /// Appends `state` to `out` as its slot ids, one little-endian `u32`
    /// per process: ids this system issued it are taken as they are, and
    /// any other slot is looked up in its process's memo, and added
    /// unexpanded if new. Each memo holds each slot once, so equal states
    /// encode equally; but the ids are this system's own, and only its
    /// [`decode`](System::decode) reads them back.
    ///
    /// # Panics
    ///
    /// Panics unless `state` has one process per process of the system. In
    /// debug builds, panics as [`successors_into`](System::successors_into)
    /// does on an id naming another slot.
    pub fn encode(&self, state: &SystemState<L>, out: &mut Vec<u8>) {
        assert_eq!(state.len(), self.len(), "a state of this system");
        for p in 0..self.len() {
            let id = match state.id(p, self.tag) {
                Some(id) => {
                    if cfg!(debug_assertions) {
                        self.trusted(p, state, id);
                    }
                    id
                }
                None => {
                    let memo = &self.procs[p].memo;
                    let (stack, digest) = (state.control(p), state.digests[p]);
                    match memo.find(stack, digest, |local| state.locals.local_eq(p, local)) {
                        Some((id, _)) => id,
                        None => memo.add(stack, &state.locals.get(p), digest),
                    }
                }
            };
            out.extend_from_slice(&id.to_le_bytes());
        }
    }

    /// The state [`encode`](System::encode) wrote as `bytes`, carrying its
    /// ids; `None` unless `bytes` holds one id per process, each issued by
    /// its process's memo.
    pub fn decode(&self, bytes: &[u8]) -> Option<SystemState<L>> {
        if bytes.len() != 4 * self.len() {
            return None;
        }
        let blank = self.blank.get_or_init(|| {
            let initials: Vec<S> = self.procs.iter().map(|p| p.initial).collect();
            L::new(&initials)
        });
        let mut state = SystemState {
            len: self.len() as u8,
            controls: [Stack::new(); MAX_PROCESSES],
            locals: *blank,
            digests: [0; MAX_PROCESSES],
            ids: [NO_ID; MAX_PROCESSES],
            tag: self.tag,
        };
        for (p, word) in bytes.chunks_exact(4).enumerate() {
            let id = u32::from_le_bytes(word.try_into().expect("four bytes"));
            let memo = &self.procs[p].memo;
            let entry = memo.try_get(id)?;
            state.put(p, *memo.stack_of(entry), entry.local, entry.digest, id);
        }
        // Slots past the last process are never read; they repeat it.
        let last = state.controls[self.len() - 1];
        state.controls[self.len()..].fill(last);
        Some(state)
    }

    /// Process `p`'s enabled steps from slot `(stack, local)`, walked.
    fn walk(&self, p: usize, stack: &Stack, local: &S) -> Walked<S, Req> {
        let mut walked = Walked {
            taus: Vec::new(),
            sends: Vec::new(),
            recvs: Vec::new(),
        };
        let program = &self.procs[p].program;
        for_each_enabled_step(
            program,
            stack,
            local,
            &mut Vec::new(),
            |com, step| match step {
                PendingStep::Tau { stack, state, .. } => {
                    let digest = slot_digest(p, &stack, &state);
                    walked.taus.push((com, stack, state, digest));
                }
                PendingStep::Send { req, stack, .. } => walked.sends.push((com, req, stack)),
                PendingStep::Recv { kind, stack, .. } => walked.recvs.push((com, kind, stack)),
            },
        );
        walked
    }

    /// The label and the receive relation of process `p`'s offered request.
    fn request(&self, p: usize, send: &SendOffer<Req>) -> (Label, &RecvFn<S, Req, Resp>) {
        match self.procs[p].program.com(send.com) {
            Com::Request { label, recv, .. } => (label, recv),
            _ => unreachable!("a send offer names a Request"),
        }
    }

    /// The label and the response relation of process `p`'s offered
    /// response.
    fn response(&self, p: usize, offer: &RecvOffer) -> (Label, &RespFn<S, Req, Resp>) {
        match self.procs[p].program.com(offer.com) {
            Com::Response { label, resp, .. } => (label, resp),
            _ => unreachable!("a receive offer names a Response"),
        }
    }

    /// Walks the program again from the slot of a memo hit, and panics
    /// unless the walk yields the entry's steps: the same commands, α
    /// values, stacks, local states, digests and relations, in the same
    /// order.
    fn check_hit(&self, p: usize, entry: &Entry<S>) {
        let memo = &self.procs[p].memo;
        let steps = entry.steps().expect("an expanded entry");
        let offers = memo.offers(steps);
        let (mut taus, mut sends) = (steps.taus().iter(), offers.sends.iter());
        let mut recvs = offers.recvs.iter();
        let program = &self.procs[p].program;
        let stack = memo.stack_of(entry);
        thread_local! {
            /// The re-walk's scratch: the guard allocates nothing either.
            static WORK: std::cell::RefCell<Vec<Stack>> = const { std::cell::RefCell::new(Vec::new()) };
        }
        let mut work = WORK.take();
        for_each_enabled_step(program, stack, &entry.local, &mut work, |com, step| {
            let same = match step {
                PendingStep::Tau { stack, state, .. } => taus.next().is_some_and(|tau| {
                    let target = memo.get(tau.target);
                    tau.com == com
                        && *memo.stack_of(target) == stack
                        && target.local == state
                        && target.digest == slot_digest(p, &stack, &state)
                }),
                PendingStep::Send {
                    req, stack, recv, ..
                } => sends.next().is_some_and(|send| {
                    send.com == com
                        && send.req == req
                        && *memo.stack(send.stack) == stack
                        && Arc::ptr_eq(recv, self.request(p, send).1)
                }),
                PendingStep::Recv {
                    kind, stack, resp, ..
                } => recvs.next().is_some_and(|offer| {
                    offer.com == com
                        && offer.kind == kind
                        && *memo.stack(offer.stack) == stack
                        && Arc::ptr_eq(resp, self.response(p, offer).1)
                }),
            };
            let label = program.label(com).expect("an atomic command's label");
            assert!(same, "process {p}'s memo entry is stale at {label}");
        });
        WORK.set(work);
        let rest = taus.len() + sends.len() + recvs.len();
        assert_eq!(rest, 0, "process {p}'s memo entry is stale: steps vanished");
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
    #[derive(Debug, Clone, Copy, PartialEq)]
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
    #[cfg(debug_assertions)]
    #[should_panic(expected = "process 0's memo entry is stale at peek")]
    fn a_step_that_reads_outside_its_slot_panics_in_debug_builds() {
        use std::sync::atomic::{AtomicU32, Ordering};
        static OUTSIDE: AtomicU32 = AtomicU32::new(0);
        let mut p = P::new();
        let peek = p.local_op("peek", |s, emit| emit(*s + OUTSIDE.load(Ordering::Relaxed)));
        p.set_entry(peek);
        let sys = System::new(vec![("a", p, 0)]);
        let init = sys.initial_state();
        let _ = sys.successors(&init); // a miss: walked and kept
        OUTSIDE.store(1, Ordering::Relaxed);
        let _ = sys.successors(&init); // a hit, which the re-walk contradicts
    }

    /// Two clients asking a server under `If` and `While` control, the
    /// server answering two ways or ticking two ways: rendezvous, response
    /// and τ non-determinism, and slots that repeat across many states.
    fn small_system() -> System<u32, u32, u32> {
        let client = || {
            let mut c = P::new();
            let ask = c.request("ask", |s| *s % 3, |s, beta| (s + beta) % 6);
            let reset = c.assign("reset", |s| *s = 0);
            let test = c.if_else(|s| *s < 4, ask, reset);
            let bump = c.assign("bump", |s| *s += 1);
            let odd = c.while_do(|s| *s % 2 == 1 && *s < 5, bump);
            let body = c.seq([test, odd]);
            let entry = c.loop_forever(body);
            c.set_entry(entry);
            c
        };
        let mut server = P::new();
        let answer = server.response_nd("answer", 0, |alpha, s, emit| {
            emit((s + alpha) % 4, 1);
            emit(*s, 2);
        });
        let tick = server.local_op("tick", |s, emit| {
            emit((s + 1) % 4);
            if *s == 0 {
                emit(3);
            }
        });
        let pick = server.choose([answer, tick]);
        let entry = server.loop_forever(pick);
        server.set_entry(entry);
        System::new(vec![
            ("c0", client(), 0),
            ("c1", client(), 1),
            ("srv", server, 0),
        ])
    }

    #[test]
    fn cold_and_warm_memos_and_a_fresh_system_step_alike() {
        let sys = small_system();
        // Breadth-first, each state's successors taken from a memo as cold
        // as the search has left it.
        let mut states = vec![sys.initial_state()];
        let mut cold = Vec::new();
        let mut seen: std::collections::HashSet<_> = states.iter().copied().collect();
        while let Some(state) = states.get(cold.len()).copied() {
            let succs = sys.successors(&state);
            for (_, next) in &succs {
                if seen.insert(*next) {
                    states.push(*next);
                }
            }
            cold.push(succs);
        }
        for (state, cold) in states.iter().zip(&cold) {
            assert_eq!(sys.successors(state), *cold, "warm");
            assert_eq!(small_system().successors(state), *cold, "fresh");
        }
        // One entry per distinct slot, however many states repeat it.
        for (p, proc) in sys.procs.iter().enumerate() {
            let slots: std::collections::HashSet<(Stack, u32)> =
                states.iter().map(|s| (*s.control(p), s.local(p))).collect();
            assert_eq!(proc.memo.len(), slots.len(), "process {p}");
            assert!(slots.len() * 4 < states.len(), "process {p}");
        }
    }

    /// Every state `sys` reaches, breadth-first.
    fn reachable(sys: &System<u32, u32, u32>) -> Vec<UniformState<u32>> {
        let mut states = vec![sys.initial_state()];
        let mut seen: std::collections::HashSet<_> = states.iter().copied().collect();
        let mut at = 0;
        while let Some(state) = states.get(at).copied() {
            for (_, next) in sys.successors(&state) {
                if seen.insert(next) {
                    states.push(next);
                }
            }
            at += 1;
        }
        states
    }

    fn encoded(sys: &System<u32, u32, u32>, state: &UniformState<u32>) -> Vec<u8> {
        let mut bytes = Vec::new();
        sys.encode(state, &mut bytes);
        bytes
    }

    #[test]
    fn every_reachable_state_round_trips_through_its_slot_ids() {
        let sys = small_system();
        let other = small_system();
        let states = reachable(&sys);
        assert!(states.len() > 100, "{} states", states.len());
        let mut distinct = std::collections::HashSet::new();
        for state in &states {
            let bytes = encoded(&sys, state);
            assert_eq!(bytes.len(), 4 * sys.len());
            let back = sys.decode(&bytes).expect("decodes");
            assert_eq!(back, *state);
            assert_eq!(hash_of(&back), hash_of(state));
            assert_eq!(encoded(&sys, &back), bytes);
            // Equal states encode equally, however they were built.
            assert_eq!(encoded(&sys, &twin(state)), bytes);
            assert!(distinct.insert(bytes), "distinct states share an encoding");
            // A state another system built carries ids this one did not
            // issue: it steps and encodes like the same state with none.
            let foreign = other.decode(&encoded(&other, state)).expect("decodes");
            assert_eq!(foreign, *state);
            let (steps, twin_steps) = (sys.successors(&foreign), sys.successors(&twin(state)));
            assert_eq!(steps, twin_steps);
            for ((_, a), (_, b)) in steps.iter().zip(&twin_steps) {
                assert_eq!(encoded(&sys, a), encoded(&sys, b));
            }
            assert_eq!(encoded(&sys, &foreign), encoded(&sys, &twin(state)));
        }
    }

    #[test]
    fn malformed_slot_ids_decode_to_none() {
        let sys = small_system();
        let states = reachable(&sys);
        let bytes = encoded(&sys, &states[states.len() / 2]);
        for cut in 0..bytes.len() {
            assert!(sys.decode(&bytes[..cut]).is_none(), "cut at {cut}");
        }
        let mut padded = bytes.clone();
        padded.extend_from_slice(&[0; 4]);
        assert!(sys.decode(&padded).is_none());
        for p in 0..sys.len() {
            let issued = sys.procs[p].memo.len() as u32;
            for id in [issued, issued + 1, NO_ID] {
                let mut wrong = bytes.clone();
                wrong[4 * p..4 * p + 4].copy_from_slice(&id.to_le_bytes());
                assert!(sys.decode(&wrong).is_none(), "process {p}, id {id}");
            }
        }
        // Ids are per system: a fresh one has issued none.
        assert!(small_system().decode(&bytes).is_none());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "process 2's slot id is stale")]
    fn stepping_a_state_whose_write_kept_its_slot_id_panics_in_debug_builds() {
        let sys = three_counters();
        let (_, mut state) = sys.successors(&sys.initial_state()).swap_remove(0);
        state.update_local(2, |locals| {
            locals[2] += 1;
            false
        });
        let _ = sys.successors(&state);
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
