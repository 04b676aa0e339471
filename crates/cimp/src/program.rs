//! CIMP syntax: commands, programs and the program builder.

use std::fmt;
use std::sync::Arc;

/// A program-location label.
///
/// Every atomic command carries a label; the paper's local assertions are
/// stated as "property holds when control for process *p* resides at *ℓ*"
/// (`at p ℓ`), and counterexample traces print labels.
pub type Label = &'static str;

/// Index of a command within its [`Program`]'s arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ComId(u16);

impl ComId {
    pub(crate) fn index(self) -> usize {
        usize::from(self.0)
    }

    /// The raw arena index, for external state serialization (e.g. the
    /// model checker's compact frontier encoding).
    pub fn raw(self) -> u16 {
        self.0
    }

    /// Rebuilds a `ComId` from [`ComId::raw`]. The caller is responsible
    /// for only feeding back values obtained from `raw` on the *same*
    /// program; a stale or foreign index is not dereferenceable.
    pub const fn from_raw(raw: u16) -> ComId {
        ComId(raw)
    }

    /// A placeholder id for tests that build intentionally-unreachable
    /// control structure; must never be dereferenced.
    #[cfg(test)]
    pub(crate) fn dummy_for_test() -> ComId {
        ComId(u16::MAX)
    }
}

/// A request vocabulary whose values fall into a few *kinds*: every
/// [`Response`](Com::Response) names the one kind it answers, and a system
/// pairs a request only with the responses of its kind. A process that
/// answers many shapes of request (the paper's system process) then costs a
/// rendezvous one comparison per response that cannot answer, not a call.
///
/// A response that can answer requests of another kind than the one it
/// names is never offered them, and the rendezvous it would form are lost
/// without a trace; debug builds still offer it every such request and
/// panic if it answers.
pub trait Keyed {
    /// The kind of this request.
    fn kind(&self) -> u8;
}

/// `u32` requests are of a single kind, `0`.
impl Keyed for u32 {
    fn kind(&self) -> u8 {
        0
    }
}

/// Non-deterministic local operation: hands each possible successor of a
/// local state to the sink. Handing over none means the operation is
/// *disabled* in that state (the process blocks), which is how guards/awaits
/// are modelled.
///
/// The four relations of an atomic command are stored in this sink-passing
/// form, and the builder methods of [`Program`] take them in the same form
/// (or as plain functions returning one value or an `Option`), so stepping
/// allocates nothing whatever the number of outcomes.
pub type OpFn<S> = Arc<dyn Fn(&S, &mut dyn FnMut(S)) + Send + Sync>;

/// Offers the request values α of the sender (data non-determinism: each α
/// is a separate potential rendezvous; offering none disables the request).
pub type ActFn<S, Req> = Arc<dyn Fn(&S, &mut dyn FnMut(Req)) + Send + Sync>;

/// Applies the chosen request α and the response value β to the sender's
/// local state, non-deterministically.
pub type RecvFn<S, Req, Resp> = Arc<dyn Fn(&S, &Req, &Resp, &mut dyn FnMut(S)) + Send + Sync>;

/// The receiver's side of a rendezvous: given the request α and the
/// receiver's local state, the possible (successor state, response β)
/// pairs. None means the receiver cannot answer this particular request (no
/// rendezvous forms), which is how a response refuses a request of its
/// [kind](Keyed) that its state cannot serve.
pub type RespFn<S, Req, Resp> = Arc<dyn Fn(&Req, &S, &mut dyn FnMut(S, Resp)) + Send + Sync>;

/// Evaluates a branch condition on the local state.
pub type CondFn<S> = Arc<dyn Fn(&S) -> bool + Send + Sync>;

/// An abstract shared-memory location.
///
/// Static analyses cannot evaluate the opaque request closures of a
/// [`Com::Request`], so commands are summarised at the granularity of
/// *named location regions* ("fM", "phase", "field", …). Region names are
/// model-specific; the analysis only compares them for equality.
pub type AbsLoc = &'static str;

/// A static summary of an atomic command's shared-memory behaviour under
/// x86-TSO, attached to commands via [`Program::annotate`].
///
/// The summary describes the effect on the *issuing thread's* store buffer
/// and its visibility: what a forward may-buffered-write analysis needs in
/// order to reason about fence placement without enumerating interleavings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemEffect {
    /// Loads the region (store-buffer forwarding, else shared memory).
    Load(AbsLoc),
    /// Stores to the region; the write is enqueued on the issuing thread's
    /// store buffer and becomes globally visible only at a later commit.
    Store(AbsLoc),
    /// Drains the issuing thread's store buffer (`MFENCE`, or any
    /// rendezvous whose enabling condition requires an empty buffer).
    Fence,
    /// A locked read-modify-write of the region: reads and writes it and
    /// leaves the buffer drained (x86 locked instructions flush on
    /// completion).
    LockedRmw(AbsLoc),
    /// No shared-memory access (local computation, or an atomic service
    /// rendezvous that touches no TSO-visible location).
    Pure,
}

impl fmt::Display for MemEffect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemEffect::Load(l) => write!(f, "load {l}"),
            MemEffect::Store(l) => write!(f, "store {l}"),
            MemEffect::Fence => write!(f, "fence"),
            MemEffect::LockedRmw(l) => write!(f, "locked-rmw {l}"),
            MemEffect::Pure => write!(f, "pure"),
        }
    }
}

/// A CIMP command (Figure 7 of the paper).
///
/// `LocalOp`, `Request` and `Response` are the atomic commands — the only
/// ones that produce transitions. The rest are control structure, resolved
/// structurally by the semantics in [`crate::step`].
pub enum Com<S, Req, Resp> {
    /// `{ℓ} LOCALOP R`: non-deterministic update of the local state.
    LocalOp {
        /// Program location.
        label: Label,
        /// The update relation.
        op: OpFn<S>,
    },
    /// `{ℓ} REQUEST act val`: offer a rendezvous with any of the request
    /// values `act(s)`; on completion update the local state with the
    /// chosen α and received β via `recv`.
    Request {
        /// Program location.
        label: Label,
        /// Computes the offered α values from the sender state.
        act: ActFn<S, Req>,
        /// Applies the chosen α and the received β to the sender state.
        recv: RecvFn<S, Req, Resp>,
    },
    /// `{ℓ} RESPONSE f`: offer to answer a rendezvous; `resp` maps the
    /// incoming α and the local state to possible (state, β) outcomes.
    Response {
        /// Program location.
        label: Label,
        /// The [kind](Keyed) of request this response answers.
        kind: u8,
        /// The response relation.
        resp: RespFn<S, Req, Resp>,
    },
    /// `c₁ ;; c₂`: sequential composition.
    Seq(ComId, ComId),
    /// `IF cond THEN c₁ ELSE c₂`: deterministic branch on local state.
    /// `else_c = None` is a structural skip: a false condition simply
    /// falls through to the continuation without producing a step.
    If {
        /// Branch condition over the local state.
        cond: CondFn<S>,
        /// Taken when the condition holds.
        then_c: ComId,
        /// Taken otherwise (`None`: fall through).
        else_c: Option<ComId>,
    },
    /// `WHILE cond DO c`: loop while the condition holds.
    While {
        /// Loop condition over the local state.
        cond: CondFn<S>,
        /// Loop body.
        body: ComId,
    },
    /// `LOOP c`: infinite repetition (the collector's outer loop).
    Loop(ComId),
    /// `c₁ ⊓ c₂ ⊓ …`: non-deterministic choice among branches. A branch
    /// whose first atomic action is disabled simply cannot be chosen.
    Choose(Vec<ComId>),
}

impl<S, Req, Resp> fmt::Debug for Com<S, Req, Resp> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Com::LocalOp { label, .. } => write!(f, "LocalOp({label})"),
            Com::Request { label, .. } => write!(f, "Request({label})"),
            Com::Response { label, .. } => write!(f, "Response({label})"),
            Com::Seq(a, b) => write!(f, "Seq({a:?}, {b:?})"),
            Com::If { then_c, else_c, .. } => write!(f, "If(_, {then_c:?}, {else_c:?})"),
            Com::While { body, .. } => write!(f, "While(_, {body:?})"),
            Com::Loop(c) => write!(f, "Loop({c:?})"),
            Com::Choose(cs) => write!(f, "Choose({cs:?})"),
        }
    }
}

/// A CIMP program: an arena of commands plus an entry point.
///
/// Commands reference each other by [`ComId`], so control states (frame
/// stacks of `ComId`) are cheap to clone, hash and compare — the property
/// the model checker relies on.
pub struct Program<S, Req, Resp> {
    coms: Vec<Com<S, Req, Resp>>,
    effects: Vec<Option<MemEffect>>,
    entry: Option<ComId>,
}

impl<S, Req, Resp> fmt::Debug for Program<S, Req, Resp> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Program")
            .field("commands", &self.coms.len())
            .field("entry", &self.entry)
            .finish()
    }
}

impl<S, Req, Resp> Default for Program<S, Req, Resp> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S, Req, Resp> Program<S, Req, Resp> {
    /// Creates an empty program.
    pub fn new() -> Self {
        Program {
            coms: Vec::new(),
            effects: Vec::new(),
            entry: None,
        }
    }

    /// Number of commands in the arena.
    pub fn len(&self) -> usize {
        self.coms.len()
    }

    /// Whether the program has no commands.
    pub fn is_empty(&self) -> bool {
        self.coms.is_empty()
    }

    /// The command stored at `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this program.
    pub fn com(&self, id: ComId) -> &Com<S, Req, Resp> {
        &self.coms[id.index()]
    }

    /// Sets the program's entry point.
    pub fn set_entry(&mut self, entry: ComId) {
        self.entry = Some(entry);
    }

    /// The program's entry point.
    ///
    /// # Panics
    ///
    /// Panics if no entry point was set.
    pub fn entry(&self) -> ComId {
        self.entry.expect("program entry point not set")
    }

    fn push(&mut self, com: Com<S, Req, Resp>) -> ComId {
        let id = ComId(u16::try_from(self.coms.len()).expect("program too large"));
        self.coms.push(com);
        self.effects.push(None);
        id
    }

    /// Attaches a static memory-effect summary to the command at `id` and
    /// returns `id` for chaining. Effects feed the `gc-analysis` store-buffer
    /// dataflow; unannotated atomic commands are reported by its `A004` lint.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this program.
    pub fn annotate(&mut self, id: ComId, effect: MemEffect) -> ComId {
        assert!(id.index() < self.coms.len(), "annotate: unknown ComId");
        self.effects[id.index()] = Some(effect);
        id
    }

    /// The memory-effect summary of the command at `id`, if one was attached.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this program.
    pub fn effect(&self, id: ComId) -> Option<MemEffect> {
        self.effects[id.index()]
    }

    /// Adds a non-deterministic local operation: `op(s, emit)` calls `emit`
    /// once per successor of `s`, and not at all where it is disabled.
    pub fn local_op(
        &mut self,
        label: Label,
        op: impl Fn(&S, &mut dyn FnMut(S)) + Send + Sync + 'static,
    ) -> ComId {
        self.push(Com::LocalOp {
            label,
            op: Arc::new(op),
        })
    }

    /// Adds a deterministic local assignment (a `LocalOp` with exactly one
    /// successor).
    pub fn assign(&mut self, label: Label, f: impl Fn(&mut S) + Send + Sync + 'static) -> ComId
    where
        S: Clone,
    {
        self.push(Com::LocalOp {
            label,
            op: Arc::new(move |s, sink| {
                let mut s2 = s.clone();
                f(&mut s2);
                sink(s2);
            }),
        })
    }

    /// Adds a guard: a step that is enabled only when `cond` holds and
    /// leaves the state unchanged (an *await*).
    pub fn guard(
        &mut self,
        label: Label,
        cond: impl Fn(&S) -> bool + Send + Sync + 'static,
    ) -> ComId
    where
        S: Clone,
    {
        self.push(Com::LocalOp {
            label,
            op: Arc::new(move |s, sink| {
                if cond(s) {
                    sink(s.clone());
                }
            }),
        })
    }

    /// Adds a no-op step (useful as a visible program point).
    pub fn skip(&mut self, label: Label) -> ComId
    where
        S: Clone,
    {
        self.guard(label, |_| true)
    }

    /// Adds a `Request` command with a single request value and a
    /// deterministic update on completion — the paper's `REQUEST act val`.
    pub fn request(
        &mut self,
        label: Label,
        act: impl Fn(&S) -> Req + Send + Sync + 'static,
        recv: impl Fn(&S, &Resp) -> S + Send + Sync + 'static,
    ) -> ComId {
        self.push(Com::Request {
            label,
            act: Arc::new(move |s, sink| sink(act(s))),
            recv: Arc::new(move |s, _req, beta, sink| sink(recv(s, beta))),
        })
    }

    /// Adds a `Request` command offering a *set* of request values (data
    /// non-determinism): each α that `act(s, emit)` emits is a separate
    /// potential rendezvous, and `recv(s, α, β, emit)` learns which α was
    /// taken and emits the sender's successors. Emitting no α disables the
    /// request.
    pub fn request_nd(
        &mut self,
        label: Label,
        act: impl Fn(&S, &mut dyn FnMut(Req)) + Send + Sync + 'static,
        recv: impl Fn(&S, &Req, &Resp, &mut dyn FnMut(S)) + Send + Sync + 'static,
    ) -> ComId {
        self.push(Com::Request {
            label,
            act: Arc::new(act),
            recv: Arc::new(recv),
        })
    }

    /// Adds a `Request` whose response is ignored (the state is unchanged
    /// upon completion).
    pub fn request_ignore(
        &mut self,
        label: Label,
        act: impl Fn(&S) -> Req + Send + Sync + 'static,
    ) -> ComId
    where
        S: Clone,
    {
        self.request(label, act, |s, _| s.clone())
    }

    /// Adds a `Response` command that answers requests of one [kind](Keyed)
    /// in at most one way: `None` means this request cannot be answered in
    /// this state.
    pub fn response(
        &mut self,
        label: Label,
        kind: u8,
        resp: impl Fn(&Req, &S) -> Option<(S, Resp)> + Send + Sync + 'static,
    ) -> ComId {
        self.response_nd(label, kind, move |req, s, emit| {
            if let Some((s2, beta)) = resp(req, s) {
                emit(s2, beta);
            }
        })
    }

    /// Adds a `Response` command for requests of one [kind](Keyed) whose
    /// answer is chosen non-deterministically: `resp(α, s, emit)` emits
    /// each possible (successor state, response β) pair.
    pub fn response_nd(
        &mut self,
        label: Label,
        kind: u8,
        resp: impl Fn(&Req, &S, &mut dyn FnMut(S, Resp)) + Send + Sync + 'static,
    ) -> ComId {
        self.push(Com::Response {
            label,
            kind,
            resp: Arc::new(resp),
        })
    }

    /// Sequential composition of two commands.
    pub fn seq2(&mut self, first: ComId, second: ComId) -> ComId {
        self.push(Com::Seq(first, second))
    }

    /// Sequential composition of a non-empty list of commands.
    ///
    /// # Panics
    ///
    /// Panics if `cmds` is empty.
    pub fn seq(&mut self, cmds: impl IntoIterator<Item = ComId>) -> ComId {
        let mut iter = cmds.into_iter();
        let first = iter.next().expect("seq of zero commands");
        iter.fold(first, |acc, c| self.seq2(acc, c))
    }

    /// `IF cond THEN then_c ELSE else_c`.
    pub fn if_else(
        &mut self,
        cond: impl Fn(&S) -> bool + Send + Sync + 'static,
        then_c: ComId,
        else_c: ComId,
    ) -> ComId {
        self.push(Com::If {
            cond: Arc::new(cond),
            then_c,
            else_c: Some(else_c),
        })
    }

    /// `IF cond THEN then_c` — a false condition falls through
    /// *structurally*, producing no step.
    pub fn if_then(
        &mut self,
        cond: impl Fn(&S) -> bool + Send + Sync + 'static,
        then_c: ComId,
    ) -> ComId {
        self.push(Com::If {
            cond: Arc::new(cond),
            then_c,
            else_c: None,
        })
    }

    /// `WHILE cond DO body`.
    pub fn while_do(
        &mut self,
        cond: impl Fn(&S) -> bool + Send + Sync + 'static,
        body: ComId,
    ) -> ComId {
        self.push(Com::While {
            cond: Arc::new(cond),
            body,
        })
    }

    /// `LOOP body`: repeat forever.
    pub fn loop_forever(&mut self, body: ComId) -> ComId {
        self.push(Com::Loop(body))
    }

    /// Non-deterministic choice among the given branches.
    ///
    /// # Panics
    ///
    /// Panics if `branches` is empty.
    pub fn choose(&mut self, branches: impl IntoIterator<Item = ComId>) -> ComId {
        let branches: Vec<ComId> = branches.into_iter().collect();
        assert!(!branches.is_empty(), "choose of zero branches");
        self.push(Com::Choose(branches))
    }

    /// All command ids in the arena, in allocation order. Static analyses
    /// use this to sweep for commands not reachable from the entry point.
    pub fn com_ids(&self) -> impl Iterator<Item = ComId> {
        (0..self.coms.len()).map(|i| ComId(i as u16))
    }

    /// The label of an atomic command, if `id` refers to one.
    pub fn label(&self, id: ComId) -> Option<Label> {
        match self.com(id) {
            Com::LocalOp { label, .. }
            | Com::Request { label, .. }
            | Com::Response { label, .. } => Some(label),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type P = Program<u32, (), ()>;

    #[test]
    fn builder_allocates_dense_ids() {
        let mut p = P::new();
        let a = p.skip("a");
        let b = p.skip("b");
        let s = p.seq2(a, b);
        assert_eq!(p.len(), 3);
        assert!(matches!(p.com(s), Com::Seq(x, y) if *x == a && *y == b));
    }

    #[test]
    fn labels_only_on_atomic_commands() {
        let mut p = P::new();
        let a = p.assign("inc", |s| *s += 1);
        let w = p.while_do(|s| *s < 3, a);
        assert_eq!(p.label(a), Some("inc"));
        assert_eq!(p.label(w), None);
    }

    #[test]
    #[should_panic(expected = "entry point not set")]
    fn entry_unset_panics() {
        let p = P::new();
        let _ = p.entry();
    }

    #[test]
    #[should_panic(expected = "choose of zero branches")]
    fn empty_choose_panics() {
        let mut p = P::new();
        let _ = p.choose([]);
    }

    #[test]
    fn effects_default_to_none_and_annotate() {
        let mut p = P::new();
        let a = p.skip("a");
        let b = p.skip("b");
        assert_eq!(p.effect(a), None);
        let a2 = p.annotate(a, MemEffect::Store("x"));
        assert_eq!(a2, a);
        assert_eq!(p.effect(a), Some(MemEffect::Store("x")));
        assert_eq!(p.effect(b), None);
        assert_eq!(MemEffect::Load("y").to_string(), "load y");
    }
}
