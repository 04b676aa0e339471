//! Local states of the three process roles, and the shared `Local` enum
//! that CIMP processes carry.
//!
//! Every state here is plain `Copy` data — reference sets are words
//! ([`RefSet`]), per-mutator booleans are bit masks, the TSO machine is
//! inline — so a global state is cloned with a `memcpy`. Each role's state
//! also folds into a few words (`words`): sets as they are, every scalar
//! field bit-packed into one more. Those words are what `Hash` feeds the
//! hasher and what [`codec`](crate::codec) writes: a process's digest in the
//! global state (`cimp::SystemState`) and its spilled form are two readings
//! of one thing, and a fingerprint is a hash of the digests.

use std::hash::{Hash, Hasher};

use gc_types::{Ref, RefSet, WorkList};
use tso_model::Machine;

use crate::vocab::{Addr, HsPhase, HsType, Phase, Val};

/// Feeds a role's words to a hasher, one `write_u64` each.
fn feed<H: Hasher>(state: &mut H, words: &[u64]) {
    words.iter().for_each(|&word| state.write_u64(word));
}

/// Bit-packs small fields into a word, lowest bits first.
struct Pack {
    word: u64,
    used: u32,
    /// The bits of any field beyond its width.
    overflow: u64,
}

impl Pack {
    fn new() -> Self {
        Pack {
            word: 0,
            used: 0,
            overflow: 0,
        }
    }

    /// Appends the low `width` bits of `value`, which must have no others.
    fn bits(mut self, width: u32, value: u64) -> Self {
        self.overflow |= value >> width;
        self.word |= value << self.used;
        self.used += width;
        self
    }

    /// The packed word.
    ///
    /// # Panics
    ///
    /// Panics if a field outgrew its width (or the fields the word): that
    /// would make distinct states hash and encode alike.
    /// [`ModelConfig::validate`](crate::ModelConfig::validate) keeps every
    /// counter within its bits.
    fn word(self) -> u64 {
        assert!(
            self.overflow == 0 && self.used <= u64::BITS,
            "a state field does not fit its bits"
        );
        self.word
    }

    fn flag(self, b: bool) -> Self {
        self.bits(1, u64::from(b))
    }

    /// `None`, or one of the 64 references a [`RefSet`] can hold.
    fn opt_ref(self, r: Option<Ref>) -> Self {
        self.bits(7, r.map_or(0, |r| 1 + r.index() as u64))
    }

    fn opt_flag(self, b: Option<bool>) -> Self {
        self.bits(2, b.map_or(0, |b| 1 + u64::from(b)))
    }

    fn mark(self, m: &MarkScratch) -> Self {
        self.opt_ref(m.target)
            .flag(m.fm)
            .flag(m.expected)
            .opt_flag(m.flag)
            .flag(m.phase_ok)
            .flag(m.winner)
    }
}

/// Reads back what [`Pack`] wrote, in the same order. Each reader returns
/// `None` on a bit pattern no field value packs to.
struct Unpack(u64);

impl Unpack {
    fn bits(&mut self, width: u32) -> u64 {
        let value = self.0 & ((1 << width) - 1);
        self.0 >>= width;
        value
    }

    fn flag(&mut self) -> bool {
        self.bits(1) == 1
    }

    fn opt_ref(&mut self) -> Option<Option<Ref>> {
        match self.bits(7) {
            0 => Some(None),
            n if n <= RefSet::CAPACITY as u64 => Some(Some(Ref::new(n as u8 - 1))),
            _ => None,
        }
    }

    fn opt_flag(&mut self) -> Option<Option<bool>> {
        match self.bits(2) {
            0 => Some(None),
            n @ (1 | 2) => Some(Some(n == 2)),
            _ => None,
        }
    }

    fn mark(&mut self) -> Option<MarkScratch> {
        Some(MarkScratch {
            target: self.opt_ref()?,
            fm: self.flag(),
            expected: self.flag(),
            flag: self.opt_flag()?,
            phase_ok: self.flag(),
            winner: self.flag(),
        })
    }

    /// All bits read: nothing but zeroes may be left.
    fn done(self) -> Option<()> {
        (self.0 == 0).then_some(())
    }
}

/// Scratch registers for an in-flight `mark` operation (Figure 5), shared
/// between the collector and mutator state shapes so a single sub-program
/// implements marking for both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct MarkScratch {
    /// The reference being marked; `None` when no mark is in flight (a
    /// `mark(NULL)` is skipped outright). While set, this register is a
    /// root for reachability purposes (§3.2: the reference loaded by the
    /// deletion barrier is a root for the duration of the marking).
    pub target: Option<Ref>,
    /// The `f_M` value loaded at line 2.
    pub fm: bool,
    /// `expected ← not f_M`.
    pub expected: bool,
    /// The most recent load of `flag(target)`; `None` if the object was
    /// unmapped at load time (possible only in unsafe ablations).
    pub flag: Option<bool>,
    /// Whether the phase check at line 4 passed.
    pub phase_ok: bool,
    /// Whether this thread won the CAS.
    pub winner: bool,
}

/// The collector's local state (Figure 2's locals plus scratch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcState {
    /// The collector's exact knowledge of `f_M` (it is the sole writer).
    pub fm: bool,
    /// The collector's work-list `W`.
    pub wl: WorkList,
    /// Ghost: the reference inside the CAS window (§3.2).
    pub ghost_honorary_grey: Option<Ref>,
    /// Scratch for the in-flight `mark`.
    pub mark: MarkScratch,
    /// Handshake loop index over mutators.
    pub hs_idx: u8,
    /// The grey object currently being scanned (stays in `wl` until
    /// blackened, per Figure 2 line 30).
    pub scan_src: Option<Ref>,
    /// Field index within the scan of `scan_src`.
    pub scan_fld: u8,
    /// Sweep: the snapshot of the heap domain still to visit.
    pub sweep_refs: RefSet,
    /// Sweep: the reference currently under test.
    pub sweep_cur: Option<Ref>,
    /// Sweep: the loaded flag of `sweep_cur`.
    pub sweep_flag: Option<bool>,
}

impl GcState {
    /// The collector's state at the top of its outer loop, between cycles.
    pub fn initial() -> Self {
        GcState {
            fm: false,
            wl: WorkList::new(),
            ghost_honorary_grey: None,
            mark: MarkScratch::default(),
            hs_idx: 0,
            scan_src: None,
            scan_fld: 0,
            sweep_refs: RefSet::new(),
            sweep_cur: None,
            sweep_flag: None,
        }
    }

    /// The state as words: the two sets, then every other field packed.
    pub(crate) fn words(&self) -> [u64; 3] {
        let scalars = Pack::new()
            .flag(self.fm)
            .opt_ref(self.ghost_honorary_grey)
            .mark(&self.mark)
            .bits(3, u64::from(self.hs_idx))
            .opt_ref(self.scan_src)
            .bits(3, u64::from(self.scan_fld))
            .opt_ref(self.sweep_cur)
            .opt_flag(self.sweep_flag);
        [
            self.wl.as_set().bits(),
            self.sweep_refs.bits(),
            scalars.word(),
        ]
    }

    /// The state [`words`](GcState::words) made `words` from.
    pub(crate) fn from_words([wl, sweep_refs, scalars]: [u64; 3]) -> Option<Self> {
        let mut u = Unpack(scalars);
        let state = GcState {
            fm: u.flag(),
            wl: RefSet::from_bits(wl).into(),
            ghost_honorary_grey: u.opt_ref()?,
            mark: u.mark()?,
            hs_idx: u.bits(3) as u8,
            scan_src: u.opt_ref()?,
            scan_fld: u.bits(3) as u8,
            sweep_refs: RefSet::from_bits(sweep_refs),
            sweep_cur: u.opt_ref()?,
            sweep_flag: u.opt_flag()?,
        };
        u.done()?;
        Some(state)
    }
}

impl Hash for GcState {
    fn hash<H: Hasher>(&self, state: &mut H) {
        feed(state, &self.words());
    }
}

/// A mutator's local state (Figure 6's locals plus scratch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MutState {
    /// This mutator's index (hardware thread id is `1 + idx`).
    pub idx: u8,
    /// The mutator roots (stack/register references).
    pub roots: RefSet,
    /// The private work-list `W_m`.
    pub wl: WorkList,
    /// Ghost: the reference inside the CAS window.
    pub ghost_honorary_grey: Option<Ref>,
    /// Ghost: the handshake phase (bottom row of Figure 3).
    pub ghost_hs_phase: HsPhase,
    /// Ghost: whether this mutator has completed the root-marking handshake
    /// in the current cycle (it is "black" from then on).
    pub ghost_roots_done: bool,
    /// Scratch for the in-flight `mark`.
    pub mark: MarkScratch,
    /// In-flight `Store`: destination (the value being written).
    pub st_dst: Option<Ref>,
    /// In-flight `Store`: object written into.
    pub st_src: Option<Ref>,
    /// In-flight `Store`: field written.
    pub st_fld: u8,
    /// In-flight `Store`: the overwritten (deleted) reference.
    pub st_deleted: Option<Ref>,
    /// Whether a `Store` is in flight (so `st_*` are live).
    pub st_active: bool,
    /// Handshake: the polled handshake type.
    pub hs_type: Option<HsType>,
    /// Handshake: roots still to mark during a get-roots handshake.
    pub roots_to_mark: RefSet,
}

impl MutState {
    /// Mutator `idx` with the given initial roots, between cycles.
    pub fn initial(idx: u8, roots: RefSet) -> Self {
        MutState {
            idx,
            roots,
            wl: WorkList::new(),
            ghost_honorary_grey: None,
            ghost_hs_phase: HsPhase::IdleMarkSweep,
            ghost_roots_done: false,
            mark: MarkScratch::default(),
            st_dst: None,
            st_src: None,
            st_fld: 0,
            st_deleted: None,
            st_active: false,
            hs_type: None,
            roots_to_mark: RefSet::new(),
        }
    }

    /// The references this mutator contributes as roots beyond `roots`
    /// itself: in-flight store operands and the in-flight mark target
    /// (§3.2's extra roots).
    pub fn scratch_roots(&self) -> RefSet {
        let scratch = [
            self.mark.target,
            self.st_dst,
            self.st_src,
            self.st_deleted,
            self.ghost_honorary_grey,
        ];
        scratch.into_iter().flatten().collect()
    }

    /// The state as words: the three sets, then every other field packed.
    pub(crate) fn words(&self) -> [u64; 4] {
        let scalars = Pack::new()
            .bits(3, u64::from(self.idx))
            .opt_ref(self.ghost_honorary_grey)
            .bits(2, self.ghost_hs_phase as u64)
            .flag(self.ghost_roots_done)
            .mark(&self.mark)
            .opt_ref(self.st_dst)
            .opt_ref(self.st_src)
            .bits(3, u64::from(self.st_fld))
            .opt_ref(self.st_deleted)
            .flag(self.st_active)
            .bits(2, self.hs_type.map_or(0, |ty| 1 + ty as u64));
        [
            self.roots.bits(),
            self.wl.as_set().bits(),
            self.roots_to_mark.bits(),
            scalars.word(),
        ]
    }

    /// The state [`words`](MutState::words) made `words` from.
    pub(crate) fn from_words([roots, wl, roots_to_mark, scalars]: [u64; 4]) -> Option<Self> {
        let mut u = Unpack(scalars);
        let state = MutState {
            idx: u.bits(3) as u8,
            roots: RefSet::from_bits(roots),
            wl: RefSet::from_bits(wl).into(),
            ghost_honorary_grey: u.opt_ref()?,
            ghost_hs_phase: HsPhase::ALL[u.bits(2) as usize],
            ghost_roots_done: u.flag(),
            mark: u.mark()?,
            st_dst: u.opt_ref()?,
            st_src: u.opt_ref()?,
            st_fld: u.bits(3) as u8,
            st_deleted: u.opt_ref()?,
            st_active: u.flag(),
            hs_type: u.bits(2).checked_sub(1).map(|ty| HsType::ALL[ty as usize]),
            roots_to_mark: RefSet::from_bits(roots_to_mark),
        };
        u.done()?;
        Some(state)
    }
}

impl Hash for MutState {
    fn hash<H: Hasher>(&self, state: &mut H) {
        feed(state, &self.words());
    }
}

/// The system process's local state: the TSO machine, the heap domain, the
/// handshake apparatus and the staged work-list (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SysState {
    /// The TSO memory shared by collector and mutators.
    pub mem: Machine<Addr, Val>,
    /// The heap domain: which references are allocated.
    pub heap: RefSet,
    /// The current handshake type.
    pub hs_type: HsType,
    /// Per-mutator pending bits (bit `m` ↔ mutator `m`).
    pub hs_pending: u8,
    /// Per-mutator "flagged this round" bits (ghost; reset at `HsBegin`).
    pub ghost_hs_flagged: u8,
    /// The staged work-list mutators transfer into.
    pub w_staged: WorkList,
    /// Ghost: the handshake phase the collector has initiated up to.
    pub ghost_gc_phase: HsPhase,
    /// Ghost: the previous value of `ghost_gc_phase` (for the handshake
    /// phase relation).
    pub ghost_gc_prev_phase: HsPhase,
    /// Ghost: the collector has initiated the root-marking handshake this
    /// cycle (cleared at the next cycle-start noop).
    pub ghost_roots_phase: bool,
}

impl SysState {
    /// Whether mutator `m` has a handshake pending.
    pub fn pending(&self, m: usize) -> bool {
        self.hs_pending & (1 << m) != 0
    }

    /// Whether the collector has flagged mutator `m` this round.
    pub fn flagged(&self, m: usize) -> bool {
        self.ghost_hs_flagged & (1 << m) != 0
    }

    /// The state apart from the machine as words: the two sets, then every
    /// other field packed.
    pub(crate) fn words(&self) -> [u64; 3] {
        let scalars = Pack::new()
            .bits(2, self.hs_type as u64)
            .bits(8, u64::from(self.hs_pending))
            .bits(8, u64::from(self.ghost_hs_flagged))
            .bits(2, self.ghost_gc_phase as u64)
            .bits(2, self.ghost_gc_prev_phase as u64)
            .flag(self.ghost_roots_phase);
        [
            self.heap.bits(),
            self.w_staged.as_set().bits(),
            scalars.word(),
        ]
    }

    /// The state [`words`](SysState::words) made `words` from, around
    /// `mem`.
    pub(crate) fn from_words(
        [heap, w_staged, scalars]: [u64; 3],
        mem: Machine<Addr, Val>,
    ) -> Option<Self> {
        let mut u = Unpack(scalars);
        let state = SysState {
            mem,
            heap: RefSet::from_bits(heap),
            hs_type: *HsType::ALL.get(u.bits(2) as usize)?,
            hs_pending: u.bits(8) as u8,
            ghost_hs_flagged: u.bits(8) as u8,
            w_staged: RefSet::from_bits(w_staged).into(),
            ghost_gc_phase: HsPhase::ALL[u.bits(2) as usize],
            ghost_gc_prev_phase: HsPhase::ALL[u.bits(2) as usize],
            ghost_roots_phase: u.flag(),
        };
        u.done()?;
        Some(state)
    }

    /// Whether hardware thread `tid` may read memory / commit stores.
    pub fn not_blocked(&self, tid: usize) -> bool {
        self.mem.not_blocked(tso_model::ThreadId::new(tid))
    }

    /// The committed (memory) value of `f_M`; pending collector writes are
    /// not visible here.
    pub fn committed_fm(&self) -> bool {
        self.mem.memory(&Addr::FM).is_some_and(|v| v.as_bool())
    }

    /// The committed value of `f_A`.
    pub fn committed_fa(&self) -> bool {
        self.mem.memory(&Addr::FA).is_some_and(|v| v.as_bool())
    }

    /// The committed value of `phase`.
    pub fn committed_phase(&self) -> Phase {
        self.mem
            .memory(&Addr::Phase)
            .map_or(Phase::Idle, |v| v.as_phase())
    }
}

impl Hash for SysState {
    fn hash<H: Hasher>(&self, state: &mut H) {
        feed(state, &self.words());
        self.mem.hash(state);
    }
}

/// The shared local-state type carried by every CIMP process in the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Local {
    /// The collector.
    Gc(GcState),
    /// A mutator.
    Mut(MutState),
    /// The system (TSO memory + handshakes + allocator).
    Sys(SysState),
}

/// Mutators a model can have: each is a hardware thread of the TSO
/// machine, beside the collector's.
pub const MAX_MUTATORS: usize = tso_model::MAX_THREADS - 1;

/// The local states of a global model state, by role: the collector, the
/// mutators, the system. Process `0` is the collector, `1..=n` the mutators,
/// `n + 1` the system.
///
/// Side by side, each role takes its own size; as an array of [`Local`]
/// every slot would be as large as the system's state (the TSO machine),
/// eight times over.
#[derive(Debug, Clone, Copy)]
pub struct Roles {
    /// The collector's state.
    pub gc: GcState,
    mutators: u8,
    muts: [MutState; MAX_MUTATORS],
    /// The system's state.
    pub sys: SysState,
}

impl Roles {
    /// The mutators' states, in index order.
    pub fn mutators(&self) -> &[MutState] {
        &self.muts[..usize::from(self.mutators)]
    }

    /// Mutable access to the mutators' states.
    pub fn mutators_mut(&mut self) -> &mut [MutState] {
        &mut self.muts[..usize::from(self.mutators)]
    }
}

impl cimp::Locals for Roles {
    type Local = Local;

    /// # Panics
    ///
    /// Panics unless `locals` is a collector, one to [`MAX_MUTATORS`]
    /// mutators and a system, in that order.
    fn new(locals: &[Local]) -> Self {
        let [Local::Gc(gc), muts @ .., Local::Sys(sys)] = locals else {
            panic!("a model state is a collector, mutators and a system");
        };
        assert!((1..=MAX_MUTATORS).contains(&muts.len()));
        Roles {
            gc: *gc,
            mutators: muts.len() as u8,
            // Slots past the last mutator are never read; they repeat it.
            muts: std::array::from_fn(|m| *muts[m.min(muts.len() - 1)].mutator()),
            sys: *sys,
        }
    }

    fn get(&self, p: usize) -> Local {
        match p.checked_sub(1) {
            None => Local::Gc(self.gc),
            Some(m) if m < usize::from(self.mutators) => Local::Mut(self.muts[m]),
            Some(_) => Local::Sys(self.sys),
        }
    }

    fn set(&mut self, p: usize, local: Local) {
        match (p.checked_sub(1), local) {
            (None, Local::Gc(gc)) => self.gc = gc,
            (Some(m), Local::Mut(state)) => self.mutators_mut()[m] = state,
            (Some(m), Local::Sys(sys)) if m == usize::from(self.mutators) => self.sys = sys,
            (_, local) => panic!("process {p} is not a {local:?}"),
        }
    }

    /// Hashes the role where it lies, as [`Local`]'s `Hash` would.
    fn hash_local<H: Hasher>(&self, p: usize, state: &mut H) {
        match p.checked_sub(1) {
            None => self.gc.hash(state),
            Some(m) if m < usize::from(self.mutators) => self.muts[m].hash(state),
            Some(_) => self.sys.hash(state),
        }
    }

    /// Compares the role where it lies, as `get(p) == *local` would.
    fn local_eq(&self, p: usize, local: &Local) -> bool {
        let mutators = usize::from(self.mutators);
        match (p.checked_sub(1), local) {
            (None, Local::Gc(gc)) => self.gc == *gc,
            (Some(m), Local::Mut(state)) if m < mutators => self.muts[m] == *state,
            (Some(m), Local::Sys(sys)) if m >= mutators => self.sys == *sys,
            _ => false,
        }
    }
}

/// The role's own words and nothing else: a process never changes role, so
/// the variant is not worth a word of every fingerprint.
impl Hash for Local {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Local::Gc(g) => g.hash(state),
            Local::Mut(m) => m.hash(state),
            Local::Sys(s) => s.hash(state),
        }
    }
}

impl Local {
    /// The hardware-thread id of this process (collector = 0, mutator
    /// `i` = `1 + i`).
    ///
    /// # Panics
    ///
    /// Panics on the system process, which is not a hardware thread.
    pub fn tid(&self) -> usize {
        match self {
            Local::Gc(_) => 0,
            Local::Mut(m) => 1 + m.idx as usize,
            Local::Sys(_) => panic!("the system process has no thread id"),
        }
    }

    /// The collector state.
    ///
    /// # Panics
    ///
    /// Panics if this is not a collector.
    pub fn gc(&self) -> &GcState {
        match self {
            Local::Gc(g) => g,
            other => panic!("expected Gc local state, got {other:?}"),
        }
    }

    /// Mutable collector state.
    ///
    /// # Panics
    ///
    /// Panics if this is not a collector.
    pub fn gc_mut(&mut self) -> &mut GcState {
        match self {
            Local::Gc(g) => g,
            _ => panic!("expected Gc local state"),
        }
    }

    /// The mutator state.
    ///
    /// # Panics
    ///
    /// Panics if this is not a mutator.
    pub fn mutator(&self) -> &MutState {
        match self {
            Local::Mut(m) => m,
            other => panic!("expected Mut local state, got {other:?}"),
        }
    }

    /// Mutable mutator state.
    ///
    /// # Panics
    ///
    /// Panics if this is not a mutator.
    pub fn mutator_mut(&mut self) -> &mut MutState {
        match self {
            Local::Mut(m) => m,
            _ => panic!("expected Mut local state"),
        }
    }

    /// The system state.
    ///
    /// # Panics
    ///
    /// Panics if this is not the system.
    pub fn sys(&self) -> &SysState {
        match self {
            Local::Sys(s) => s,
            other => panic!("expected Sys local state, got {other:?}"),
        }
    }

    /// Mutable system state.
    ///
    /// # Panics
    ///
    /// Panics if this is not the system.
    pub fn sys_mut(&mut self) -> &mut SysState {
        match self {
            Local::Sys(s) => s,
            _ => panic!("expected Sys local state"),
        }
    }

    /// The mark scratch of a collector or mutator.
    ///
    /// # Panics
    ///
    /// Panics on the system process.
    pub fn mark(&self) -> &MarkScratch {
        match self {
            Local::Gc(g) => &g.mark,
            Local::Mut(m) => &m.mark,
            Local::Sys(_) => panic!("the system process does not mark"),
        }
    }

    /// Mutable mark scratch.
    ///
    /// # Panics
    ///
    /// Panics on the system process.
    pub fn mark_mut(&mut self) -> &mut MarkScratch {
        match self {
            Local::Gc(g) => &mut g.mark,
            Local::Mut(m) => &mut m.mark,
            Local::Sys(_) => panic!("the system process does not mark"),
        }
    }

    /// The work-list of a collector or mutator.
    ///
    /// # Panics
    ///
    /// Panics on the system process.
    pub fn wl_mut(&mut self) -> &mut WorkList {
        match self {
            Local::Gc(g) => &mut g.wl,
            Local::Mut(m) => &mut m.wl,
            Local::Sys(_) => panic!("the system process has no private work-list"),
        }
    }

    /// The honorary-grey ghost of a collector or mutator.
    ///
    /// # Panics
    ///
    /// Panics on the system process.
    pub fn ghg_mut(&mut self) -> &mut Option<Ref> {
        match self {
            Local::Gc(g) => &mut g.ghost_honorary_grey,
            Local::Mut(m) => &mut m.ghost_honorary_grey,
            Local::Sys(_) => panic!("the system process has no honorary grey"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_dispatch() {
        let mut l = Local::Gc(GcState::initial());
        assert!(!l.gc().fm);
        l.gc_mut().fm = true;
        assert!(l.gc().fm);
        l.mark_mut().winner = true;
        assert!(l.mark().winner);
        l.wl_mut().insert(Ref::new(0));
        assert_eq!(l.gc().wl.len(), 1);
    }

    #[test]
    #[should_panic(expected = "expected Mut")]
    fn wrong_accessor_panics() {
        let l = Local::Gc(GcState::initial());
        let _ = l.mutator();
    }

    /// `Roles` compares a role where it lies exactly as comparing the
    /// `Local` it hands out would, for every process against every
    /// process's state along a random walk of three mutators.
    #[test]
    fn roles_compare_in_place_as_their_locals_do() {
        use cimp::Locals;
        use mc::TransitionSystem;
        let model = crate::GcModel::new(crate::ModelConfig::small(3, 5));
        let mut state = model.initial_states()[0];
        let mut rng = 7u64;
        for _ in 0..300 {
            let n = state.len();
            for p in 0..n {
                for q in 0..n {
                    let other = state.local(q);
                    let same = state.local(p) == other;
                    assert_eq!(state.locals().local_eq(p, &other), same, "{p} vs {q}");
                }
            }
            let succs = model.successors(&state);
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state = succs[(rng >> 33) as usize % succs.len()].1;
        }
    }

    #[test]
    fn scratch_roots_collects_inflight_refs() {
        let mut m = MutState::initial(0, RefSet::new());
        assert!(m.scratch_roots().is_empty());
        m.st_dst = Some(Ref::new(1));
        m.mark.target = Some(Ref::new(2));
        let roots = m.scratch_roots();
        assert!(roots.contains(Ref::new(1)) && roots.contains(Ref::new(2)));
    }
}
