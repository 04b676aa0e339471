//! The model's shared vocabulary: memory addresses and values, collector
//! phases, handshake types and phases, and the request/response messages
//! exchanged with the system process.

use std::fmt;

use gc_types::{Ref, RefSet, WorkList};
use tso_model::Cell;

/// Reference fields an object can have: with 64 references, three control
/// variables, a flag and this many fields per object, every [`Addr`] has a
/// byte of its own.
pub const MAX_FIELDS: usize = 2;

/// A shared-memory address, all of which are subject to TSO (§3.1: "We make
/// all of the garbage collector's control variables (fA, fM, phase) subject
/// to TSO, as well as all operations on objects").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Addr {
    /// The allocation-color flag `f_A`.
    FA,
    /// The mark-sense flag `f_M`.
    FM,
    /// The collector phase variable.
    Phase,
    /// The mark flag in the header of the object at the given reference.
    Flag(Ref),
    /// A reference field of the object at the given reference.
    Field(Ref, u8),
}

/// Control variables first, then flags, then fields — the order of `Ord`.
impl Cell for Addr {
    fn to_byte(self) -> u8 {
        match self {
            Addr::FA => 0,
            Addr::FM => 1,
            Addr::Phase => 2,
            Addr::Flag(r) => 3 + r.index() as u8,
            Addr::Field(r, f) => FIELD_BASE + r.index() as u8 * MAX_FIELDS as u8 + f,
        }
    }

    fn from_byte(byte: u8) -> Self {
        match byte {
            0 => Addr::FA,
            1 => Addr::FM,
            2 => Addr::Phase,
            3..FIELD_BASE => Addr::Flag(Ref::new(byte - 3)),
            _ => {
                let at = byte - FIELD_BASE;
                Addr::Field(Ref::new(at / MAX_FIELDS as u8), at % MAX_FIELDS as u8)
            }
        }
    }
}

/// The byte of `Addr::Field(r0, 0)`: three control variables and one flag
/// per representable reference come before it.
const FIELD_BASE: u8 = 3 + RefSet::CAPACITY as u8;

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Addr::FA => write!(f, "fA"),
            Addr::FM => write!(f, "fM"),
            Addr::Phase => write!(f, "phase"),
            Addr::Flag(r) => write!(f, "flag({r})"),
            Addr::Field(r, fld) => write!(f, "{r}.f{fld}"),
        }
    }
}

/// A shared-memory value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Val {
    /// A flag value (`f_A`, `f_M`, or an object mark flag).
    Bool(bool),
    /// A collector phase.
    Phase(Phase),
    /// A reference or `NULL` (an object field).
    Ref(Option<Ref>),
}

impl Cell for Val {
    fn to_byte(self) -> u8 {
        match self {
            Val::Bool(b) => u8::from(b),
            Val::Phase(p) => 2 + p as u8,
            Val::Ref(None) => 6,
            Val::Ref(Some(r)) => 7 + r.index() as u8,
        }
    }

    fn from_byte(byte: u8) -> Self {
        match byte {
            0 | 1 => Val::Bool(byte == 1),
            2..6 => Val::Phase(Phase::ALL[usize::from(byte - 2)]),
            6 => Val::Ref(None),
            _ => Val::Ref(Some(Ref::new(byte - 7))),
        }
    }
}

impl Val {
    /// The boolean payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is not a `Bool`.
    pub fn as_bool(&self) -> bool {
        match self {
            Val::Bool(b) => *b,
            other => panic!("expected Bool, got {other:?}"),
        }
    }

    /// The phase payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is not a `Phase`.
    pub fn as_phase(&self) -> Phase {
        match self {
            Val::Phase(p) => *p,
            other => panic!("expected Phase, got {other:?}"),
        }
    }

    /// The reference payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is not a `Ref`.
    pub fn as_ref_val(&self) -> Option<Ref> {
        match self {
            Val::Ref(r) => *r,
            other => panic!("expected Ref, got {other:?}"),
        }
    }
}

/// The collector's control phase (Figure 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Phase {
    /// Between collection cycles; write barriers are disabled.
    #[default]
    Idle,
    /// The heap has been whitened; barriers are being enabled.
    Init,
    /// Tracing is in progress.
    Mark,
    /// Unmarked objects are being freed.
    Sweep,
}

impl Phase {
    /// Every phase, in declaration order (`ALL[p as usize] == p`).
    pub const ALL: [Phase; 4] = [Phase::Idle, Phase::Init, Phase::Mark, Phase::Sweep];
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Phase::Idle => "Idle",
            Phase::Init => "Init",
            Phase::Mark => "Mark",
            Phase::Sweep => "Sweep",
        };
        write!(f, "{s}")
    }
}

/// The type of a soft handshake (§3.2 "Handshakes": noop, mark roots, mark
/// loop termination).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum HsType {
    /// Acknowledge a control-state change; no work.
    #[default]
    Noop,
    /// Mark own roots into `W_m`, then transfer `W_m`.
    GetRoots,
    /// Transfer `W_m` (mark-loop termination polling).
    GetWork,
}

impl HsType {
    /// Every handshake type, in declaration order (`ALL[h as usize] == h`).
    pub const ALL: [HsType; 3] = [HsType::Noop, HsType::GetRoots, HsType::GetWork];
}

impl fmt::Display for HsType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            HsType::Noop => "noop",
            HsType::GetRoots => "get-roots",
            HsType::GetWork => "get-work",
        };
        write!(f, "{s}")
    }
}

/// The handshake phase (bottom row of Figure 3): a coarse system-wide
/// program counter derived from how many handshakes a participant has
/// initiated (collector) or completed (mutator) in the current cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HsPhase {
    /// Completed the idle (cycle-start) noop handshake.
    Idle,
    /// Completed the noop handshake that communicates the `f_M` flip.
    IdleInit,
    /// Completed the noop handshake that communicates `phase = Init`.
    InitMark,
    /// Completed the noop handshake that communicates `phase = Mark` and the
    /// `f_A` flip; stays here through root marking, the mark loop, and sweep.
    IdleMarkSweep,
}

impl HsPhase {
    /// Every handshake phase, in declaration order (`ALL[h as usize] == h`).
    pub const ALL: [HsPhase; 4] = [
        HsPhase::Idle,
        HsPhase::IdleInit,
        HsPhase::InitMark,
        HsPhase::IdleMarkSweep,
    ];

    /// The handshake phase entered by completing (mutator) or initiating
    /// (collector) a handshake of type `hs` while in `self`.
    ///
    /// In the faithful model, root/work handshakes only ever occur in
    /// `IdleMarkSweep`; the transition is total so that the
    /// handshake-skipping ablations (§4's observation) remain executable —
    /// their ghost phases are then merely labels, and only the
    /// phase-independent invariants are meaningful for them.
    pub fn step(self, hs: HsType) -> HsPhase {
        match hs {
            HsType::Noop => match self {
                HsPhase::IdleMarkSweep => HsPhase::Idle,
                HsPhase::Idle => HsPhase::IdleInit,
                HsPhase::IdleInit => HsPhase::InitMark,
                HsPhase::InitMark => HsPhase::IdleMarkSweep,
            },
            HsType::GetRoots | HsType::GetWork => HsPhase::IdleMarkSweep,
        }
    }
}

impl fmt::Display for HsPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            HsPhase::Idle => "hp_Idle",
            HsPhase::IdleInit => "hp_IdleInit",
            HsPhase::InitMark => "hp_InitMark",
            HsPhase::IdleMarkSweep => "hp_IdleMarkSweep",
        };
        write!(f, "{s}")
    }
}

/// A request α sent to the system process: the issuing hardware thread plus
/// the operation (Figure 9, extended with the handshake and allocation
/// operations of §3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Req {
    /// The issuing hardware thread (0 = collector, 1+i = mutator i).
    pub tid: usize,
    /// The requested operation.
    pub kind: ReqKind,
}

/// The operation requested of the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReqKind {
    /// A TSO load.
    Read(Addr),
    /// A TSO store (buffered).
    Write(Addr, Val),
    /// An `MFENCE`: answered only when the thread's buffer is empty.
    MFence,
    /// Take the bus lock.
    Lock,
    /// Release the bus lock (requires a drained buffer).
    Unlock,
    /// Atomically allocate a fresh object, mark flag = the committed `f_A`.
    Alloc,
    /// Atomically free the object (sweep only).
    Free(Ref),
    /// Read the heap domain (sweep's `refs ← heap`).
    HeapSnapshot,
    /// Collector: begin a handshake round of the given type.
    HsBegin(HsType),
    /// Collector: set the pending bit of mutator `m`.
    HsPend(u8),
    /// Collector: answered only when every pending bit is clear; the
    /// response carries the staged work-list.
    HsAwait,
    /// Mutator `m`: answered only when `m`'s pending bit is set; returns
    /// the handshake type.
    HsPoll(u8),
    /// Mutator `m`: transfer its work-list and clear its pending bit
    /// (requires a drained buffer — the completing store fence).
    HsComplete(u8, WorkList),
}

/// The rendezvous kind of each operation ([`cimp::Keyed`]): the system
/// process answers every operation with the one response keyed like it.
pub mod key {
    /// [`ReqKind::Read`](super::ReqKind::Read).
    pub const READ: u8 = 0;
    /// [`ReqKind::Write`](super::ReqKind::Write).
    pub const WRITE: u8 = 1;
    /// [`ReqKind::MFence`](super::ReqKind::MFence).
    pub const MFENCE: u8 = 2;
    /// [`ReqKind::Lock`](super::ReqKind::Lock).
    pub const LOCK: u8 = 3;
    /// [`ReqKind::Unlock`](super::ReqKind::Unlock).
    pub const UNLOCK: u8 = 4;
    /// [`ReqKind::Alloc`](super::ReqKind::Alloc).
    pub const ALLOC: u8 = 5;
    /// [`ReqKind::Free`](super::ReqKind::Free).
    pub const FREE: u8 = 6;
    /// [`ReqKind::HeapSnapshot`](super::ReqKind::HeapSnapshot).
    pub const HEAP_SNAPSHOT: u8 = 7;
    /// [`ReqKind::HsBegin`](super::ReqKind::HsBegin).
    pub const HS_BEGIN: u8 = 8;
    /// [`ReqKind::HsPend`](super::ReqKind::HsPend).
    pub const HS_PEND: u8 = 9;
    /// [`ReqKind::HsAwait`](super::ReqKind::HsAwait).
    pub const HS_AWAIT: u8 = 10;
    /// [`ReqKind::HsPoll`](super::ReqKind::HsPoll).
    pub const HS_POLL: u8 = 11;
    /// [`ReqKind::HsComplete`](super::ReqKind::HsComplete).
    pub const HS_COMPLETE: u8 = 12;
}

impl cimp::Keyed for Req {
    fn kind(&self) -> u8 {
        match self.kind {
            ReqKind::Read(_) => key::READ,
            ReqKind::Write(..) => key::WRITE,
            ReqKind::MFence => key::MFENCE,
            ReqKind::Lock => key::LOCK,
            ReqKind::Unlock => key::UNLOCK,
            ReqKind::Alloc => key::ALLOC,
            ReqKind::Free(_) => key::FREE,
            ReqKind::HeapSnapshot => key::HEAP_SNAPSHOT,
            ReqKind::HsBegin(_) => key::HS_BEGIN,
            ReqKind::HsPend(_) => key::HS_PEND,
            ReqKind::HsAwait => key::HS_AWAIT,
            ReqKind::HsPoll(_) => key::HS_POLL,
            ReqKind::HsComplete(..) => key::HS_COMPLETE,
        }
    }
}

impl fmt::Display for Req {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let t = self.tid;
        match &self.kind {
            ReqKind::Read(a) => write!(f, "t{t}: read {a}"),
            ReqKind::Write(a, v) => write!(f, "t{t}: {a} := {v:?}"),
            ReqKind::MFence => write!(f, "t{t}: mfence"),
            ReqKind::Lock => write!(f, "t{t}: lock"),
            ReqKind::Unlock => write!(f, "t{t}: unlock"),
            ReqKind::Alloc => write!(f, "t{t}: alloc"),
            ReqKind::Free(r) => write!(f, "t{t}: free {r}"),
            ReqKind::HeapSnapshot => write!(f, "t{t}: heap-snapshot"),
            ReqKind::HsBegin(ty) => write!(f, "t{t}: hs-begin {ty}"),
            ReqKind::HsPend(m) => write!(f, "t{t}: hs-pend mut{m}"),
            ReqKind::HsAwait => write!(f, "t{t}: hs-await"),
            ReqKind::HsPoll(m) => write!(f, "t{t}: hs-poll mut{m}"),
            ReqKind::HsComplete(m, wl) => {
                write!(f, "t{t}: hs-complete mut{m} (|Wm|={})", wl.len())
            }
        }
    }
}

/// A response β from the system process.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resp {
    /// No payload.
    Void,
    /// A load result; `None` means the address is unmapped (freed object).
    Loaded(Option<Val>),
    /// A freshly allocated reference.
    Allocated(Ref),
    /// The heap domain.
    Domain(RefSet),
    /// The staged work-list.
    Work(WorkList),
    /// The pending handshake's type.
    Handshake(HsType),
}

/// As derived, except that the heap domain prints as the list it used to
/// be (`Domain([Ref(0), Ref(1)])`): counterexample traces print responses
/// this way and are compared byte for byte against recorded ones.
impl fmt::Debug for Resp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Resp::Void => f.write_str("Void"),
            Resp::Loaded(v) => f.debug_tuple("Loaded").field(v).finish(),
            Resp::Allocated(r) => f.debug_tuple("Allocated").field(r).finish(),
            Resp::Domain(refs) => {
                f.write_str("Domain(")?;
                f.debug_list().entries(refs.iter()).finish()?;
                f.write_str(")")
            }
            Resp::Work(w) => f.debug_tuple("Work").field(w).finish(),
            Resp::Handshake(ty) => f.debug_tuple("Handshake").field(ty).finish(),
        }
    }
}

impl Resp {
    /// The load result.
    ///
    /// # Panics
    ///
    /// Panics if the response is not `Loaded`.
    pub fn loaded(&self) -> Option<Val> {
        match self {
            Resp::Loaded(v) => *v,
            other => panic!("expected Loaded, got {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hs_phase_cycle() {
        let mut p = HsPhase::IdleMarkSweep;
        p = p.step(HsType::Noop);
        assert_eq!(p, HsPhase::Idle);
        p = p.step(HsType::Noop);
        assert_eq!(p, HsPhase::IdleInit);
        p = p.step(HsType::Noop);
        assert_eq!(p, HsPhase::InitMark);
        p = p.step(HsType::Noop);
        assert_eq!(p, HsPhase::IdleMarkSweep);
        p = p.step(HsType::GetRoots);
        assert_eq!(p, HsPhase::IdleMarkSweep);
        p = p.step(HsType::GetWork);
        assert_eq!(p, HsPhase::IdleMarkSweep);
    }

    #[test]
    fn get_roots_jumps_to_mark_sweep_from_anywhere() {
        // Exercised only by the handshake-skipping ablations.
        assert_eq!(HsPhase::Idle.step(HsType::GetRoots), HsPhase::IdleMarkSweep);
        assert_eq!(
            HsPhase::IdleInit.step(HsType::GetWork),
            HsPhase::IdleMarkSweep
        );
    }

    #[test]
    fn every_address_and_value_has_its_own_byte() {
        let refs = (0..RefSet::CAPACITY as u8).map(Ref::new);
        let mut addrs = vec![Addr::FA, Addr::FM, Addr::Phase];
        addrs.extend(refs.clone().map(Addr::Flag));
        addrs.extend(
            refs.clone()
                .flat_map(|r| (0..MAX_FIELDS as u8).map(move |f| Addr::Field(r, f))),
        );
        // `Ord` on `Addr` and on its bytes agree, and the bytes are dense.
        assert!(addrs.is_sorted());
        for (byte, a) in addrs.iter().enumerate() {
            assert_eq!(usize::from(a.to_byte()), byte);
            assert_eq!(Addr::from_byte(byte as u8), *a);
        }
        let mut vals = vec![Val::Bool(false), Val::Bool(true)];
        vals.extend(Phase::ALL.map(Val::Phase));
        vals.push(Val::Ref(None));
        vals.extend(refs.map(|r| Val::Ref(Some(r))));
        for (byte, v) in vals.iter().enumerate() {
            assert_eq!(usize::from(v.to_byte()), byte);
            assert_eq!(Val::from_byte(byte as u8), *v);
        }
    }

    #[test]
    fn responses_print_as_the_recorded_traces_have_them() {
        let refs: RefSet = [Ref::new(0), Ref::new(1)].into_iter().collect();
        assert_eq!(
            format!("{:?}", Resp::Domain(refs)),
            "Domain([Ref(0), Ref(1)])"
        );
        let work = Resp::Work(refs.iter().collect());
        assert_eq!(
            format!("{work:?}"),
            "Work(WorkList { refs: {Ref(0), Ref(1)} })"
        );
        let loaded = Resp::Loaded(Some(Val::Ref(None)));
        assert_eq!(format!("{loaded:?}"), "Loaded(Some(Ref(None)))");
        assert_eq!(
            format!("{:?}", Resp::Handshake(HsType::Noop)),
            "Handshake(Noop)"
        );
    }

    #[test]
    fn val_accessors() {
        assert!(Val::Bool(true).as_bool());
        assert_eq!(Val::Phase(Phase::Mark).as_phase(), Phase::Mark);
        assert_eq!(Val::Ref(None).as_ref_val(), None);
    }

    #[test]
    #[should_panic(expected = "expected Bool")]
    fn val_accessor_type_mismatch_panics() {
        let _ = Val::Phase(Phase::Idle).as_bool();
    }

    #[test]
    fn display_forms() {
        assert_eq!(Addr::Field(Ref::new(2), 1).to_string(), "r2.f1");
        assert_eq!(Addr::Flag(Ref::new(0)).to_string(), "flag(r0)");
        let req = Req {
            tid: 1,
            kind: ReqKind::Read(Addr::FM),
        };
        assert_eq!(req.to_string(), "t1: read fM");
    }
}
