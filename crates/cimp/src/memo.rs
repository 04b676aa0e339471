//! The memo of a process's enabled steps, by its exact slot value.
//!
//! A process's local steps (the `→γ` relation of Figure 7) read its own
//! control stack and local state and nothing else: branch conditions, local
//! operations and request values α are functions of that pair, which no
//! other process can write. So what [`for_each_enabled_step`] yields for a
//! process is a function of its *slot* `(stack, local)`, and a search that
//! meets one slot in many states need walk the program for it only once.
//! A [`Memo`] keeps that walk's result for every slot it has met, keyed by
//! the exact slot value:
//!
//! - each τ step, as the `LocalOp` taken and the [entry](Entry) of the slot
//!   it leads to, whose stack, local state and digest a successor copies in
//!   place of running the operation and hashing its result;
//! - the offered requests, each with its α, and the offered responses, as
//!   one [`Offers`] list. A program offers the same list from many slots —
//!   the paper's system process offers its thirteen responses at its one
//!   loop head whatever its state — so each distinct list is stored once.
//!
//! Each distinct slot is one entry, and each distinct control stack is kept
//! once beside them, so an entry costs its local state, its digest and 56
//! bytes more, plus its word of the index. Lookups take no lock and write no shared word: entries live in
//! append-only [`Pages`], found through an open-addressed index of atomic
//! words keyed by the slot's digest, and every candidate is compared with
//! the full `(stack, local)` before it is used — the 64-bit digest alone is
//! never trusted. Only a miss takes the memo's lock, to add the slot and the
//! slots its τ steps lead to.
//!
//! Since each slot is one entry, an entry's `u32` id names its slot: a
//! [`SystemState`](crate::SystemState) carries the ids of its slots, and
//! [`System::encode`](crate::System::encode) writes a state as them.
//!
//! [`for_each_enabled_step`]: crate::step::for_each_enabled_step

use std::collections::hash_map::{DefaultHasher, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::program::ComId;
use crate::step::Stack;

/// Elements per page of a [`Pages`].
const PAGE: usize = 16;
/// Directory chunks of a [`Pages`]: chunk `k` holds `1 << k` pages, so
/// together they hold every `u32` index.
const CHUNKS: usize = 29;
/// The id no entry has: [`Memo::add`] and [`Memo::fill`] never issue it.
pub(crate) const NO_ID: u32 = u32::MAX;
/// Slots of the index's first generation; each later one doubles it, and
/// [`INDEXES`] of them hold every `u32` id at three quarters full.
const FIRST_INDEX: usize = 64;
const INDEXES: usize = 28;

/// An append-only array read without a lock: elements sit in pages of
/// [`PAGE`], found through a directory of chunks that double in size, and
/// nothing is allocated before the first element. Writers must be
/// serialised by the caller.
struct Pages<T> {
    chunks: [OnceLock<Cells<Cells<T>>>; CHUNKS],
}

/// Cells each set at most once: a chunk of pages, or a page of elements.
type Cells<T> = Box<[OnceLock<T>]>;

impl<T> Pages<T> {
    fn new() -> Self {
        Pages {
            chunks: std::array::from_fn(|_| OnceLock::new()),
        }
    }

    /// The chunk, page within it and place within the page of element `i`.
    fn locate(i: u32) -> (usize, usize, usize) {
        let page = i as usize / PAGE + 1;
        let chunk = (usize::BITS - 1 - page.leading_zeros()) as usize;
        (chunk, page - (1 << chunk), i as usize % PAGE)
    }

    /// Element `i`, if it has been set.
    fn try_get(&self, i: u32) -> Option<&T> {
        let (chunk, page, at) = Self::locate(i);
        self.chunks[chunk].get()?[page].get()?[at].get()
    }

    /// Element `i`.
    ///
    /// # Panics
    ///
    /// Panics if element `i` has not been set.
    fn get(&self, i: u32) -> &T {
        self.try_get(i).expect("an element that was set")
    }

    /// Sets element `i`, which must be unset.
    fn set(&self, i: u32, value: T) {
        let (chunk, page, at) = Self::locate(i);
        let pages = self.chunks[chunk].get_or_init(|| fresh(1 << chunk));
        let elements = pages[page].get_or_init(|| fresh(PAGE));
        assert!(elements[at].set(value).is_ok(), "element {i} is set once");
    }
}

/// `len` unset cells.
fn fresh<T>(len: usize) -> Cells<T> {
    (0..len).map(|_| OnceLock::new()).collect()
}

/// A τ step: the `LocalOp` taken, and the entry of the slot it leads to.
#[derive(Clone, Copy)]
pub(crate) struct TauStep {
    pub(crate) com: ComId,
    pub(crate) target: u32,
}

impl TauStep {
    const NONE: TauStep = TauStep {
        com: ComId::from_raw(0),
        target: 0,
    };
}

/// A slot's τ steps: up to two inline — most slots have one or none.
enum Taus {
    Few(u8, [TauStep; 2]),
    Many(Box<[TauStep]>),
}

impl Taus {
    fn new(taus: Vec<TauStep>) -> Self {
        match *taus {
            [] => Taus::Few(0, [TauStep::NONE; 2]),
            [a] => Taus::Few(1, [a, TauStep::NONE]),
            [a, b] => Taus::Few(2, [a, b]),
            _ => Taus::Many(taus.into()),
        }
    }

    fn as_slice(&self) -> &[TauStep] {
        match self {
            Taus::Few(len, taus) => &taus[..usize::from(*len)],
            Taus::Many(taus) => taus,
        }
    }
}

/// An offered `Request`: the command, the α it offers, and the stack after
/// the rendezvous (an id of the memo's stacks).
#[derive(PartialEq)]
pub(crate) struct SendOffer<Req> {
    pub(crate) com: ComId,
    pub(crate) req: Req,
    pub(crate) stack: u32,
}

/// An offered `Response`: the command, the kind of request it answers, and
/// the stack after the rendezvous (an id of the memo's stacks).
#[derive(PartialEq)]
pub(crate) struct RecvOffer {
    pub(crate) com: ComId,
    pub(crate) kind: u8,
    pub(crate) stack: u32,
}

/// What a slot offers for rendezvous, each kind in the order its program's
/// walk lists it.
#[derive(PartialEq)]
pub(crate) struct Offers<Req> {
    pub(crate) sends: Box<[SendOffer<Req>]>,
    pub(crate) recvs: Box<[RecvOffer]>,
}

/// What an expanded slot steps to.
pub(crate) struct Steps {
    taus: Taus,
    offers: u32,
}

impl Steps {
    /// The τ steps, in the order the walk lists them.
    pub(crate) fn taus(&self) -> &[TauStep] {
        self.taus.as_slice()
    }
}

/// One distinct slot: its value, its digest, and — once the slot has been
/// expanded rather than only reached — its steps.
pub(crate) struct Entry<S> {
    pub(crate) local: S,
    pub(crate) digest: u64,
    /// The id of the slot's control stack among the memo's stacks.
    pub(crate) stack: u32,
    steps: OnceLock<Steps>,
}

impl<S> Entry<S> {
    /// The slot's steps, if it has been expanded.
    pub(crate) fn steps(&self) -> Option<&Steps> {
        self.steps.get()
    }
}

/// A slot as a miss walked it: its steps, each τ step with the slot it
/// leads to and that slot's digest.
pub(crate) struct Walked<S, Req> {
    pub(crate) taus: Vec<(ComId, Stack, S, u64)>,
    pub(crate) sends: Vec<(ComId, Req, Stack)>,
    pub(crate) recvs: Vec<(ComId, u8, Stack)>,
}

/// What only the holder of the lock touches.
#[derive(Default)]
struct Writer {
    entries: u32,
    /// Each distinct stack's id.
    stacks: HashMap<Stack, u32>,
    /// The ids of the offer lists, by a hash of their commands and stacks.
    offers: HashMap<u64, Vec<u32>>,
    offer_lists: u32,
}

/// One process's memo. Empty until its first miss: building one allocates
/// nothing.
pub(crate) struct Memo<S, Req> {
    entries: Pages<Entry<S>>,
    stacks: Pages<Stack>,
    offers: Pages<Offers<Req>>,
    /// The index's generations, each twice the size of the one before.
    /// Readers of an older one may miss what was added since, and take the
    /// lock to find it; it stays allocated as long as the memo.
    indexes: [OnceLock<Box<[AtomicU64]>>; INDEXES],
    /// How many generations are published: the newest is `published - 1`.
    published: AtomicUsize,
    writer: Mutex<Writer>,
}

/// An index word: the digest's high half beside the entry's id plus one;
/// zero is an empty slot.
fn word(id: u32, digest: u64) -> u64 {
    (digest >> 32) << 32 | u64::from(id + 1)
}

/// Puts `id` in the first empty slot of `index` from `digest`'s home. Only
/// the lock holder writes an index, so its own loads need no ordering; the
/// `Release` store pairs with [`Memo::find`]'s `Acquire` load, which so
/// sees entry `id` set.
fn place(index: &[AtomicU64], id: u32, digest: u64) {
    let mask = index.len() - 1;
    let mut at = digest as usize & mask;
    while index[at].load(Ordering::Relaxed) != 0 {
        at = (at + 1) & mask;
    }
    index[at].store(word(id, digest), Ordering::Release);
}

impl<S: Copy + Eq, Req: PartialEq> Memo<S, Req> {
    pub(crate) fn new() -> Self {
        Memo {
            entries: Pages::new(),
            stacks: Pages::new(),
            offers: Pages::new(),
            indexes: std::array::from_fn(|_| OnceLock::new()),
            published: AtomicUsize::new(0),
            writer: Mutex::new(Writer::default()),
        }
    }

    /// Entry `id`.
    pub(crate) fn get(&self, id: u32) -> &Entry<S> {
        self.entries.get(id)
    }

    /// Entry `id`, if the memo has issued it.
    pub(crate) fn try_get(&self, id: u32) -> Option<&Entry<S>> {
        self.entries.try_get(id)
    }

    /// Stack `id`.
    pub(crate) fn stack(&self, id: u32) -> &Stack {
        self.stacks.get(id)
    }

    /// The control stack of `entry`'s slot.
    pub(crate) fn stack_of(&self, entry: &Entry<S>) -> &Stack {
        self.stack(entry.stack)
    }

    /// What `steps` offers for rendezvous.
    pub(crate) fn offers(&self, steps: &Steps) -> &Offers<Req> {
        self.offers.get(steps.offers)
    }

    /// The newest published generation of the index. The `Acquire` load
    /// pairs with the `Release` store that published it, after it was set
    /// and filled.
    fn index(&self) -> Option<&[AtomicU64]> {
        let generation = self.published.load(Ordering::Acquire).checked_sub(1)?;
        Some(self.indexes[generation].get().expect("a published index"))
    }

    /// The id and entry of the slot with control `stack` and digest
    /// `digest` whose local state `is_local` accepts, if the memo holds it.
    pub(crate) fn find(
        &self,
        stack: &Stack,
        digest: u64,
        is_local: impl Fn(&S) -> bool,
    ) -> Option<(u32, &Entry<S>)> {
        let index = self.index()?;
        let mask = index.len() - 1;
        let mut at = digest as usize & mask;
        loop {
            let word = index[at].load(Ordering::Acquire);
            if word == 0 {
                return None;
            }
            if word >> 32 == digest >> 32 {
                let id = word as u32 - 1;
                let entry = self.get(id);
                if entry.digest == digest && is_local(&entry.local) && self.stack_of(entry) == stack
                {
                    return Some((id, entry));
                }
            }
            at = (at + 1) & mask;
        }
    }

    /// The id of `stack`, added if new.
    fn intern_stack(&self, writer: &mut Writer, stack: Stack) -> u32 {
        let next = writer.stacks.len() as u32;
        *writer.stacks.entry(stack).or_insert_with(|| {
            self.stacks.set(next, stack);
            next
        })
    }

    /// The id of slot `(stack, local)`, added if new. The caller holds the
    /// lock, so the newest index holds every entry.
    fn intern(&self, writer: &mut Writer, stack: Stack, local: S, digest: u64) -> u32 {
        if let Some((id, _)) = self.find(&stack, digest, |other| *other == local) {
            return id;
        }
        let id = writer.entries;
        assert!(id < NO_ID, "a memo issues fewer than {NO_ID} ids");
        let entry = Entry {
            local,
            digest,
            stack: self.intern_stack(writer, stack),
            steps: OnceLock::new(),
        };
        self.entries.set(id, entry);
        writer.entries += 1;
        match self.index() {
            Some(index) if writer.entries as usize * 4 <= index.len() * 3 => {
                place(index, id, digest)
            }
            _ => {
                // Publish a generation twice the size, holding every entry.
                // Only the lock holder changes the count.
                let generation = self.published.load(Ordering::Relaxed);
                let index: Box<[AtomicU64]> = (0..FIRST_INDEX << generation)
                    .map(|_| AtomicU64::new(0))
                    .collect();
                for old in 0..writer.entries {
                    place(&index, old, self.get(old).digest);
                }
                assert!(self.indexes[generation].set(index).is_ok());
                self.published.store(generation + 1, Ordering::Release);
            }
        }
        id
    }

    /// The id of the list `offers`, added if new.
    fn intern_offers(&self, writer: &mut Writer, offers: Offers<Req>) -> u32 {
        let mut hasher = DefaultHasher::new();
        for send in &offers.sends {
            (0u8, send.com, send.stack).hash(&mut hasher);
        }
        for recv in &offers.recvs {
            (1u8, recv.com, recv.kind, recv.stack).hash(&mut hasher);
        }
        let ids = writer.offers.entry(hasher.finish()).or_default();
        if let Some(&id) = ids.iter().find(|&&id| *self.offers.get(id) == offers) {
            return id;
        }
        let id = writer.offer_lists;
        self.offers.set(id, offers);
        ids.push(id);
        writer.offer_lists += 1;
        id
    }

    /// The id of slot `(stack, local)`, whose digest is `digest`: added
    /// unexpanded if new.
    pub(crate) fn add(&self, stack: &Stack, local: &S, digest: u64) -> u32 {
        let mut writer = self.writer.lock().expect("no panic mid-insert");
        self.intern(&mut writer, *stack, *local, digest)
    }

    /// The id and entry of slot `(stack, local)` with its steps set to
    /// `walked`: the slot and the slots its τ steps lead to are added if
    /// new. Should another thread have filled the entry first, its steps
    /// stand.
    pub(crate) fn fill(
        &self,
        stack: &Stack,
        local: &S,
        digest: u64,
        walked: Walked<S, Req>,
    ) -> (u32, &Entry<S>) {
        let mut writer = self.writer.lock().expect("no panic mid-insert");
        let writer = &mut *writer;
        let id = self.intern(writer, *stack, *local, digest);
        let entry = self.get(id);
        if entry.steps.get().is_none() {
            let taus = walked.taus.into_iter().map(|(com, stack, local, digest)| {
                let target = self.intern(writer, stack, local, digest);
                TauStep { com, target }
            });
            let taus = Taus::new(taus.collect());
            let sends = walked.sends.into_iter().map(|(com, req, stack)| {
                let stack = self.intern_stack(writer, stack);
                SendOffer { com, req, stack }
            });
            let sends = sends.collect();
            let recvs = walked.recvs.into_iter().map(|(com, kind, stack)| {
                let stack = self.intern_stack(writer, stack);
                RecvOffer { com, kind, stack }
            });
            let recvs = recvs.collect();
            let offers = self.intern_offers(writer, Offers { sends, recvs });
            let steps = Steps { taus, offers };
            assert!(entry.steps.set(steps).is_ok(), "only the lock holder fills");
        }
        (id, entry)
    }

    /// Entries held.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.writer.lock().expect("no panic mid-insert").entries as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pages_tile_the_indices() {
        type P = Pages<()>;
        assert_eq!(P::locate(0), (0, 0, 0));
        assert_eq!(P::locate(15), (0, 0, 15));
        assert_eq!(P::locate(16), (1, 0, 0));
        assert_eq!(P::locate(47), (1, 1, 15));
        assert_eq!(P::locate(48), (2, 0, 0));
        let (chunk, page, at) = P::locate(u32::MAX);
        assert!(chunk < CHUNKS && page < 1 << chunk && at < PAGE);
        let pages: Pages<u32> = Pages::new();
        for i in 0..1000 {
            pages.set(i, i * 3);
        }
        assert!((0..1000).all(|i| *pages.get(i) == i * 3));
    }

    fn nothing<S, Req>() -> Walked<S, Req> {
        Walked {
            taus: Vec::new(),
            sends: Vec::new(),
            recvs: Vec::new(),
        }
    }

    #[test]
    fn slots_sharing_a_digest_stay_apart() {
        let memo: Memo<u32, ()> = Memo::new();
        let stack = Stack::new();
        let deeper = Stack::from(ComId::from_raw(0));
        // A thousand slots all claiming one digest: each is found as
        // itself, and only as itself.
        for local in 0..1000 {
            memo.fill(&stack, &local, 7, nothing());
        }
        assert_eq!(memo.len(), 1000);
        for local in 0..1000 {
            let (id, entry) = memo.find(&stack, 7, |l| *l == local).expect("interned");
            assert_eq!((id, entry.local), (local, local));
        }
        assert!(memo.find(&stack, 7, |l| *l == 1000).is_none());
        assert!(memo.find(&stack, 8, |l| *l == 3).is_none());
        assert!(memo.find(&deeper, 7, |l| *l == 3).is_none());
    }

    #[test]
    fn equal_offer_lists_are_stored_once() {
        let memo: Memo<u32, u32> = Memo::new();
        let stack = Stack::new();
        let walked = |alpha: u32| Walked {
            taus: Vec::new(),
            sends: vec![(ComId::from_raw(1), alpha, stack)],
            recvs: vec![(ComId::from_raw(2), 0, stack)],
        };
        let offers = |local: u32, alpha: u32| {
            let (_, entry) = memo.fill(&stack, &local, u64::from(local), walked(alpha));
            entry.steps().expect("filled").offers
        };
        // Equal lists share an id whatever the slot; α tells them apart.
        assert_eq!(offers(0, 5), offers(1, 5));
        assert_ne!(offers(2, 5), offers(3, 6));
        assert_eq!(memo.writer.lock().unwrap().offer_lists, 2);
    }
}
