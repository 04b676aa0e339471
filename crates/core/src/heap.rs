//! The object heap: a slot array with atomic headers and reference
//! fields, a global free list, and an eager sweep the collector runs —
//! the shape the model verifies.
//!
//! Every slot carries a packed header word (mark flag, allocated bit,
//! field count, epoch) manipulated with atomic operations, an intrusive
//! work-list link, and `max_fields` atomic reference fields (kept in one
//! flat array beside the slots). The mark flag's *interpretation* (marked vs unmarked) is relative to the
//! collector's current sense `f_M`, which flips each cycle — retained
//! objects never need their flag reset (Lamport's trick, §2 of the
//! paper). A single mutex-protected free list hands out slots, directly
//! or in batches for the §4 thread-local allocation pools.

use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::sync::Mutex;

use crate::handle::Gc;

/// The collector's control phase, shared racily with the mutators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[repr(u8)]
pub enum Phase {
    /// Between cycles; write barriers are inert.
    #[default]
    Idle = 0,
    /// Heap whitened; barriers being enabled.
    Init = 1,
    /// Tracing.
    Mark = 2,
    /// Reclaiming unmarked objects.
    Sweep = 3,
}

impl Phase {
    pub(crate) fn from_u8(v: u8) -> Phase {
        match v {
            0 => Phase::Idle,
            1 => Phase::Init,
            2 => Phase::Mark,
            3 => Phase::Sweep,
            other => unreachable!("invalid phase byte {other}"),
        }
    }
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

/// Allocation failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocError {
    /// No free slot: the heap is full. Let the collector finish a cycle
    /// (keep calling [`Mutator::safepoint`](crate::Mutator::safepoint)) and
    /// retry.
    HeapFull,
    /// The requested field count exceeds the heap's per-object bound.
    TooManyFields {
        /// Requested field count.
        requested: usize,
        /// The heap's bound.
        max: usize,
    },
    /// Graceful degradation's terminal verdict: the heap stayed full even
    /// after [`Mutator::alloc`](crate::Mutator::alloc) ran its emergency
    /// collection budget — the live set genuinely does not fit.
    Exhausted {
        /// Objects still live after the final emergency cycle.
        live: usize,
        /// Heap capacity in slots.
        capacity: usize,
        /// Emergency collection cycles attempted before giving up.
        cycles_tried: usize,
    },
}

impl AllocError {
    /// Whether retrying the allocation (after helping a collection cycle
    /// along) can succeed.
    ///
    /// `true` only for [`AllocError::HeapFull`]: the heap is full *right
    /// now*, but a cycle may reclaim garbage.
    /// [`AllocError::Exhausted`] is the terminal verdict of that very
    /// retry loop — the emergency budget was already spent and the live
    /// set genuinely does not fit — and
    /// [`AllocError::TooManyFields`] is a caller bug; retrying either
    /// unchanged cannot succeed.
    pub fn is_retryable(&self) -> bool {
        matches!(self, AllocError::HeapFull)
    }
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::HeapFull => write!(f, "heap full"),
            AllocError::TooManyFields { requested, max } => {
                write!(f, "object with {requested} fields exceeds bound {max}")
            }
            AllocError::Exhausted {
                live,
                capacity,
                cycles_tried,
            } => write!(
                f,
                "heap exhausted: {live}/{capacity} slots live after {cycles_tried} emergency collection cycle(s)"
            ),
        }
    }
}

impl Error for AllocError {}

/// Result of a marking attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MarkOutcome {
    /// Already marked in the current sense: nothing to do (the fast path).
    AlreadyMarked,
    /// This thread won the race and marked the object: it now owns the
    /// object's work-list link.
    Won,
    /// Another thread won the race (or the header changed underneath us).
    Lost,
}

// Header layout: bit 0 = mark flag, bit 1 = allocated,
// bits 2..10 = field count, bits 10..42 = epoch.
const FLAG_BIT: u64 = 1;
const ALLOC_BIT: u64 = 1 << 1;
const NFIELDS_SHIFT: u32 = 2;
const NFIELDS_MASK: u64 = 0xff << NFIELDS_SHIFT;
const EPOCH_SHIFT: u32 = 10;
const EPOCH_MASK: u64 = 0xffff_ffff << EPOCH_SHIFT;

fn pack(flag: bool, alloc: bool, nfields: usize, epoch: u32) -> u64 {
    u64::from(flag)
        | (u64::from(alloc) << 1)
        | ((nfields as u64) << NFIELDS_SHIFT)
        | (u64::from(epoch) << EPOCH_SHIFT)
}

fn hdr_flag(h: u64) -> bool {
    h & FLAG_BIT != 0
}

fn hdr_alloc(h: u64) -> bool {
    h & ALLOC_BIT != 0
}

fn hdr_nfields(h: u64) -> usize {
    ((h & NFIELDS_MASK) >> NFIELDS_SHIFT) as usize
}

fn hdr_epoch(h: u64) -> u32 {
    ((h & EPOCH_MASK) >> EPOCH_SHIFT) as u32
}

struct Slot {
    header: AtomicU64,
    /// Intrusive work-list link (encoded `Option<Gc>`); owned by the
    /// current mark-CAS winner, or by the sweep when the object is free.
    next: AtomicU64,
}

/// The free list, on cache lines of its own (two: x86 prefetches lines in
/// pairs). Every allocation and every freed slot writes its lock; on the
/// line of the read-mostly heap geometry it made every heap access miss.
#[repr(align(128))]
struct FreeList(Mutex<Vec<u32>>);

/// The shared object heap.
pub(crate) struct Heap {
    slots: Box<[Slot]>,
    /// Slot `i`'s reference fields are `fields[i * max_fields..][..max_fields]`.
    fields: Box<[AtomicU64]>,
    free: FreeList,
    max_fields: usize,
}

impl Heap {
    pub(crate) fn new(capacity: usize, max_fields: usize) -> Self {
        let slots = (0..capacity)
            .map(|_| Slot {
                header: AtomicU64::new(pack(false, false, 0, 0)),
                next: AtomicU64::new(0),
            })
            .collect();
        Heap {
            slots,
            fields: (0..capacity * max_fields)
                .map(|_| AtomicU64::new(0))
                .collect(),
            // Lowest-index-first allocation, matching the model.
            free: FreeList(Mutex::new((0..capacity as u32).rev().collect())),
            max_fields,
        }
    }

    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }

    fn slot(&self, g: Gc) -> &Slot {
        &self.slots[g.index() as usize]
    }

    fn fields(&self, idx: u32) -> &[AtomicU64] {
        let at = idx as usize * self.max_fields;
        &self.fields[at..at + self.max_fields]
    }

    /// Panics if `g` no longer refers to a live object — the
    /// use-after-free oracle, run on every heap access.
    ///
    /// # Panics
    ///
    /// Panics when the slot is unallocated or from a different epoch.
    pub(crate) fn check(&self, g: Gc) {
        let h = self.slot(g).header.load(Ordering::Acquire);
        assert!(
            hdr_alloc(h) && hdr_epoch(h) == g.epoch(),
            "use after free: {g:?} accessed, slot epoch is {} (allocated: {})",
            hdr_epoch(h),
            hdr_alloc(h),
        );
    }

    /// Allocates an object with `nfields` fields and mark flag `fa`.
    pub(crate) fn alloc(&self, nfields: usize, fa: bool) -> Result<Gc, AllocError> {
        if nfields > self.max_fields {
            return Err(AllocError::TooManyFields {
                requested: nfields,
                max: self.max_fields,
            });
        }
        let idx = self.free.0.lock().pop().ok_or(AllocError::HeapFull)?;
        let slot = &self.slots[idx as usize];
        let epoch = hdr_epoch(slot.header.load(Ordering::Acquire));
        for f in self.fields(idx) {
            f.store(0, Ordering::Release);
        }
        slot.next.store(0, Ordering::Release);
        // Publishing the header last: the fields are NULL-initialised
        // before the object can be observed allocated.
        slot.header
            .store(pack(fa, true, nfields, epoch), Ordering::Release);
        Ok(Gc::new(idx, epoch))
    }

    /// Reserves up to `n` free slots for a thread-local allocation pool
    /// (the §4 extension: "mutators gather pools of unallocated references
    /// from which to perform fine-grained allocation without
    /// synchronizing"). Reserved slots stay unallocated (the sweep skips
    /// them) until [`alloc_from`](Heap::alloc_from) publishes an object.
    pub(crate) fn grab_pool(&self, n: usize) -> Vec<u32> {
        let mut free = self.free.0.lock();
        let take = n.min(free.len());
        let at = free.len() - take;
        free.split_off(at)
    }

    /// Returns unused pooled slots to the global free list (mutator
    /// deregistration).
    pub(crate) fn return_pool(&self, pool: Vec<u32>) {
        self.free.0.lock().extend(pool);
    }

    /// Allocates an object in a pre-reserved slot — no lock, no fence: the
    /// fields are initialised before the header store publishes the object,
    /// which is exactly the TSO argument of §4 ("publishing the new
    /// reference to other mutators can occur only after the prior
    /// initializing stores have been flushed" — FIFO buffers preserve the
    /// order).
    pub(crate) fn alloc_from(&self, idx: u32, nfields: usize, fa: bool) -> Result<Gc, AllocError> {
        if nfields > self.max_fields {
            return Err(AllocError::TooManyFields {
                requested: nfields,
                max: self.max_fields,
            });
        }
        let slot = &self.slots[idx as usize];
        let h = slot.header.load(Ordering::Acquire);
        debug_assert!(!hdr_alloc(h), "pooled slot must be free");
        let epoch = hdr_epoch(h);
        for f in self.fields(idx) {
            f.store(0, Ordering::Release);
        }
        slot.next.store(0, Ordering::Release);
        slot.header
            .store(pack(fa, true, nfields, epoch), Ordering::Release);
        Ok(Gc::new(idx, epoch))
    }

    /// Frees the slot at `idx`, bumping its epoch so stale handles are
    /// detectable. Caller (the sweep) guarantees the object is unmarked and
    /// unreachable.
    pub(crate) fn free_slot(&self, idx: u32) {
        let slot = &self.slots[idx as usize];
        let h = slot.header.load(Ordering::Acquire);
        debug_assert!(hdr_alloc(h), "double free of slot {idx}");
        let epoch = hdr_epoch(h).wrapping_add(1);
        slot.header
            .store(pack(false, false, 0, epoch), Ordering::Release);
        self.free.0.lock().push(idx);
    }

    /// Number of fields of the object at `g`.
    pub(crate) fn nfields(&self, g: Gc) -> usize {
        self.check(g);
        hdr_nfields(self.slot(g).header.load(Ordering::Acquire))
    }

    /// Whether the object's flag equals `sense` (Figure 5 line 3's
    /// unsynchronised load).
    pub(crate) fn flag_equals(&self, g: Gc, sense: bool) -> bool {
        self.check(g);
        hdr_flag(self.slot(g).header.load(Ordering::Relaxed)) == sense
    }

    /// The marking CAS (Figure 5 lines 5–11): try to take the flag from
    /// `!fm` to `fm` atomically.
    pub(crate) fn try_mark(&self, g: Gc, fm: bool) -> MarkOutcome {
        self.check(g);
        let slot = self.slot(g);
        let h = slot.header.load(Ordering::Acquire);
        if !hdr_alloc(h) || hdr_epoch(h) != g.epoch() {
            return MarkOutcome::Lost; // freed under us (unsafe ablations only)
        }
        if hdr_flag(h) == fm {
            return MarkOutcome::AlreadyMarked;
        }
        let marked = (h & !FLAG_BIT) | u64::from(fm);
        match slot
            .header
            .compare_exchange(h, marked, Ordering::SeqCst, Ordering::SeqCst)
        {
            Ok(_) => MarkOutcome::Won,
            Err(_) => MarkOutcome::Lost, // some other thread marked it
        }
    }

    /// Loads a reference field.
    pub(crate) fn load_field(&self, g: Gc, field: usize) -> Option<Gc> {
        self.check(g);
        assert!(field < self.nfields(g), "field {field} out of bounds");
        Gc::decode(self.fields(g.index())[field].load(Ordering::Acquire))
    }

    /// Stores a reference field (the bare store of Figure 6 line 11; the
    /// caller has already run the barriers).
    pub(crate) fn store_field(&self, g: Gc, field: usize, value: Option<Gc>) {
        self.check(g);
        assert!(field < self.nfields(g), "field {field} out of bounds");
        self.fields(g.index())[field].store(Gc::encode(value), Ordering::Release);
    }

    /// The intrusive work-list link of `g`.
    pub(crate) fn link(&self, g: Gc) -> Option<Gc> {
        Gc::decode(self.slot(g).next.load(Ordering::Acquire))
    }

    /// Sets the intrusive work-list link of `g`. Only the mark-CAS winner
    /// (or the single-threaded sweep) may call this.
    pub(crate) fn set_link(&self, g: Gc, next: Option<Gc>) {
        self.slot(g).next.store(Gc::encode(next), Ordering::Release);
    }

    /// Abort recovery: force every allocated slot's flag to `fm` (all
    /// black in the current sense), returning how many were repainted.
    ///
    /// An aborted cycle leaves the heap two-toned — stale marks in a sense
    /// a *later* flip will mistake for "already marked", truncating the
    /// trace above still-white children. The collector calls this under
    /// handshake cover (every mutator synchronised, phase idle, `f_A ==
    /// f_M`) so the only concurrent header writers are allocations, which
    /// paint the same colour.
    pub(crate) fn normalize_marks(&self, fm: bool) -> usize {
        let mut repainted = 0;
        for slot in self.slots.iter() {
            let h = slot.header.load(Ordering::Acquire);
            if hdr_alloc(h) && hdr_flag(h) != fm {
                slot.header
                    .store((h & !FLAG_BIT) | u64::from(fm), Ordering::Release);
                repainted += 1;
            }
        }
        repainted
    }

    /// Sweep support: the header view of slot `idx` as
    /// `(allocated, flag, epoch)`.
    pub(crate) fn slot_status(&self, idx: u32) -> (bool, bool, u32) {
        let h = self.slots[idx as usize].header.load(Ordering::Acquire);
        (hdr_alloc(h), hdr_flag(h), hdr_epoch(h))
    }

    /// Number of live objects — O(capacity).
    pub(crate) fn live(&self) -> usize {
        (0..self.capacity() as u32)
            .filter(|&i| self.slot_status(i).0)
            .count()
    }

    /// Fraction of the heap's slots unavailable for allocation, in
    /// `[0.0, 1.0]` — the admission-control and pacing signal. Live
    /// objects and pool-reserved slots both count. O(1) from the
    /// free-list length.
    pub(crate) fn occupancy(&self) -> f64 {
        let cap = self.capacity();
        if cap == 0 {
            return 1.0;
        }
        1.0 - self.free.0.lock().len() as f64 / cap as f64
    }

    /// Structural integrity check: the free list holds unique, in-bounds,
    /// unallocated slots and live + free never exceeds capacity. The
    /// caller must have quiesced the heap (collector idle, mutators at
    /// safepoints).
    pub(crate) fn debug_verify(&self) -> Result<(), String> {
        let free = self.free.0.lock().clone();
        let mut seen = std::collections::HashSet::new();
        for &idx in &free {
            if idx as usize >= self.capacity() {
                return Err(format!("free-list entry {idx} out of bounds"));
            }
            if !seen.insert(idx) {
                return Err(format!("free-list entry {idx} duplicated"));
            }
            if self.slot_status(idx).0 {
                return Err(format!("free-list entry {idx} is allocated"));
            }
        }
        if self.live() + free.len() > self.capacity() {
            return Err("live + free exceeds capacity".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heap() -> Heap {
        Heap::new(4, 2)
    }

    #[test]
    fn alloc_initialises_and_frees_bump_epoch() {
        let h = heap();
        let a = h.alloc(2, false).unwrap();
        assert_eq!(a.index(), 0);
        assert_eq!(h.nfields(a), 2);
        assert_eq!(h.load_field(a, 0), None);
        h.free_slot(a.index());
        let b = h.alloc(1, true).unwrap();
        // The slot is reused under a new epoch.
        assert_eq!(b.index(), 0);
        assert_eq!(b.epoch(), a.epoch() + 1);
    }

    #[test]
    #[should_panic(expected = "use after free")]
    fn stale_handle_trips_validation() {
        let h = heap();
        let a = h.alloc(1, false).unwrap();
        h.free_slot(a.index());
        let _ = h.load_field(a, 0);
    }

    #[test]
    fn heap_full_reports_error() {
        let h = heap();
        for _ in 0..4 {
            h.alloc(0, false).unwrap();
        }
        assert_eq!(h.alloc(0, false), Err(AllocError::HeapFull));
    }

    #[test]
    fn field_bound_is_enforced() {
        let h = heap();
        assert!(matches!(
            h.alloc(3, false),
            Err(AllocError::TooManyFields {
                requested: 3,
                max: 2
            })
        ));
    }

    #[test]
    fn mark_cas_has_unique_winner() {
        let h = heap();
        let a = h.alloc(0, false).unwrap(); // flag = false
        assert_eq!(h.try_mark(a, true), MarkOutcome::Won);
        assert_eq!(h.try_mark(a, true), MarkOutcome::AlreadyMarked);
        assert!(h.flag_equals(a, true));
        // Flipping the sense makes it "unmarked" again without a write.
        assert!(!h.flag_equals(a, false));
        assert_eq!(h.try_mark(a, false), MarkOutcome::Won);
    }

    #[test]
    fn fields_store_and_load_handles() {
        let h = heap();
        let a = h.alloc(2, false).unwrap();
        let b = h.alloc(1, false).unwrap();
        h.store_field(a, 0, Some(b));
        h.store_field(a, 1, Some(a));
        assert_eq!(h.load_field(a, 0), Some(b));
        assert_eq!(h.load_field(a, 1), Some(a));
        h.store_field(a, 0, None);
        assert_eq!(h.load_field(a, 0), None);
    }

    #[test]
    fn pools_reserve_and_allocate_without_the_global_lock() {
        let h = heap();
        let pool = h.grab_pool(3);
        assert_eq!(pool.len(), 3);
        // The global free list now has 1 slot; direct alloc still works.
        let direct = h.alloc(0, false).unwrap();
        assert!(h.alloc(0, false).is_err(), "rest of the heap is pooled");
        // Pool allocations publish objects at the reserved slots.
        let g = h.alloc_from(pool[0], 1, true).unwrap();
        assert!(h.flag_equals(g, true));
        assert_eq!(h.nfields(g), 1);
        assert_ne!(g.index(), direct.index());
        // Returning the rest re-enables direct allocation.
        h.return_pool(pool[1..].to_vec());
        assert!(h.alloc(0, false).is_ok());
    }

    #[test]
    fn pool_grab_is_bounded_by_free_space() {
        let h = heap();
        let _a = h.alloc(0, false).unwrap();
        let pool = h.grab_pool(10);
        assert_eq!(pool.len(), 3);
        assert!(h.grab_pool(1).is_empty());
    }

    #[test]
    fn live_counts_allocated_slots() {
        let h = heap();
        assert_eq!(h.live(), 0);
        let a = h.alloc(0, false).unwrap();
        let _b = h.alloc(0, false).unwrap();
        assert_eq!(h.live(), 2);
        h.free_slot(a.index());
        assert_eq!(h.live(), 1);
    }

    #[test]
    fn occupancy_tracks_allocation_and_pools() {
        let h = heap(); // capacity 4
        assert_eq!(h.occupancy(), 0.0);
        let a = h.alloc(0, false).unwrap();
        let _b = h.alloc(0, false).unwrap();
        assert!((h.occupancy() - 0.5).abs() < 1e-9);
        h.free_slot(a.index());
        assert!((h.occupancy() - 0.25).abs() < 1e-9);
        // Pool-reserved slots count as occupied: they are unavailable.
        let pool = h.grab_pool(2);
        assert!((h.occupancy() - 0.75).abs() < 1e-9);
        h.return_pool(pool);
        assert!((h.occupancy() - 0.25).abs() < 1e-9);
        h.debug_verify().unwrap();
    }

    #[test]
    fn alloc_error_retryability() {
        assert!(AllocError::HeapFull.is_retryable());
        assert!(!AllocError::TooManyFields {
            requested: 3,
            max: 2
        }
        .is_retryable());
        assert!(!AllocError::Exhausted {
            live: 4,
            capacity: 4,
            cycles_tried: 2
        }
        .is_retryable());
    }
}
