//! Mutator handles: the heap access protocol of Figure 6 plus the mutator
//! side of the soft handshakes.

use std::collections::HashSet;
use std::sync::atomic::{fence, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::chaos::{ChaosSite, STORM_YIELDS};
use crate::collector::{MutId, MutatorShared, Shared};
use crate::handle::Gc;
use crate::heap::{AllocError, Phase};
use crate::sync::Backoff;
use crate::worklist::LocalList;

/// A mutator thread's handle to the collected heap.
///
/// The handle maintains the mutator's *root set* — the references the
/// program currently holds (the model's `roots_m`). Every operation follows
/// Figure 6 of the paper:
///
/// * [`load`](Mutator::load) reads a field of a rooted object and roots the
///   result (no read barrier: roots may legitimately hold white
///   references);
/// * [`store`](Mutator::store) writes a rooted reference into a field of a
///   rooted object, running the **deletion barrier** (grey the overwritten
///   target) and the **insertion barrier** (grey the stored target) first;
/// * [`alloc`](Mutator::alloc) creates an object with the current
///   allocation color `f_A` and roots it;
/// * [`discard`](Mutator::discard) drops a root.
///
/// The mutator must call [`safepoint`](Mutator::safepoint) regularly (the
/// equivalent of the compiler-inserted GC-safe points at backward branches
/// and call returns); collection cycles stall until every registered
/// mutator has answered the pending handshake. Dropping the handle
/// deregisters the mutator, first answering any outstanding handshake.
pub struct Mutator {
    shared: Arc<Shared>,
    me: Arc<MutatorShared>,
    roots: HashSet<Gc>,
    wl: LocalList,
    last_acked: u32,
    /// Last request word seen by [`Mutator::safepoint`] — distinguishes a
    /// freshly posted handshake (one chaos draw) from re-polling the same
    /// pending one.
    last_seen: u32,
    /// Chaos: stay silent (beat but never acknowledge) until the handshake
    /// generation reaches this value. `0` = not silenced.
    silent_until_gen: u32,
    /// Reserved free slots: the §4 allocation pool.
    pool: Vec<u32>,
}

impl std::fmt::Debug for Mutator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mutator")
            .field("roots", &self.roots.len())
            .field("greys", &self.wl.len())
            .finish()
    }
}

impl Mutator {
    pub(crate) fn new(shared: Arc<Shared>, me: Arc<MutatorShared>) -> Self {
        Mutator {
            shared,
            me,
            roots: HashSet::new(),
            wl: LocalList::new(),
            last_acked: 0,
            last_seen: 0,
            silent_until_gen: 0,
            pool: Vec::new(),
        }
    }

    /// This mutator's registration id, as reported by
    /// [`CycleOutcome::TimedOut`](crate::CycleOutcome::TimedOut).
    pub fn id(&self) -> MutId {
        self.me.id
    }

    /// Roots `g`, mirroring the root-set size into the shared mailbox.
    ///
    /// The mirror is the watchdog's eviction guard: eviction is only sound
    /// for a mutator that provably holds no roots, and the `SeqCst` pairing
    /// with `Shared::try_evict` makes the proof race-free — either the
    /// eviction attempt sees our count and rolls back, or we see its
    /// tentative deactivation here and wait for the verdict, fail-stopping
    /// if it committed (a revoked handle must never create a root the
    /// collector will not scan).
    ///
    /// # Panics
    ///
    /// Panics if this mutator was evicted by the handshake watchdog.
    fn root(&mut self, g: Gc) {
        if !self.roots.insert(g) {
            return;
        }
        self.me.root_count.fetch_add(1, Ordering::SeqCst);
        if !self.me.active.load(Ordering::SeqCst) {
            // An eviction attempt is in flight: spin for its verdict
            // (`try_evict` resolves in a handful of instructions).
            loop {
                if self.me.evicted.load(Ordering::SeqCst) {
                    self.roots.remove(&g);
                    self.me.root_count.fetch_sub(1, Ordering::SeqCst);
                    panic!(
                        "mutator {} was evicted by the handshake watchdog; its handle is revoked",
                        self.me.id
                    );
                }
                if self.me.active.load(Ordering::SeqCst) {
                    break; // rolled back: the root stands
                }
                std::hint::spin_loop();
            }
        }
    }

    /// Removes `g` from the roots, keeping the shared mirror in sync.
    fn unroot(&mut self, g: Gc) {
        if self.roots.remove(&g) {
            self.me.root_count.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// The current root set.
    pub fn roots(&self) -> impl Iterator<Item = Gc> + '_ {
        self.roots.iter().copied()
    }

    /// Whether `r` is currently rooted.
    pub fn is_rooted(&self, r: Gc) -> bool {
        self.roots.contains(&r)
    }

    /// The number of reference fields of the (rooted) object `r`.
    ///
    /// # Panics
    ///
    /// Panics — with validation on — if `r` is stale.
    pub fn field_count(&self, r: Gc) -> usize {
        self.shared.heap.nfields(r)
    }

    /// Allocates an object with `fields` reference fields (all `NULL`),
    /// marked with the current allocation color `f_A`, and roots it
    /// (Figure 6, `Alloc`).
    ///
    /// # Failure state machine
    ///
    /// Every call moves through the same three states:
    ///
    /// 1. **Fast path** — allocate from the global free list, or from the
    ///    thread-local §4 pool when
    ///    [`alloc_pool`](crate::GcConfig::alloc_pool) is set, refilling it
    ///    from the free list when dry. Success returns here.
    /// 2. **Emergency collection** — the refill found the heap full.
    ///    Up to [`alloc_retries`](crate::GcConfig::alloc_retries)
    ///    collection cycles are driven from this thread (answering our
    ///    own handshakes; if a cycle is already in flight, helping it
    ///    along under exponential backoff capped by
    ///    [`emergency_backoff`](crate::GcConfig::emergency_backoff)),
    ///    retrying the allocation after each. Configure both knobs via
    ///    [`GcConfigBuilder::emergency_retries`] and
    ///    [`GcConfigBuilder::emergency_backoff`](crate::GcConfigBuilder::emergency_backoff).
    /// 3. **Terminal verdict** — the budget is spent and the heap is
    ///    still full: [`AllocError::Exhausted`] reports how much really
    ///    is live. With a budget of `0`, state 2 is skipped and the
    ///    refill failure surfaces directly as [`AllocError::HeapFull`].
    ///
    /// Use [`AllocError::is_retryable`] to tell the two apart
    /// mechanically: `HeapFull` can succeed later (after a cycle);
    /// `Exhausted` and [`AllocError::TooManyFields`] cannot.
    ///
    /// # Errors
    ///
    /// [`AllocError::Exhausted`], [`AllocError::HeapFull`], or
    /// [`AllocError::TooManyFields`], per the state machine above.
    ///
    /// [`GcConfigBuilder::emergency_retries`]: crate::GcConfigBuilder::emergency_retries
    pub fn alloc(&mut self, fields: usize) -> Result<Gc, AllocError> {
        match self.try_alloc(fields) {
            Err(AllocError::HeapFull) if self.shared.cfg.alloc_retries > 0 => {
                self.alloc_emergency(fields, None)
            }
            other => other,
        }
    }

    /// Like [`Mutator::alloc`], but bounds the emergency-collection wait by
    /// a deadline: when the heap is still full at `deadline`, the call
    /// returns [`AllocError::HeapFull`] — *retryable*, because a later call
    /// may find memory a cycle has since reclaimed — instead of parking
    /// until the retry budget resolves. This is the allocation primitive
    /// for request-serving code where a stalled allocation must become a
    /// request timeout, never an unbounded stall (e.g. another mutator
    /// holding the cycle lock while silenced by chaos would otherwise stall
    /// this thread indefinitely: its `cycles_tried` budget only advances
    /// when cycles actually complete).
    ///
    /// The overshoot past `deadline` is bounded by one park of at most
    /// [`emergency_backoff`](crate::GcConfig::emergency_backoff).
    ///
    /// # Errors
    ///
    /// As [`Mutator::alloc`], plus [`AllocError::HeapFull`] on deadline
    /// expiry. [`AllocError::Exhausted`] still wins when the retry budget
    /// resolves first *and* no other thread allocated while it was spent —
    /// a heap that survived full collections at its configured budget with
    /// the whole system wedged is exhausted, however much time remains.
    /// When peers did allocate, the heap is churning and this thread is
    /// merely losing the race for freed slots, so the budget resets and
    /// the deadline stays the bound (starvation must not masquerade as
    /// exhaustion).
    pub fn try_alloc_with_deadline(
        &mut self,
        fields: usize,
        deadline: Instant,
    ) -> Result<Gc, AllocError> {
        match self.try_alloc(fields) {
            Err(AllocError::HeapFull) if self.shared.cfg.alloc_retries > 0 => {
                self.alloc_emergency(fields, Some(deadline))
            }
            other => other,
        }
    }

    /// One allocation attempt, from the §4 pool when pooling is on
    /// (refilling it when dry), else from the global free list.
    fn try_alloc(&mut self, fields: usize) -> Result<Gc, AllocError> {
        let fa = self.shared.fa.load(Ordering::Relaxed);
        let g = if self.shared.cfg.alloc_pool > 0 {
            // §4 extension: allocate from the thread-local pool, refilling
            // in batches; only the refill touches the shared free list.
            if self.pool.is_empty() {
                self.pool = self.shared.heap.grab_pool(self.shared.cfg.alloc_pool);
                self.shared
                    .stats
                    .pool_refills
                    .fetch_add(1, Ordering::Relaxed);
                trace_event!(PoolRefill {
                    got: self.pool.len() as u32
                });
            }
            match self.pool.pop() {
                Some(idx) => self.shared.heap.alloc_from(idx, fields, fa)?,
                None => self.shared.heap.alloc(fields, fa)?, // pool dry: fall back
            }
        } else {
            self.shared.heap.alloc(fields, fa)?
        };
        self.shared.stats.allocated.fetch_add(1, Ordering::Relaxed);
        trace_event!(AllocColor {
            slot: g.index(),
            color: fa
        });
        self.root(g);
        Ok(g)
    }

    /// The graceful-degradation path for a full heap: drive emergency
    /// collection cycles from this thread until an allocation succeeds or
    /// the retry budget is spent, then report a structured
    /// [`AllocError::Exhausted`].
    ///
    /// Deadlock-freedom: if another thread's cycle is already in flight it
    /// is almost certainly waiting for *our* handshake acknowledgement, so
    /// blocking on the cycle lock would deadlock. Instead we `try_lock`
    /// (via [`Shared::try_run_cycle`]) and, when beaten to it, help the
    /// in-flight cycle by answering handshakes under backoff. Time parked
    /// in that backoff is accounted to
    /// [`GcStats::backoff_ns`](crate::GcStats::backoff_ns).
    ///
    /// With a `deadline`, expiry short-circuits the loop with the
    /// retryable [`AllocError::HeapFull`] (see
    /// [`Mutator::try_alloc_with_deadline`]).
    fn alloc_emergency(
        &mut self,
        fields: usize,
        deadline: Option<Instant>,
    ) -> Result<Gc, AllocError> {
        let retries = self.shared.cfg.alloc_retries;
        let mut cycles_tried = 0usize;
        // Cycles completed by anyone count against the budget: a full heap
        // that survives a whole collection is genuinely exhausted.
        let mut observed = self.shared.stats.cycles();
        let mut allocated_seen = self.shared.stats.allocated.load(Ordering::Relaxed);
        let mut backoff = Backoff::with_max_sleep(self.shared.cfg.emergency_backoff);
        loop {
            match self.try_alloc(fields) {
                Err(AllocError::HeapFull) => {}
                other => return other,
            }
            let now = self.shared.stats.cycles();
            if now != observed {
                // One failed attempt validates at most one completed cycle:
                // a paced collector cycling back-to-back between our
                // attempts must not burn the budget faster than we can
                // actually race for the slots those cycles freed.
                cycles_tried += 1;
                observed = now;
            }
            if cycles_tried >= retries {
                let progressed = self.shared.stats.allocated.load(Ordering::Relaxed);
                if deadline.is_some() && progressed != allocated_seen {
                    // Someone allocated while we spent the budget: the heap
                    // is churning, not exhausted — we are losing the race
                    // for freed slots. With a deadline bounding the total
                    // wait, starvation resets the budget; a spurious fatal
                    // verdict on a transiently brim-full heap would report
                    // a healthy service as broken.
                    allocated_seen = progressed;
                    cycles_tried = 0;
                } else {
                    return Err(AllocError::Exhausted {
                        live: self.shared.heap.live(),
                        capacity: self.shared.heap.capacity(),
                        cycles_tried,
                    });
                }
            }
            if let Some(d) = deadline {
                if Instant::now() >= d {
                    return Err(AllocError::HeapFull);
                }
            }
            let shared = Arc::clone(&self.shared);
            match shared.try_run_cycle(&mut || self.safepoint()) {
                Some(_outcome) => {
                    // Counts even when aborted (Stopped/TimedOut): the
                    // budget bounds wall-clock work, and an uncooperative
                    // peer will abort every retry identically.
                    self.shared
                        .stats
                        .emergency_cycles
                        .fetch_add(1, Ordering::Relaxed);
                    cycles_tried += 1;
                    observed = self.shared.stats.cycles();
                    backoff.reset();
                }
                None => {
                    // A cycle is in flight, likely waiting on us: help,
                    // then park. The park is concurrent with the cycle's
                    // own wall clock, so it is accounted separately
                    // (`backoff_ns`) rather than into any phase timing.
                    self.safepoint();
                    let t_park = Instant::now();
                    backoff.wait();
                    self.shared
                        .stats
                        .backoff_ns
                        .fetch_add(t_park.elapsed().as_nanos() as u64, Ordering::Relaxed);
                }
            }
        }
    }

    /// Loads `src.field` and roots the result (Figure 6, `Load`).
    ///
    /// # Panics
    ///
    /// Panics if `src` is not rooted (the heap access protocol requires
    /// it), if the field is out of bounds, or — with validation on — if
    /// `src` was freed (a use-after-free, which the collector's safety
    /// guarantee excludes for rooted objects).
    pub fn load(&mut self, src: Gc, field: usize) -> Option<Gc> {
        assert!(self.roots.contains(&src), "load source must be rooted");
        let v = self.shared.heap.load_field(src, field);
        if let Some(r) = v {
            self.root(r);
        }
        v
    }

    /// Stores `dst` into `src.field`, running the deletion and insertion
    /// barriers first (Figure 6, `Store`).
    ///
    /// # Panics
    ///
    /// Panics if `src` (or `dst`, when present) is not rooted, if the field
    /// is out of bounds, or — with validation on — on a use-after-free.
    pub fn store(&mut self, src: Gc, field: usize, dst: Option<Gc>) {
        assert!(self.roots.contains(&src), "store target must be rooted");
        if let Some(d) = dst {
            assert!(self.roots.contains(&d), "stored reference must be rooted");
        }
        // Deletion barrier: grey the reference being overwritten. The load
        // is part of the barrier; the deleted reference is *not* added to
        // the roots (paper's note on Figure 6).
        let deleted = self.shared.heap.load_field(src, field);
        if self.shared.cfg.deletion_barrier {
            if let Some(d) = deleted {
                trace_event!(BarrierHit { deletion: true });
                self.shared.mark(d, &mut self.wl);
            }
        }
        if self.shared.chaos_fires(ChaosSite::MutatorPanic) {
            // Injected death between the two barriers — the worst moment:
            // the deletion barrier ran, the store never will. Recovery is
            // the panicking branch of `Drop`.
            panic!("chaos: injected mutator panic mid-barrier");
        }
        // Insertion barrier: grey the reference being stored.
        if self.shared.cfg.insertion_barrier {
            if let Some(d) = dst {
                trace_event!(BarrierHit { deletion: false });
                self.shared.mark(d, &mut self.wl);
            }
        }
        if !self.wl.is_empty() {
            // Mirror for the watchdog: untransferred grey work makes this
            // mutator unevictable (see `Shared::try_evict`). Cleared by the
            // next transfer.
            self.me.has_grey.store(true, Ordering::SeqCst);
        }
        self.shared.heap.store_field(src, field, dst);
    }

    /// Drops `r` from the roots (Figure 6, `Discard`). The object remains
    /// valid while reachable through other roots or heap paths.
    pub fn discard(&mut self, r: Gc) {
        self.unroot(r);
    }

    /// Adopts a handle received from another mutator into the roots.
    ///
    /// The sender must keep the object reachable (rooted, or stored in a
    /// reachable object) until this call returns; otherwise the object may
    /// be collected in transit. This is the hand-rolled equivalent of
    /// passing references through the heap, which the paper's model leaves
    /// to future work on process spawning.
    pub fn adopt(&mut self, r: Gc) {
        self.shared.heap.check(r);
        self.root(r);
    }

    /// Hands the unused pool back to the free list on deregistration, so
    /// capacity never leaks with the thread.
    fn return_reserve(&mut self) {
        self.shared.heap.return_pool(std::mem::take(&mut self.pool));
    }

    /// Transfers the private grey list to the collector's staging channel.
    fn transfer(&mut self) {
        if !self.wl.is_empty() && self.shared.chaos_fires(ChaosSite::SlowTransfer) {
            // Injected slow transfer: stretch the window in which the
            // collector polls for termination while grey work is still in
            // flight (more GetWork rounds, never a lost grey).
            for _ in 0..STORM_YIELDS {
                std::thread::yield_now();
            }
        }
        self.shared.staged.push_all(&self.shared.heap, &mut self.wl);
        self.me.has_grey.store(false, Ordering::SeqCst);
    }

    /// A GC-safe point: answer a pending soft handshake, if any.
    ///
    /// Handshake work by type: a noop acknowledges a control-state change;
    /// a get-roots round marks every current root and transfers the private
    /// grey list; a get-work round just transfers. Fences bracket the work
    /// per §2.4 (unless ablated).
    pub fn safepoint(&mut self) {
        // Liveness beat: evidence for the handshake watchdog that this
        // thread is alive, even when it has nothing to acknowledge. Kept
        // out of the heap-access fast paths on purpose.
        self.me.beat.fetch_add(1, Ordering::Release);
        let req = self.me.request.load(Ordering::Acquire);
        if req == 0 || req == self.last_acked {
            return;
        }
        if self.shared.cfg.chaos.enabled() && !self.chaos_admits_answer(req) {
            return; // injected silence: beating, not acknowledging
        }
        self.answer(req);
    }

    /// Performs the handshake work for request word `req` and acknowledges
    /// it — the chaos-free core of [`Mutator::safepoint`], also used by
    /// `Drop` (a deregistering mutator answers unconditionally: silence is
    /// a fault of running threads, not an excuse to wedge a clean exit).
    fn answer(&mut self, req: u32) {
        let fences = self.shared.cfg.handshake_fences;
        if fences {
            fence(Ordering::SeqCst); // accepting load fence
        }
        match req & 3 {
            2 => {
                // GetRoots: mark and transfer the roots.
                let roots: Vec<Gc> = self.roots.iter().copied().collect();
                for r in roots {
                    self.shared.mark(r, &mut self.wl);
                }
                self.transfer();
            }
            3 => self.transfer(), // GetWork
            _ => {
                // Noop. At Idle any grey still held is an aborted cycle's
                // (a completed one leaves none): forget it, or the next
                // cycle would find the object on two work-lists — see the
                // first handshake of `Shared::run_cycle_locked`.
                if self.shared.phase.load(Ordering::Relaxed) == Phase::Idle as u8 {
                    self.wl = LocalList::new();
                    self.me.has_grey.store(false, Ordering::SeqCst);
                }
            }
        }
        if fences {
            fence(Ordering::SeqCst); // completing store fence
        }
        self.me.ack.store(req, Ordering::Release);
        self.last_acked = req;
    }

    /// Chaos gate in front of the handshake answer. Returns `false` while
    /// this mutator is injected-silent for the pending generation; may also
    /// burn a yield storm (injected scheduling delay) before admitting.
    ///
    /// A silenced mutator keeps beating, so the watchdog never mistakes it
    /// for dead: silence is survived via [`CycleOutcome::TimedOut`] aborts
    /// (each aborted cycle advances the generation), never via eviction.
    /// Without a [`handshake_timeout`](crate::GcConfig::handshake_timeout)
    /// a silenced mutator stalls collection for as long as the silence
    /// lasts — plans with a silence rate need the watchdog armed.
    ///
    /// [`CycleOutcome::TimedOut`]: crate::CycleOutcome::TimedOut
    fn chaos_admits_answer(&mut self, req: u32) -> bool {
        let gen = req >> 2;
        if req != self.last_seen {
            // One chaos draw per freshly observed request, however many
            // times the safepoint polls it afterwards.
            self.last_seen = req;
            if self.silent_until_gen == 0 && self.shared.chaos_fires(ChaosSite::Silence) {
                self.silent_until_gen = gen + self.shared.cfg.chaos.silence_generations;
            }
        }
        if self.silent_until_gen != 0 {
            if gen < self.silent_until_gen {
                return false;
            }
            self.silent_until_gen = 0;
        }
        if self.shared.chaos_fires(ChaosSite::HandshakeDelay) {
            // Yield storm on the acknowledgement path: the straggler the
            // collector's backoff loop is designed around.
            for _ in 0..STORM_YIELDS {
                std::thread::yield_now();
            }
        }
        true
    }

    /// Test hook: bump the liveness beat without reaching a safe point.
    #[cfg(test)]
    pub(crate) fn beat_for_test(&self) {
        self.me.beat.fetch_add(1, Ordering::Release);
    }
}

impl Drop for Mutator {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // Unwinding — possibly from an *injected* death the rest of the
            // system is expected to survive. Salvage what soundness needs:
            // the grey list (greys are black parents with untraced
            // children; abandoning them would let the sweep free reachable
            // objects) and the pooled slots (or they leak capacity). But
            // never re-panic — that aborts the process — so the salvage is
            // fenced off, and no handshake is answered: our roots die with
            // the thread, which is exactly what the collector will assume.
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.transfer();
                self.return_reserve();
            }));
            self.me.active.store(false, Ordering::Release);
            let mut reg = self.shared.registry.lock();
            reg.retain(|m| !Arc::ptr_eq(m, &self.me));
            return;
        }
        // Leave cleanly: answer any outstanding handshake (bypassing any
        // injected silence — see `answer`), hand over any remaining grey
        // work, then deactivate so the collector stops waiting for us.
        loop {
            let pending = self.me.request.load(Ordering::Acquire);
            if pending == self.last_acked || pending == 0 {
                break;
            }
            self.answer(pending);
        }
        self.transfer();
        self.return_reserve();
        if self.shared.cfg.handshake_fences {
            fence(Ordering::SeqCst);
        }
        self.me.active.store(false, Ordering::Release);
        let mut reg = self.shared.registry.lock();
        reg.retain(|m| !Arc::ptr_eq(m, &self.me));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::Collector;
    use crate::config::GcConfig;

    fn collector() -> Collector {
        Collector::new(GcConfig::new(16, 2))
    }

    #[test]
    fn alloc_roots_the_object() {
        let c = collector();
        let mut m = c.register_mutator();
        let a = m.alloc(2).unwrap();
        assert!(m.is_rooted(a));
        assert_eq!(m.roots().count(), 1);
    }

    #[test]
    fn load_roots_the_result() {
        let c = collector();
        let mut m = c.register_mutator();
        let a = m.alloc(1).unwrap();
        let b = m.alloc(1).unwrap();
        m.store(a, 0, Some(b));
        m.discard(b);
        assert!(!m.is_rooted(b));
        let b2 = m.load(a, 0).unwrap();
        assert_eq!(b2, b);
        assert!(m.is_rooted(b));
    }

    #[test]
    #[should_panic(expected = "must be rooted")]
    fn store_requires_rooted_source() {
        let c = collector();
        let mut m = c.register_mutator();
        let a = m.alloc(1).unwrap();
        let b = m.alloc(1).unwrap();
        m.discard(a);
        m.store(a, 0, Some(b));
    }

    #[test]
    fn barriers_grey_targets_during_marking() {
        let c = collector();
        let mut m = c.register_mutator();
        let a = m.alloc(1).unwrap();
        let b = m.alloc(1).unwrap();
        // Force an active marking phase so the barrier fires: flip f_M so
        // everything is "unmarked", and set phase = Mark.
        // (White-box: exercising the barrier without a full cycle.)
        m.shared.fm.store(true, Ordering::Relaxed);
        m.shared
            .phase
            .store(crate::Phase::Mark as u8, Ordering::Relaxed);
        m.store(a, 0, Some(b)); // insertion barrier must grey b
        assert!(m.shared.heap.flag_equals(b, true));
        assert_eq!(m.wl.len(), 1);
        assert_eq!(c.stats().barrier_cas_won(), 1);
    }

    #[test]
    fn barriers_idle_are_inert() {
        let c = collector();
        let mut m = c.register_mutator();
        let a = m.alloc(1).unwrap();
        let b = m.alloc(1).unwrap();
        m.shared.fm.store(true, Ordering::Relaxed); // all white, but Idle
        m.store(a, 0, Some(b));
        assert!(!m.shared.heap.flag_equals(b, true));
        assert_eq!(m.wl.len(), 0);
    }

    #[test]
    fn deletion_barrier_greys_overwritten_target() {
        let c = collector();
        let mut m = c.register_mutator();
        let a = m.alloc(1).unwrap();
        let b = m.alloc(1).unwrap();
        m.store(a, 0, Some(b));
        m.shared.fm.store(true, Ordering::Relaxed);
        m.shared
            .phase
            .store(crate::Phase::Mark as u8, Ordering::Relaxed);
        m.store(a, 0, None); // deletes b: deletion barrier greys it
        assert!(m.shared.heap.flag_equals(b, true));
        let _ = c;
    }

    #[test]
    fn pooled_allocation_round_trips() {
        let c = Collector::new(GcConfig::new(16, 1).with_alloc_pool(4));
        let mut m = c.register_mutator();
        let objs: Vec<_> = (0..10).map(|_| m.alloc(1).unwrap()).collect();
        assert_eq!(c.live_objects(), 10);
        for (i, &a) in objs.iter().enumerate().skip(1) {
            m.store(objs[i - 1], 0, Some(a));
        }
        assert_eq!(
            c.stats().tlab_refills(),
            3,
            "10 allocations in batches of 4"
        );
        // Pool leftovers return on drop; nothing leaks.
        drop(m);
        c.collect();
        assert_eq!(c.live_objects(), 0);
        let mut m2 = c.register_mutator();
        for _ in 0..16 {
            m2.alloc(0).unwrap();
        }
        assert!(m2.alloc(0).is_err(), "all 16 slots accounted for");
    }

    #[test]
    fn drop_mid_handshake_transfers_staged_work() {
        let c = collector();
        let mut m = c.register_mutator();
        let a = m.alloc(1).unwrap();
        let b = m.alloc(1).unwrap();
        // Arm an active marking phase (white-box, as in the barrier tests)
        // so the store greys `b` into the private list.
        m.shared.fm.store(true, Ordering::Relaxed);
        m.shared
            .phase
            .store(crate::Phase::Mark as u8, Ordering::Relaxed);
        m.store(a, 0, Some(b));
        assert_eq!(m.wl.len(), 1);
        // Post a GetWork request by hand — the collector's side of the
        // handshake — and drop the mutator before it ever polls a
        // safepoint: the deregistration race of a thread exiting with a
        // handshake in its mailbox.
        let word = (1 << 2) | 3;
        m.me.request.store(word, Ordering::Release);
        let me = Arc::clone(&m.me);
        let shared = Arc::clone(&m.shared);
        drop(m);
        // The drop acknowledged the pending round and handed the grey list
        // over rather than losing it.
        assert_eq!(me.ack.load(Ordering::Acquire), word);
        assert!(!me.active.load(Ordering::Acquire));
        assert!(shared.registry.lock().is_empty());
        let staged = shared.staged.take_all(&shared.heap);
        assert_eq!(staged.len(), 1);
        shared
            .phase
            .store(crate::Phase::Idle as u8, Ordering::Relaxed);
    }

    #[test]
    fn emergency_collection_recovers_garbage_single_threaded() {
        let c = Collector::new(GcConfig::new(4, 1));
        let mut m = c.register_mutator();
        for _ in 0..4 {
            let g = m.alloc(1).unwrap();
            m.discard(g);
        }
        // Heap full of garbage: the next alloc must drive an emergency
        // cycle from this very thread (answering its own handshakes) and
        // then succeed.
        let g = m.alloc(1).expect("emergency collection reclaims garbage");
        assert!(m.is_rooted(g));
        assert!(c.stats().emergency_cycles() >= 1);
        assert!(c.stats().cycles() >= 1);
    }

    #[test]
    fn exhausted_heap_reports_structured_error() {
        let c = Collector::new(GcConfig::new(4, 1).with_alloc_retries(2));
        let mut m = c.register_mutator();
        let _keep: Vec<_> = (0..4).map(|_| m.alloc(1).unwrap()).collect();
        match m.alloc(1) {
            Err(AllocError::Exhausted {
                live,
                capacity,
                cycles_tried,
            }) => {
                assert_eq!(live, 4);
                assert_eq!(capacity, 4);
                assert_eq!(cycles_tried, 2);
            }
            other => panic!("expected Exhausted, got {other:?}"),
        }
        assert_eq!(c.stats().emergency_cycles(), 2);
    }

    #[test]
    fn alloc_error_retryable_truth_table() {
        // `HeapFull` is the only transient verdict: a later cycle can
        // reclaim garbage. `Exhausted` (the heap survived full collections)
        // and `TooManyFields` (a caller bug) never heal by retrying.
        assert!(AllocError::HeapFull.is_retryable());
        assert!(!AllocError::Exhausted {
            live: 4,
            capacity: 4,
            cycles_tried: 2
        }
        .is_retryable());
        assert!(!AllocError::TooManyFields {
            requested: 9,
            max: 2
        }
        .is_retryable());
    }

    #[test]
    fn deadline_alloc_succeeds_when_a_cycle_reclaims_garbage() {
        let c = Collector::new(GcConfig::new(4, 1));
        let mut m = c.register_mutator();
        for _ in 0..4 {
            let g = m.alloc(1).unwrap();
            m.discard(g);
        }
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        let g = m
            .try_alloc_with_deadline(1, deadline)
            .expect("emergency cycle within the deadline");
        assert!(m.is_rooted(g));
    }

    #[test]
    fn deadline_alloc_times_out_retryable_instead_of_stalling() {
        // Hold the cycle lock for the whole test: no emergency cycle can
        // ever run, which is exactly the unbounded-stall scenario the
        // deadline bounds. Without the deadline, `alloc` would park here
        // forever (the retry budget only advances on completed cycles).
        let c = Collector::new(GcConfig::new(4, 1).with_alloc_retries(100));
        let mut m = c.register_mutator();
        let _keep: Vec<_> = (0..4).map(|_| m.alloc(1).unwrap()).collect();
        let shared = Arc::clone(&m.shared);
        let guard = shared.cycle_lock.lock();
        let t0 = Instant::now();
        let deadline = t0 + std::time::Duration::from_millis(20);
        let err = m.try_alloc_with_deadline(1, deadline).unwrap_err();
        assert!(matches!(err, AllocError::HeapFull));
        assert!(err.is_retryable(), "a deadline miss is worth retrying");
        // Bounded overshoot: one park of at most `emergency_backoff` (1ms
        // default) past the deadline, plus scheduling noise.
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(2),
            "the deadline bounded the stall"
        );
        // The parked waits were accounted honestly.
        assert!(c.stats().backoff_ns() > 0, "park time recorded");
        drop(guard);
    }

    #[test]
    fn alloc_retries_zero_fails_fast() {
        let c = Collector::new(GcConfig::new(2, 1).with_alloc_retries(0));
        let mut m = c.register_mutator();
        m.alloc(0).unwrap();
        m.alloc(0).unwrap();
        assert!(matches!(m.alloc(0), Err(AllocError::HeapFull)));
        assert_eq!(c.stats().cycles(), 0, "legacy path runs no cycles");
    }

    #[test]
    fn drop_deregisters() {
        let c = collector();
        let m = c.register_mutator();
        assert_eq!(c.stats().cycles(), 0);
        drop(m);
        // A cycle with no registered mutators completes immediately.
        c.collect();
        assert_eq!(c.stats().cycles(), 1);
    }
}
