//! The collector: Figure 2's cycle on real threads, plus the handshake
//! watchdog that keeps it live under adversarial schedules.

use std::sync::atomic::{fence, AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::sync::{Backoff, Mutex};

use crate::chaos::{ChaosSite, ChaosState, STORM_YIELDS};
use crate::config::GcConfig;
use crate::handle::Gc;
use crate::heap::{Heap, MarkOutcome, Phase};
use crate::mutator::Mutator;
use crate::stats::{CycleStats, GcStats};
use crate::worklist::{LocalList, Staged};

/// How often the paced collector polls occupancy while below the trigger
/// watermark.
const PACING_POLL: Duration = Duration::from_micros(200);

/// Cap on the exponential backoff between consecutive paced cycles that
/// fail to move occupancy below the high watermark — the live set simply
/// doesn't fit below it, and re-running cycles back-to-back would
/// degenerate into a stop-the-mutators storm.
const PACING_BACKOFF: Duration = Duration::from_millis(5);

/// Identifier of a registered mutator, assigned at
/// [`Collector::register_mutator`] and reported by
/// [`CycleOutcome::TimedOut`].
pub type MutId = u32;

/// Soft-handshake types, encoded into the low bits of the request word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub(crate) enum HsTy {
    /// Acknowledge a control-state change.
    Noop = 1,
    /// Mark own roots, then transfer the private work-list.
    GetRoots = 2,
    /// Transfer the private work-list (termination polling).
    GetWork = 3,
}

/// Per-mutator handshake mailbox.
pub(crate) struct MutatorShared {
    /// The mutator's registration id.
    pub(crate) id: MutId,
    /// The pending request word: `(generation << 2) | type`, 0 = none.
    pub(crate) request: AtomicU32,
    /// The last request word this mutator acknowledged.
    pub(crate) ack: AtomicU32,
    /// Cleared when the mutator deregisters; an inactive mutator counts as
    /// having acknowledged everything.
    pub(crate) active: AtomicBool,
    /// Liveness beat: bumped on every [`Mutator::safepoint`] call. A beat
    /// that never moves across a whole watchdog window is the signature of
    /// a thread that died (or leaked its handle) without deregistering.
    pub(crate) beat: AtomicU64,
    /// Mirror of the mutator's root-set size. Eviction is only sound for a
    /// mutator that provably holds no roots (its private root set cannot be
    /// scanned, so evicting a rooted mutator silently drops its roots from
    /// the reachability snapshot); this mirror plus the commit/rollback
    /// protocol of [`Shared::try_evict`] makes that proof race-free.
    pub(crate) root_count: AtomicUsize,
    /// Whether the mutator holds untransferred grey work. Greys are
    /// already-black parents whose children have not been traced: losing
    /// them to an eviction would let the sweep free reachable children.
    pub(crate) has_grey: AtomicBool,
    /// Set when an eviction *commits*: the handle is revoked, and any later
    /// root-creating operation through it fail-stops.
    pub(crate) evicted: AtomicBool,
}

/// How one soft-handshake round ended.
enum HsOutcome {
    /// Every registered mutator acknowledged (or deregistered, or was
    /// evicted as dead).
    Done,
    /// [`Collector::stop`] was requested mid-round.
    Stopped,
    /// The watchdog expired with these mutators still alive but silent.
    TimedOut(Vec<MutId>),
}

/// Everything shared between the collector and the mutators.
pub(crate) struct Shared {
    pub(crate) cfg: GcConfig,
    pub(crate) heap: Heap,
    /// The collector phase, read racily by barriers (by design, §2.4).
    pub(crate) phase: AtomicU8,
    /// The mark sense `f_M`.
    pub(crate) fm: AtomicBool,
    /// The allocation sense `f_A`.
    pub(crate) fa: AtomicBool,
    /// The staged work-list channel mutators transfer into.
    pub(crate) staged: Staged,
    /// Registered mutators.
    pub(crate) registry: Mutex<Vec<Arc<MutatorShared>>>,
    /// Next mutator registration id.
    pub(crate) next_mut_id: AtomicU32,
    /// Handshake generation counter.
    pub(crate) gen: AtomicU32,
    /// Serialises collection cycles (the collector worker, explicit
    /// [`Collector::collect`] calls, and mutator-driven emergency cycles).
    pub(crate) cycle_lock: Mutex<()>,
    /// Stop request for the background worker and in-flight cycles.
    pub(crate) stop: AtomicBool,
    /// Set by every aborted cycle: the heap may be two-toned (stale marks
    /// from the partial cycle). The next cycle repaints it black in the
    /// current sense before flipping — see
    /// [`Heap::normalize_marks`](crate::heap::Heap::normalize_marks).
    pub(crate) marks_dirty: AtomicBool,
    /// Draw counters for the deterministic fault-injection streams.
    pub(crate) chaos: ChaosState,
    pub(crate) stats: GcStats,
}

impl Shared {
    /// Draws the next chaos decision for `site`, counting fires in the
    /// stats. The `enabled` check is a single branch on a plain bool, so
    /// with [`FaultPlan::none`](crate::FaultPlan::none) this is free.
    #[inline]
    pub(crate) fn chaos_fires(&self, site: ChaosSite) -> bool {
        if !self.cfg.chaos.enabled() {
            return false;
        }
        if self.cfg.chaos.fires(site, &self.chaos) {
            self.stats.chaos_fired[site as usize].fetch_add(1, Ordering::Relaxed);
            trace_event!(ChaosFired { site: site as u8 });
            true
        } else {
            false
        }
    }

    /// The `mark` operation of Figure 5, shared by the collector's mark
    /// loop, root marking, and the write barriers.
    ///
    /// Fast path: a relaxed flag load and a relaxed phase load. Slow path:
    /// one `compare_exchange`; the unique winner pushes the object onto
    /// `wl`.
    pub(crate) fn mark(&self, g: Gc, wl: &mut LocalList) {
        self.stats.barrier_checks.fetch_add(1, Ordering::Relaxed);
        let fm = self.fm.load(Ordering::Relaxed);
        if self.heap.flag_equals(g, fm) {
            return; // already marked in this sense: the common case
        }
        if self.phase.load(Ordering::Relaxed) == Phase::Idle as u8 {
            return; // no collection in progress: barriers are inert
        }
        if self.chaos_fires(ChaosSite::CasLost) {
            // Injected contention: the first CAS attempt spuriously reports
            // `Lost` — as if a racing marker had won — and the barrier
            // retries. The retry below keeps marking sound.
            self.stats.barrier_cas_lost.fetch_add(1, Ordering::Relaxed);
        }
        match self.heap.try_mark(g, fm) {
            MarkOutcome::Won => {
                self.stats.barrier_cas_won.fetch_add(1, Ordering::Relaxed);
                trace_event!(MarkCas { won: true });
                wl.push(&self.heap, g);
            }
            MarkOutcome::Lost => {
                self.stats.barrier_cas_lost.fetch_add(1, Ordering::Relaxed);
                trace_event!(MarkCas { won: false });
            }
            MarkOutcome::AlreadyMarked => {}
        }
    }

    /// One round of soft handshakes: flag every registered mutator and wait
    /// — with bounded exponential backoff — until each has acknowledged,
    /// deregistered, or been evicted by the watchdog.
    ///
    /// `self_serve` is invoked on every wait iteration so that a cycle
    /// driven *from a mutator thread* (the emergency-collection path) can
    /// answer its own handshake instead of deadlocking on it.
    fn handshake(&self, ty: HsTy, self_serve: &mut dyn FnMut()) -> HsOutcome {
        self.stats.handshakes.fetch_add(1, Ordering::Relaxed);
        // The collector's store fence: its control-variable writes are
        // globally visible before any mutator sees the request.
        fence(Ordering::SeqCst);
        let gen = self.gen.fetch_add(1, Ordering::Relaxed) + 1;
        trace_event!(HandshakeBegin {
            generation: gen,
            ty: ty as u8
        });
        let word = (gen << 2) | ty as u32;
        let mutators: Vec<Arc<MutatorShared>> = self.registry.lock().clone();
        // Beat snapshots taken at post time: the watchdog's evidence base.
        let beats: Vec<u64> = mutators
            .iter()
            .map(|m| m.beat.load(Ordering::Acquire))
            .collect();
        for m in &mutators {
            m.request.store(word, Ordering::Release);
        }

        let mut deadline = self.cfg.handshake_timeout.map(|t| Instant::now() + t);
        let mut backoff = Backoff::new();
        loop {
            let pending = mutators
                .iter()
                .any(|m| m.active.load(Ordering::Acquire) && m.ack.load(Ordering::Acquire) != word);
            if !pending {
                break;
            }
            if self.stop.load(Ordering::Acquire) {
                trace_event!(HandshakeEnd {
                    generation: gen,
                    ty: ty as u8,
                    outcome: 1
                });
                return HsOutcome::Stopped;
            }
            if let Some(d) = deadline {
                if Instant::now() >= d {
                    // Watchdog: separate the provably-dead (no beat for the
                    // whole window) from the stalled-but-alive.
                    let mut stalled = Vec::new();
                    let mut evicted = false;
                    for (m, &beat0) in mutators.iter().zip(&beats) {
                        if !m.active.load(Ordering::Acquire)
                            || m.ack.load(Ordering::Acquire) == word
                        {
                            continue;
                        }
                        if m.beat.load(Ordering::Acquire) == beat0 && self.try_evict(m) {
                            evicted = true;
                        } else {
                            stalled.push(m.id);
                        }
                    }
                    if !stalled.is_empty() {
                        trace_event!(HandshakeEnd {
                            generation: gen,
                            ty: ty as u8,
                            outcome: 2
                        });
                        return HsOutcome::TimedOut(stalled);
                    }
                    if evicted {
                        // The blockers are gone; give the survivors (if
                        // any raced in) a fresh window.
                        deadline = self.cfg.handshake_timeout.map(|t| Instant::now() + t);
                        backoff.reset();
                        continue;
                    }
                }
            }
            self_serve();
            backoff.wait();
        }
        // The collector's load fence after the round completes.
        fence(Ordering::SeqCst);
        trace_event!(HandshakeEnd {
            generation: gen,
            ty: ty as u8,
            outcome: 0
        });
        HsOutcome::Done
    }

    /// Common abort tail: restore the Idle invariants a completed cycle
    /// would have re-established (`f_A == f_M`, phase idle) and mark the
    /// heap dirty for the next cycle's repaint. The grey work the cycle
    /// leaves behind — in the staged channel and in each mutator's private
    /// list — is dropped at the next cycle's first handshake, the first
    /// point at which no mutator can still be adding to it.
    fn abort_cycle(&self) {
        self.fa
            .store(self.fm.load(Ordering::Relaxed), Ordering::Relaxed);
        self.phase.store(Phase::Idle as u8, Ordering::Relaxed);
        trace_event!(PhaseEnter {
            phase: Phase::Idle as u8
        });
        self.marks_dirty.store(true, Ordering::Release);
    }

    /// Tries to evict a mutator whose thread is presumed dead (no beat for
    /// a whole watchdog window), returning whether the eviction committed.
    ///
    /// A beat-less mutator might still just be stalled — descheduled past
    /// the window — and eviction abandons its *private* state, so it is
    /// only sound when that state is provably empty: no roots (they would
    /// silently leave the reachability snapshot) and no untransferred greys
    /// (their children would never be traced). The tentative-deactivate /
    /// check / commit-or-rollback dance pairs with the mutator's
    /// root-creation guard (`Mutator::root`): under the total order of the
    /// `SeqCst` accesses, a racing root creation either lands its count
    /// before our check — aborting the eviction — or observes our
    /// deactivation and fail-stops before the root exists. A mutator we
    /// cannot evict is reported as stalled ([`CycleOutcome::TimedOut`])
    /// instead.
    fn try_evict(&self, m: &Arc<MutatorShared>) -> bool {
        m.active.store(false, Ordering::SeqCst); // tentative
        if m.root_count.load(Ordering::SeqCst) != 0 || m.has_grey.load(Ordering::SeqCst) {
            // Can't prove its private state empty: roll back. (The
            // transient deactivation is invisible to the handshake's
            // pending check — cycles are serialised and we run inside one.)
            m.active.store(true, Ordering::SeqCst);
            return false;
        }
        m.evicted.store(true, Ordering::SeqCst); // commit: handle revoked
        self.registry.lock().retain(|x| !Arc::ptr_eq(x, m));
        self.stats.evictions.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Runs one complete mark-sweep cycle (Figure 2) on the calling thread,
    /// serialised against every other cycle driver. `self_serve` lets a
    /// mutator-driven cycle answer its own handshakes.
    pub(crate) fn run_cycle(&self, self_serve: &mut dyn FnMut()) -> CycleOutcome {
        let _guard = self.cycle_lock.lock();
        self.run_cycle_locked(self_serve)
    }

    /// Like [`Shared::run_cycle`] but gives up immediately when another
    /// cycle is in flight (the emergency-allocation path helps that cycle
    /// along instead of queueing behind it while it waits for us).
    pub(crate) fn try_run_cycle(&self, self_serve: &mut dyn FnMut()) -> Option<CycleOutcome> {
        let _guard = self.cycle_lock.try_lock()?;
        Some(self.run_cycle_locked(self_serve))
    }

    fn run_cycle_locked(&self, self_serve: &mut dyn FnMut()) -> CycleOutcome {
        let sh = self;
        let t0 = Instant::now();
        let mut cycle = CycleStats::default();
        let cycle_idx = sh.stats.cycles();
        trace_event!(CycleBegin { cycle: cycle_idx });

        // Chaos: the collector itself can be scheduled to die at the start
        // of a chosen cycle (exercising the panic-swallowing join).
        if sh.cfg.chaos.enabled() {
            if let Some(n) = sh.cfg.chaos.collector_panic_at_cycle {
                if sh.stats.cycles() >= n
                    && !sh.chaos.collector_panicked.swap(true, Ordering::Relaxed)
                {
                    sh.stats.chaos_fired[ChaosSite::CollectorPanic as usize]
                        .fetch_add(1, Ordering::Relaxed);
                    panic!("chaos: injected collector panic at cycle {n}");
                }
            }
        }

        // Abort path for a stop request or watchdog expiry mid-cycle.
        // Nothing has been freed, but the partial cycle may have left the
        // heap two-toned (objects marked or allocated black in the flipped
        // sense among objects still carrying the old one) — and stale
        // *black* marks would truncate a later trace above still-white
        // children. So: restore the phase and `f_A` and flag the heap dirty
        // so the next cycle repaints it before flipping; that cycle also
        // drops the grey work this one leaves behind (below).
        macro_rules! hs_or_abort {
            ($ty:expr) => {
                let hs_t0 = Instant::now();
                let r = sh.handshake($ty, self_serve);
                cycle.handshake_ns += hs_t0.elapsed().as_nanos() as u64;
                match r {
                    HsOutcome::Done => {}
                    HsOutcome::Stopped => {
                        sh.abort_cycle();
                        trace_event!(CycleEnd {
                            cycle: cycle_idx,
                            freed: 0,
                            traced: cycle.traced as u32
                        });
                        return CycleOutcome::Stopped(cycle);
                    }
                    HsOutcome::TimedOut(stalled) => {
                        sh.abort_cycle();
                        sh.stats.cycle_timeouts.fetch_add(1, Ordering::Relaxed);
                        trace_event!(CycleEnd {
                            cycle: cycle_idx,
                            freed: 0,
                            traced: cycle.traced as u32
                        });
                        return CycleOutcome::TimedOut {
                            stalled,
                            partial: cycle,
                        };
                    }
                }
            };
        }

        // Lines 3–4: everyone agrees the collector is idle; the heap is
        // black in the current sense.
        hs_or_abort!(HsTy::Noop);

        // Every mutator is at Idle with barriers inert and has dropped its
        // private grey list on the way (`Mutator::answer`); what an aborted
        // cycle's stragglers — a silenced mutator answering the stale
        // get-roots word late, an unwinding one's `Drop` — transferred
        // since is dropped here. A stale grey kept past this point is
        // white again after the repaint and flip below: the next marker to
        // win its CAS pushes it onto a second list and the overwritten
        // link closes a loop. Nothing is lost: the repaint re-traces an
        // aborted cycle from the roots, and a completed one ends with every
        // list empty (`gc_W_empty_mut_inv`). Not walked — it may be cyclic.
        sh.staged.discard();

        // Per-cycle backoff is reported as the delta of the global
        // counter between here and cycle end.
        let backoff_before = sh.stats.backoff_ns.load(Ordering::Relaxed);

        // Recover from a previous abort: every mutator has now synchronised
        // past the handshake above (so no allocation with a stale `f_A` can
        // race us, and barriers are inert at Idle) — repaint the heap
        // uniformly black in the current sense before the flip makes it
        // white. Skipped entirely on the clean path.
        if sh.marks_dirty.swap(false, Ordering::AcqRel) {
            sh.heap.normalize_marks(sh.fm.load(Ordering::Relaxed));
        }

        // Line 5: flip the mark sense — the heap becomes white.
        let fm = !sh.fm.load(Ordering::Relaxed);
        sh.fm.store(fm, Ordering::Relaxed);
        hs_or_abort!(HsTy::Noop);

        // Line 8: leave idle; write barriers arm as mutators observe it.
        sh.phase.store(Phase::Init as u8, Ordering::Relaxed);
        trace_event!(PhaseEnter {
            phase: Phase::Init as u8
        });
        hs_or_abort!(HsTy::Noop);

        // Lines 11–12: start marking; newly allocated objects are black.
        sh.phase.store(Phase::Mark as u8, Ordering::Relaxed);
        trace_event!(PhaseEnter {
            phase: Phase::Mark as u8
        });
        sh.fa.store(fm, Ordering::Relaxed);
        hs_or_abort!(HsTy::Noop);

        // Lines 15–20: each mutator marks and transfers its roots.
        hs_or_abort!(HsTy::GetRoots);
        let mut w = sh.staged.take_all(&sh.heap);
        cycle.received += w.len();

        // Lines 25–34: trace until no grey work remains anywhere.
        loop {
            let t_mark = Instant::now();
            let mut round_chaos_ns = 0u64;
            while let Some(src) = w.pop(&sh.heap) {
                if sh.chaos_fires(ChaosSite::MarkDelay) {
                    // Injected descheduling mid-trace. The storm's cost is
                    // accounted to `chaos_ns` and excluded from `mark_ns` so
                    // timing reports stay honest under chaos.
                    let t_chaos = Instant::now();
                    for _ in 0..STORM_YIELDS {
                        std::thread::yield_now();
                    }
                    round_chaos_ns += t_chaos.elapsed().as_nanos() as u64;
                }
                let n = sh.heap.nfields(src);
                for f in 0..n {
                    if let Some(child) = sh.heap.load_field(src, f) {
                        sh.mark(child, &mut w);
                    }
                }
                cycle.traced += 1;
                assert!(
                    cycle.traced <= sh.heap.capacity(),
                    "work-list cycle: valid_W_inv"
                );
            }
            cycle.chaos_ns += round_chaos_ns;
            cycle.mark_ns += (t_mark.elapsed().as_nanos() as u64).saturating_sub(round_chaos_ns);
            hs_or_abort!(HsTy::GetWork);
            cycle.work_rounds += 1;
            w = sh.staged.take_all(&sh.heap);
            cycle.received += w.len();
            if w.is_empty() {
                break;
            }
        }

        // Lines 37–45: sweep the heap, freeing unmarked objects.
        sh.phase.store(Phase::Sweep as u8, Ordering::Relaxed);
        trace_event!(PhaseEnter {
            phase: Phase::Sweep as u8
        });
        let t_sweep = Instant::now();
        for idx in 0..sh.heap.capacity() as u32 {
            let (alloc, flag, _) = sh.heap.slot_status(idx);
            if alloc && flag != fm {
                sh.heap.free_slot(idx);
                cycle.freed += 1;
            }
        }
        cycle.sweep_ns = t_sweep.elapsed().as_nanos() as u64;
        sh.phase.store(Phase::Idle as u8, Ordering::Relaxed);
        trace_event!(PhaseEnter {
            phase: Phase::Idle as u8
        });

        cycle.backoff_ns = sh.stats.backoff_ns.load(Ordering::Relaxed) - backoff_before;
        cycle.live_after = sh.heap.live();
        cycle.duration_ns = t0.elapsed().as_nanos() as u64;
        debug_assert!(
            cycle.timing_consistent(),
            "phase timings exceed cycle duration: {cycle:?}"
        );
        sh.stats.cycles.fetch_add(1, Ordering::Relaxed);
        sh.stats
            .freed
            .fetch_add(cycle.freed as u64, Ordering::Relaxed);
        sh.stats.history.lock().push(cycle);
        trace_event!(CycleEnd {
            cycle: cycle_idx,
            freed: cycle.freed as u32,
            traced: cycle.traced as u32
        });
        CycleOutcome::Completed(cycle)
    }
}

/// How a collection cycle ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CycleOutcome {
    /// The full mark-sweep cycle ran to completion.
    Completed(CycleStats),
    /// [`Collector::stop`] arrived mid-cycle; the cycle aborted safely
    /// (marks are idempotent and nothing was freed).
    Stopped(CycleStats),
    /// The handshake watchdog
    /// ([`GcConfig::handshake_timeout`](crate::GcConfig::handshake_timeout))
    /// expired with live-but-silent mutators; the cycle aborted safely
    /// instead of hanging.
    TimedOut {
        /// Registration ids of the mutators that never acknowledged.
        stalled: Vec<MutId>,
        /// Statistics for the partial cycle.
        partial: CycleStats,
    },
}

impl CycleOutcome {
    /// The cycle statistics, whatever the outcome.
    pub fn stats(&self) -> &CycleStats {
        match self {
            CycleOutcome::Completed(s) | CycleOutcome::Stopped(s) => s,
            CycleOutcome::TimedOut { partial, .. } => partial,
        }
    }

    /// Whether the cycle ran to completion (traced and swept).
    pub fn is_completed(&self) -> bool {
        matches!(self, CycleOutcome::Completed(_))
    }

    /// Whether the watchdog aborted the cycle.
    pub fn is_timed_out(&self) -> bool {
        matches!(self, CycleOutcome::TimedOut { .. })
    }

    /// Consumes the outcome, returning the cycle statistics.
    pub fn into_stats(self) -> CycleStats {
        match self {
            CycleOutcome::Completed(s) | CycleOutcome::Stopped(s) => s,
            CycleOutcome::TimedOut { partial, .. } => partial,
        }
    }
}

/// The on-the-fly mark-sweep collector.
///
/// Create one with [`Collector::new`], register mutator threads with
/// [`Collector::register_mutator`], and either run cycles continuously on a
/// background thread ([`Collector::start`]/[`Collector::stop`]) or drive
/// single cycles with [`Collector::collect`] from a thread whose registered
/// mutators are answering handshakes.
pub struct Collector {
    shared: Arc<Shared>,
    worker: Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for Collector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Collector")
            .field("capacity", &self.shared.heap.capacity())
            .field("phase", &self.phase())
            .field("cycles", &self.shared.stats.cycles())
            .finish()
    }
}

impl Collector {
    /// Creates a collector with the given configuration. The heap starts
    /// empty and the collector idle.
    pub fn new(cfg: GcConfig) -> Self {
        let heap = Heap::new(cfg.capacity, cfg.max_fields);
        Collector {
            shared: Arc::new(Shared {
                cfg,
                heap,
                phase: AtomicU8::new(Phase::Idle as u8),
                fm: AtomicBool::new(false),
                fa: AtomicBool::new(false),
                staged: Staged::new(),
                registry: Mutex::new(Vec::new()),
                next_mut_id: AtomicU32::new(0),
                gen: AtomicU32::new(0),
                cycle_lock: Mutex::new(()),
                stop: AtomicBool::new(false),
                marks_dirty: AtomicBool::new(false),
                chaos: ChaosState::default(),
                stats: GcStats::default(),
            }),
            worker: Mutex::new(None),
        }
    }

    /// Registers a new mutator thread and returns its handle. The handle
    /// answers handshakes at [`Mutator::safepoint`] and deregisters itself
    /// on drop.
    pub fn register_mutator(&self) -> Mutator {
        let id = self.shared.next_mut_id.fetch_add(1, Ordering::Relaxed);
        let me = Arc::new(MutatorShared {
            id,
            request: AtomicU32::new(0),
            ack: AtomicU32::new(0),
            active: AtomicBool::new(true),
            beat: AtomicU64::new(0),
            root_count: AtomicUsize::new(0),
            has_grey: AtomicBool::new(false),
            evicted: AtomicBool::new(false),
        });
        self.shared.registry.lock().push(Arc::clone(&me));
        Mutator::new(Arc::clone(&self.shared), me)
    }

    /// The current collector phase.
    pub fn phase(&self) -> Phase {
        Phase::from_u8(self.shared.phase.load(Ordering::Relaxed))
    }

    /// Collector statistics.
    pub fn stats(&self) -> &GcStats {
        &self.shared.stats
    }

    /// Number of currently allocated objects (O(capacity)).
    pub fn live_objects(&self) -> usize {
        self.shared.heap.live()
    }

    /// Runs one complete mark-sweep cycle (Figure 2) on the calling thread.
    ///
    /// Every registered mutator must be answering handshakes (calling
    /// [`Mutator::safepoint`]) from its own thread; without a
    /// [`handshake_timeout`](crate::GcConfig::handshake_timeout) this
    /// blocks until they do, with one it returns
    /// [`CycleOutcome::TimedOut`] instead of hanging. Concurrent calls are
    /// serialised.
    pub fn collect(&self) -> CycleOutcome {
        self.shared.run_cycle(&mut || {})
    }

    /// Spawns a background thread running collection cycles until
    /// [`Collector::stop`].
    ///
    /// Without [`GcConfig::pacing_high`](crate::GcConfig::pacing_high) the
    /// worker runs cycles back-to-back (the legacy behaviour). With it, the
    /// worker *paces* itself off the occupancy signal: it idles (polling
    /// every 200 µs) while occupancy is below the high watermark, then
    /// cycles until occupancy drops below the low watermark — and when
    /// consecutive cycles fail to get back under the high watermark (the
    /// live set simply doesn't fit), it backs off exponentially up to 5 ms
    /// instead of hammering the mutators with back-to-back handshake
    /// storms.
    ///
    /// # Panics
    ///
    /// Panics if already started.
    pub fn start(&self) {
        let mut worker = self.worker.lock();
        assert!(worker.is_none(), "collector already started");
        self.shared.stop.store(false, Ordering::Release);
        let shared = Arc::clone(&self.shared);
        *worker = Some(
            std::thread::Builder::new()
                .name("otf-gc".into())
                .spawn(move || match shared.cfg.pacing_high {
                    None => {
                        while !shared.stop.load(Ordering::Acquire) {
                            let _ = shared.run_cycle(&mut || {});
                            std::thread::yield_now();
                        }
                    }
                    Some(high_pm) => {
                        let high = high_pm as f64 / 1000.0;
                        let low = shared.cfg.pacing_low as f64 / 1000.0;
                        let mut backoff = Backoff::with_max_sleep(PACING_BACKOFF);
                        while !shared.stop.load(Ordering::Acquire) {
                            let occ = shared.heap.occupancy();
                            trace_event!(Counter {
                                id: 0,
                                value: (occ * 1000.0) as u64
                            });
                            if occ < high {
                                backoff.reset();
                                std::thread::sleep(PACING_POLL);
                                continue;
                            }
                            // Triggered: cycle down to the hysteresis floor.
                            while !shared.stop.load(Ordering::Acquire) {
                                let _ = shared.run_cycle(&mut || {});
                                let now = shared.heap.occupancy();
                                trace_event!(Counter {
                                    id: 0,
                                    value: (now * 1000.0) as u64
                                });
                                if now < low {
                                    backoff.reset();
                                    break;
                                }
                                if now >= high {
                                    // Non-productive cycle: the survivors
                                    // alone keep us over the watermark.
                                    // Bounded exponential backoff before
                                    // trying again.
                                    backoff.wait();
                                } else {
                                    backoff.reset();
                                }
                            }
                        }
                    }
                })
                .expect("spawn collector thread"),
        );
    }

    /// Fraction of the heap currently unavailable for allocation, in
    /// `0.0..=1.0`. This is the signal the paced background collector and
    /// any admission-control layer (e.g. `gc-serve`'s shed-by-occupancy
    /// policy) key off. O(1): live objects and pool-reserved slots are
    /// what the free list does not hold.
    pub fn heap_occupancy(&self) -> f64 {
        self.shared.heap.occupancy()
    }

    /// Draws the next decision of `site`'s deterministic chaos stream,
    /// counting fires in [`GcStats::chaos_fired`](crate::GcStats). This is
    /// the hook for harness-level fault sites — e.g.
    /// [`ChaosSite::WorkerPanic`] is drawn per request by an application
    /// harness, not by the collector — so their draws share the plan's
    /// seeded streams and show up in the same chaos accounting. Free (a
    /// single branch) when no [`FaultPlan`](crate::FaultPlan) is installed.
    pub fn chaos_fires(&self, site: ChaosSite) -> bool {
        self.shared.chaos_fires(site)
    }

    /// Gates every chaos stream off (`true`) or back on (`false`) without
    /// consuming draws, so a harness can bound a fault storm to a window
    /// and then measure recovery — e.g. post-storm tail latency — against
    /// the *same* deterministic streams it would have seen uninterrupted.
    pub fn suppress_chaos(&self, on: bool) {
        self.shared.chaos.suppressed.store(on, Ordering::Release);
    }

    /// Internal access for the white-box integrity check.
    pub(crate) fn shared_for_debug(&self) -> &Shared {
        &self.shared
    }

    /// Stops the background collector thread (if running) after its current
    /// cycle. A worker that died of a panic is swallowed here and recorded
    /// in [`GcStats::worker_panics`] — stopping a crashed collector never
    /// takes the caller down with it.
    pub fn stop(&self) {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(handle) = self.worker.lock().take() {
            if handle.join().is_err() {
                self.shared
                    .stats
                    .worker_panics
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

impl Drop for Collector {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::FaultPlan;
    use crate::config::GcConfig;
    use std::time::Duration;

    /// A `capacity`-slot, one-field heap with the handshake watchdog armed
    /// at `ms` milliseconds.
    fn watched(capacity: usize, ms: u64) -> GcConfig {
        GcConfig::builder()
            .capacity(capacity)
            .max_fields(1)
            .handshake_timeout(Duration::from_millis(ms))
            .build()
    }

    #[test]
    fn empty_heap_cycle_runs_with_no_mutators() {
        let c = Collector::new(GcConfig::new(8, 2));
        let out = c.collect();
        assert!(out.is_completed());
        assert_eq!(out.stats().freed, 0);
        assert_eq!(out.stats().traced, 0);
        assert_eq!(c.stats().cycles(), 1);
        assert_eq!(c.phase(), Phase::Idle);
    }

    #[test]
    fn unreachable_objects_are_collected() {
        let c = Collector::new(GcConfig::new(8, 2));
        let mut m = c.register_mutator();
        let a = m.alloc(1).unwrap();
        let b = m.alloc(1).unwrap();
        m.store(a, 0, Some(b));
        m.discard(b);
        m.discard(a); // everything garbage now

        // Drive the cycle from another thread while this one answers
        // handshakes.
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                c.collect();
                done.store(true, Ordering::Release);
            });
            while !done.load(Ordering::Acquire) {
                m.safepoint();
                std::thread::yield_now();
            }
        });
        assert_eq!(c.live_objects(), 0);
        assert_eq!(c.stats().freed(), 2);
    }

    #[test]
    fn reachable_objects_survive() {
        let c = Collector::new(GcConfig::new(8, 2));
        let mut m = c.register_mutator();
        let a = m.alloc(1).unwrap();
        let b = m.alloc(1).unwrap();
        m.store(a, 0, Some(b));
        m.discard(b); // b lives only through a.0

        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                c.collect();
                done.store(true, Ordering::Release);
            });
            while !done.load(Ordering::Acquire) {
                m.safepoint();
                std::thread::yield_now();
            }
        });
        assert_eq!(c.live_objects(), 2);
        // b is still loadable through a.
        let b2 = m.load(a, 0).expect("b survived");
        assert_eq!(b2, b);
    }

    #[test]
    fn start_stop_background_collector() {
        let c = Collector::new(GcConfig::new(8, 1));
        let mut m = c.register_mutator();
        c.start();
        let a = m.alloc(1).unwrap();
        while c.stats().cycles() < 3 {
            m.safepoint();
            std::thread::yield_now();
        }
        c.stop();
        // The rooted object survived every cycle.
        let _ = m.load(a, 0);
    }

    #[test]
    fn paced_collector_idles_until_watermark() {
        let cfg = GcConfig::builder()
            .capacity(8)
            .max_fields(1)
            .occupancy_pacing(500, 250)
            .build();
        let c = Collector::new(cfg);
        let mut m = c.register_mutator();
        c.start();
        // Empty heap: the paced worker polls but never cycles.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(c.stats().cycles(), 0, "paced collector cycled while idle");
        // Fill past the 50% watermark with garbage; the pacer must trigger
        // and drain back below the hysteresis floor.
        for _ in 0..6 {
            let g = m.alloc(1).unwrap();
            m.discard(g);
        }
        while c.stats().cycles() == 0 {
            m.safepoint();
            std::thread::yield_now();
        }
        c.stop();
        assert!(c.heap_occupancy() < 0.5, "trigger drained the garbage");
    }

    #[test]
    fn stop_swallows_worker_panic() {
        let cfg = GcConfig::builder()
            .capacity(8)
            .max_fields(1)
            .chaos(FaultPlan::new(1).with_collector_panic_at_cycle(0))
            .build();
        let c = Collector::new(cfg);
        c.start();
        // The worker dies at the start of its first cycle; wait for it.
        while c.stats().chaos_fired(ChaosSite::CollectorPanic) == 0 {
            std::thread::yield_now();
        }
        c.stop(); // must NOT propagate the panic
        assert_eq!(c.stats().worker_panics(), 1);
        // The panic latch is once-only: the caller can still collect.
        let out = c.collect();
        assert!(out.is_completed());
    }

    #[test]
    fn watchdog_times_out_on_a_stalled_live_mutator() {
        let cfg = watched(8, 25);
        let c = Collector::new(cfg);
        let m = c.register_mutator();
        let id = m.id();
        // Keep the mutator's beat moving (alive) without ever acking.
        let stop_beating = AtomicBool::new(false);
        let started = AtomicBool::new(false);
        let out = std::thread::scope(|s| {
            s.spawn(|| {
                while !stop_beating.load(Ordering::Acquire) {
                    m.beat_for_test();
                    started.store(true, Ordering::Release);
                    std::thread::yield_now();
                }
            });
            // Wait for the first beat, or the watchdog's first window could
            // see the not-yet-scheduled beater as dead and evict it.
            while !started.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            let out = c.collect();
            stop_beating.store(true, Ordering::Release);
            out
        });
        match out {
            CycleOutcome::TimedOut { stalled, .. } => assert_eq!(stalled, vec![id]),
            other => panic!("expected TimedOut, got {other:?}"),
        }
        assert_eq!(c.phase(), Phase::Idle, "abort restores Idle");
        assert_eq!(c.stats().cycle_timeouts(), 1);
        assert_eq!(
            c.stats().evictions(),
            0,
            "a beating mutator is never evicted"
        );
        let sh = c.shared_for_debug();
        assert!(
            sh.marks_dirty.load(Ordering::Relaxed),
            "abort flags the heap for repaint"
        );
        assert_eq!(
            sh.fa.load(Ordering::Relaxed),
            sh.fm.load(Ordering::Relaxed),
            "abort restores f_A == f_M"
        );
    }

    #[test]
    fn abort_after_sense_flip_does_not_strand_reachable_children() {
        // Regression: a cycle aborted after flipping f_M leaves the heap
        // two-toned. Without the dirty-repaint, the next cycle's flip turns
        // the stale old-sense marks into "already marked", the trace
        // truncates at them, and their newer black-allocated children are
        // swept while reachable. Construct that post-abort state by hand.
        let c = Collector::new(GcConfig::new(8, 1));
        let mut m = c.register_mutator();
        let p = m.alloc(1).unwrap(); // flag = false (old sense)
        {
            let sh = c.shared_for_debug();
            // Simulate an abort that got past Mark: senses flipped...
            sh.fm.store(true, Ordering::Relaxed);
            sh.fa.store(true, Ordering::Relaxed);
        }
        // ...a child allocated black in the new sense and linked under the
        // old-sense parent...
        let child = m.alloc(1).unwrap(); // flag = true (new sense)
        m.store(p, 0, Some(child));
        m.discard(child); // reachable only through p.0
                          // ...and the abort tail's bookkeeping.
        c.shared_for_debug()
            .marks_dirty
            .store(true, Ordering::Release);

        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                assert!(c.collect().is_completed());
                done.store(true, Ordering::Release);
            });
            while !done.load(Ordering::Acquire) {
                m.safepoint();
                std::thread::yield_now();
            }
        });
        assert_eq!(c.live_objects(), 2, "the child survived the sweep");
        assert_eq!(m.load(p, 0), Some(child));
    }

    #[test]
    fn watchdog_evicts_a_beatless_mutator_and_completes() {
        let cfg = watched(8, 25);
        let c = Collector::new(cfg);
        let m = c.register_mutator();
        // Leak the handle: the mutator never beats, never acks, never
        // deregisters — the signature of a dead thread.
        std::mem::forget(m);
        let out = c.collect();
        assert!(out.is_completed(), "eviction unblocks the cycle: {out:?}");
        assert_eq!(c.stats().evictions(), 1);
        assert!(c.shared_for_debug().registry.lock().is_empty());
        // Later cycles need no watchdog at all.
        assert!(c.collect().is_completed());
        assert_eq!(c.stats().evictions(), 1);
    }

    #[test]
    fn watchdog_never_evicts_a_beatless_mutator_holding_roots() {
        // A beat-less mutator might be dead — or merely descheduled past
        // the window. Its private root set cannot be scanned, so evicting
        // it while it holds roots would silently drop them from the
        // reachability snapshot: the watchdog must report it stalled
        // instead.
        let cfg = watched(8, 25);
        let c = Collector::new(cfg);
        let mut m = c.register_mutator();
        let _a = m.alloc(1).unwrap();
        let id = m.id();
        std::mem::forget(m);
        let out = c.collect();
        match out {
            CycleOutcome::TimedOut { stalled, .. } => assert_eq!(stalled, vec![id]),
            other => panic!("expected TimedOut for a rooted zombie, got {other:?}"),
        }
        assert_eq!(c.stats().evictions(), 0);
        assert_eq!(c.live_objects(), 1, "the zombie's root was respected");
    }

    #[test]
    #[should_panic(expected = "evicted by the handshake watchdog")]
    fn evicted_handle_is_revoked() {
        // Eviction commits against a root-less, beat-less mutator. If the
        // "dead" thread then wakes up, the first root-creating operation
        // through the revoked handle must fail stop — the collector no
        // longer scans it, so letting the root land would be unsound.
        let cfg = watched(8, 25);
        let c = Collector::new(cfg);
        let mut m = c.register_mutator();
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                assert!(c.collect().is_completed(), "eviction unblocks the cycle");
                done.store(true, Ordering::Release);
            });
            // Play dead: no beats, no acks, until evicted.
            while !done.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
        });
        assert_eq!(c.stats().evictions(), 1);
        let _ = m.alloc(1); // revoked: panics
    }

    #[test]
    fn greys_of_an_aborted_cycle_are_not_enlisted_twice() {
        // Regression (the `gc-serve` hang): A greys objects during Mark, B's
        // silence times the cycle out, and A's private list kept the greys.
        // The next cycle repaints and flips, so they are white again; the
        // first marker to win the CAS pushed one onto a second list, the
        // overwritten link closed a loop, and `take_all` never returned.
        const CHAIN: usize = 32;
        let cfg = watched(64, 100);
        let c = Arc::new(Collector::new(cfg));
        let mut a = c.register_mutator();
        let mut b = c.register_mutator();
        // p -> x1 -> ... -> xCHAIN, only p rooted; q is where A stores.
        let p = a.alloc(1).unwrap();
        let q = a.alloc(1).unwrap();
        let mut tail = p;
        for _ in 0..CHAIN {
            let node = a.alloc(1).unwrap();
            a.store(tail, 0, Some(node));
            if tail != p {
                a.discard(tail);
            }
            tail = node;
        }
        a.discard(tail);

        let collect = |c: &Arc<Collector>| {
            let (tx, rx) = std::sync::mpsc::channel();
            let c = Arc::clone(c);
            std::thread::spawn(move || {
                let _ = tx.send(c.collect());
            });
            rx
        };

        // Cycle 1. Both answer until the collector announces Mark; checking
        // the phase before every answer means neither gets as far as the
        // get-roots round, so the chain is still white.
        let outcome = collect(&c);
        loop {
            if c.phase() == Phase::Mark {
                break;
            }
            a.safepoint();
            if c.phase() == Phase::Mark {
                break;
            }
            b.safepoint();
        }
        // B falls silent (alive: it beats). A keeps answering and keeps
        // storing chain nodes into q: each insertion barrier wins a CAS and
        // greys one, and all but the first few stay on A's private list —
        // with B silent no further round is posted for A to transfer at.
        let mut cur = p;
        let first = loop {
            a.safepoint();
            b.beat_for_test();
            if c.phase() == Phase::Mark {
                if let Some(next) = a.load(cur, 0) {
                    a.store(q, 0, Some(next));
                    if cur != p {
                        a.discard(cur);
                    }
                    cur = next;
                }
            }
            if let Ok(out) = outcome.try_recv() {
                break out;
            }
        };
        match first {
            CycleOutcome::TimedOut { stalled, .. } => assert_eq!(stalled, vec![b.id()]),
            other => panic!("expected TimedOut, got {other:?}"),
        }
        assert!(c.stats().barrier_cas_won() > 2, "A greyed chain nodes");
        if cur != p {
            a.discard(cur);
        }

        // Cycle 2, everyone cooperating, under a hard cap: before the fix
        // it never returned.
        let outcome = collect(&c);
        let t0 = Instant::now();
        let second = loop {
            a.safepoint();
            b.safepoint();
            match outcome.try_recv() {
                Ok(out) => break out,
                Err(std::sync::mpsc::TryRecvError::Disconnected) => {
                    panic!("the cycle after the abort panicked")
                }
                Err(std::sync::mpsc::TryRecvError::Empty) => {
                    assert!(t0.elapsed() < Duration::from_secs(20), "the cycle hung");
                }
            }
        };
        assert!(second.is_completed(), "{second:?}");
        // p, q and the chain are live and each was enlisted exactly once:
        // A handed over its two roots and none of the stale greys.
        assert_eq!(c.live_objects(), CHAIN + 2);
        assert_eq!(second.stats().traced, CHAIN + 2);
        assert_eq!(second.stats().received, 2);
    }

    #[test]
    fn timed_out_cycle_drops_staged_segments_safely() {
        // A cycle that aborts with grey work in the staged channel must not
        // leave dangling links for a later sweep to trip over.
        let cfg = watched(8, 20);
        let c = Collector::new(cfg);
        let mut m = c.register_mutator();
        let a = m.alloc(1).unwrap();
        m.discard(a);
        // Stall: never answer, but beat from this thread so we time out
        // rather than get evicted.
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                let out = c.collect();
                assert!(out.is_timed_out());
                done.store(true, Ordering::Release);
            });
            while !done.load(Ordering::Acquire) {
                m.beat_for_test();
                std::thread::yield_now();
            }
        });
        // Now cooperate: the very next completed cycle reclaims `a` without
        // tripping the use-after-free oracle on a stale staged link (the
        // abort repainted nothing here — the timeout hit before the flip —
        // but the dirty path runs either way).
        drop(m);
        assert!(c.collect().is_completed());
        assert_eq!(c.live_objects(), 0);
    }
}
