//! Collector statistics: global counters and per-cycle records.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::chaos::ChaosSite;
use crate::sync::Mutex;

/// A record of one completed collection cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CycleStats {
    /// Objects freed by this cycle's sweep.
    pub freed: usize,
    /// Objects traced (blackened) by the collector's mark loop.
    pub traced: usize,
    /// Grey references received from mutators (roots + barrier marks).
    pub received: usize,
    /// Work-transfer (termination) handshake rounds run.
    pub work_rounds: usize,
    /// Objects still allocated after the sweep.
    pub live_after: usize,
    /// Wall-clock duration of the cycle in nanoseconds.
    pub duration_ns: u64,
    /// Time spent initiating + awaiting soft handshakes (ns) — the cost of
    /// raggedness.
    pub handshake_ns: u64,
    /// Time spent in the collector's mark loop (ns), excluding the
    /// embedded termination handshakes *and* any injected chaos delays
    /// (those are accounted to [`CycleStats::chaos_ns`]).
    pub mark_ns: u64,
    /// Time spent sweeping (ns).
    pub sweep_ns: u64,
    /// Time lost to injected chaos delays inside the mark loop (ns) —
    /// [`ChaosSite::MarkDelay`] storms. Zero without chaos.
    pub chaos_ns: u64,
    /// Time allocating mutators spent parked in emergency-allocation
    /// backoff while this cycle ran (ns) — the delta of
    /// [`GcStats::backoff_ns`] over the cycle's window. This is
    /// *concurrent mutator-side* time, not a collector phase: it
    /// overlaps the cycle's wall clock (and can exceed it when several
    /// allocators park at once), so [`CycleStats::timing_consistent`]
    /// reports it without folding it into the phase sum. Before this
    /// field existed, emergency-backoff stalls were invisible to cycle
    /// accounting — serve-mode allocation stalls looked free.
    pub backoff_ns: u64,
}

impl CycleStats {
    /// The cycle duration.
    pub fn duration(&self) -> Duration {
        Duration::from_nanos(self.duration_ns)
    }

    /// Whether the phase timings compose: the handshake, mark, sweep and
    /// injected-chaos times are disjoint sub-intervals of the cycle, so
    /// their sum can never exceed the wall-clock duration. Asserted (in
    /// debug builds) at the end of every completed cycle.
    ///
    /// [`CycleStats::backoff_ns`] is deliberately *not* part of the sum:
    /// emergency-backoff parks happen on allocating mutator threads
    /// concurrently with the cycle (several allocators can park at once,
    /// so the total can exceed the cycle's own wall clock). It is
    /// accounted separately — reported per cycle here and globally in
    /// [`GcStats::backoff_ns`] — rather than silently dropped, which is
    /// what keeps serve-mode cycle accounting honest.
    pub fn timing_consistent(&self) -> bool {
        self.handshake_ns + self.mark_ns + self.sweep_ns + self.chaos_ns <= self.duration_ns
    }

    /// The cycle as a flat JSON object (stable keys, integer values).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"freed\":{},\"traced\":{},\"received\":{},\"work_rounds\":{},\
             \"live_after\":{},\"duration_ns\":{},\"handshake_ns\":{},\
             \"mark_ns\":{},\"sweep_ns\":{},\"chaos_ns\":{},\"backoff_ns\":{}}}",
            self.freed,
            self.traced,
            self.received,
            self.work_rounds,
            self.live_after,
            self.duration_ns,
            self.handshake_ns,
            self.mark_ns,
            self.sweep_ns,
            self.chaos_ns,
            self.backoff_ns
        )
    }
}

impl fmt::Display for CycleStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "freed {:>5}  traced {:>5}  recv {:>5}  rounds {:>2}  live {:>5}  \
             {:>8.2?} (hs {:.2?}, mark {:.2?}, sweep {:.2?})",
            self.freed,
            self.traced,
            self.received,
            self.work_rounds,
            self.live_after,
            Duration::from_nanos(self.duration_ns),
            Duration::from_nanos(self.handshake_ns),
            Duration::from_nanos(self.mark_ns),
            Duration::from_nanos(self.sweep_ns),
        )
    }
}

/// Global collector counters. All counters are monotonic and updated with
/// relaxed atomics (they are diagnostics, not synchronisation).
#[derive(Debug, Default)]
pub struct GcStats {
    pub(crate) cycles: AtomicU64,
    pub(crate) allocated: AtomicU64,
    pub(crate) freed: AtomicU64,
    pub(crate) barrier_checks: AtomicU64,
    pub(crate) barrier_cas_won: AtomicU64,
    pub(crate) barrier_cas_lost: AtomicU64,
    pub(crate) handshakes: AtomicU64,
    /// Collector worker panics swallowed by [`Collector::stop`]
    /// (see [`GcStats::worker_panics`]).
    ///
    /// [`Collector::stop`]: crate::Collector::stop
    pub(crate) worker_panics: AtomicU64,
    /// Mutators evicted by the handshake watchdog.
    pub(crate) evictions: AtomicU64,
    /// Cycles aborted by the handshake watchdog timeout.
    pub(crate) cycle_timeouts: AtomicU64,
    /// Emergency collection attempts triggered by a full heap.
    pub(crate) emergency_cycles: AtomicU64,
    /// §4 allocation-pool refills performed by mutators.
    pub(crate) pool_refills: AtomicU64,
    /// Total time allocating mutators spent parked in emergency-allocation
    /// backoff (ns).
    pub(crate) backoff_ns: AtomicU64,
    /// Chaos faults fired, per [`ChaosSite`] (indexed by `repr`).
    pub(crate) chaos_fired: [AtomicU64; ChaosSite::COUNT],
    pub(crate) history: Mutex<Vec<CycleStats>>,
}

impl GcStats {
    /// Completed collection cycles.
    pub fn cycles(&self) -> u64 {
        self.cycles.load(Ordering::Relaxed)
    }

    /// Objects ever allocated.
    pub fn allocated(&self) -> u64 {
        self.allocated.load(Ordering::Relaxed)
    }

    /// Objects ever freed.
    pub fn freed(&self) -> u64 {
        self.freed.load(Ordering::Relaxed)
    }

    /// `mark` invocations by write barriers and root marking (Figure 5
    /// entries — most terminate at the flag fast path).
    pub fn barrier_checks(&self) -> u64 {
        self.barrier_checks.load(Ordering::Relaxed)
    }

    /// Marking CASes won (objects turned grey by this side).
    pub fn barrier_cas_won(&self) -> u64 {
        self.barrier_cas_won.load(Ordering::Relaxed)
    }

    /// Marking CASes lost to a racing marker — the only case where the
    /// paper's design pays for synchronisation twice.
    pub fn barrier_cas_lost(&self) -> u64 {
        self.barrier_cas_lost.load(Ordering::Relaxed)
    }

    /// Soft-handshake rounds initiated.
    pub fn handshakes(&self) -> u64 {
        self.handshakes.load(Ordering::Relaxed)
    }

    /// Collector worker panics swallowed by
    /// [`Collector::stop`](crate::Collector::stop) instead of propagating
    /// into the caller.
    pub fn worker_panics(&self) -> u64 {
        self.worker_panics.load(Ordering::Relaxed)
    }

    /// Mutators evicted by the handshake watchdog: registered mutators that
    /// showed no liveness beat for a whole
    /// [`handshake_timeout`](crate::GcConfig::handshake_timeout) window.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Collection cycles aborted with
    /// [`CycleOutcome::TimedOut`](crate::CycleOutcome::TimedOut).
    pub fn cycle_timeouts(&self) -> u64 {
        self.cycle_timeouts.load(Ordering::Relaxed)
    }

    /// Emergency collection attempts run from
    /// [`Mutator::alloc`](crate::Mutator::alloc) on a full heap.
    pub fn emergency_cycles(&self) -> u64 {
        self.emergency_cycles.load(Ordering::Relaxed)
    }

    /// Refills of the mutators' thread-local allocation buffers: the §4
    /// pools ([`GcConfig::alloc_pool`](crate::GcConfig::alloc_pool)).
    /// Zero while pooling is off.
    ///
    /// Retained for `benchmark/`; delete in the next `[benchmark]` PR.
    pub fn tlab_refills(&self) -> u64 {
        self.pool_refills.load(Ordering::Relaxed)
    }

    /// Always zero: the sweep is the collector's, never lazy.
    ///
    /// Retained for `benchmark/`; delete in the next `[benchmark]` PR.
    pub fn lazy_sweep_segments(&self) -> u64 {
        0
    }

    /// Total time allocating mutators have spent parked in
    /// emergency-allocation backoff, in nanoseconds — waiting for an
    /// in-flight cycle they could not join. The allocation-stall signal
    /// the serve harness exports; per-cycle deltas land in
    /// [`CycleStats::backoff_ns`].
    pub fn backoff_ns(&self) -> u64 {
        self.backoff_ns.load(Ordering::Relaxed)
    }

    /// Chaos faults that actually fired at `site` — the assertion handle
    /// for fault-injection tests.
    pub fn chaos_fired(&self, site: ChaosSite) -> u64 {
        self.chaos_fired[site as usize].load(Ordering::Relaxed)
    }

    /// Chaos faults fired across every site.
    pub fn chaos_fired_total(&self) -> u64 {
        self.chaos_fired
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Per-cycle records, oldest first.
    pub fn history(&self) -> Vec<CycleStats> {
        self.history.lock().clone()
    }

    /// Every counter as `(name, value)` rows, in a stable order — the one
    /// source for [`GcStats::summary`] and [`GcStats::to_json`].
    fn rows(&self) -> Vec<(String, u64)> {
        let mut rows = vec![
            ("cycles".to_owned(), self.cycles()),
            ("allocated".to_owned(), self.allocated()),
            ("freed".to_owned(), self.freed()),
            ("barrier_checks".to_owned(), self.barrier_checks()),
            ("barrier_cas_won".to_owned(), self.barrier_cas_won()),
            ("barrier_cas_lost".to_owned(), self.barrier_cas_lost()),
            ("handshakes".to_owned(), self.handshakes()),
            ("worker_panics".to_owned(), self.worker_panics()),
            ("evictions".to_owned(), self.evictions()),
            ("cycle_timeouts".to_owned(), self.cycle_timeouts()),
            ("emergency_cycles".to_owned(), self.emergency_cycles()),
            ("pool_refills".to_owned(), self.tlab_refills()),
            ("backoff_ns".to_owned(), self.backoff_ns()),
        ];
        for site in ChaosSite::ALL {
            let fired = self.chaos_fired(site);
            if fired > 0 {
                rows.push((format!("chaos_{}", site.name()), fired));
            }
        }
        rows
    }

    /// A human-readable counter table — what the bench bins print instead
    /// of each rolling its own ad-hoc dump. Zero chaos counters are
    /// omitted; everything else always appears.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (name, value) in self.rows() {
            let _ = writeln!(out, "  {name:<20} {value:>12}");
        }
        out
    }

    /// The global counters as a flat JSON object (no per-cycle history).
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .rows()
            .iter()
            .map(|(name, value)| format!("\"{name}\":{value}"))
            .collect();
        format!("{{{}}}", fields.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_start_at_zero() {
        let s = GcStats::default();
        assert_eq!(s.cycles(), 0);
        assert_eq!(s.allocated(), 0);
        assert!(s.history().is_empty());
    }

    #[test]
    fn cycle_stats_duration() {
        let c = CycleStats {
            duration_ns: 1_500,
            ..CycleStats::default()
        };
        assert_eq!(c.duration(), Duration::from_nanos(1500));
    }

    #[test]
    fn timing_composition_bounds_duration() {
        let good = CycleStats {
            duration_ns: 100,
            handshake_ns: 40,
            mark_ns: 30,
            sweep_ns: 20,
            chaos_ns: 10,
            ..CycleStats::default()
        };
        assert!(good.timing_consistent());
        let bad = CycleStats {
            duration_ns: 100,
            handshake_ns: 60,
            mark_ns: 30,
            sweep_ns: 20,
            chaos_ns: 0,
            ..CycleStats::default()
        };
        assert!(!bad.timing_consistent());
        // Emergency-backoff park time is concurrent mutator-side time:
        // it may exceed the cycle's own wall clock (several allocators
        // parked at once) without breaking the phase composition.
        let parked = CycleStats {
            duration_ns: 100,
            handshake_ns: 40,
            mark_ns: 30,
            sweep_ns: 20,
            chaos_ns: 10,
            backoff_ns: 400,
            ..CycleStats::default()
        };
        assert!(parked.timing_consistent());
    }

    #[test]
    fn cycle_stats_display_and_json() {
        let c = CycleStats {
            freed: 3,
            traced: 9,
            received: 4,
            work_rounds: 2,
            live_after: 7,
            duration_ns: 1_000,
            handshake_ns: 500,
            mark_ns: 200,
            sweep_ns: 100,
            chaos_ns: 50,
            backoff_ns: 25,
        };
        let text = c.to_string();
        assert!(text.contains("freed     3"));
        assert!(text.contains("traced     9"));
        let json = c.to_json();
        assert!(json.contains("\"freed\":3"));
        assert!(json.contains("\"chaos_ns\":50"));
        assert!(json.contains("\"backoff_ns\":25"));
        // Braces balance; keys are quoted: crude but dependency-free shape
        // checks (the real parser lives in gc-trace's integration tests).
        assert!(json.starts_with('{') && json.ends_with('}'));
    }

    #[test]
    fn gc_stats_summary_and_json_list_all_counters() {
        let s = GcStats::default();
        s.cycles.store(5, Ordering::Relaxed);
        s.allocated.store(123, Ordering::Relaxed);
        s.chaos_fired[ChaosSite::CasLost as usize].store(2, Ordering::Relaxed);
        let summary = s.summary();
        assert!(summary.contains("cycles"));
        assert!(summary.contains("chaos_cas_lost"));
        assert!(
            !summary.contains("chaos_silence"),
            "zero chaos counters omitted"
        );
        let json = s.to_json();
        assert!(json.contains("\"cycles\":5"));
        assert!(json.contains("\"allocated\":123"));
        assert!(json.contains("\"chaos_cas_lost\":2"));
        assert!(json.contains("\"backoff_ns\":0"));
    }
}
