//! Deterministic fault injection: the chaos engine.
//!
//! The paper's argument is that the collector survives *adversarial*
//! schedules on x86-TSO, yet a polite test harness only ever produces the
//! cooperative ones. A [`FaultPlan`] manufactures the adversarial schedules
//! on purpose: it is a seeded, deterministic description of *which*
//! robustness-critical edges misbehave and *how often*, threaded through
//! [`GcConfig`](crate::GcConfig) into every injection site.
//!
//! Each site draws from its own SplitMix64 stream — decision `n` of site
//! `s` under seed `k` is a pure function of `(k, s, n)`, so a plan is
//! reproducible given the same draw sequence (thread interleaving still
//! varies, as it must: the faults perturb real schedules). Every fault that
//! actually fires is counted per-site in [`GcStats`](crate::GcStats), so a
//! test can assert the chaos it asked for really happened.
//!
//! [`FaultPlan::none`] is the default and is zero-cost on the hot paths:
//! every site is guarded by a single branch on a plain `bool` field.
//!
//! The sites, and the paper scenario each one stresses:
//!
//! * [`ChaosSite::HandshakeDelay`] — yield storms in the mutator's
//!   handshake ack path (the raggedness of Fig. 3/4's soft handshakes);
//! * [`ChaosSite::CasLost`] — spurious `MarkOutcome::Lost` first
//!   attempts in the Fig. 5 marking CAS (contention on the mark bit);
//! * [`ChaosSite::Silence`] — a mutator ignores handshake requests for
//!   [`FaultPlan::silence_generations`] generations (a stalled thread, the
//!   schedule that wedges a watchdog-less collector);
//! * [`ChaosSite::MutatorPanic`] — a mutator panics between the deletion
//!   and insertion barrier of Fig. 6's `Store` (death mid-protocol);
//! * [`ChaosSite::SlowTransfer`] — artificially slow `Staged` work-list
//!   transfers (a mutator lingering inside the handshake's transfer step);
//! * [`ChaosSite::CollectorPanic`] — the collector worker itself panics at
//!   the start of a chosen cycle (exercises [`Collector::stop`]'s
//!   panic-swallowing join);
//! * [`ChaosSite::MarkDelay`] — yield storms inside the collector's mark
//!   loop (a descheduled collector mid-trace: mutators keep allocating and
//!   greying against a trace that is barely progressing). The time spent
//!   is accounted to [`CycleStats::chaos_ns`](crate::CycleStats::chaos_ns),
//!   *excluded* from `mark_ns`, so timing reports stay honest under chaos;
//! * [`ChaosSite::WorkerPanic`] — an *application* worker thread panics at
//!   a request boundary (the serve harness's site: the worker's
//!   [`Mutator`](crate::Mutator) unwinds through its panicking-drop
//!   salvage path and a supervisor must recover without losing sessions).
//!   The runtime only supplies the deterministic draw
//!   ([`Collector::chaos_fires`](crate::Collector::chaos_fires)); the
//!   panic itself is the harness's job.
//!
//! [`Collector::stop`]: crate::Collector::stop

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Probability scale: rates are expressed per [`RATE_SCALE`] draws.
pub const RATE_SCALE: u32 = 10_000;

/// A robustness-critical injection site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum ChaosSite {
    /// Yield storm before a mutator acknowledges a handshake.
    HandshakeDelay = 0,
    /// Spurious lost-then-retried marking CAS.
    CasLost = 1,
    /// Mutator goes silent for N handshake generations.
    Silence = 2,
    /// Mutator panics mid-write-barrier.
    MutatorPanic = 3,
    /// Artificially slow staged work-list transfer.
    SlowTransfer = 4,
    /// Collector worker panics at the start of a cycle.
    CollectorPanic = 5,
    /// Yield storm inside the collector's mark loop.
    MarkDelay = 6,
    /// Application worker panics at a request boundary (drawn by the serve
    /// harness through [`Collector::chaos_fires`](crate::Collector::chaos_fires)).
    WorkerPanic = 7,
}

impl ChaosSite {
    /// Number of injection sites.
    pub const COUNT: usize = 8;

    /// Every site, in `repr` order.
    pub const ALL: [ChaosSite; ChaosSite::COUNT] = [
        ChaosSite::HandshakeDelay,
        ChaosSite::CasLost,
        ChaosSite::Silence,
        ChaosSite::MutatorPanic,
        ChaosSite::SlowTransfer,
        ChaosSite::CollectorPanic,
        ChaosSite::MarkDelay,
        ChaosSite::WorkerPanic,
    ];

    /// A short stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            ChaosSite::HandshakeDelay => "handshake_delay",
            ChaosSite::CasLost => "cas_lost",
            ChaosSite::Silence => "silence",
            ChaosSite::MutatorPanic => "mutator_panic",
            ChaosSite::SlowTransfer => "slow_transfer",
            ChaosSite::CollectorPanic => "collector_panic",
            ChaosSite::MarkDelay => "mark_delay",
            ChaosSite::WorkerPanic => "worker_panic",
        }
    }

    /// The id that salts the site's decision stream. Ids never change, so a
    /// seed draws the same streams whatever sites come or go; 7 and 8 are
    /// retired.
    fn stream(self) -> u64 {
        match self {
            ChaosSite::WorkerPanic => 9,
            site => site as u64,
        }
    }
}

/// One step of the SplitMix64 generator (Steele et al.): advances `state`
/// by the generator's increment and returns the full avalanche of the new
/// state. Tiny, statistically fine for fault scheduling and load
/// generation, and dependency-free; `gc_serve::SplitMix64` is this function
/// over a stored state.
#[inline]
pub fn splitmix64_next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The first draw of the SplitMix64 stream seeded with `x`: a pure hash of
/// a 64-bit counter, which is how the fault sites use it.
#[inline]
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    splitmix64_next(&mut x)
}

/// A seeded, deterministic fault-injection plan.
///
/// Rates are probabilities per [`RATE_SCALE`] (so `500` ≈ 5%). The plan is
/// pure configuration — the draw counters live with the collector — so it
/// is `Clone + Eq` and rides inside [`GcConfig`](crate::GcConfig).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    enabled: bool,
    seed: u64,
    /// Rate of yield storms in the handshake ack path.
    pub handshake_delay: u32,
    /// Rate of spurious lost-then-retried marking CASes.
    pub cas_lost: u32,
    /// Rate at which a pending handshake request sends the mutator silent.
    pub silence: u32,
    /// How many handshake generations a silenced mutator ignores.
    pub silence_generations: u32,
    /// Rate of injected panics mid-write-barrier.
    pub mutator_panic: u32,
    /// Rate of artificially slow staged transfers.
    pub slow_transfer: u32,
    /// Panic the collector at the start of cycle N (0-based, fires once).
    pub collector_panic_at_cycle: Option<u64>,
    /// Rate of yield storms inside the collector's mark loop (per traced
    /// object).
    pub mark_delay: u32,
    /// Rate of injected worker panics at a request boundary (serve harness).
    pub worker_panic: u32,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// No chaos: every site disabled, zero-cost on the hot paths.
    pub fn none() -> Self {
        FaultPlan {
            enabled: false,
            seed: 0,
            handshake_delay: 0,
            cas_lost: 0,
            silence: 0,
            silence_generations: 3,
            mutator_panic: 0,
            slow_transfer: 0,
            collector_panic_at_cycle: None,
            mark_delay: 0,
            worker_panic: 0,
        }
    }

    /// An all-zero-rate plan under `seed` with injection *armed*: use the
    /// `with_*` builders to switch individual sites on.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            enabled: true,
            seed,
            ..FaultPlan::none()
        }
    }

    /// A randomized moderate-intensity plan derived entirely from `seed` —
    /// what the torture harness sweeps. Delay, CAS-loss and slow-transfer
    /// rates land in ranges that perturb most cycles; silence and panics
    /// stay rare enough that runs terminate.
    pub fn from_seed(seed: u64) -> Self {
        let r = |salt: u64, lo: u32, hi: u32| {
            lo + (splitmix64(seed ^ salt.wrapping_mul(0xa076_1d64_78bd_642f)) % u64::from(hi - lo))
                as u32
        };
        FaultPlan {
            enabled: true,
            seed,
            handshake_delay: r(1, 50, 800),
            cas_lost: r(2, 50, 800),
            silence: r(3, 0, 160),
            silence_generations: 1 + (r(4, 0, 4)),
            // A write barrier runs thousands of times per torture thread:
            // even single-digit rates kill most threads eventually, which
            // is the point — but keep them alive long enough to matter.
            mutator_panic: r(5, 0, 3),
            slow_transfer: r(6, 50, 500),
            collector_panic_at_cycle: None,
            // Per traced object, so even small rates stretch most marks.
            mark_delay: r(7, 20, 300),
            // Per request: like mutator panics, rare enough that a run's
            // workers spend most of their time alive.
            worker_panic: r(10, 0, 3),
        }
    }

    /// Sets the handshake-delay rate.
    #[must_use]
    pub fn with_handshake_delay(mut self, rate: u32) -> Self {
        self.handshake_delay = rate;
        self
    }

    /// Sets the spurious-CAS-loss rate.
    #[must_use]
    pub fn with_cas_lost(mut self, rate: u32) -> Self {
        self.cas_lost = rate;
        self
    }

    /// Sets the silence rate and generation count.
    #[must_use]
    pub fn with_silence(mut self, rate: u32, generations: u32) -> Self {
        self.silence = rate;
        self.silence_generations = generations;
        self
    }

    /// Sets the mid-barrier panic rate.
    #[must_use]
    pub fn with_mutator_panic(mut self, rate: u32) -> Self {
        self.mutator_panic = rate;
        self
    }

    /// Sets the slow-transfer rate.
    #[must_use]
    pub fn with_slow_transfer(mut self, rate: u32) -> Self {
        self.slow_transfer = rate;
        self
    }

    /// Panic the collector at the start of completed-cycle `n` (once).
    #[must_use]
    pub fn with_collector_panic_at_cycle(mut self, n: u64) -> Self {
        self.collector_panic_at_cycle = Some(n);
        self
    }

    /// Sets the mark-loop delay-storm rate.
    #[must_use]
    pub fn with_mark_delay(mut self, rate: u32) -> Self {
        self.mark_delay = rate;
        self
    }

    /// Sets the request-boundary worker-panic rate.
    #[must_use]
    pub fn with_worker_panic(mut self, rate: u32) -> Self {
        self.worker_panic = rate;
        self
    }

    /// Whether any injection is armed. The single-branch guard every hot
    /// path checks first.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    fn rate(&self, site: ChaosSite) -> u32 {
        match site {
            ChaosSite::HandshakeDelay => self.handshake_delay,
            ChaosSite::CasLost => self.cas_lost,
            ChaosSite::Silence => self.silence,
            ChaosSite::MutatorPanic => self.mutator_panic,
            ChaosSite::SlowTransfer => self.slow_transfer,
            ChaosSite::CollectorPanic => 0, // cycle-indexed, not rate-drawn
            ChaosSite::MarkDelay => self.mark_delay,
            ChaosSite::WorkerPanic => self.worker_panic,
        }
    }

    /// Draws the site's next decision. Decision `n` is the pure function
    /// `splitmix64(seed ⊕ salt(site) ⊕ n) mod RATE_SCALE < rate`, the salt
    /// derived from the site's stream id.
    #[inline]
    pub(crate) fn fires(&self, site: ChaosSite, state: &ChaosState) -> bool {
        if !self.enabled || state.suppressed.load(Ordering::Relaxed) {
            return false;
        }
        let rate = self.rate(site);
        if rate == 0 {
            return false;
        }
        let n = state.draws[site as usize].fetch_add(1, Ordering::Relaxed);
        let salt = (site.stream() + 1).wrapping_mul(0xd6e8_feb8_6659_fd93);
        (splitmix64(self.seed ^ salt ^ n) % u64::from(RATE_SCALE)) < u64::from(rate)
    }
}

/// Per-collector chaos runtime state: the draw counters behind each site's
/// deterministic decision stream, the once-only latch for the
/// collector-panic site, and the runtime suppression switch
/// ([`Collector::suppress_chaos`](crate::Collector::suppress_chaos)) that
/// lets a harness bound a chaos storm to a window of the run.
#[derive(Debug, Default)]
pub(crate) struct ChaosState {
    draws: [AtomicU64; ChaosSite::COUNT],
    pub(crate) collector_panicked: AtomicBool,
    pub(crate) suppressed: AtomicBool,
}

/// How long an injected delay storm spins, in `yield_now` calls.
pub(crate) const STORM_YIELDS: u32 = 24;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_fires() {
        let plan = FaultPlan::none();
        let state = ChaosState::default();
        assert!(!plan.enabled());
        for site in ChaosSite::ALL {
            for _ in 0..100 {
                assert!(!plan.fires(site, &state));
            }
        }
        // Disabled plans must not even consume draws (zero-cost guard).
        assert_eq!(state.draws[0].load(Ordering::Relaxed), 0);
    }

    #[test]
    fn decision_stream_is_deterministic_per_seed() {
        let plan = FaultPlan::new(42).with_cas_lost(2_500);
        let a = ChaosState::default();
        let b = ChaosState::default();
        let seq_a: Vec<bool> = (0..256)
            .map(|_| plan.fires(ChaosSite::CasLost, &a))
            .collect();
        let seq_b: Vec<bool> = (0..256)
            .map(|_| plan.fires(ChaosSite::CasLost, &b))
            .collect();
        assert_eq!(seq_a, seq_b);
        let fired = seq_a.iter().filter(|&&f| f).count();
        // ~25% of 256 draws; loose band, the stream is fixed by the seed.
        assert!((20..110).contains(&fired), "fired {fired}");
        // A different seed gives a different stream.
        let plan2 = FaultPlan::new(43).with_cas_lost(2_500);
        let c = ChaosState::default();
        let seq_c: Vec<bool> = (0..256)
            .map(|_| plan2.fires(ChaosSite::CasLost, &c))
            .collect();
        assert_ne!(seq_a, seq_c);
    }

    #[test]
    fn sites_draw_independent_streams() {
        let plan = FaultPlan::new(7)
            .with_cas_lost(5_000)
            .with_handshake_delay(5_000);
        let state = ChaosState::default();
        let a: Vec<bool> = (0..64)
            .map(|_| plan.fires(ChaosSite::CasLost, &state))
            .collect();
        let b: Vec<bool> = (0..64)
            .map(|_| plan.fires(ChaosSite::HandshakeDelay, &state))
            .collect();
        assert_ne!(a, b, "equal-rate sites must not share a stream");
    }

    #[test]
    fn from_seed_rates_are_in_band() {
        for seed in 0..64u64 {
            let p = FaultPlan::from_seed(seed);
            assert!(p.enabled());
            assert!(p.handshake_delay < RATE_SCALE);
            assert!(p.cas_lost < RATE_SCALE);
            assert!(p.silence < RATE_SCALE);
            assert!(p.mutator_panic < RATE_SCALE);
            assert!(p.slow_transfer < RATE_SCALE);
            assert!(p.mark_delay < RATE_SCALE);
            assert!(p.worker_panic < RATE_SCALE);
            assert!((1..=4).contains(&p.silence_generations));
            assert_eq!(FaultPlan::from_seed(seed), p, "derivation is pure");
        }
    }

    #[test]
    fn suppression_silences_fires_without_consuming_draws() {
        let plan = FaultPlan::new(11).with_worker_panic(RATE_SCALE);
        let state = ChaosState::default();
        assert!(plan.fires(ChaosSite::WorkerPanic, &state));
        state.suppressed.store(true, Ordering::Relaxed);
        let before = state.draws[ChaosSite::WorkerPanic as usize].load(Ordering::Relaxed);
        for _ in 0..32 {
            assert!(!plan.fires(ChaosSite::WorkerPanic, &state));
        }
        assert_eq!(
            state.draws[ChaosSite::WorkerPanic as usize].load(Ordering::Relaxed),
            before,
            "suppressed draws must not advance the deterministic stream"
        );
        state.suppressed.store(false, Ordering::Relaxed);
        assert!(plan.fires(ChaosSite::WorkerPanic, &state));
    }

    #[test]
    fn every_site_keeps_its_recorded_decision_stream() {
        // The first 64 decisions (bit i = decision i) of every site at
        // rate 5,000 under three seeds, recorded before two sites were
        // removed. A site's stream must not move when others come or go.
        const PINNED: [(u64, [u64; ChaosSite::COUNT]); 3] = [
            (
                1,
                [
                    0xcf76_2eaf_8662_2efd,
                    0x5d1f_d14d_c170_1376,
                    0x0541_b65e_7baf_1e6a,
                    0x52b4_529b_2cef_0ad9,
                    0x349b_304c_9981_0630,
                    0,
                    0xa939_cc76_bb4d_9c70,
                    0xb632_95e5_8528_560d,
                ],
            ),
            (
                0xc4a05,
                [
                    0xe937_f2d4_117f_ce90,
                    0xf0bd_79b9_7856_0dfa,
                    0x5a85_30fb_cdb6_df82,
                    0xf536_7b6b_999a_f769,
                    0xc248_34a8_58c3_1e89,
                    0,
                    0xb677_6c59_dca8_6823,
                    0x73b0_20bb_95a5_9846,
                ],
            ),
            (
                0xdead_beef,
                [
                    0xd5e5_ca7d_189e_ea69,
                    0x72fd_c2ff_5594_ad4c,
                    0xda56_a8d0_bfcb_868a,
                    0xeceb_e9b8_0497_7573,
                    0x4622_c9ca_ebf7_dcfe,
                    0,
                    0x6996_87d0_181f_0ff0,
                    0x3828_2cad_60ac_6154,
                ],
            ),
        ];
        for (seed, streams) in PINNED {
            let plan = FaultPlan::new(seed)
                .with_handshake_delay(5_000)
                .with_cas_lost(5_000)
                .with_silence(5_000, 3)
                .with_mutator_panic(5_000)
                .with_slow_transfer(5_000)
                .with_mark_delay(5_000)
                .with_worker_panic(5_000);
            let state = ChaosState::default();
            for (site, want) in ChaosSite::ALL.into_iter().zip(streams) {
                let got = (0..64).fold(0u64, |bits, i| {
                    bits | u64::from(plan.fires(site, &state)) << i
                });
                assert_eq!(got, want, "seed {seed:#x}, site {}", site.name());
            }
        }
    }
}
