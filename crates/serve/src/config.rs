//! Serve-harness configuration: workload shape, robustness switches, and
//! the derived [`GcConfig`].

use std::time::Duration;

use otf_gc::{FaultPlan, GcConfig, HeapLayout};

/// How the background collector is driven during a serve run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacingMode {
    /// Adaptive occupancy pacing: the collector idles until occupancy
    /// crosses `high` (per-mille), then cycles until it falls below `low`,
    /// with bounded exponential backoff between non-productive cycles
    /// (`GcConfigBuilder::occupancy_pacing`).
    Adaptive {
        /// Trigger watermark, per-mille of heap capacity.
        high: u32,
        /// Hysteresis floor, per-mille; cycling stops below it.
        low: u32,
    },
    /// The legacy free-running collector: back-to-back cycles regardless
    /// of occupancy.
    Continuous,
    /// No background collector at all — only mutator-driven emergency
    /// cycles reclaim memory. The ablation arm: allocation stalls land on
    /// request threads.
    ReactiveOnly,
}

/// Everything a serve run needs: heap geometry, workload shape, the
/// robustness switches the ablation flips off, and the chaos plan.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Heap capacity in slots.
    pub capacity: usize,
    /// Worker threads pulling from the admission queue.
    pub workers: usize,
    /// Distinct sessions the load draws from. Each live session pins two
    /// slots (the session object and its current state), so
    /// `2 * sessions / capacity` is the demand-to-capacity ratio the
    /// admission controller defends against.
    pub sessions: u32,
    /// Sessions `0..hot_sessions` are high-priority: never shed.
    pub hot_sessions: u32,
    /// Total requests the producer offers.
    pub requests: u64,
    /// Seed for the load stream (sessions, bursts) — independent of the
    /// chaos seed.
    pub seed: u64,
    /// Zipf exponent for session popularity (0 = uniform).
    pub zipf_exponent: f64,
    /// Admission queue capacity; pushes beyond it are rejected.
    pub queue_capacity: usize,
    /// Requests offered per arrival burst.
    pub burst: usize,
    /// Pause between bursts (the open-loop arrival pacing).
    pub arrival_pause: Duration,
    /// Short-lived allocations per request (the garbage burst).
    pub request_allocs: usize,
    /// Per-request deadline, measured from admission.
    pub deadline: Duration,
    /// Service-level objective on post-storm p99 latency; the recovery
    /// oracle fails the run if the p99 of requests completed after the
    /// chaos window exceeds this.
    pub slo: Duration,
    /// Shed watermark in per-mille of heap occupancy: low-priority
    /// requests are refused at admission once occupancy reaches it.
    /// `None` disables shedding (the ablation arm).
    pub shed_permille: Option<u32>,
    /// Collector pacing mode.
    pub pacing: PacingMode,
    /// Emergency-collection budget per allocation.
    pub alloc_retries: usize,
    /// Cap on the emergency-allocation backoff park.
    pub emergency_backoff: Duration,
    /// Handshake watchdog timeout (storms make this load-bearing).
    pub handshake_timeout: Duration,
    /// Fault-injection plan; [`ServeConfig::storm`] bounds it to the
    /// middle third of the run.
    pub chaos: FaultPlan,
    /// When true (and chaos is enabled), injection is suppressed outside
    /// the middle third of the request stream: warm-up and recovery are
    /// clean, so the recovery oracle has a fair window to measure.
    pub storm: bool,
}

impl ServeConfig {
    /// A CI-sized run: ~1k requests against a 256-slot heap with session
    /// demand at 250% of capacity, shedding at 650‰ and adaptive pacing
    /// at 550/400‰. The shed watermark leaves headroom for admission lag:
    /// a full queue of already-admitted session-creating requests (2
    /// slots each) must still fit under capacity. Survives on one core in
    /// a few seconds.
    ///
    /// The parameter is retained for `benchmark/`; delete it in the next
    /// `[benchmark]` PR.
    pub fn quick(_layout: HeapLayout) -> ServeConfig {
        ServeConfig {
            capacity: 256,
            workers: 3,
            sessions: 320,
            hot_sessions: 32,
            requests: 900,
            seed: 0x5eed_5e17e,
            zipf_exponent: 0.3,
            queue_capacity: 16,
            burst: 8,
            arrival_pause: Duration::from_micros(500),
            request_allocs: 6,
            deadline: Duration::from_millis(250),
            slo: Duration::from_millis(150),
            shed_permille: Some(650),
            pacing: PacingMode::Adaptive {
                high: 550,
                low: 400,
            },
            alloc_retries: 4,
            emergency_backoff: Duration::from_micros(500),
            handshake_timeout: Duration::from_millis(50),
            chaos: FaultPlan::none(),
            storm: false,
        }
    }

    /// The ablation arm: same load, same seed, but admission shedding and
    /// collector pacing both off. Under the quick sizing the live session
    /// demand (250% of capacity) then lands on the emergency allocator,
    /// which degrades to stalls and fatal `Exhausted` verdicts.
    #[must_use]
    pub fn ablation(mut self) -> ServeConfig {
        self.shed_permille = None;
        self.pacing = PacingMode::ReactiveOnly;
        self
    }

    /// Installs a chaos plan bounded to the middle third of the run.
    #[must_use]
    pub fn with_storm(mut self, plan: FaultPlan) -> ServeConfig {
        self.chaos = plan;
        self.storm = true;
        self
    }

    /// The derived runtime configuration.
    pub fn gc_config(&self) -> GcConfig {
        let b = GcConfig::builder()
            .capacity(self.capacity)
            .max_fields(2)
            .handshake_timeout(self.handshake_timeout)
            .evict_dead(true)
            .emergency_retries(self.alloc_retries)
            .emergency_backoff(self.emergency_backoff)
            .chaos(self.chaos.clone());
        match self.pacing {
            PacingMode::Adaptive { high, low } => b.occupancy_pacing(high, low).build(),
            PacingMode::Continuous | PacingMode::ReactiveOnly => b.no_occupancy_pacing().build(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_config_builds_a_valid_gc_config_in_every_mode() {
        let quick = ServeConfig::quick(HeapLayout::Slab);
        assert_eq!(quick.gc_config().capacity, 256);
        assert!(quick.gc_config().pacing_high.is_some());
        let ablation = quick.clone().ablation();
        assert_eq!(ablation.shed_permille, None);
        assert!(ablation.gc_config().pacing_high.is_none());
        // Same load stream in both arms: the comparison is seed-for-seed.
        assert_eq!(quick.seed, ablation.seed);
        assert_eq!(quick.requests, ablation.requests);
    }
}
