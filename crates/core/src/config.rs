//! Runtime collector configuration.
//!
//! The supported way to build a configuration is the builder:
//!
//! ```
//! use otf_gc::GcConfig;
//! use std::time::Duration;
//!
//! let cfg = GcConfig::builder()
//!     .capacity(4096)
//!     .max_fields(2)
//!     .alloc_pool(32)
//!     .handshake_timeout(Duration::from_millis(50))
//!     .emergency_retries(2)
//!     .build();
//! assert_eq!(cfg.capacity, 4096);
//! ```
//!
//! The struct's fields remain `pub` so existing code keeps compiling, but
//! **direct field mutation is deprecated in favour of the builder**: the
//! builder validates cross-field invariants (handle index space, pacing
//! watermarks) at [`GcConfigBuilder::build`], which ad-hoc mutation silently
//! skips. [`GcConfig::new`] and the `with_*` helpers remain as shorthands
//! and route through the same validation.

use std::error::Error;
use std::fmt;
use std::time::Duration;

use crate::chaos::FaultPlan;

/// How the heap arranges its object slots. One layout ships: the
/// verified model's flat slot array with a single free list, eagerly swept
/// by the collector (plus the §4 per-mutator pools,
/// [`GcConfig::alloc_pool`]).
///
/// Retained for `benchmark/`; delete in the next `[benchmark]` PR.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HeapLayout {
    /// The verified model's layout.
    #[default]
    Slab,
}

impl HeapLayout {
    /// A short stable name for reports and bench records.
    pub fn name(&self) -> &'static str {
        "slab"
    }
}

/// A configuration rejected by [`GcConfigBuilder::try_build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The heap capacity is zero or exceeds the handle index space.
    Capacity(usize),
    /// The per-object field bound exceeds the header's 8-bit field count.
    MaxFields(usize),
    /// Occupancy-pacing watermarks are out of range or inverted.
    Pacing {
        /// The offending high watermark (per-mille).
        high: u32,
        /// The offending low watermark (per-mille).
        low: u32,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Capacity(c) => {
                write!(f, "heap capacity {c} must be positive and < 2^32 - 1")
            }
            ConfigError::MaxFields(n) => write!(f, "max_fields {n} exceeds the bound of 255"),
            ConfigError::Pacing { high, low } => write!(
                f,
                "pacing watermarks invalid: high {high}‰ must be in 1..=1000 \
                 and low {low}‰ must be strictly below high"
            ),
        }
    }
}

impl Error for ConfigError {}

/// Configuration for a [`Collector`](crate::Collector).
///
/// Build one with [`GcConfig::builder`] (preferred) or [`GcConfig::new`].
/// The ablation switches mirror the model's (`gc-model::ModelConfig`) so
/// that the stress tests can reproduce on real threads exactly the failures
/// the model checker exhibits as traces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GcConfig {
    /// Number of object slots in the heap.
    pub capacity: usize,
    /// Maximum reference fields per object (per-object counts are chosen at
    /// allocation, up to this bound).
    pub max_fields: usize,
    /// Validate every heap access against the slot epoch (use-after-free
    /// detection — the runtime oracle for the safety property). Costs two
    /// relaxed loads per access; on for all tests.
    pub validate: bool,
    /// **Ablation** — `false` removes the deletion barrier from
    /// [`Mutator::store`](crate::Mutator::store).
    pub deletion_barrier: bool,
    /// **Ablation** — `false` removes the insertion barrier.
    pub insertion_barrier: bool,
    /// **Ablation** — `false` replaces the marking CAS by an
    /// unsynchronised read-modify-write (racing markers may both "win").
    pub mark_cas: bool,
    /// **Ablation** — `false` removes the handshake fences.
    pub handshake_fences: bool,
    /// Per-mutator allocation pool size (the §4 extension): each mutator
    /// reserves this many slots from the global free list at a time and
    /// allocates from them without synchronisation. `0` disables pooling
    /// (every allocation takes the free-list lock, as in the verified
    /// model).
    pub alloc_pool: usize,
    /// Handshake watchdog: how long a soft-handshake round may wait for
    /// stragglers before the watchdog acts (evicting beat-less mutators
    /// and/or aborting the cycle with
    /// [`CycleOutcome::TimedOut`](crate::CycleOutcome::TimedOut)). `None`
    /// (the default) waits forever, as the verified model assumes every
    /// mutator eventually reaches a safe point.
    pub handshake_timeout: Option<Duration>,
    /// When the watchdog fires, evict mutators whose liveness beat never
    /// moved during the whole timeout window — the signature of a thread
    /// that died (or was leaked) without deregistering. Mutators that are
    /// beating but not acknowledging are never evicted (they may still hold
    /// live roots); they time the cycle out instead. Only meaningful with
    /// [`handshake_timeout`](GcConfig::handshake_timeout) set.
    pub evict_dead: bool,
    /// Graceful degradation: how many emergency collection cycles
    /// [`Mutator::alloc`](crate::Mutator::alloc) attempts (with backoff)
    /// when the heap is full before surfacing
    /// [`AllocError::Exhausted`](crate::AllocError::Exhausted). `0`
    /// restores the legacy behaviour of returning
    /// [`AllocError::HeapFull`](crate::AllocError::HeapFull) immediately.
    /// Set via [`GcConfigBuilder::emergency_retries`].
    pub alloc_retries: usize,
    /// Cap on the exponential backoff sleep while an emergency allocation
    /// waits on an in-flight cycle (see
    /// [`GcConfigBuilder::emergency_backoff`]).
    pub emergency_backoff: Duration,
    /// Adaptive pacing: heap-occupancy high watermark in per-mille
    /// (`850` = 85%). When set, the background collector thread started
    /// by [`Collector::start`](crate::Collector::start) runs cycles only
    /// while occupancy is at or above this watermark (with hysteresis
    /// down to [`pacing_low`](GcConfig::pacing_low)), idling between
    /// polls otherwise. `None` (the default) keeps the legacy behaviour:
    /// back-to-back cycles whenever the collector is started. Set via
    /// [`GcConfigBuilder::occupancy_pacing`].
    pub pacing_high: Option<u32>,
    /// Adaptive pacing: hysteresis floor in per-mille. Once triggered,
    /// the collector keeps cycling until occupancy drops below this (or
    /// progress stalls, at which point the bounded pacing backoff takes
    /// over). Only meaningful with [`pacing_high`](GcConfig::pacing_high).
    pub pacing_low: u32,
    /// Cap on the exponential backoff between consecutive paced cycles
    /// that fail to move occupancy below the high watermark — the live
    /// set simply doesn't fit below it, and re-running cycles
    /// back-to-back would degenerate into a stop-the-mutators storm.
    pub pacing_backoff: Duration,
    /// How often the paced collector polls occupancy while below the
    /// trigger watermark.
    pub pacing_poll: Duration,
    /// Deterministic fault injection (see [`FaultPlan`]). The default
    /// [`FaultPlan::none`] is zero-cost on the hot paths.
    pub chaos: FaultPlan,
}

impl GcConfig {
    /// A builder seeded with the defaults of [`GcConfig::new(1024, 2)`]:
    /// everything faithful, validation on.
    ///
    /// [`GcConfig::new(1024, 2)`]: GcConfig::new
    pub fn builder() -> GcConfigBuilder {
        GcConfigBuilder {
            cfg: GcConfig::unchecked(1024, 2),
        }
    }

    /// A configuration with the given heap capacity and per-object field
    /// bound, everything faithful, validation on.
    ///
    /// # Panics
    ///
    /// Panics on an invalid capacity or field bound — the same validation
    /// as [`GcConfigBuilder::build`].
    pub fn new(capacity: usize, max_fields: usize) -> Self {
        GcConfig::unchecked(capacity, max_fields)
            .validated()
            .unwrap_or_else(|e| panic!("{e}"))
    }

    fn unchecked(capacity: usize, max_fields: usize) -> Self {
        GcConfig {
            capacity,
            max_fields,
            validate: true,
            deletion_barrier: true,
            insertion_barrier: true,
            mark_cas: true,
            handshake_fences: true,
            alloc_pool: 0,
            handshake_timeout: None,
            evict_dead: true,
            alloc_retries: 2,
            emergency_backoff: Duration::from_millis(1),
            pacing_high: None,
            pacing_low: 500,
            pacing_backoff: Duration::from_millis(5),
            pacing_poll: Duration::from_micros(200),
            chaos: FaultPlan::none(),
        }
    }

    /// Checks the cross-field invariants the builder enforces.
    fn validated(self) -> Result<Self, ConfigError> {
        if self.capacity == 0 || self.capacity >= u32::MAX as usize {
            return Err(ConfigError::Capacity(self.capacity));
        }
        if self.max_fields > 255 {
            return Err(ConfigError::MaxFields(self.max_fields));
        }
        if let Some(high) = self.pacing_high {
            if !(1..=1000).contains(&high) || self.pacing_low >= high {
                return Err(ConfigError::Pacing {
                    high,
                    low: self.pacing_low,
                });
            }
        }
        Ok(self)
    }

    /// Enables the §4 allocation-pool extension with the given batch size.
    #[must_use]
    pub fn with_alloc_pool(mut self, slots: usize) -> Self {
        self.alloc_pool = slots;
        self
    }

    /// Arms the handshake watchdog with the given timeout.
    #[must_use]
    pub fn with_handshake_timeout(mut self, timeout: Duration) -> Self {
        self.handshake_timeout = Some(timeout);
        self
    }

    /// Sets the emergency-collection retry budget for a full heap.
    #[must_use]
    pub fn with_alloc_retries(mut self, retries: usize) -> Self {
        self.alloc_retries = retries;
        self
    }

    /// Installs a fault-injection plan.
    #[must_use]
    pub fn with_chaos(mut self, plan: FaultPlan) -> Self {
        self.chaos = plan;
        self
    }
}

/// Builder for [`GcConfig`]: typed setters, cross-field validation at
/// [`build`](GcConfigBuilder::build).
#[derive(Debug, Clone)]
pub struct GcConfigBuilder {
    cfg: GcConfig,
}

impl GcConfigBuilder {
    /// Sets the heap capacity in slots.
    #[must_use]
    pub fn capacity(mut self, capacity: usize) -> Self {
        self.cfg.capacity = capacity;
        self
    }

    /// Sets the per-object reference-field bound.
    #[must_use]
    pub fn max_fields(mut self, max_fields: usize) -> Self {
        self.cfg.max_fields = max_fields;
        self
    }

    /// Selects the heap layout. There is one, so this sets nothing.
    ///
    /// Retained for `benchmark/`; delete in the next `[benchmark]` PR.
    #[must_use]
    pub fn layout(self, _layout: HeapLayout) -> Self {
        self
    }

    /// Switches the use-after-free validation oracle on or off.
    #[must_use]
    pub fn validate(mut self, on: bool) -> Self {
        self.cfg.validate = on;
        self
    }

    /// **Ablation** — removes the deletion barrier when `false`.
    #[must_use]
    pub fn deletion_barrier(mut self, on: bool) -> Self {
        self.cfg.deletion_barrier = on;
        self
    }

    /// **Ablation** — removes the insertion barrier when `false`.
    #[must_use]
    pub fn insertion_barrier(mut self, on: bool) -> Self {
        self.cfg.insertion_barrier = on;
        self
    }

    /// **Ablation** — replaces the marking CAS by an unsynchronised
    /// read-modify-write when `false`.
    #[must_use]
    pub fn mark_cas(mut self, on: bool) -> Self {
        self.cfg.mark_cas = on;
        self
    }

    /// **Ablation** — removes the handshake fences when `false`.
    #[must_use]
    pub fn handshake_fences(mut self, on: bool) -> Self {
        self.cfg.handshake_fences = on;
        self
    }

    /// Sets the per-mutator allocation pool size.
    #[must_use]
    pub fn alloc_pool(mut self, slots: usize) -> Self {
        self.cfg.alloc_pool = slots;
        self
    }

    /// Arms the handshake watchdog with the given timeout.
    #[must_use]
    pub fn handshake_timeout(mut self, timeout: Duration) -> Self {
        self.cfg.handshake_timeout = Some(timeout);
        self
    }

    /// Disarms the handshake watchdog (the default).
    #[must_use]
    pub fn no_handshake_timeout(mut self) -> Self {
        self.cfg.handshake_timeout = None;
        self
    }

    /// Whether the armed watchdog may evict beat-less mutators.
    #[must_use]
    pub fn evict_dead(mut self, on: bool) -> Self {
        self.cfg.evict_dead = on;
        self
    }

    /// Sets the emergency-collection retry budget
    /// ([`GcConfig::alloc_retries`]) for a full heap. `0` makes
    /// [`Mutator::alloc`](crate::Mutator::alloc) fail fast with
    /// [`AllocError::HeapFull`](crate::AllocError::HeapFull).
    #[must_use]
    pub fn emergency_retries(mut self, retries: usize) -> Self {
        self.cfg.alloc_retries = retries;
        self
    }

    /// Caps the exponential backoff sleep used while an emergency
    /// allocation helps an in-flight cycle along. Shorter caps retry
    /// allocation sooner at the cost of more wakeups.
    #[must_use]
    pub fn emergency_backoff(mut self, cap: Duration) -> Self {
        self.cfg.emergency_backoff = cap;
        self
    }

    /// Enables occupancy-triggered pacing of the background collector:
    /// cycles start when heap occupancy reaches `high` per-mille and keep
    /// running until it drops below `low` per-mille (hysteresis). Requires
    /// `1 <= high <= 1000` and `low < high`, checked at
    /// [`build`](GcConfigBuilder::build).
    #[must_use]
    pub fn occupancy_pacing(mut self, high: u32, low: u32) -> Self {
        self.cfg.pacing_high = Some(high);
        self.cfg.pacing_low = low;
        self
    }

    /// Restores the legacy unpaced background collector: back-to-back
    /// cycles whenever it is started (the default).
    #[must_use]
    pub fn no_occupancy_pacing(mut self) -> Self {
        self.cfg.pacing_high = None;
        self
    }

    /// Caps the exponential backoff between consecutive paced cycles that
    /// fail to bring occupancy below the high watermark.
    #[must_use]
    pub fn pacing_backoff(mut self, cap: Duration) -> Self {
        self.cfg.pacing_backoff = cap;
        self
    }

    /// Sets the occupancy poll interval for the paced collector while it
    /// idles below the trigger watermark.
    #[must_use]
    pub fn pacing_poll(mut self, interval: Duration) -> Self {
        self.cfg.pacing_poll = interval;
        self
    }

    /// Installs a fault-injection plan.
    #[must_use]
    pub fn chaos(mut self, plan: FaultPlan) -> Self {
        self.cfg.chaos = plan;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] when the capacity, field bound, or pacing
    /// watermarks are inconsistent.
    pub fn try_build(self) -> Result<GcConfig, ConfigError> {
        self.cfg.validated()
    }

    /// Validates and returns the configuration.
    ///
    /// # Panics
    ///
    /// Panics with the [`ConfigError`] message on an invalid configuration;
    /// use [`try_build`](GcConfigBuilder::try_build) to handle it instead.
    pub fn build(self) -> GcConfig {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_faithful() {
        let c = GcConfig::new(16, 2);
        assert!(c.validate && c.deletion_barrier && c.insertion_barrier);
        assert!(c.mark_cas && c.handshake_fences);
        assert_eq!(c.alloc_pool, 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _ = GcConfig::new(0, 1);
    }

    #[test]
    fn builder_round_trips_every_field() {
        let plan = FaultPlan::new(3).with_cas_lost(100);
        let c = GcConfig::builder()
            .capacity(512)
            .max_fields(3)
            .validate(false)
            .deletion_barrier(false)
            .insertion_barrier(false)
            .mark_cas(false)
            .handshake_fences(false)
            .alloc_pool(7)
            .handshake_timeout(Duration::from_millis(9))
            .evict_dead(false)
            .emergency_retries(5)
            .emergency_backoff(Duration::from_micros(200))
            .occupancy_pacing(900, 600)
            .pacing_backoff(Duration::from_millis(7))
            .pacing_poll(Duration::from_micros(50))
            .chaos(plan.clone())
            .build();
        assert_eq!(c.capacity, 512);
        assert_eq!(c.max_fields, 3);
        assert!(!c.validate && !c.deletion_barrier && !c.insertion_barrier);
        assert!(!c.mark_cas && !c.handshake_fences && !c.evict_dead);
        assert_eq!(c.alloc_pool, 7);
        assert_eq!(c.handshake_timeout, Some(Duration::from_millis(9)));
        assert_eq!(c.alloc_retries, 5);
        assert_eq!(c.emergency_backoff, Duration::from_micros(200));
        assert_eq!(c.pacing_high, Some(900));
        assert_eq!(c.pacing_low, 600);
        assert_eq!(c.pacing_backoff, Duration::from_millis(7));
        assert_eq!(c.pacing_poll, Duration::from_micros(50));
        assert_eq!(c.chaos, plan);
        let c = GcConfig::builder()
            .occupancy_pacing(900, 600)
            .no_occupancy_pacing()
            .build();
        assert_eq!(c.pacing_high, None);
    }

    #[test]
    fn builder_rejects_bad_pacing_watermarks() {
        // high out of range
        assert!(matches!(
            GcConfig::builder().occupancy_pacing(1001, 500).try_build(),
            Err(ConfigError::Pacing {
                high: 1001,
                low: 500
            })
        ));
        assert!(GcConfig::builder()
            .occupancy_pacing(0, 0)
            .try_build()
            .is_err());
        // low not strictly below high
        assert!(GcConfig::builder()
            .occupancy_pacing(800, 800)
            .try_build()
            .is_err());
        assert!(GcConfig::builder()
            .occupancy_pacing(800, 900)
            .try_build()
            .is_err());
        // valid edge: low 0 means "drain as far as possible"
        assert!(GcConfig::builder()
            .occupancy_pacing(1000, 0)
            .try_build()
            .is_ok());
    }

    #[test]
    fn builder_rejects_bad_scalars() {
        assert!(matches!(
            GcConfig::builder().capacity(0).try_build(),
            Err(ConfigError::Capacity(0))
        ));
        assert!(matches!(
            GcConfig::builder().max_fields(256).try_build(),
            Err(ConfigError::MaxFields(256))
        ));
    }

    #[test]
    fn the_one_layout_is_the_slab() {
        assert_eq!(HeapLayout::default(), HeapLayout::Slab);
        assert_eq!(HeapLayout::default().name(), "slab");
        let c = GcConfig::builder().layout(HeapLayout::Slab).build();
        assert_eq!(c, GcConfig::new(1024, 2));
    }
}
