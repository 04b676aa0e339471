//! Checker configuration: bounds, dedup mode and exploration strategy.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use crate::outcome::PrecheckDiagnostic;

/// A static pre-pass run by [`Checker::run`](crate::Checker::run) before
/// any state exploration. Returning a non-empty diagnostic list aborts the
/// run with [`Outcome::PrecheckFailed`](crate::Outcome::PrecheckFailed).
///
/// The closure takes no arguments: it captures whatever artefact it
/// analyses (typically the CIMP programs the transition system was built
/// from), keeping `mc` free of any dependency on the analyzer crate.
pub type Precheck = Arc<dyn Fn() -> Vec<PrecheckDiagnostic> + Send + Sync>;

/// Which state-space reductions the checker applies between the transition
/// system and the BFS engine. All default to off; each is independently
/// toggleable so equivalence and per-technique savings stay measurable.
///
/// The reductions are *requests*: a transition system opts in by
/// implementing the corresponding [`TransitionSystem`](crate::TransitionSystem)
/// hooks ([`ample_successors_into`](crate::TransitionSystem::ample_successors_into),
/// [`canonicalize`](crate::TransitionSystem::canonicalize)). The default
/// hook implementations ignore every flag, so enabling reductions on a
/// system that has not opted in is a no-op, never an unsoundness.
///
/// ```
/// use mc::Reduction;
///
/// assert!(!Reduction::default().any());
/// assert!(Reduction::all().any());
/// assert_eq!(Reduction { por: true, ..Reduction::default() }.label(), "por");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct Reduction {
    /// Partial-order reduction: expand only an *ample* subset of enabled
    /// steps when the system can prove the subset sound (independent,
    /// invisible to all properties, cycle-safe).
    pub por: bool,
    /// Symmetry reduction: store the canonical representative of each
    /// state's orbit under a symmetry group (e.g. mutator-identity
    /// permutation), so symmetric states dedup to one.
    pub symmetry: bool,
    /// Store-buffer canonicalization: normalize pending-write buffers
    /// (coalescing adjacent duplicate writes) so observationally
    /// equivalent buffers hash identically.
    pub sb_canon: bool,
}

impl Reduction {
    /// Every reduction enabled.
    pub fn all() -> Self {
        Reduction {
            por: true,
            symmetry: true,
            sb_canon: true,
        }
    }

    /// True when at least one reduction is enabled.
    pub fn any(&self) -> bool {
        self.por || self.symmetry || self.sb_canon
    }

    /// A compact `+`-joined label of the enabled reductions (`"none"` when
    /// all are off), for benches and reports.
    pub fn label(&self) -> String {
        let mut parts = Vec::new();
        if self.por {
            parts.push("por");
        }
        if self.symmetry {
            parts.push("symmetry");
        }
        if self.sb_canon {
            parts.push("sb_canon");
        }
        if parts.is_empty() {
            "none".to_string()
        } else {
            parts.join("+")
        }
    }
}

/// Bounds and dedup mode for a [`Checker`](crate::Checker) run.
///
/// Construct with struct-update syntax over [`Default`]:
///
/// ```
/// use mc::CheckerConfig;
///
/// let cfg = CheckerConfig {
///     max_states: 1_000_000,
///     hash_compact: true,
///     ..CheckerConfig::default()
/// };
/// assert_eq!(cfg.max_depth, usize::MAX);
/// ```
#[derive(Clone)]
pub struct CheckerConfig {
    /// Cap on the number of distinct states to visit. Hitting it yields
    /// [`Outcome::BoundReached`](crate::Outcome::BoundReached).
    pub max_states: usize,
    /// Cap on the BFS depth (levels beyond it are not expanded).
    pub max_depth: usize,
    /// Cap on wall-clock time, checked while exploring.
    pub time_limit: Option<Duration>,
    /// Treat states without successors as errors (useful for systems that
    /// are supposed to run forever, like the collector model).
    pub forbid_deadlock: bool,
    /// Deduplicate on a 128-bit state fingerprint instead of the full
    /// state, storing ~40 bytes per visited state instead of the state
    /// itself — the classical hash-compact technique. Two distinct states
    /// colliding on all 128 bits would be silently merged; for the state
    /// counts this checker handles (≪ 2⁴⁰) the probability is below 2⁻⁴⁰,
    /// and the mode is reserved for large sweeps whose results are
    /// reported as hash-compacted. A state whose `Hash` feeds cached
    /// hashes of its parts (as `cimp::SystemState` does) adds the chance
    /// that two distinct values of a part share one.
    pub hash_compact: bool,
    /// An optional static pre-pass (see [`Precheck`]). When set, it runs
    /// before exploration and any diagnostic it reports short-circuits the
    /// run into [`Outcome::PrecheckFailed`](crate::Outcome::PrecheckFailed).
    pub static_precheck: Option<Precheck>,
    /// Which state-space reductions to request from the transition system
    /// (see [`Reduction`]). Defaults to none.
    pub reduction: Reduction,
    /// Spill BFS frontier levels larger than this many states to
    /// temporary files of length-prefixed encoded states instead of
    /// holding them in memory, so level queues stop being memory-bound.
    /// Requires the transition system to implement
    /// [`encode_state`](crate::TransitionSystem::encode_state) /
    /// [`decode_state`](crate::TransitionSystem::decode_state), with which
    /// the levels kept in memory are encoded too; systems without a codec
    /// keep frontiers in memory regardless. `None` (default) never spills.
    pub spill_threshold: Option<usize>,
    /// A metrics registry the BFS publishes live telemetry into:
    /// states/sec, frontier length, spill bytes and per-reduction-technique
    /// hit counters (see `telemetry` module docs). Sharing the registry
    /// with a `gc_trace::MetricsServer` makes a long check scrapable in
    /// flight. `None` (default) publishes nothing; telemetry never affects
    /// verdicts or state counts either way.
    pub metrics: Option<Arc<gc_trace::Registry>>,
}

impl CheckerConfig {
    /// Returns `self` with the given reductions enabled — the builder form
    /// used by callers that start from [`Default`].
    #[must_use]
    pub fn reduction(mut self, reduction: Reduction) -> Self {
        self.reduction = reduction;
        self
    }

    /// Returns `self` publishing live telemetry into `registry` (see the
    /// [`metrics`](CheckerConfig::metrics) field).
    #[must_use]
    pub fn metrics(mut self, registry: Arc<gc_trace::Registry>) -> Self {
        self.metrics = Some(registry);
        self
    }
}

impl fmt::Debug for CheckerConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("CheckerConfig");
        d.field("max_states", &self.max_states)
            .field("max_depth", &self.max_depth)
            .field("time_limit", &self.time_limit)
            .field("forbid_deadlock", &self.forbid_deadlock)
            .field("hash_compact", &self.hash_compact)
            .field(
                "static_precheck",
                &self.static_precheck.as_ref().map(|_| "<fn>"),
            )
            .field("reduction", &self.reduction)
            .field("spill_threshold", &self.spill_threshold);
        d.field("metrics", &self.metrics.as_ref().map(|_| "<registry>"));
        d.finish()
    }
}

impl PartialEq for CheckerConfig {
    /// Prechecks are opaque closures: two configs compare equal only when
    /// they share the *same* precheck (pointer identity) or both lack one.
    fn eq(&self, other: &Self) -> bool {
        let precheck_eq = match (&self.static_precheck, &other.static_precheck) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        };
        let metrics_eq = match (&self.metrics, &other.metrics) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        };
        self.max_states == other.max_states
            && self.max_depth == other.max_depth
            && self.time_limit == other.time_limit
            && self.forbid_deadlock == other.forbid_deadlock
            && self.hash_compact == other.hash_compact
            && self.reduction == other.reduction
            && self.spill_threshold == other.spill_threshold
            && precheck_eq
            && metrics_eq
    }
}

impl Eq for CheckerConfig {}

impl Default for CheckerConfig {
    /// No properties of its own, a generous state bound (64 million), no
    /// depth/time bounds, deadlock allowed, exact dedup, no precheck.
    fn default() -> Self {
        CheckerConfig {
            max_states: 64_000_000,
            max_depth: usize::MAX,
            time_limit: None,
            forbid_deadlock: false,
            hash_compact: false,
            static_precheck: None,
            reduction: Reduction::default(),
            spill_threshold: None,
            metrics: None,
        }
    }
}

/// How a [`Checker`](crate::Checker) explores the transition system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Exhaustive level-synchronous breadth-first search.
    ///
    /// `threads` is the number of worker threads expanding each frontier;
    /// `0` means "use the machine's available parallelism". Every thread
    /// count produces identical state counts, verdicts and (for
    /// violations) a shortest counterexample: successors are claimed
    /// through a sharded seen-set and ties are resolved by the
    /// deterministic discovery order of the equivalent sequential search.
    Bfs {
        /// Worker threads per frontier (`0` = available parallelism).
        threads: usize,
    },
    /// A seeded uniformly-random walk of at most `steps` transitions.
    ///
    /// Checks every property along the way. A completed walk yields
    /// [`Outcome::BoundReached`](crate::Outcome::BoundReached) with
    /// [`Bound::Steps`](crate::Bound::Steps) — a walk is inherently
    /// bounded, never a verification. A stuck walk (state without
    /// successors) yields [`Outcome::Deadlock`](crate::Outcome::Deadlock)
    /// regardless of `forbid_deadlock`; a violation yields a real but
    /// non-minimal counterexample trace.
    RandomWalk {
        /// Maximum number of transitions to take.
        steps: usize,
        /// Seed for the walk's SplitMix64 stream; equal seeds reproduce
        /// the walk exactly.
        seed: u64,
    },
}

impl Default for Strategy {
    /// Sequential breadth-first search.
    fn default() -> Self {
        Strategy::Bfs { threads: 1 }
    }
}

impl Strategy {
    /// Resolves `Bfs { threads: 0 }` to the machine's available
    /// parallelism; other values pass through (minimum 1).
    pub(crate) fn effective_threads(threads: usize) -> usize {
        if threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            threads
        }
    }
}
