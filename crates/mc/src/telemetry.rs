//! Live checker telemetry: BFS progress and reduction-effectiveness
//! metrics published to a shared `gc_trace::Registry`.
//!
//! A long reduction run was previously a black box — a stalled overnight
//! check was indistinguishable from a dead one. When
//! [`CheckerConfig::metrics`](crate::CheckerConfig) carries a registry,
//! the BFS engine publishes:
//!
//! * `mc_states_total`, `mc_states_per_sec`, `mc_bfs_level`,
//!   `mc_frontier_len` — gauges updated at every level boundary;
//! * `mc_spill_frontier_bytes` (gauge: bytes of the *current* spilled
//!   level, `0` when memory-resident) and
//!   `mc_spill_bytes_written_total` / `mc_spill_bytes_read_total`
//!   (counters over the run);
//! * `mc_parent_link_bytes`, `mc_seen_set_bytes`, `mc_frontier_bytes` —
//!   gauges of what the search retains, from lengths and capacities only:
//!   the links' blocks, Σ seen-set shard `capacity()` × bucket size, and
//!   the capacity of the arena blocks — the in-memory next level's and the
//!   spare ones in the engine's pool (all of them spare when the level
//!   spilled) — or, for a system with a codec, of the in-memory next
//!   level's buffer of records;
//! * `mc_reduction_hits_total{technique=...}` — labelled counters for
//!   `por_ample` (ample set accepted), `por_fallback` (C3 proviso forced
//!   a full expansion), `symmetry_merge` and `sb_canon_coalesce`
//!   (canonicalization changed the successor).
//!
//! Everything here is observation only: counters are derived from values
//! the search computes anyway, and the per-successor canonicalization
//! *attribution* (which single technique changed a state) runs extra
//! single-technique `canonicalize` calls purely for counting — never
//! feeding back into dedup — so verdicts and state counts stay
//! byte-identical with telemetry on or off. That attribution is the one
//! non-trivial cost, and it is skipped entirely unless a registry is
//! attached.

use std::time::Instant;

use gc_trace::{Counter, Gauge};

use crate::config::CheckerConfig;

/// Handles into the attached registry (see the module docs); without a
/// registry every call is a no-op.
pub(crate) struct Telemetry {
    start: Instant,
    handles: Option<Handles>,
}

struct Handles {
    states_total: Gauge,
    states_per_sec: Gauge,
    bfs_level: Gauge,
    frontier_len: Gauge,
    spill_frontier_bytes: Gauge,
    parent_link_bytes: Gauge,
    seen_set_bytes: Gauge,
    frontier_bytes: Gauge,
    spill_written: Counter,
    spill_read: Counter,
    por_ample: Counter,
    por_fallback: Counter,
    symmetry_merge: Counter,
    sb_coalesce: Counter,
}

/// Bytes the search holds at a level boundary (see the module docs).
pub(crate) struct Retained {
    pub(crate) links: usize,
    pub(crate) seen_set: usize,
    pub(crate) frontier: usize,
}

impl Telemetry {
    pub(crate) fn new(config: &CheckerConfig) -> Telemetry {
        let handles = config.metrics.as_deref().map(|registry| {
            registry.describe("mc_states_total", "Distinct states visited by the BFS");
            registry.describe("mc_states_per_sec", "Cumulative exploration rate");
            registry.describe("mc_bfs_level", "Current BFS level (depth)");
            registry.describe("mc_frontier_len", "States in the current frontier");
            registry.describe(
                "mc_spill_frontier_bytes",
                "Bytes of the current spilled frontier level (0 = memory-resident)",
            );
            registry.describe("mc_parent_link_bytes", "Bytes of parent links");
            registry.describe("mc_seen_set_bytes", "Bytes of seen-set buckets");
            registry.describe(
                "mc_frontier_bytes",
                "Bytes of arena blocks (the in-memory next level's and the spare ones) or of the in-memory next level's records",
            );
            registry.describe(
                "mc_reduction_hits_total",
                "Reduction-technique applications, by technique label",
            );
            let technique =
                |t| registry.counter_with("mc_reduction_hits_total", &[("technique", t)]);
            Handles {
                states_total: registry.gauge("mc_states_total"),
                states_per_sec: registry.gauge("mc_states_per_sec"),
                bfs_level: registry.gauge("mc_bfs_level"),
                frontier_len: registry.gauge("mc_frontier_len"),
                spill_frontier_bytes: registry.gauge("mc_spill_frontier_bytes"),
                parent_link_bytes: registry.gauge("mc_parent_link_bytes"),
                seen_set_bytes: registry.gauge("mc_seen_set_bytes"),
                frontier_bytes: registry.gauge("mc_frontier_bytes"),
                spill_written: registry.counter("mc_spill_bytes_written_total"),
                spill_read: registry.counter("mc_spill_bytes_read_total"),
                por_ample: technique("por_ample"),
                por_fallback: technique("por_fallback"),
                symmetry_merge: technique("symmetry_merge"),
                sb_coalesce: technique("sb_canon_coalesce"),
            }
        });
        Telemetry {
            start: Instant::now(),
            handles,
        }
    }

    /// Whether per-successor canonicalization attribution (the only
    /// telemetry with non-trivial cost) should run.
    pub(crate) fn attributing(&self) -> bool {
        self.handles.is_some()
    }

    pub(crate) fn seeded(&self, states: usize) {
        if let Some(h) = &self.handles {
            h.states_total.set(states as i64);
        }
    }

    pub(crate) fn level_begin(&self, level: usize, frontier: usize) {
        if let Some(h) = &self.handles {
            h.bfs_level.set(level as i64);
            h.frontier_len.set(frontier as i64);
        }
    }

    pub(crate) fn level_done(&self, states_total: usize, spilled_bytes: u64, retained: Retained) {
        let Some(h) = &self.handles else {
            return;
        };
        h.states_total.set(states_total as i64);
        let secs = self.start.elapsed().as_secs_f64().max(1e-9);
        h.states_per_sec.set((states_total as f64 / secs) as i64);
        h.spill_frontier_bytes.set(spilled_bytes as i64);
        if spilled_bytes > 0 {
            h.spill_written.add(spilled_bytes);
        }
        h.parent_link_bytes.set(retained.links as i64);
        h.seen_set_bytes.set(retained.seen_set as i64);
        h.frontier_bytes.set(retained.frontier as i64);
    }

    pub(crate) fn spill_read(&self, bytes: u64) {
        if let Some(h) = &self.handles {
            h.spill_read.add(bytes);
        }
    }

    pub(crate) fn por_ample(&self) {
        if let Some(h) = &self.handles {
            h.por_ample.inc();
        }
    }

    pub(crate) fn por_fallback(&self) {
        if let Some(h) = &self.handles {
            h.por_fallback.inc();
        }
    }

    pub(crate) fn symmetry_merge(&self) {
        if let Some(h) = &self.handles {
            h.symmetry_merge.inc();
        }
    }

    pub(crate) fn sb_coalesce(&self) {
        if let Some(h) = &self.handles {
            h.sb_coalesce.inc();
        }
    }
}
