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

/// Handles into the attached registry (see the module docs); a
/// disabled instance (no registry) makes every call a no-op.
pub(crate) struct Telemetry {
    enabled: bool,
    start: Instant,
    states_total: Option<Gauge>,
    states_per_sec: Option<Gauge>,
    bfs_level: Option<Gauge>,
    frontier_len: Option<Gauge>,
    spill_frontier_bytes: Option<Gauge>,
    spill_written: Option<Counter>,
    spill_read: Option<Counter>,
    por_ample: Option<Counter>,
    por_fallback: Option<Counter>,
    symmetry_merge: Option<Counter>,
    sb_coalesce: Option<Counter>,
}

impl Telemetry {
    pub(crate) fn new(config: &CheckerConfig) -> Telemetry {
        let Some(registry) = config.metrics.as_deref() else {
            return Telemetry {
                enabled: false,
                start: Instant::now(),
                states_total: None,
                states_per_sec: None,
                bfs_level: None,
                frontier_len: None,
                spill_frontier_bytes: None,
                spill_written: None,
                spill_read: None,
                por_ample: None,
                por_fallback: None,
                symmetry_merge: None,
                sb_coalesce: None,
            };
        };
        registry.describe("mc_states_total", "Distinct states visited by the BFS");
        registry.describe("mc_states_per_sec", "Cumulative exploration rate");
        registry.describe("mc_bfs_level", "Current BFS level (depth)");
        registry.describe("mc_frontier_len", "States in the current frontier");
        registry.describe(
            "mc_spill_frontier_bytes",
            "Bytes of the current spilled frontier level (0 = memory-resident)",
        );
        registry.describe(
            "mc_reduction_hits_total",
            "Reduction-technique applications, by technique label",
        );
        let technique = |t| registry.counter_with("mc_reduction_hits_total", &[("technique", t)]);
        Telemetry {
            enabled: true,
            start: Instant::now(),
            states_total: Some(registry.gauge("mc_states_total")),
            states_per_sec: Some(registry.gauge("mc_states_per_sec")),
            bfs_level: Some(registry.gauge("mc_bfs_level")),
            frontier_len: Some(registry.gauge("mc_frontier_len")),
            spill_frontier_bytes: Some(registry.gauge("mc_spill_frontier_bytes")),
            spill_written: Some(registry.counter("mc_spill_bytes_written_total")),
            spill_read: Some(registry.counter("mc_spill_bytes_read_total")),
            por_ample: Some(technique("por_ample")),
            por_fallback: Some(technique("por_fallback")),
            symmetry_merge: Some(technique("symmetry_merge")),
            sb_coalesce: Some(technique("sb_canon_coalesce")),
        }
    }

    /// Whether per-successor canonicalization attribution (the only
    /// telemetry with non-trivial cost) should run.
    pub(crate) fn attributing(&self) -> bool {
        self.enabled
    }

    pub(crate) fn seeded(&self, states: usize) {
        if let Some(g) = &self.states_total {
            g.set(states as i64);
        }
    }

    pub(crate) fn level_begin(&self, level: usize, frontier: usize) {
        if !self.enabled {
            return;
        }
        self.bfs_level.as_ref().expect("enabled").set(level as i64);
        self.frontier_len
            .as_ref()
            .expect("enabled")
            .set(frontier as i64);
    }

    pub(crate) fn level_done(&self, states_total: usize, spilled_bytes: u64) {
        if !self.enabled {
            return;
        }
        self.states_total
            .as_ref()
            .expect("enabled")
            .set(states_total as i64);
        let secs = self.start.elapsed().as_secs_f64().max(1e-9);
        self.states_per_sec
            .as_ref()
            .expect("enabled")
            .set((states_total as f64 / secs) as i64);
        self.spill_frontier_bytes
            .as_ref()
            .expect("enabled")
            .set(spilled_bytes as i64);
        if spilled_bytes > 0 {
            self.spill_written
                .as_ref()
                .expect("enabled")
                .add(spilled_bytes);
        }
    }

    pub(crate) fn spill_read(&self, bytes: u64) {
        if let Some(c) = &self.spill_read {
            c.add(bytes);
        }
    }

    pub(crate) fn por_ample(&self) {
        if let Some(c) = &self.por_ample {
            c.inc();
        }
    }

    pub(crate) fn por_fallback(&self) {
        if let Some(c) = &self.por_fallback {
            c.inc();
        }
    }

    pub(crate) fn symmetry_merge(&self) {
        if let Some(c) = &self.symmetry_merge {
            c.inc();
        }
    }

    pub(crate) fn sb_coalesce(&self) {
        if let Some(c) = &self.sb_coalesce {
            c.inc();
        }
    }
}
