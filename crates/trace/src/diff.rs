//! Trace diffing: extract the *shape* of a recorded run and compare two
//! shapes under configurable thresholds — the regression gate behind
//! `gc-trace diff` and the CI `trace-diff` job.
//!
//! A [`TraceShape`] distils a run — a live drain ([`TraceShape::from_dumps`])
//! or a `trace.jsonl` file ([`TraceShape::from_jsonl`], the
//! [`crate::chrome::event_json`] shape) — into per-cycle shape records:
//! handshake latency per type, cycle/mark/sweep durations, barrier-hit and
//! alloc-color mixes, serve-request outcome/latency distributions, and
//! checker level progress. Both front-ends feed one builder step, which is
//! also where the run's trace-derived metrics come from
//! ([`TraceShape::publish`]). [`diff_shapes`] then compares two shapes:
//!
//! * **latency families** (quantiles of durations) regress one-sided —
//!   only when the current run is *slower* than `1 + latency_rel` times
//!   the baseline (a 20% slowdown trips the 0.15 default), and only past
//!   an absolute floor so histogram-bucket noise on nanosecond-scale
//!   values cannot trip it;
//! * **count families** regress in either direction beyond `count_rel` —
//!   a run with half or double the cycles has changed shape even if it
//!   got faster;
//! * **mix families** (fractions of a whole: deletion-barrier share,
//!   black-alloc share, outcome shares) regress when the share moves by
//!   more than `mix_abs` absolute;
//! * **presence**: a family well-populated in the baseline that vanishes
//!   entirely is always a regression, even in `shape_only` mode — this is
//!   the noise-immune core of the CI gate.
//!
//! All ingestion errors are structured [`DiffError`]s (with a line number
//! for JSONL inputs): truncated or corrupt files report, never panic.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use crate::json::Json;
use crate::metrics::{Histogram, Registry};
use crate::tracer::TrackDump;

/// A structured ingestion failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffError {
    /// 1-based line of the offending JSONL record, when line-addressable.
    pub line: Option<usize>,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for DiffError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.line {
            Some(n) => write!(f, "line {n}: {}", self.message),
            None => write!(f, "{}", self.message),
        }
    }
}

impl std::error::Error for DiffError {}

fn err(line: Option<usize>, message: impl Into<String>) -> DiffError {
    DiffError {
        line,
        message: message.into(),
    }
}

/// The five-number summary of a duration/latency distribution.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    /// Samples recorded.
    pub count: u64,
    /// Mean sample.
    pub mean: f64,
    /// Median.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Largest sample.
    pub max: u64,
}

impl Summary {
    fn of(h: &Histogram) -> Summary {
        Summary {
            count: h.count(),
            mean: h.mean(),
            p50: h.quantile(0.50),
            p95: h.quantile(0.95),
            p99: h.quantile(0.99),
            max: h.max(),
        }
    }

    fn to_json(self) -> Json {
        Json::obj()
            .set("count", self.count)
            .set("mean", Json::Num(self.mean))
            .set("p50", self.p50)
            .set("p95", self.p95)
            .set("p99", self.p99)
            .set("max", self.max)
    }
}

/// The extracted shape of one recorded run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceShape {
    /// Event records ingested.
    pub events: u64,
    /// Records skipped (footers, unknown kinds).
    pub skipped: u64,
    /// Completed collection cycles (begin/end paired).
    pub cycles: u64,
    /// Cycle wall-clock durations (ns).
    pub cycle_ns: Summary,
    /// Mark-phase durations (ns).
    pub mark_ns: Summary,
    /// Sweep-phase durations (ns).
    pub sweep_ns: Summary,
    /// Objects freed, summed over cycle ends.
    pub freed_total: u64,
    /// Objects traced, summed over cycle ends.
    pub traced_total: u64,
    /// Handshake latency (ns) per handshake type, plus `"all"`.
    pub handshake_ns: BTreeMap<String, Summary>,
    /// Insertion-barrier hits.
    pub barrier_insertion: u64,
    /// Deletion-barrier hits.
    pub barrier_deletion: u64,
    /// Allocations coloured white at birth.
    pub alloc_white: u64,
    /// Allocations coloured black at birth.
    pub alloc_black: u64,
    /// Mark CAS races won.
    pub mark_cas_won: u64,
    /// Mark CAS races lost.
    pub mark_cas_lost: u64,
    /// Chaos faults fired.
    pub chaos_fired: u64,
    /// Serve-request count per outcome (`ok`, `shed`, ...).
    pub serve_outcomes: BTreeMap<String, u64>,
    /// Serve-request latency (µs).
    pub serve_latency_us: Summary,
    /// Checker BFS levels completed.
    pub checker_levels: u64,
    /// Final checker state count (max `states_total` seen).
    pub checker_states: u64,
    /// Largest checker frontier observed.
    pub peak_frontier: u64,
}

/// Streaming accumulator: feeds events into histograms, then freezes into
/// a [`TraceShape`].
#[derive(Default)]
struct ShapeBuilder {
    shape: TraceShape,
    cycle_h: Arc<Histogram>,
    mark_h: Histogram,
    sweep_h: Histogram,
    hs_all: Arc<Histogram>,
    hs_by_type: BTreeMap<String, Histogram>,
    serve_h: Histogram,
    /// Open handshakes keyed by (track, generation) → (start ts, type).
    hs_open: HashMap<(u64, u64), (u64, String)>,
    /// Open cycles keyed by (track, cycle id).
    cycle_open: HashMap<(u64, u64), u64>,
    /// Current phase per track → (phase name, entered ts).
    phase_open: HashMap<u64, (String, u64)>,
}

impl ShapeBuilder {
    /// The one place an event's name is dispatched on: folds the event
    /// `name` seen on `track` at `ts` (ns) into the shape, reading its
    /// fields through `get`. A missing field reads as 0 / false / `"?"`.
    fn step<'a>(
        &mut self,
        track: u64,
        ts: u64,
        name: &str,
        get: impl Fn(&str) -> Option<&'a Json>,
    ) {
        let num = |key| get(key).and_then(Json::as_f64).map_or(0, |v| v as u64);
        let flag = |key| get(key) == Some(&Json::Bool(true));
        let word = |key| get(key).and_then(Json::as_str).unwrap_or("?").to_owned();
        let shape = &mut self.shape;
        match name {
            "cycle_begin" => {
                self.cycle_open.insert((track, num("cycle")), ts);
            }
            "cycle_end" => {
                shape.freed_total += num("freed");
                shape.traced_total += num("traced");
                if let Some(t0) = self.cycle_open.remove(&(track, num("cycle"))) {
                    shape.cycles += 1;
                    self.cycle_h.record(ts.saturating_sub(t0));
                }
            }
            "phase_enter" => {
                if let Some((prev, t0)) = self.phase_open.remove(&track) {
                    match prev.as_str() {
                        "mark" => self.mark_h.record(ts.saturating_sub(t0)),
                        "sweep" => self.sweep_h.record(ts.saturating_sub(t0)),
                        _ => {}
                    }
                }
                let phase = word("phase");
                if phase != "idle" {
                    self.phase_open.insert(track, (phase, ts));
                }
            }
            "handshake_begin" => {
                let open = (ts, word("type"));
                self.hs_open.insert((track, num("generation")), open);
            }
            "handshake_end" => {
                if let Some((t0, ty)) = self.hs_open.remove(&(track, num("generation"))) {
                    let d = ts.saturating_sub(t0);
                    self.hs_all.record(d);
                    self.hs_by_type.entry(ty).or_default().record(d);
                }
            }
            "barrier_hit" if flag("deletion") => shape.barrier_deletion += 1,
            "barrier_hit" => shape.barrier_insertion += 1,
            "alloc_color" if flag("color") => shape.alloc_black += 1,
            "alloc_color" => shape.alloc_white += 1,
            "mark_cas" if flag("won") => shape.mark_cas_won += 1,
            "mark_cas" => shape.mark_cas_lost += 1,
            "chaos_fired" => shape.chaos_fired += 1,
            "serve_request" => {
                *shape.serve_outcomes.entry(word("outcome")).or_default() += 1;
                self.serve_h.record(num("latency_us"));
            }
            "level_begin" => shape.peak_frontier = shape.peak_frontier.max(num("frontier")),
            "level_end" => {
                shape.checker_levels += 1;
                shape.checker_states = shape.checker_states.max(num("states_total"));
            }
            _ => {
                shape.skipped += 1;
                return;
            }
        }
        shape.events += 1;
    }

    fn finish(mut self) -> TraceShape {
        self.shape.cycle_ns = Summary::of(&self.cycle_h);
        self.shape.mark_ns = Summary::of(&self.mark_h);
        self.shape.sweep_ns = Summary::of(&self.sweep_h);
        self.shape.serve_latency_us = Summary::of(&self.serve_h);
        if self.hs_all.count() > 0 {
            self.shape
                .handshake_ns
                .insert("all".to_owned(), Summary::of(&self.hs_all));
        }
        for (ty, h) in self.hs_by_type {
            self.shape.handshake_ns.insert(ty, Summary::of(&h));
        }
        self.shape
    }
}

impl TraceShape {
    /// The shape of a live drain.
    pub fn from_dumps(dumps: &[TrackDump]) -> TraceShape {
        TraceShape::publish(dumps, &Registry::new())
    }

    /// [`TraceShape::from_dumps`], measuring into `registry` so the run's
    /// trace-derived metrics appear there: the `gc_handshake_latency_ns`
    /// and `gc_cycle_duration_ns` histograms (which the shape's `all`
    /// handshake and cycle summaries then describe, earlier samples
    /// included), the `gc_mark_cas_*` and `gc_*_barrier_hits` counters, and
    /// the drain's own `trace_events_drained` / `trace_events_dropped`.
    pub fn publish(dumps: &[TrackDump], registry: &Registry) -> TraceShape {
        let mut b = ShapeBuilder {
            hs_all: registry.histogram("gc_handshake_latency_ns"),
            cycle_h: registry.histogram("gc_cycle_duration_ns"),
            ..ShapeBuilder::default()
        };
        for dump in dumps {
            for e in &dump.events {
                let r = e.record();
                b.step(u64::from(dump.id), e.ts_ns, r.name, |key| {
                    let value = r.get(key);
                    debug_assert!(value.is_some(), "{} has no field {key}", r.name);
                    value
                });
            }
        }
        let dropped = dumps.iter().map(|d| d.dropped).sum();
        for (name, n) in [
            ("gc_mark_cas_won", b.shape.mark_cas_won),
            ("gc_mark_cas_lost", b.shape.mark_cas_lost),
            ("gc_deletion_barrier_hits", b.shape.barrier_deletion),
            ("gc_insertion_barrier_hits", b.shape.barrier_insertion),
            ("trace_events_drained", b.shape.events + b.shape.skipped),
            ("trace_events_dropped", dropped),
        ] {
            registry.counter(name).add(n);
        }
        b.finish()
    }

    /// Ingests flat JSONL records (the `trace.jsonl` /
    /// [`crate::chrome::event_json`] shape). Tolerates the background
    /// sink's `trace_footer` line; any non-JSON line is a structured
    /// error carrying its 1-based line number.
    pub fn from_jsonl(text: &str) -> Result<TraceShape, DiffError> {
        let mut b = ShapeBuilder::default();
        for (idx, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let record = Json::parse(line)
                .map_err(|e| err(Some(idx + 1), format!("corrupt JSONL record: {e}")))?;
            let Some(event) = record.get("event").and_then(Json::as_str) else {
                b.shape.skipped += 1;
                continue;
            };
            let num = |key| {
                record
                    .get(key)
                    .and_then(Json::as_f64)
                    .map_or(0, |v| v as u64)
            };
            b.step(num("track"), num("ts_ns"), event, |key| record.get(key));
        }
        let shape = b.finish();
        if shape.events == 0 {
            return Err(err(None, "no recognizable trace events in input"));
        }
        Ok(shape)
    }

    /// The shape as JSON (the `base`/`current` sections of the verdict
    /// document).
    pub fn to_json(&self) -> Json {
        let mut hs = Json::obj();
        for (ty, s) in &self.handshake_ns {
            hs = hs.set(ty, s.to_json());
        }
        let mut serve = Json::obj();
        for (outcome, n) in &self.serve_outcomes {
            serve = serve.set(outcome, *n);
        }
        Json::obj()
            .set("events", self.events)
            .set("skipped", self.skipped)
            .set("cycles", self.cycles)
            .set("cycle_ns", self.cycle_ns.to_json())
            .set("mark_ns", self.mark_ns.to_json())
            .set("sweep_ns", self.sweep_ns.to_json())
            .set("freed_total", self.freed_total)
            .set("traced_total", self.traced_total)
            .set("handshake_ns", hs)
            .set("barrier_insertion", self.barrier_insertion)
            .set("barrier_deletion", self.barrier_deletion)
            .set("alloc_white", self.alloc_white)
            .set("alloc_black", self.alloc_black)
            .set("mark_cas_won", self.mark_cas_won)
            .set("mark_cas_lost", self.mark_cas_lost)
            .set("chaos_fired", self.chaos_fired)
            .set("serve_outcomes", serve)
            .set("serve_latency_us", self.serve_latency_us.to_json())
            .set("checker_levels", self.checker_levels)
            .set("checker_states", self.checker_states)
            .set("peak_frontier", self.peak_frontier)
    }
}

/// Comparison thresholds. Defaults are tuned for two runs on the *same*
/// machine; the CI baseline gate loosens them (or runs `shape_only`)
/// because a checked-in trace was recorded on different hardware.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Thresholds {
    /// One-sided relative slowdown tolerated on latency quantiles
    /// (0.15 = +15%; a seeded +20% perturbation trips it).
    pub latency_rel: f64,
    /// Absolute latency delta (ns) below which a quantile move is bucket
    /// noise, never a regression.
    pub latency_floor_ns: f64,
    /// Two-sided relative drift tolerated on event counts.
    pub count_rel: f64,
    /// Absolute drift tolerated on mix fractions (0.10 = ten points).
    pub mix_abs: f64,
    /// Families with fewer baseline samples than this are not compared
    /// (besides presence checks, which need the baseline ≥ this count).
    pub min_count: u64,
    /// When false (`--shape-only`), latency families are reported but
    /// never gate — counts, mixes and presence still do.
    pub check_latency: bool,
}

impl Default for Thresholds {
    fn default() -> Self {
        Thresholds {
            latency_rel: 0.15,
            latency_floor_ns: 1_000.0,
            count_rel: 0.5,
            mix_abs: 0.10,
            min_count: 8,
            check_latency: true,
        }
    }
}

/// One compared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Metric path, e.g. `handshake_ns.all.p99`.
    pub metric: String,
    /// Comparison class: `latency-rel`, `count-rel`, `mix-abs`, `presence`.
    pub kind: &'static str,
    /// Baseline value.
    pub base: f64,
    /// Current value.
    pub current: f64,
    /// The measured delta (relative or absolute per `kind`).
    pub delta: f64,
    /// The threshold the delta was held against.
    pub threshold: f64,
    /// Whether this finding gates the verdict.
    pub regressed: bool,
}

impl Finding {
    fn to_json(&self) -> Json {
        Json::obj()
            .set("metric", self.metric.as_str())
            .set("kind", self.kind)
            .set("base", Json::Num(self.base))
            .set("current", Json::Num(self.current))
            .set("delta", Json::Num(self.delta))
            .set("threshold", Json::Num(self.threshold))
            .set("regressed", self.regressed)
    }
}

/// The outcome of one diff: every compared metric plus the verdict.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// Every comparison made, regressed or not.
    pub findings: Vec<Finding>,
}

impl DiffReport {
    /// True when no finding regressed.
    pub fn clean(&self) -> bool {
        !self.findings.iter().any(|f| f.regressed)
    }

    /// The regressed findings.
    pub fn regressions(&self) -> Vec<&Finding> {
        self.findings.iter().filter(|f| f.regressed).collect()
    }

    /// The machine-readable verdict document
    /// (`{"schema":"gc-trace-diff/v1", "verdict": ..., ...}`).
    pub fn to_json(&self, base: &TraceShape, current: &TraceShape, thr: &Thresholds) -> Json {
        Json::obj()
            .set("schema", "gc-trace-diff/v1")
            .set("verdict", if self.clean() { "clean" } else { "regressed" })
            .set("regressions", self.regressions().len())
            .set("comparisons", self.findings.len())
            .set(
                "thresholds",
                Json::obj()
                    .set("latency_rel", Json::Num(thr.latency_rel))
                    .set("latency_floor_ns", Json::Num(thr.latency_floor_ns))
                    .set("count_rel", Json::Num(thr.count_rel))
                    .set("mix_abs", Json::Num(thr.mix_abs))
                    .set("min_count", thr.min_count)
                    .set("check_latency", thr.check_latency),
            )
            .set(
                "findings",
                Json::Arr(self.findings.iter().map(Finding::to_json).collect()),
            )
            .set("base", base.to_json())
            .set("current", current.to_json())
    }

    /// A human table: one row per comparison, regressions flagged.
    pub fn render_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<34} {:>12} {:>12} {:>9} {:>9}  verdict",
            "metric", "base", "current", "delta", "limit"
        );
        let _ = writeln!(out, "{}", "-".repeat(92));
        for f in &self.findings {
            let _ = writeln!(
                out,
                "{:<34} {:>12.1} {:>12.1} {:>8.1}% {:>8.1}%  {}",
                f.metric,
                f.base,
                f.current,
                f.delta * 100.0,
                f.threshold * 100.0,
                if f.regressed { "REGRESSED" } else { "ok" }
            );
        }
        let _ = writeln!(
            out,
            "verdict: {} ({} regression(s) in {} comparison(s))",
            if self.clean() { "clean" } else { "REGRESSED" },
            self.regressions().len(),
            self.findings.len()
        );
        out
    }
}

/// Count comparison: two-sided relative drift, plus the presence check
/// (well-populated in base, gone in current → always a regression).
fn push_count(report: &mut DiffReport, thr: &Thresholds, metric: &str, b: u64, c: u64) {
    if b < thr.min_count {
        return;
    }
    if c == 0 {
        report.findings.push(Finding {
            metric: metric.to_owned(),
            kind: "presence",
            base: b as f64,
            current: 0.0,
            delta: 1.0,
            threshold: 0.0,
            regressed: true,
        });
        return;
    }
    let delta = (c as f64 - b as f64).abs() / b as f64;
    report.findings.push(Finding {
        metric: metric.to_owned(),
        kind: "count-rel",
        base: b as f64,
        current: c as f64,
        delta,
        threshold: thr.count_rel,
        regressed: delta > thr.count_rel,
    });
}

/// Latency comparison: one-sided (slower only), with an absolute floor
/// in the same unit as the summaries (`floor`).
fn push_latency(
    report: &mut DiffReport,
    thr: &Thresholds,
    floor: f64,
    metric: &str,
    b_sum: &Summary,
    c_sum: &Summary,
) {
    if b_sum.count < thr.min_count || c_sum.count < thr.min_count {
        return;
    }
    for (q, b, c) in [
        ("p50", b_sum.p50, c_sum.p50),
        ("p95", b_sum.p95, c_sum.p95),
        ("p99", b_sum.p99, c_sum.p99),
    ] {
        let (b, c) = (b as f64, c as f64);
        let delta = if b > 0.0 { (c - b) / b } else { 0.0 };
        let slow = c - b > floor && delta > thr.latency_rel;
        report.findings.push(Finding {
            metric: format!("{metric}.{q}"),
            kind: "latency-rel",
            base: b,
            current: c,
            delta,
            threshold: thr.latency_rel,
            regressed: thr.check_latency && slow,
        });
    }
}

/// Mix comparison: absolute drift of `part/total` fractions.
fn push_mix(
    report: &mut DiffReport,
    thr: &Thresholds,
    metric: &str,
    b_part: u64,
    b_total: u64,
    c_part: u64,
    c_total: u64,
) {
    if b_total < thr.min_count || c_total < thr.min_count {
        return;
    }
    let fb = b_part as f64 / b_total as f64;
    let fc = c_part as f64 / c_total as f64;
    let delta = (fc - fb).abs();
    report.findings.push(Finding {
        metric: metric.to_owned(),
        kind: "mix-abs",
        base: fb,
        current: fc,
        delta,
        threshold: thr.mix_abs,
        regressed: delta > thr.mix_abs,
    });
}

/// Compares two shapes under `thr`. See the module docs for the
/// comparison classes.
pub fn diff_shapes(base: &TraceShape, current: &TraceShape, thr: &Thresholds) -> DiffReport {
    let mut report = DiffReport::default();
    let r = &mut report;

    push_count(r, thr, "cycles", base.cycles, current.cycles);
    push_count(
        r,
        thr,
        "barrier_hits",
        base.barrier_insertion + base.barrier_deletion,
        current.barrier_insertion + current.barrier_deletion,
    );
    push_count(
        r,
        thr,
        "allocs",
        base.alloc_white + base.alloc_black,
        current.alloc_white + current.alloc_black,
    );
    push_count(
        r,
        thr,
        "serve_requests",
        base.serve_outcomes.values().sum(),
        current.serve_outcomes.values().sum(),
    );
    push_count(
        r,
        thr,
        "checker_levels",
        base.checker_levels,
        current.checker_levels,
    );
    push_count(
        r,
        thr,
        "checker_states",
        base.checker_states,
        current.checker_states,
    );
    push_count(r, thr, "chaos_fired", base.chaos_fired, current.chaos_fired);
    for (ty, b_sum) in &base.handshake_ns {
        let c = current.handshake_ns.get(ty).map_or(0, |s| s.count);
        push_count(r, thr, &format!("handshake_ns.{ty}.count"), b_sum.count, c);
    }

    push_latency(
        r,
        thr,
        thr.latency_floor_ns,
        "cycle_ns",
        &base.cycle_ns,
        &current.cycle_ns,
    );
    push_latency(
        r,
        thr,
        thr.latency_floor_ns,
        "mark_ns",
        &base.mark_ns,
        &current.mark_ns,
    );
    push_latency(
        r,
        thr,
        thr.latency_floor_ns,
        "sweep_ns",
        &base.sweep_ns,
        &current.sweep_ns,
    );
    for (ty, b_sum) in &base.handshake_ns {
        if let Some(c_sum) = current.handshake_ns.get(ty) {
            push_latency(
                r,
                thr,
                thr.latency_floor_ns,
                &format!("handshake_ns.{ty}"),
                b_sum,
                c_sum,
            );
        }
    }
    // Serve latencies are recorded in µs; scale the noise floor.
    push_latency(
        r,
        thr,
        thr.latency_floor_ns / 1_000.0,
        "serve_latency_us",
        &base.serve_latency_us,
        &current.serve_latency_us,
    );

    push_mix(
        r,
        thr,
        "barrier_deletion_share",
        base.barrier_deletion,
        base.barrier_insertion + base.barrier_deletion,
        current.barrier_deletion,
        current.barrier_insertion + current.barrier_deletion,
    );
    push_mix(
        r,
        thr,
        "alloc_black_share",
        base.alloc_black,
        base.alloc_white + base.alloc_black,
        current.alloc_black,
        current.alloc_white + current.alloc_black,
    );
    let b_serve: u64 = base.serve_outcomes.values().sum();
    let c_serve: u64 = current.serve_outcomes.values().sum();
    for (outcome, b_part) in &base.serve_outcomes {
        push_mix(
            r,
            thr,
            &format!("serve_outcomes.{outcome}_share"),
            *b_part,
            b_serve,
            current.serve_outcomes.get(outcome).copied().unwrap_or(0),
            c_serve,
        );
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic JSONL trace: `n` cycles each with one get-roots
    /// handshake of `hs_ns` latency, plus barrier/alloc instants.
    fn synth(n: u64, hs_ns: u64) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let mut ts = 1_000u64;
        for cycle in 0..n {
            let _ = writeln!(
                out,
                r#"{{"ts_ns":{ts},"track":1,"track_name":"driver","event":"cycle_begin","cycle":{cycle}}}"#
            );
            let _ = writeln!(
                out,
                r#"{{"ts_ns":{},"track":1,"track_name":"driver","event":"handshake_begin","generation":{cycle},"type":"get-roots"}}"#,
                ts + 10
            );
            let _ = writeln!(
                out,
                r#"{{"ts_ns":{},"track":1,"track_name":"driver","event":"handshake_end","generation":{cycle},"type":"get-roots","outcome":0}}"#,
                ts + 10 + hs_ns
            );
            let _ = writeln!(
                out,
                r#"{{"ts_ns":{},"track":2,"track_name":"m0","event":"barrier_hit","deletion":{}}}"#,
                ts + 20,
                cycle % 3 == 0
            );
            let _ = writeln!(
                out,
                r#"{{"ts_ns":{},"track":2,"track_name":"m0","event":"alloc_color","slot":7,"color":{}}}"#,
                ts + 30,
                cycle % 2 == 0
            );
            let _ = writeln!(
                out,
                r#"{{"ts_ns":{},"track":1,"track_name":"driver","event":"cycle_end","cycle":{cycle},"freed":3,"traced":9}}"#,
                ts + 50_000 + hs_ns
            );
            ts += 100_000;
        }
        out
    }

    #[test]
    fn identical_traces_diff_clean() {
        let text = synth(40, 80_000);
        let a = TraceShape::from_jsonl(&text).unwrap();
        let b = TraceShape::from_jsonl(&text).unwrap();
        assert_eq!(a.cycles, 40);
        assert_eq!(a.handshake_ns["get-roots"].count, 40);
        let report = diff_shapes(&a, &b, &Thresholds::default());
        assert!(report.clean(), "{}", report.render_table());
        assert!(!report.findings.is_empty());
    }

    #[test]
    fn twenty_percent_handshake_slowdown_regresses() {
        let base = TraceShape::from_jsonl(&synth(40, 100_000)).unwrap();
        let slow = TraceShape::from_jsonl(&synth(40, 120_000)).unwrap();
        let report = diff_shapes(&base, &slow, &Thresholds::default());
        assert!(!report.clean());
        assert!(
            report
                .regressions()
                .iter()
                .any(|f| f.metric.starts_with("handshake_ns.") && f.kind == "latency-rel"),
            "{}",
            report.render_table()
        );
        // Shape-only mode reports but does not gate on it.
        let lenient = Thresholds {
            check_latency: false,
            ..Thresholds::default()
        };
        assert!(diff_shapes(&base, &slow, &lenient).clean());
    }

    #[test]
    fn improvements_do_not_regress() {
        let base = TraceShape::from_jsonl(&synth(40, 100_000)).unwrap();
        let fast = TraceShape::from_jsonl(&synth(40, 50_000)).unwrap();
        assert!(diff_shapes(&base, &fast, &Thresholds::default()).clean());
    }

    #[test]
    fn vanished_family_is_a_presence_regression() {
        let base = TraceShape::from_jsonl(&synth(40, 100_000)).unwrap();
        let mut gutted = base.clone();
        gutted.barrier_insertion = 0;
        gutted.barrier_deletion = 0;
        let lenient = Thresholds {
            check_latency: false,
            count_rel: 99.0,
            ..Thresholds::default()
        };
        let report = diff_shapes(&base, &gutted, &lenient);
        assert!(report
            .regressions()
            .iter()
            .any(|f| f.metric == "barrier_hits" && f.kind == "presence"));
    }

    #[test]
    fn corrupt_jsonl_is_a_structured_error() {
        let mut text = synth(4, 1_000);
        text.push_str("{\"ts_ns\":12, truncated-mid-rec");
        let e = TraceShape::from_jsonl(&text).unwrap_err();
        assert_eq!(e.line, Some(25));
        assert!(e.message.contains("corrupt"), "{e}");
        let e2 = TraceShape::from_jsonl("not json at all\n").unwrap_err();
        assert_eq!(e2.line, Some(1));
        assert!(TraceShape::from_jsonl("").is_err());
    }

    #[test]
    fn footer_and_unknown_records_are_skipped() {
        let mut text = synth(10, 1_000);
        text.push_str("{\"trace_footer\":true,\"events\":60,\"dropped\":0,\"drains\":1}\n");
        text.push_str("{\"ts_ns\":5,\"track\":1,\"event\":\"pool_refill\",\"got\":4}\n");
        let shape = TraceShape::from_jsonl(&text).unwrap();
        assert_eq!(shape.cycles, 10);
        assert!(shape.skipped >= 2);
    }

    #[test]
    fn verdict_document_shape() {
        let a = TraceShape::from_jsonl(&synth(20, 10_000)).unwrap();
        let report = diff_shapes(&a, &a, &Thresholds::default());
        let doc = report.to_json(&a, &a, &Thresholds::default());
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("gc-trace-diff/v1")
        );
        assert_eq!(doc.get("verdict").and_then(Json::as_str), Some("clean"));
        assert!(doc.get("findings").and_then(Json::as_arr).is_some());
        assert_eq!(Json::parse(&doc.to_string()).unwrap(), doc);
    }
}
