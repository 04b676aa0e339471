//! The metrics registry: counters, gauges and log-linear histograms, with
//! a Prometheus-style text exposition and a JSON snapshot writer.
//!
//! Handles are cheap `Arc`-wrapped atomics: register once, update from any
//! thread with relaxed increments. Histograms use log-linear buckets (16
//! linear sub-buckets per power of two), so any recorded value lands in a
//! bucket whose width is at most 1/16 of its magnitude — quantile
//! estimates carry ≤ ~6.25% relative error, which is plenty for latency
//! reporting and costs a fixed 1 KiB of counters per histogram.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::json::Json;

/// Linear sub-buckets per power-of-two group.
const SUBS: usize = 16;
/// Power-of-two groups covering the full `u64` range.
const GROUPS: usize = 65;

/// A monotonic counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that goes up and down.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `d` (may be negative).
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A lock-free log-linear histogram of `u64` samples.
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        let mut buckets = Vec::with_capacity(GROUPS * SUBS);
        buckets.resize_with(GROUPS * SUBS, || AtomicU64::new(0));
        Histogram {
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// The bucket index for `v`: values below `SUBS` get exact buckets;
    /// larger values are split into `SUBS` linear sub-buckets per
    /// power-of-two group.
    fn index(v: u64) -> usize {
        if v < SUBS as u64 {
            return v as usize;
        }
        let group = 63 - v.leading_zeros() as usize; // floor(log2 v), ≥ 4
        let sub = (v >> (group - 4)) as usize & (SUBS - 1);
        (group - 3) * SUBS + sub
    }

    /// A representative value (midpoint) for bucket `idx` — the inverse of
    /// [`Histogram::index`] up to bucket width.
    fn representative(idx: usize) -> u64 {
        if idx < SUBS {
            return idx as u64;
        }
        let group = idx / SUBS + 3;
        let sub = (idx % SUBS) as u64;
        let base = (1u64 << group) + (sub << (group - 4));
        let width = 1u64 << (group - 4);
        base + width / 2
    }

    /// Records one sample. Lock-free: three relaxed atomic RMWs plus a
    /// bounded CAS loop for the max.
    pub fn record(&self, v: u64) {
        self.buckets[Self::index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        let mut cur = self.max.load(Ordering::Relaxed);
        while v > cur {
            match self
                .max
                .compare_exchange_weak(cur, v, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(now) => cur = now,
            }
        }
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest sample recorded (exact, not bucketed).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Mean of all samples (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as a bucket representative, or 0
    /// when empty. Concurrent recording makes the answer approximate in
    /// the usual monitoring sense.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        // Rank of the q-quantile in a sorted sample (nearest-rank method).
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (idx, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return Self::representative(idx).min(self.max());
            }
        }
        self.max()
    }
}

/// How a metric renders in the text exposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MetricType {
    Counter,
    Gauge,
    Histogram,
}

/// Escapes a label *value* for the text exposition: backslash, double
/// quote and newline are the three characters the Prometheus text format
/// requires escaped inside `label="..."`.
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Escapes `# HELP` text (backslash and newline, per the format).
fn escape_help(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// The metric *family* of a registered name: the part before the label
/// set. `hits_total{technique="por"}` and `hits_total{technique="sym"}`
/// are two series of the one family `hits_total`.
fn family(name: &str) -> &str {
    name.split('{').next().unwrap_or(name)
}

/// The registry key for a labelled series: the family name plus a
/// `{k="v",...}` label set with values escaped. With no labels the key is
/// the bare family name.
pub fn labeled(family: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return family.to_owned();
    }
    let mut out = String::from(family);
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(&escape_label_value(v));
        out.push('"');
    }
    out.push('}');
    out
}

/// A registry of named metrics.
///
/// Names follow Prometheus conventions (`snake_case`, unit-suffixed, e.g.
/// `gc_handshake_latency_ns`). Registering the same name twice returns the
/// same underlying metric. Labelled series are registered through
/// [`Registry::counter_with`] (and friends); all series of one family
/// share a single `# TYPE` line in the exposition.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    help: Mutex<BTreeMap<String, String>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The counter named `name`, creating it at zero if needed.
    pub fn counter(&self, name: &str) -> Counter {
        self.counters
            .lock()
            .expect("registry lock")
            .entry(name.to_owned())
            .or_default()
            .clone()
    }

    /// The gauge named `name`, creating it at zero if needed.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauges
            .lock()
            .expect("registry lock")
            .entry(name.to_owned())
            .or_default()
            .clone()
    }

    /// The histogram named `name`, creating it empty if needed.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        Arc::clone(
            self.histograms
                .lock()
                .expect("registry lock")
                .entry(name.to_owned())
                .or_default(),
        )
    }

    /// The counter series of `family` with the given label set, creating
    /// it at zero if needed. Label values are escaped at registration, so
    /// arbitrary strings are safe.
    pub fn counter_with(&self, family: &str, labels: &[(&str, &str)]) -> Counter {
        self.counter(&labeled(family, labels))
    }

    /// The gauge series of `family` with the given label set.
    pub fn gauge_with(&self, family: &str, labels: &[(&str, &str)]) -> Gauge {
        self.gauge(&labeled(family, labels))
    }

    /// The histogram series of `family` with the given label set.
    pub fn histogram_with(&self, family: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        self.histogram(&labeled(family, labels))
    }

    /// Records help text for a metric family, rendered as a `# HELP` line
    /// (exactly once per family) in the text exposition.
    pub fn describe(&self, family: &str, help: &str) {
        self.help
            .lock()
            .expect("registry lock")
            .insert(family.to_owned(), help.to_owned());
    }

    /// The current value of the counter or gauge registered under `name`,
    /// *without* creating it. Counters win name collisions, matching the
    /// exposition's family-type priority. Used by liveness probes that
    /// watch a progress metric someone else registers.
    pub fn value_of(&self, name: &str) -> Option<i64> {
        if let Some(c) = self.counters.lock().expect("registry lock").get(name) {
            return Some(c.get() as i64);
        }
        self.gauges
            .lock()
            .expect("registry lock")
            .get(name)
            .map(Gauge::get)
    }

    fn rows(&self) -> Vec<(String, MetricType, Json)> {
        let mut rows = Vec::new();
        for (name, c) in self.counters.lock().expect("registry lock").iter() {
            rows.push((name.clone(), MetricType::Counter, Json::from(c.get())));
        }
        for (name, g) in self.gauges.lock().expect("registry lock").iter() {
            rows.push((name.clone(), MetricType::Gauge, Json::from(g.get())));
        }
        for (name, h) in self.histograms.lock().expect("registry lock").iter() {
            let summary = Json::obj()
                .set("count", h.count())
                .set("sum", h.sum())
                .set("mean", Json::Num(h.mean()))
                .set("p50", h.quantile(0.50))
                .set("p95", h.quantile(0.95))
                .set("p99", h.quantile(0.99))
                .set("max", h.max());
            rows.push((name.clone(), MetricType::Histogram, summary));
        }
        rows
    }

    /// The Prometheus text exposition (format version 0.0.4): samples
    /// grouped by family, each family introduced by its `# HELP` (when
    /// [`describe`](Registry::describe)d) and `# TYPE` line exactly once;
    /// histograms expose quantile-labelled summary samples and `_count` /
    /// `_sum` series. A name registered under two metric kinds keeps the
    /// first kind (counter > gauge > histogram); the conflicting series
    /// are dropped from the exposition rather than emitting a family with
    /// two types, which scrapers reject wholesale.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let help = self.help.lock().expect("registry lock").clone();
        let mut groups: BTreeMap<String, Vec<(String, MetricType, Json)>> = BTreeMap::new();
        for (name, ty, value) in self.rows() {
            groups
                .entry(family(&name).to_owned())
                .or_default()
                .push((name, ty, value));
        }
        let mut out = String::new();
        for (fam, rows) in groups {
            let fam_ty = rows[0].1;
            if let Some(h) = help.get(&fam) {
                let _ = writeln!(out, "# HELP {fam} {}", escape_help(h));
            }
            let kind = match fam_ty {
                MetricType::Counter => "counter",
                MetricType::Gauge => "gauge",
                MetricType::Histogram => "summary",
            };
            let _ = writeln!(out, "# TYPE {fam} {kind}");
            for (name, ty, value) in rows {
                if ty != fam_ty {
                    continue;
                }
                match ty {
                    MetricType::Counter | MetricType::Gauge => {
                        let _ = writeln!(out, "{name} {value}");
                    }
                    MetricType::Histogram => {
                        // The series may carry labels: splice `quantile`
                        // into the existing label set.
                        let labels = name
                            .split_once('{')
                            .map(|(_, rest)| rest.trim_end_matches('}'))
                            .unwrap_or("");
                        for q in ["p50", "p95", "p99"] {
                            let quantile = &q[1..];
                            let v = value.get(q).and_then(Json::as_f64).unwrap_or(0.0);
                            if labels.is_empty() {
                                let _ = writeln!(out, "{fam}{{quantile=\"0.{quantile}\"}} {v}");
                            } else {
                                let _ = writeln!(
                                    out,
                                    "{fam}{{{labels},quantile=\"0.{quantile}\"}} {v}"
                                );
                            }
                        }
                        let count = value.get("count").and_then(Json::as_f64).unwrap_or(0.0);
                        let sum = value.get("sum").and_then(Json::as_f64).unwrap_or(0.0);
                        if labels.is_empty() {
                            let _ = writeln!(out, "{fam}_count {count}\n{fam}_sum {sum}");
                        } else {
                            let _ = writeln!(
                                out,
                                "{fam}_count{{{labels}}} {count}\n{fam}_sum{{{labels}}} {sum}"
                            );
                        }
                    }
                }
            }
        }
        out
    }

    /// A JSON snapshot of every metric:
    /// `{"counters": {...}, "gauges": {...}, "histograms": {name: summary}}`.
    pub fn snapshot(&self) -> Json {
        let mut counters = Json::obj();
        let mut gauges = Json::obj();
        let mut histograms = Json::obj();
        for (name, ty, value) in self.rows() {
            match ty {
                MetricType::Counter => counters = counters.set(&name, value),
                MetricType::Gauge => gauges = gauges.set(&name, value),
                MetricType::Histogram => histograms = histograms.set(&name, value),
            }
        }
        Json::obj()
            .set("counters", counters)
            .set("gauges", gauges)
            .set("histograms", histograms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_share_state_by_name() {
        let r = Registry::new();
        let a = r.counter("x_total");
        let b = r.counter("x_total");
        a.add(3);
        b.inc();
        assert_eq!(r.counter("x_total").get(), 4);
        let g = r.gauge("depth");
        g.set(7);
        g.add(-2);
        assert_eq!(r.gauge("depth").get(), 5);
    }

    #[test]
    fn histogram_quantiles_match_sorted_vec_oracle() {
        // Deterministic skewed samples: many small, long tail.
        let mut samples: Vec<u64> = Vec::new();
        let mut x = 0x243f_6a88_85a3_08d3u64;
        for _ in 0..10_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            samples.push(match x % 100 {
                0..=79 => x % 1_000,            // bulk
                80..=97 => 1_000 + x % 100_000, // mid tail
                _ => 100_000 + x % 10_000_000,  // far tail
            });
        }
        let h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        assert_eq!(h.count(), sorted.len() as u64);
        assert_eq!(h.sum(), sorted.iter().sum::<u64>());
        assert_eq!(h.max(), *sorted.last().unwrap());
        for q in [0.5, 0.9, 0.95, 0.99, 1.0] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let oracle = sorted[rank - 1];
            let got = h.quantile(q);
            // Log-linear bucketing: ≤ 1/16 relative bucket width, so the
            // representative is within 12.5% of the true quantile (plus
            // the exact small-value buckets below SUBS).
            let tolerance = (oracle as f64 * 0.125).max(1.0);
            assert!(
                (got as f64 - oracle as f64).abs() <= tolerance,
                "q={q}: got {got}, oracle {oracle}"
            );
        }
    }

    #[test]
    fn histogram_exact_for_small_values() {
        let h = Histogram::new();
        for v in [0u64, 1, 2, 3, 3, 3, 7, 15] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), 3);
        assert_eq!(h.quantile(1.0), 15);
        assert_eq!(h.max(), 15);
    }

    #[test]
    fn bucket_index_is_monotonic_and_invertible_within_width() {
        let mut last = 0usize;
        for exp in 0..63u32 {
            for v in [
                1u64 << exp,
                (1u64 << exp) + 1,
                (1u64 << exp).wrapping_mul(3) / 2,
            ] {
                let idx = Histogram::index(v);
                assert!(idx >= last || v < 16, "index monotone at {v}");
                last = last.max(idx);
                let rep = Histogram::representative(idx);
                let width = (v >> 4).max(1);
                assert!(
                    rep.abs_diff(v) <= width,
                    "representative {rep} too far from {v}"
                );
            }
        }
    }

    #[test]
    fn text_exposition_and_snapshot_have_all_metrics() {
        let r = Registry::new();
        r.counter("events_total").add(10);
        r.gauge("live").set(3);
        let h = r.histogram("latency_ns");
        for v in 1..=100 {
            h.record(v);
        }
        let text = r.render_text();
        assert!(text.contains("# TYPE events_total counter"));
        assert!(text.contains("events_total 10"));
        assert!(text.contains("# TYPE live gauge"));
        assert!(text.contains("latency_ns{quantile=\"0.50\"}"));
        assert!(text.contains("latency_ns_count 100"));
        let snap = r.snapshot();
        assert_eq!(
            snap.get("counters")
                .and_then(|c| c.get("events_total"))
                .and_then(Json::as_f64),
            Some(10.0)
        );
        let hist = snap.get("histograms").and_then(|h| h.get("latency_ns"));
        assert!(hist.and_then(|h| h.get("p99")).is_some());
    }

    #[test]
    fn label_values_are_escaped() {
        let r = Registry::new();
        r.counter_with("odd_total", &[("path", "a\\b\"c\nd")]).inc();
        let text = r.render_text();
        assert!(
            text.contains("odd_total{path=\"a\\\\b\\\"c\\nd\"} 1"),
            "got: {text}"
        );
        assert_eq!(escape_label_value("plain"), "plain");
    }

    #[test]
    fn type_and_help_once_per_family() {
        let r = Registry::new();
        r.describe("hits_total", "per-technique hits");
        r.counter_with("hits_total", &[("technique", "por")]).inc();
        r.counter_with("hits_total", &[("technique", "sym")]).add(2);
        let text = r.render_text();
        assert_eq!(text.matches("# TYPE hits_total counter").count(), 1);
        assert_eq!(
            text.matches("# HELP hits_total per-technique hits").count(),
            1
        );
        assert!(text.contains("hits_total{technique=\"por\"} 1"));
        assert!(text.contains("hits_total{technique=\"sym\"} 2"));
        // Family lines are contiguous: HELP, TYPE, then both series.
        let lines: Vec<&str> = text.lines().collect();
        let at = lines
            .iter()
            .position(|l| l.starts_with("# HELP hits_total"))
            .unwrap();
        assert!(lines[at + 1].starts_with("# TYPE hits_total"));
        assert!(lines[at + 2].starts_with("hits_total{"));
        assert!(lines[at + 3].starts_with("hits_total{"));
    }

    #[test]
    fn conflicting_kinds_keep_first_family_type() {
        let r = Registry::new();
        r.counter("mixed").add(4);
        r.gauge("mixed").set(9);
        let text = r.render_text();
        assert_eq!(text.matches("# TYPE mixed").count(), 1);
        assert!(text.contains("# TYPE mixed counter"));
        assert!(text.contains("mixed 4"));
        assert!(!text.contains("mixed 9"));
        // value_of follows the same priority.
        assert_eq!(r.value_of("mixed"), Some(4));
        assert_eq!(r.value_of("absent"), None);
    }

    #[test]
    fn labelled_histograms_splice_quantile_labels() {
        let r = Registry::new();
        let h = r.histogram_with("stage_ns", &[("stage", "mark")]);
        for v in 1..=50 {
            h.record(v);
        }
        let text = r.render_text();
        assert!(text.contains("# TYPE stage_ns summary"));
        assert!(text.contains("stage_ns{stage=\"mark\",quantile=\"0.99\"}"));
        assert!(text.contains("stage_ns_count{stage=\"mark\"} 50"));
    }
}
