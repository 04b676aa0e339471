//! The runtime pipeline end to end: `gc_serve::run_serve` under a steady
//! open-loop load.
//!
//! The library's own producer offers bursts on its own schedule (three
//! requests every 750 µs, nominally 4,000 requests a second) whatever the
//! workers manage, and times each request from the moment it is enqueued;
//! a slow system therefore queues, and the wait shows in the latency. A
//! run is a series of short *passes*, each a fresh `run_serve` with the
//! next seed, repeated until the requested time has passed; the median over
//! passes ignores the stretches in which the host runs everything slower.
//! The load is sized so that the seed serves every request: any refusal is
//! signal.

use std::time::{Duration, Instant};

use gc_serve::{run_serve, PacingMode, ServeConfig, ServeReport};
use gc_trace::{Histogram, Registry};
use otf_gc::HeapLayout;

use crate::report::RunOutput;
use crate::spans::{Recorder, Under};
use crate::spec::{PEAK_RSS_MB, SETUP_S, WAIT_MS, WORK_MS};
use crate::stats::{median, peak_rss_mb, ratio};

/// Requests offered per pass.
const PASS_REQUESTS: u64 = 4_000;
/// Set-up is timed as this many cold passes of `SETUP_REQUESTS` requests.
const SETUP_REPEATS: usize = 5;
const SETUP_REQUESTS: u64 = 400;

/// The load, shaped so that the two gated percentiles sit inside thick
/// parts of the latency distribution and are the runtime's to move:
///
/// * a request allocates 256 short-lived objects, so it costs allocator,
///   barrier and collector time (~45 µs) rather than the kernel's wake-up
///   latency (64-allocation requests had a p50 of 24-36 µs across runs of
///   one build: they measured the host);
/// * one worker serves them. Two workers on two cores shared with the
///   collector, keeper and producer ran in two modes a factor of two apart
///   for seconds at a time, by where the scheduler had put them;
/// * three requests arrive every 750 µs (nominally 4,000 a second) and
///   wait zero, one and two service times: the p50 lies inside the middle
///   third of the distribution and the p95 inside the last third, neither
///   on a step between them;
/// * 64 sessions keep first-touch session creation (the keeper handoff) to
///   1.6 % of a pass, clear of the p95.
///
/// The worker is about a fifth busy; the seed serves every request.
fn config(seed: u64, quick: bool) -> ServeConfig {
    ServeConfig {
        capacity: 65_536,
        workers: 1,
        sessions: 64,
        hot_sessions: 8,
        requests: if quick {
            PASS_REQUESTS / 20
        } else {
            PASS_REQUESTS
        },
        seed,
        zipf_exponent: 0.9,
        queue_capacity: 256,
        burst: 3,
        arrival_pause: Duration::from_micros(750),
        request_allocs: 256,
        shed_permille: Some(900),
        pacing: PacingMode::Adaptive {
            high: 550,
            low: 400,
        },
        // The 50 ms default evicts a worker the host merely descheduled.
        handshake_timeout: Duration::from_secs(2),
        ..ServeConfig::quick(HeapLayout::default())
    }
}

/// The `q`-quantile of a `gc-trace` histogram, interpolated inside its
/// bucket.
///
/// `Histogram::quantile` answers with a bucket midpoint, and buckets are
/// about 6 % wide, so two runs either agree to the last digit or differ by
/// a whole bucket. The histogram's counts are private, but `quantile` is
/// monotone in `q`: bisecting on `q` finds the share of samples below the
/// bucket and through it, and the answer is placed that far into the
/// bucket's value range.
pub fn quantile_interpolated(h: &Histogram, q: f64) -> f64 {
    let v = h.quantile(q);
    if v < 16 {
        return v as f64; // exact buckets
    }
    // The largest share whose quantile still satisfies `below`.
    let edge = |below: &dyn Fn(u64) -> bool, mut lo: f64, mut hi: f64| {
        for _ in 0..48 {
            let mid = (lo + hi) / 2.0;
            if below(h.quantile(mid)) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    };
    let under = edge(&|x| x < v, 0.0, q);
    let through = if h.quantile(1.0) <= v {
        1.0
    } else {
        edge(&|x| x <= v, q, 1.0)
    };
    // Buckets are aligned runs of 1/16 of their power of two.
    let width = 1u64 << (63 - v.leading_zeros() - 4);
    let base = v & !(width - 1);
    base as f64 + width as f64 * ratio(q - under, through - under).clamp(0.0, 1.0)
}

/// What one pass measured.
struct Pass {
    report: ServeReport,
    p50_ns: f64,
    p95_ns: f64,
    p99_ns: f64,
    max_ns: u64,
}

fn pass(cfg: &ServeConfig) -> Pass {
    let registry = Registry::new();
    let report = run_serve(cfg, &registry);
    let latency = registry.histogram("serve_latency_ns");
    Pass {
        report,
        p50_ns: quantile_interpolated(&latency, 0.50),
        p95_ns: quantile_interpolated(&latency, 0.95),
        p99_ns: quantile_interpolated(&latency, 0.99),
        max_ns: latency.max(),
    }
}

/// Requests of a pass that were not served.
fn refused(r: &ServeReport) -> u64 {
    r.shed + r.rejected + r.timeouts + r.errors
}

fn judge(out: &mut RunOutput, k: usize, r: &ServeReport) {
    out.attempted += r.requests;
    out.failed += refused(r);
    out.check(r.is_healthy(), || format!("pass {k}: {:?}", r.violations));
    out.check(r.lost_sessions == 0 && !r.uaf_detected, || {
        format!(
            "pass {k}: {} sessions lost, use-after-free {}",
            r.lost_sessions, r.uaf_detected
        )
    });
    out.check(r.ok + refused(r) == r.requests, || {
        format!(
            "pass {k}: {} served + {} refused of {} offered",
            r.ok,
            refused(r),
            r.requests
        )
    });
}

/// Runs passes until `seconds` have passed; at least one.
fn passes(
    out: &mut RunOutput,
    quick: bool,
    seed: u64,
    seconds: f64,
    mut spans: Under<'_>,
) -> Vec<Pass> {
    let mut done = Vec::new();
    let started = Instant::now();
    loop {
        let k = done.len();
        let cfg = config(seed.wrapping_add(k as u64), quick);
        let span = spans.open("serve.pass");
        let p = pass(&cfg);
        spans.close(span, |rec, span| {
            rec.aggregate("serve.request", span, p.report.ok, p.report.wall_ns);
        });
        judge(out, k, &p.report);
        println!(
            "  pass {k}: p50 {:.1}us p95 {:.1}us p99 {:.1}us, {} of {} served, {} cycles",
            p.p50_ns / 1e3,
            p.p95_ns / 1e3,
            p.p99_ns / 1e3,
            p.report.ok,
            p.report.requests,
            p.report.cycles
        );
        done.push(p);
        if started.elapsed().as_secs_f64() >= seconds {
            return done;
        }
    }
}

fn median_of(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    median(&mut passes.iter().map(f).collect::<Vec<f64>>())
}

/// The untraced run: end-to-end metrics only.
pub fn run(quick: bool, seed: u64, seconds: f64) -> RunOutput {
    let mut out = RunOutput::default();
    // Set-up as a caller can see it: `run_serve` builds its heap, collector
    // and threads itself, so bringing the service up cannot be separated
    // from serving. A short cold pass stands for it — heap, collector
    // thread, workers, keeper, the first touch of every hot session,
    // teardown — and doubles as the warm-up the timed passes want.
    let mut setup_s: Vec<f64> = (0..SETUP_REPEATS)
        .map(|k| {
            let t0 = Instant::now();
            let cfg = ServeConfig {
                requests: SETUP_REQUESTS,
                ..config(seed.wrapping_sub(1 + k as u64), quick)
            };
            let report = run_serve(&cfg, &Registry::new());
            judge(&mut out, k, &report);
            t0.elapsed().as_secs_f64()
        })
        .collect();
    let done = passes(&mut out, quick, seed, seconds, Under::nothing());
    out.set(WORK_MS, median_of(&done, |p| p.p50_ns / 1e6), done.len());
    out.set(WAIT_MS, median_of(&done, |p| p.p95_ns / 1e6), done.len());
    out.set(SETUP_S, median(&mut setup_s), setup_s.len());
    out.set(PEAK_RSS_MB, peak_rss_mb(), 1);
    out
}

/// The traced run: per-layer metrics only. Nothing inside `run_serve` can
/// be clocked from outside, so its layer view is the report and the
/// caller-owned registry; one span per pass records them.
pub fn trace(quick: bool, seed: u64, seconds: f64, rec: &mut Recorder) -> RunOutput {
    let mut out = RunOutput::default();
    let root = rec.open("run", None);
    let done = passes(&mut out, quick, seed, seconds, Under::span(rec, root));
    rec.close(root);
    let n = done.len();
    let total = |f: fn(&ServeReport) -> u64| done.iter().map(|p| f(&p.report)).sum::<u64>() as f64;
    let wall_s = total(|r| r.wall_ns) / 1e9;
    let cfg = config(seed, quick);
    let nominal_s = (cfg.requests / cfg.burst as u64) as f64 * cfg.arrival_pause.as_secs_f64();
    out.set("serve.req_p50_us", median_of(&done, |p| p.p50_ns / 1e3), n);
    out.set("serve.req_p95_us", median_of(&done, |p| p.p95_ns / 1e3), n);
    out.set("serve.req_p99_us", median_of(&done, |p| p.p99_ns / 1e3), n);
    out.set(
        "serve.req_max_us",
        done.iter().map(|p| p.max_ns).max().unwrap_or(0) as f64 / 1e3,
        n,
    );
    out.set(
        "serve.alloc_stall_p99_us",
        median_of(&done, |p| p.report.alloc_stall_p99_ns as f64 / 1e3),
        n,
    );
    out.set("serve.goodput_rps", ratio(total(|r| r.ok), wall_s), n);
    out.set("serve.offered_rps", ratio(total(|r| r.requests), wall_s), n);
    out.set(
        "serve.gen_lag_share",
        median_of(&done, |p| p.report.wall_ns as f64 / 1e9 / nominal_s - 1.0),
        n,
    );
    out.set("serve.shed", total(|r| r.shed), n);
    out.set("serve.rejected", total(|r| r.rejected), n);
    out.set("serve.timeouts", total(|r| r.timeouts), n);
    out.set("serve.errors", total(|r| r.errors), n);
    out.set("serve.cycles", total(|r| r.cycles), n);
    out.set("bench.spans", rec.len() as f64, 1);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_serve::SplitMix64;

    #[test]
    fn interpolated_quantiles_track_the_exact_ones() {
        let h = Histogram::new();
        let mut rng = SplitMix64::new(5);
        let mut exact: Vec<u64> = (0..50_000)
            .map(|_| 20_000 + rng.next_u64() % 180_000)
            .collect();
        for v in &exact {
            h.record(*v);
        }
        exact.sort_unstable();
        for q in [0.10, 0.50, 0.90, 0.95] {
            let want = exact[(q * exact.len() as f64) as usize] as f64;
            let got = quantile_interpolated(&h, q);
            assert!((got / want - 1.0).abs() < 0.005, "q={q}: {got} vs {want}");
            // The bucket midpoint alone is allowed to be ~3 % off.
            assert!((h.quantile(q) as f64 / want - 1.0).abs() < 0.04);
        }
        let small = Histogram::new();
        small.record(3);
        assert_eq!(quantile_interpolated(&small, 0.5), 3.0);
        let one = Histogram::new();
        one.record(1_000_000);
        let got = quantile_interpolated(&one, 0.5);
        assert!((983_040.0..=1_048_576.0).contains(&got), "{got}");
    }

    #[test]
    fn a_quick_pass_serves_every_request() {
        let out = run(true, 9, 0.1);
        assert!(out.correct(), "{:?}", out.problems);
        assert!(out.attempted > 0 && out.attempted.is_multiple_of(PASS_REQUESTS / 20));
        assert_eq!(out.failed, 0);
        assert!(out.metrics[WORK_MS] > 0.0 && out.metrics[WAIT_MS] >= out.metrics[WORK_MS]);
    }
}
