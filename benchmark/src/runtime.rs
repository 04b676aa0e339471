//! The runtime pipeline's mutator workloads: one mutator thread driving
//! `otf-gc` through its public API beside the background collector.
//!
//! A run is a few *sessions*. Each session sets up afresh — collector,
//! mutator, resident structure, untimed warm-up — and then times blocks of
//! iterations until its share of the requested time has passed. Set-up is
//! therefore sampled once per session, throughput once per block and
//! collector cycles as often as the collector completes them.
//!
//! The iteration bodies are written once and take a [`Probe`]: the
//! untraced run passes [`NoProbe`], which compiles away; the traced run
//! passes a [`Sampler`] that wraps every public call of each 64th
//! iteration (and every safepoint) in a clock.

use std::time::Instant;

use gc_serve::SplitMix64;
use otf_gc::{Collector, CycleStats, Gc, GcConfig, HeapLayout, Mutator, Phase};

use crate::report::RunOutput;
use crate::spans::{Recorder, Under};
use crate::spec::{PEAK_RSS_MB, SETUP_S, WAIT_MS, WORK_MS};
use crate::stats::{median, peak_rss_mb, percentile, ratio};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Runtime {
    ChurnAlloc,
    GraphMutate,
}

/// The fixed sizes of a workload; `--quick` divides the iteration counts.
struct Sizes {
    capacity: usize,
    /// Resident ring length (`graph-mutate`; zero for `churn-alloc`).
    ring: usize,
    warmup: u64,
    block: u64,
    sessions: usize,
}

/// `churn-alloc` cuts its list to garbage at this length at the latest.
const CHURN_LIST_MAX: usize = 2_048;
/// Every `SAMPLE_EVERY`th iteration is clocked by the traced run.
const SAMPLE_EVERY: u64 = 64;

impl Runtime {
    fn sizes(self, quick: bool) -> Sizes {
        let scale = if quick { 20 } else { 1 };
        match self {
            Runtime::ChurnAlloc => Sizes {
                capacity: 16_384,
                ring: 0,
                warmup: 500_000 / scale,
                block: 65_536 / scale,
                sessions: if quick { 1 } else { 5 },
            },
            Runtime::GraphMutate => Sizes {
                capacity: 32_768,
                ring: 16_384,
                warmup: 1_000_000 / scale,
                block: 131_072 / scale,
                sessions: if quick { 1 } else { 5 },
            },
        }
    }

    fn gc_config(self, sizes: &Sizes) -> GcConfig {
        let builder = GcConfig::builder()
            .capacity(sizes.capacity)
            .max_fields(2)
            .layout(HeapLayout::default());
        match self {
            // The free-running collector: back-to-back cycles.
            Runtime::ChurnAlloc => builder.build(),
            Runtime::GraphMutate => builder.occupancy_pacing(750, 600).build(),
        }
    }
}

/// The seeded input stream: one decision per iteration. The program sees
/// only these decisions, never the seed.
pub struct Ops {
    rng: SplitMix64,
    /// A draw below this (of 4096) decides `true`.
    threshold: u64,
}

impl Ops {
    pub fn new(kind: Runtime, seed: u64) -> Ops {
        Ops {
            rng: SplitMix64::new(seed),
            threshold: match kind {
                // Cut the list to garbage early, once in 4096 iterations.
                Runtime::ChurnAlloc => 1,
                // Store a chord edge on half the iterations.
                Runtime::GraphMutate => 2_048,
            },
        }
    }

    pub fn draw(&mut self) -> bool {
        self.rng.next_u64() % 4_096 < self.threshold
    }
}

/// The public calls a workload makes into `otf-gc`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Alloc,
    Load,
    Store,
    Discard,
    Safepoint,
}

/// Sees every public call; may clock it.
pub trait Probe {
    fn begin_iteration(&mut self, i: u64);
    fn call<R>(&mut self, op: Op, f: impl FnOnce() -> R) -> R;
    /// A timed block ended: hang what was clocked in it off its span.
    fn end_block(&mut self, _rec: &mut Recorder, _block: usize) {}
}

pub struct NoProbe;

impl Probe for NoProbe {
    #[inline(always)]
    fn begin_iteration(&mut self, _i: u64) {}

    #[inline(always)]
    fn call<R>(&mut self, _op: Op, f: impl FnOnce() -> R) -> R {
        f()
    }
}

/// Sample slots: stores are split by the collector phase read before the
/// call (barriers are inert while the collector idles, live in a cycle).
const SLOT_NAMES: [&str; 6] = [
    "otf-gc.alloc",
    "otf-gc.load",
    "otf-gc.store_idle",
    "otf-gc.store_mark",
    "otf-gc.discard",
    "otf-gc.safepoint",
];
const ALLOC: usize = 0;
const LOAD: usize = 1;
const STORE_IDLE: usize = 2;
const STORE_MARK: usize = 3;
const DISCARD: usize = 4;
const SAFEPOINT: usize = 5;

pub struct Sampler<'c> {
    collector: &'c Collector,
    armed: bool,
    /// Every sampled duration (ns) per slot, for the percentiles.
    samples: [Vec<f64>; 6],
    /// Calls and busy time per slot since the last block boundary.
    block: [(u64, u64); 6],
}

impl<'c> Sampler<'c> {
    fn new(collector: &'c Collector) -> Sampler<'c> {
        Sampler {
            collector,
            armed: false,
            samples: Default::default(),
            block: Default::default(),
        }
    }
}

impl Probe for Sampler<'_> {
    fn begin_iteration(&mut self, i: u64) {
        self.armed = i.is_multiple_of(SAMPLE_EVERY);
    }

    fn call<R>(&mut self, op: Op, f: impl FnOnce() -> R) -> R {
        if !self.armed && op != Op::Safepoint {
            return f();
        }
        let slot = match op {
            Op::Alloc => ALLOC,
            Op::Load => LOAD,
            Op::Discard => DISCARD,
            Op::Safepoint => SAFEPOINT,
            Op::Store => match self.collector.phase() {
                Phase::Idle => STORE_IDLE,
                Phase::Init | Phase::Mark | Phase::Sweep => STORE_MARK,
            },
        };
        let t0 = Instant::now();
        let r = f();
        let ns = t0.elapsed().as_nanos() as u64;
        self.samples[slot].push(ns as f64);
        self.block[slot].0 += 1;
        self.block[slot].1 += ns;
        r
    }

    /// One aggregate span per slot: the calls sampled in this block.
    fn end_block(&mut self, rec: &mut Recorder, block: usize) {
        for (slot, (calls, ns)) in std::mem::take(&mut self.block).into_iter().enumerate() {
            rec.aggregate(SLOT_NAMES[slot], block, calls, ns);
        }
    }
}

/// Allocation attempts and failures of one session.
#[derive(Debug, Default, Clone, Copy)]
struct Allocs {
    attempted: u64,
    failed: u64,
}

/// The mutator's side of a workload.
trait Work: Sized {
    /// Builds the resident structure (part of set-up).
    fn build(m: Mutator, ops: Ops, sizes: &Sizes) -> Self;
    fn step<P: Probe>(&mut self, i: u64, probe: &mut P);
    fn allocs(&self) -> Allocs;
    /// Walks the final structure; returns what is wrong with it, if anything.
    fn verify(self, sizes: &Sizes) -> Result<(), String>;
}

/// The `stress.rs` churn step: push a fresh node on a list hanging off a
/// rooted anchor; cut the whole list loose now and then.
struct Churn {
    m: Mutator,
    ops: Ops,
    anchor: Gc,
    len: usize,
    allocs: Allocs,
}

impl Work for Churn {
    fn build(mut m: Mutator, ops: Ops, _sizes: &Sizes) -> Churn {
        let anchor = m.alloc(2).expect("an empty heap has room for the anchor");
        Churn {
            m,
            ops,
            anchor,
            len: 0,
            allocs: Allocs::default(),
        }
    }

    #[inline(always)]
    fn step<P: Probe>(&mut self, i: u64, probe: &mut P) {
        let (m, anchor) = (&mut self.m, self.anchor);
        probe.begin_iteration(i);
        if i.is_multiple_of(8) {
            probe.call(Op::Safepoint, || m.safepoint());
        }
        self.allocs.attempted += 1;
        match probe.call(Op::Alloc, || m.alloc(2)) {
            Ok(node) => {
                let old = probe.call(Op::Load, || m.load(anchor, 0));
                probe.call(Op::Store, || m.store(node, 0, old));
                probe.call(Op::Store, || m.store(anchor, 0, Some(node)));
                if let Some(old) = old {
                    probe.call(Op::Discard, || m.discard(old));
                }
                probe.call(Op::Discard, || m.discard(node));
                self.len += 1;
            }
            Err(_) => {
                self.allocs.failed += 1;
                probe.call(Op::Safepoint, || m.safepoint());
            }
        }
        if self.ops.draw() || self.len >= CHURN_LIST_MAX {
            probe.call(Op::Store, || m.store(anchor, 0, None));
            self.len = 0;
        }
    }

    fn allocs(&self) -> Allocs {
        self.allocs
    }

    fn verify(mut self, _sizes: &Sizes) -> Result<(), String> {
        let mut walked = 0;
        let mut cur = self.m.load(self.anchor, 0);
        while let Some(node) = cur {
            walked += 1;
            cur = self.m.load(node, 0);
            self.m.discard(node);
        }
        if walked == self.len {
            Ok(())
        } else {
            Err(format!(
                "list holds {walked} nodes, {} were pushed",
                self.len
            ))
        }
    }
}

/// Reads beside writes on a resident ring: walk to the next node, store a
/// chord edge to it on a seeded half of the iterations, and every fourth
/// iteration splice a fresh node in its place (the old one is garbage).
struct Graph {
    m: Mutator,
    ops: Ops,
    cur: Gc,
    allocs: Allocs,
}

impl Work for Graph {
    fn build(mut m: Mutator, ops: Ops, sizes: &Sizes) -> Graph {
        let mut allocs = Allocs::default();
        let mut alloc = |m: &mut Mutator| {
            allocs.attempted += 1;
            m.alloc(2).expect("the ring fits in half the heap")
        };
        let first = alloc(&mut m);
        let mut last = first;
        for _ in 1..sizes.ring {
            let node = alloc(&mut m);
            m.store(last, 0, Some(node));
            if last != first {
                m.discard(last);
            }
            last = node;
        }
        m.store(last, 0, Some(first));
        if last != first {
            m.discard(last);
        }
        Graph {
            m,
            ops,
            cur: first,
            allocs,
        }
    }

    #[inline(always)]
    fn step<P: Probe>(&mut self, i: u64, probe: &mut P) {
        let (m, cur) = (&mut self.m, self.cur);
        probe.begin_iteration(i);
        if i.is_multiple_of(8) {
            probe.call(Op::Safepoint, || m.safepoint());
        }
        let mut next = probe
            .call(Op::Load, || m.load(cur, 0))
            .expect("the ring is closed");
        if i.is_multiple_of(4) {
            self.allocs.attempted += 1;
            match probe.call(Op::Alloc, || m.alloc(2)) {
                Ok(fresh) => {
                    let after = probe.call(Op::Load, || m.load(next, 0));
                    probe.call(Op::Store, || m.store(fresh, 0, after));
                    probe.call(Op::Store, || m.store(cur, 0, Some(fresh)));
                    if let Some(after) = after.filter(|a| *a != cur) {
                        probe.call(Op::Discard, || m.discard(after));
                    }
                    probe.call(Op::Discard, || m.discard(next));
                    next = fresh;
                }
                Err(_) => self.allocs.failed += 1,
            }
        }
        if self.ops.draw() {
            probe.call(Op::Store, || m.store(cur, 1, Some(next)));
        }
        probe.call(Op::Discard, || m.discard(cur));
        self.cur = next;
    }

    fn allocs(&self) -> Allocs {
        self.allocs
    }

    fn verify(mut self, sizes: &Sizes) -> Result<(), String> {
        let start = self.cur;
        let mut walked = 1;
        let mut at = self.m.load(start, 0).expect("the ring is closed");
        while at != start && walked <= sizes.ring {
            let next = self.m.load(at, 0).expect("the ring is closed");
            self.m.discard(at);
            at = next;
            walked += 1;
        }
        if walked == sizes.ring {
            Ok(())
        } else {
            Err(format!("ring holds {walked} nodes, not {}", sizes.ring))
        }
    }
}

/// What one session measured.
struct Session {
    setup_s: f64,
    /// Nanoseconds per iteration, one sample per timed block.
    block_ns_per_iter: Vec<f64>,
    iterations: u64,
    allocs: Allocs,
    cycles: Vec<CycleStats>,
    problems: Vec<String>,
}

/// Runs one session on `collector`, whose construction began at `began`
/// (set-up is timed from there).
fn session<W: Work, P: Probe>(
    kind: Runtime,
    sizes: &Sizes,
    seed: u64,
    window_s: f64,
    (collector, began): (&Collector, Instant),
    probe: &mut P,
    mut spans: Under<'_>,
) -> Session {
    collector.start();
    let mut work = W::build(collector.register_mutator(), Ops::new(kind, seed), sizes);
    let mut i = 0u64;
    while i < sizes.warmup {
        work.step(i, &mut NoProbe);
        i += 1;
    }
    let setup_s = began.elapsed().as_secs_f64();

    let mut block_ns_per_iter = Vec::new();
    let window = Instant::now();
    loop {
        let span = spans.open("block");
        let b0 = Instant::now();
        for _ in 0..sizes.block {
            work.step(i, probe);
            i += 1;
        }
        block_ns_per_iter.push(b0.elapsed().as_nanos() as f64 / sizes.block as f64);
        spans.close(span, |rec, span| probe.end_block(rec, span));
        if window.elapsed().as_secs_f64() >= window_s {
            break;
        }
    }

    let allocs = work.allocs();
    let mut problems = Vec::new();
    if let Err(problem) = work.verify(sizes) {
        problems.push(problem);
    }
    // `verify` consumed the mutator: it has deregistered, so the collector
    // stops without waiting on a handshake partner.
    collector.stop();
    let stats = collector.stats();
    let (allocated, freed) = (stats.allocated(), stats.freed());
    let live = collector.live_objects() as u64;
    if allocated - freed != live {
        problems.push(format!(
            "allocated {allocated} - freed {freed} != {live} live objects"
        ));
    }
    if stats.worker_panics() > 0 {
        problems.push("the collector thread panicked".to_owned());
    }
    Session {
        setup_s,
        block_ns_per_iter,
        iterations: i,
        allocs,
        cycles: stats.history(),
        problems,
    }
}

/// One untraced session of `kind`.
fn plain_session(kind: Runtime, sizes: &Sizes, seed: u64, window_s: f64) -> Session {
    let began = Instant::now();
    let collector = Collector::new(kind.gc_config(sizes));
    let on = (&collector, began);
    match kind {
        Runtime::ChurnAlloc => session::<Churn, _>(
            kind,
            sizes,
            seed,
            window_s,
            on,
            &mut NoProbe,
            Under::nothing(),
        ),
        Runtime::GraphMutate => session::<Graph, _>(
            kind,
            sizes,
            seed,
            window_s,
            on,
            &mut NoProbe,
            Under::nothing(),
        ),
    }
}

fn cycle_ms(cycles: &[CycleStats]) -> Vec<f64> {
    cycles.iter().map(|c| c.duration_ns as f64 / 1e6).collect()
}

fn absorb(out: &mut RunOutput, s: &mut Session) {
    out.attempted += s.allocs.attempted;
    out.failed += s.allocs.failed;
    out.problems.append(&mut s.problems);
}

/// The untraced run: end-to-end metrics only.
pub fn run(kind: Runtime, quick: bool, seed: u64, seconds: f64) -> RunOutput {
    let sizes = kind.sizes(quick);
    let mut out = RunOutput::default();
    let (mut setup_s, mut blocks, mut cycles) = (Vec::new(), Vec::new(), Vec::new());
    for k in 0..sizes.sessions {
        let window_s = seconds / sizes.sessions as f64;
        let mut s = plain_session(kind, &sizes, seed.wrapping_add(k as u64), window_s);
        println!(
            "  session {k}: {:.0} iterations/s over {} blocks, {} cycles, set-up {:.3}s",
            1e9 / median(&mut s.block_ns_per_iter.clone()),
            s.block_ns_per_iter.len(),
            s.cycles.len(),
            s.setup_s
        );
        absorb(&mut out, &mut s);
        setup_s.push(s.setup_s);
        blocks.append(&mut s.block_ns_per_iter);
        cycles.append(&mut cycle_ms(&s.cycles));
    }
    out.check(!cycles.is_empty(), || {
        "no collector cycle completed".to_owned()
    });
    // Nanoseconds per iteration is, digit for digit, milliseconds per
    // million iterations: the unit of work `work_ms` is stated in.
    out.set(WORK_MS, median(&mut blocks), blocks.len());
    out.set(WAIT_MS, median(&mut cycles), cycles.len());
    out.set(SETUP_S, median(&mut setup_s), setup_s.len());
    out.set(PEAK_RSS_MB, peak_rss_mb(), 1);
    out
}

/// Cost of one `gc_trace::emit` call, in nanoseconds.
fn emit_ns() -> f64 {
    const CALLS: u32 = 1_000_000;
    let t0 = Instant::now();
    for i in 0..CALLS {
        gc_trace::emit(gc_trace::EventKind::Instant {
            id: 0,
            value: u64::from(std::hint::black_box(i)),
        });
    }
    t0.elapsed().as_nanos() as f64 / f64::from(CALLS)
}

/// The traced run: per-layer metrics only.
pub fn trace(kind: Runtime, quick: bool, seed: u64, seconds: f64, rec: &mut Recorder) -> RunOutput {
    let sizes = kind.sizes(quick);
    let mut out = RunOutput::default();
    let root = rec.open("run", None);

    // The untraced reference: throughput and cycle time as `run` sees them.
    let span = rec.open("session.untraced", Some(root));
    let mut plain = plain_session(kind, &sizes, seed, seconds * 0.3);
    rec.close(span);
    absorb(&mut out, &mut plain);
    let plain_ns = median(&mut plain.block_ns_per_iter);
    out.set(
        "otf-gc.ops_per_s",
        1e9 / plain_ns,
        plain.block_ns_per_iter.len(),
    );
    let mut cycles = cycle_ms(&plain.cycles);
    out.set("otf-gc.cycle_p50_ms", median(&mut cycles), cycles.len());

    // The sampled session: the same loop with a clock around sampled calls.
    let began = Instant::now();
    let collector = Collector::new(kind.gc_config(&sizes));
    let mut sampler = Sampler::new(&collector);
    let span = rec.open("session.sampled", Some(root));
    let under = Under::span(rec, span);
    let (window_s, on) = (seconds * 0.5, (&collector, began));
    let mut s = match kind {
        Runtime::ChurnAlloc => {
            session::<Churn, _>(kind, &sizes, seed, window_s, on, &mut sampler, under)
        }
        Runtime::GraphMutate => {
            session::<Graph, _>(kind, &sizes, seed, window_s, on, &mut sampler, under)
        }
    };
    rec.close(span);
    absorb(&mut out, &mut s);
    let sampled_ns = median(&mut s.block_ns_per_iter);
    out.set(
        "bench.span_overhead_pct",
        (sampled_ns / plain_ns - 1.0) * 100.0,
        1,
    );

    let mut sampled = |name: &'static str, slot: usize, q: f64, scale: f64| {
        let samples = &mut sampler.samples[slot];
        out.set(name, percentile(samples, q) * scale, samples.len());
    };
    sampled("otf-gc.alloc_ns_p50", ALLOC, 0.50, 1.0);
    sampled("otf-gc.alloc_ns_p99", ALLOC, 0.99, 1.0);
    sampled("otf-gc.store_idle_ns_p50", STORE_IDLE, 0.50, 1.0);
    sampled("otf-gc.store_mark_ns_p50", STORE_MARK, 0.50, 1.0);
    sampled("otf-gc.load_ns_p50", LOAD, 0.50, 1.0);
    sampled("otf-gc.discard_ns_p50", DISCARD, 0.50, 1.0);
    sampled("otf-gc.safepoint_ns_p50", SAFEPOINT, 0.50, 1.0);
    sampled("otf-gc.safepoint_us_max", SAFEPOINT, 1.0, 1e-3);
    out.set(
        "otf-gc.alloc_failed",
        s.allocs.failed as f64,
        s.allocs.attempted as usize,
    );

    // Collector-side layers, from GcStats and the CycleStats history.
    let stats = collector.stats();
    let sum = |f: fn(&CycleStats) -> u64| s.cycles.iter().map(f).sum::<u64>() as f64;
    let (duration, n_cycles) = (sum(|c| c.duration_ns), s.cycles.len());
    let (handshake, mark, sweep) = (
        sum(|c| c.handshake_ns),
        sum(|c| c.mark_ns),
        sum(|c| c.sweep_ns),
    );
    let mut share = |name, part: f64, of: f64| out.set(name, ratio(part, of), n_cycles);
    share("otf-gc.handshake_share", handshake, duration);
    share("otf-gc.mark_share", mark, duration);
    share("otf-gc.sweep_share", sweep, duration);
    share("otf-gc.mark_ns_per_obj", mark, sum(|c| c.traced as u64));
    let swept_slots = (n_cycles * sizes.capacity) as f64;
    share("otf-gc.sweep_ns_per_slot", sweep, swept_slots);
    let rounds = stats.handshakes() as f64;
    share("otf-gc.handshake_us_per_round", handshake / 1e3, rounds);
    let (won, lost) = (stats.barrier_cas_won(), stats.barrier_cas_lost());
    let iterations = s.iterations as f64;
    let mut count = |name, value: f64| out.set(name, value, 1);
    count("otf-gc.cycles", n_cycles as f64);
    count(
        "otf-gc.barrier_checks_per_op",
        ratio(stats.barrier_checks() as f64, iterations),
    );
    count("otf-gc.barrier_cas_per_op", ratio(won as f64, iterations));
    count(
        "otf-gc.cas_lost_share",
        ratio(lost as f64, (won + lost) as f64),
    );
    count("otf-gc.emergency_cycles", stats.emergency_cycles() as f64);
    count("otf-gc.tlab_refills", stats.tlab_refills() as f64);
    count(
        "otf-gc.lazy_sweep_segments",
        stats.lazy_sweep_segments() as f64,
    );
    count("otf-gc.backoff_ms", stats.backoff_ns() as f64 / 1e6);

    // gc-trace: what an emit site costs off and on, and what switching the
    // tracer on costs this workload end to end.
    if kind == Runtime::ChurnAlloc {
        out.set("trace.emit_off_ns", emit_ns(), 1_000_000);
        gc_trace::enable();
        out.set("trace.emit_on_ns", emit_ns(), 1_000_000);
        let span = rec.open("session.gc-trace-on", Some(root));
        let mut on = plain_session(kind, &sizes, seed, seconds * 0.2);
        rec.close(span);
        gc_trace::disable();
        drop(gc_trace::Tracer::global().drain());
        absorb(&mut out, &mut on);
        let on_ns = median(&mut on.block_ns_per_iter);
        out.set("trace.on_overhead_pct", (on_ns / plain_ns - 1.0) * 100.0, 1);
    }
    rec.close(root);
    out.set("bench.spans", rec.len() as f64, 1);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hasher;

    #[test]
    fn the_same_seed_generates_the_same_op_stream_and_another_seed_does_not() {
        for kind in [Runtime::ChurnAlloc, Runtime::GraphMutate] {
            let digest = |seed| {
                let mut ops = Ops::new(kind, seed);
                let mut h = mc::FxHasher::default();
                for _ in 0..100_000 {
                    h.write_u8(u8::from(ops.draw()));
                }
                h.finish()
            };
            assert_eq!(digest(7), digest(7), "{kind:?}");
            assert_ne!(digest(7), digest(8), "{kind:?}");
        }
        let mut ops = Ops::new(Runtime::GraphMutate, 3);
        let stores = (0..10_000).filter(|_| ops.draw()).count();
        assert!((4_500..5_500).contains(&stores), "{stores} of 10000");
    }

    #[test]
    fn quick_runs_pass_their_output_checks() {
        for kind in [Runtime::ChurnAlloc, Runtime::GraphMutate] {
            let out = run(kind, true, 11, 0.2);
            assert!(out.correct(), "{kind:?}: {:?}", out.problems);
            assert_eq!(out.failed, 0, "{kind:?}");
            assert!(out.attempted > 0);
            assert!(out.metrics[WORK_MS] > 0.0 && out.metrics[WAIT_MS] > 0.0);
        }
    }

    #[test]
    fn a_broken_ring_fails_verification() {
        let sizes = Runtime::GraphMutate.sizes(true);
        let collector = Collector::new(Runtime::GraphMutate.gc_config(&sizes));
        let ops = Ops::new(Runtime::GraphMutate, 1);
        let mut graph = Graph::build(collector.register_mutator(), ops, &sizes);
        // Splice one node out: the ring closes one short.
        let next = graph.m.load(graph.cur, 0).expect("ring");
        let after = graph.m.load(next, 0).expect("ring");
        graph.m.store(graph.cur, 0, Some(after));
        assert!(graph.verify(&sizes).is_err());
    }

    #[test]
    fn the_sampler_clocks_sampled_iterations_and_every_safepoint() {
        let sizes = Runtime::ChurnAlloc.sizes(true);
        let collector = Collector::new(Runtime::ChurnAlloc.gc_config(&sizes));
        let mut sampler = Sampler::new(&collector);
        let ops = Ops::new(Runtime::ChurnAlloc, 1);
        let mut churn = Churn::build(collector.register_mutator(), ops, &sizes);
        for i in 0..1_024 {
            churn.step(i, &mut sampler);
        }
        assert_eq!(sampler.samples[ALLOC].len(), 1_024 / SAMPLE_EVERY as usize);
        assert_eq!(sampler.samples[SAFEPOINT].len(), 1_024 / 8);
        let mut rec = Recorder::new("unit");
        let block = rec.open("block", None);
        sampler.end_block(&mut rec, block);
        rec.close(block);
        assert_eq!(rec.layer_totals()["otf-gc.alloc"].calls, 16);
        assert!(churn.verify(&sizes).is_ok());
    }
}
