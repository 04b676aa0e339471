//! The checker pipeline's workloads: `cimp` + `tso-model` + `gc-model`
//! explored by `mc` to a verdict.
//!
//! An untraced run decides the workload's instance (model construction,
//! static precheck, exhaustive search, verdict string) again and again
//! until the requested time has passed, and then decides its negative
//! control a few times — the same reductions on a model with the deletion
//! barrier removed, which must come back with the known 38-step
//! counterexample. A checker that got fast by going blind fails the run.
//!
//! A traced run attributes the verdict to layers from outside: a
//! benchmark-owned sequential BFS ([`replay`]) drives the public
//! `TransitionSystem` trait with a clock around each call, mirroring what
//! `mc`'s engine does per state; what the engine spends beyond those calls
//! is reported as its residual.

use std::collections::hash_map::RandomState;
use std::collections::HashSet;
use std::hash::{BuildHasher, BuildHasherDefault};
use std::sync::Arc;
use std::time::Instant;

use gc_model::invariants::combined_property;
use gc_model::{GcModel, InitialHeap, ModelConfig, ModelState};
use gc_trace::Registry;
use mc::{Checker, CheckerConfig, Property, Reduction, Stats, Strategy, TransitionSystem};
use tso_model::MemoryModel;

use crate::report::RunOutput;
use crate::spans::{Recorder, Under};
use crate::spec::{PEAK_RSS_MB, SETUP_S, WAIT_MS, WORK_MS};
use crate::stats::{median, peak_rss_mb, ratio};

/// How many times set-up is timed for a steady `setup_s` median.
const SETUP_REPEATS: usize = 101;
/// How many times the negative control is decided per run (once under
/// `--quick`: it is not scaled down, and would be most of a quick run).
const CONTROL_REPEATS: usize = 3;
/// The replay stops after this many unique states, except on `check-raw`
/// where it runs to exhaustion and must agree with `Checker`.
const REPLAY_BOUND: usize = 250_000;
/// Unique states over which the replay is run with and without its clocks
/// to measure what the clocks cost.
const OVERHEAD_PROBE_STATES: usize = 60_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Check {
    Raw,
    Reduced,
    HeapPar,
}

/// One model-checking problem and the engine settings it runs under.
pub struct Instance {
    pub model: ModelConfig,
    pub reduction: Reduction,
    pub threads: usize,
    pub spill_threshold: Option<usize>,
    /// Attach `gc_analysis::precheck` (the negative control cannot: the
    /// static analyzer would reject the ablated model before any search).
    pub precheck: bool,
    pub max_states: usize,
    pub expected: Expected,
}

/// The known answer of an instance.
pub struct Expected {
    pub verdict: String,
    /// Pinned `(states, transitions, depth)`, where the answer fixes them.
    pub stats: Option<Stats>,
    pub trace_len: Option<usize>,
}

/// `check-raw`'s exhaustive size; `--quick` bounds every instance to a
/// twentieth of its own.
const RAW_STATS: Stats = Stats {
    states: 584_854,
    transitions: 2_228_395,
    depth: 260,
};
const REDUCED_STATES: usize = 207_363;
const HEAP_PAR_STATES: usize = 1_064_602;

pub fn instance(check: Check, quick: bool) -> Instance {
    // The flagship symmetric instance: two mutators contending on one
    // shared object, no allocation.
    let mut flagship = ModelConfig::small(2, 2);
    flagship.initial = InitialHeap::shared_object(2, 1);
    flagship.ops.alloc = false;
    let (model, reduction, threads, spill_threshold, full_states, stats) = match check {
        Check::Raw => {
            flagship.buffer_cap = 2;
            let none = Reduction::default();
            (flagship, none, 1, None, RAW_STATS.states, Some(RAW_STATS))
        }
        Check::Reduced => {
            flagship.buffer_cap = 6;
            (flagship, Reduction::all(), 1, None, REDUCED_STATES, None)
        }
        Check::HeapPar => {
            let mut heap = ModelConfig::small(2, 4);
            heap.initial = InitialHeap::shared_object(2, 1);
            heap.ops.load = false;
            heap.ops.store = false;
            // The instance's BFS levels peak below 20,000 states, the
            // threshold `reduction.rs` uses: there nothing ever spills. At
            // 5,000 about two thirds of the states stream through disk.
            let spill = Some(5_000);
            (heap, Reduction::all(), 2, spill, HEAP_PAR_STATES, None)
        }
    };
    let (max_states, expected) = if quick {
        let bound = full_states / 20;
        let verdict = format!("BOUNDED ({})", mc::Bound::States(bound));
        (
            bound,
            Expected {
                verdict,
                stats: None,
                trace_len: None,
            },
        )
    } else {
        let verdict = "VERIFIED".to_owned();
        (
            CheckerConfig::default().max_states,
            Expected {
                verdict,
                stats,
                trace_len: None,
            },
        )
    };
    Instance {
        model,
        reduction,
        threads,
        spill_threshold,
        precheck: true,
        max_states,
        expected,
    }
}

/// The negative control under `check`'s reductions: one mutator, a
/// two-object chain, the deletion barrier removed. Always sequential and
/// in memory: its BFS levels are a few hundred states, and two threads
/// spawned per level measured the host's scheduler (1.0-1.6x run to run).
pub fn negative_control(check: Check) -> Instance {
    let engine = instance(check, false);
    let mut model = ModelConfig::small(1, 2);
    model.initial = InitialHeap::chain(1, 2, 1);
    model.deletion_barrier = false;
    model.ops.alloc = false;
    Instance {
        model,
        threads: 1,
        spill_threshold: None,
        precheck: false,
        expected: Expected {
            verdict: "VIOLATED mutator_phase_inv (marked_deletions)".to_owned(),
            stats: None,
            trace_len: Some(38),
        },
        ..engine
    }
}

fn properties(model: &ModelConfig) -> Vec<Property<ModelState>> {
    vec![combined_property(model)]
}

/// Builds the model and a checker for it.
fn prepare(inst: &Instance, registry: Option<Arc<Registry>>) -> (GcModel, Checker<ModelState>) {
    let model = GcModel::new(inst.model.clone());
    let mut config = CheckerConfig {
        max_states: inst.max_states,
        hash_compact: true,
        spill_threshold: inst.spill_threshold,
        static_precheck: inst
            .precheck
            .then(|| gc_analysis::precheck(inst.model.clone(), Vec::new())),
        ..CheckerConfig::default()
    }
    .reduction(inst.reduction);
    if let Some(registry) = registry {
        config = config.metrics(registry);
    }
    let mut checker = Checker::with_config(config).strategy(Strategy::Bfs {
        threads: inst.threads,
    });
    for p in properties(&inst.model) {
        checker = checker.property(p);
    }
    (model, checker)
}

/// Set-up, timed: everything a verdict pays for before the search starts
/// — the model, the properties, the checker, and one run of the static
/// precheck `Checker::run` makes before it explores.
fn time_setup(inst: &Instance) -> f64 {
    let t0 = Instant::now();
    let prepared = prepare(inst, None);
    if let Some(precheck) = &prepared.1.config().static_precheck {
        assert!(precheck().is_empty(), "the precheck rejects the instance");
    }
    let took = t0.elapsed().as_secs_f64();
    drop(prepared);
    took
}

/// What the checker answered and how long the whole decision took, from
/// model construction to the verdict string.
struct Decision {
    verdict: String,
    stats: Stats,
    trace_len: Option<usize>,
    total_s: f64,
}

fn decide(inst: &Instance, registry: Option<Arc<Registry>>) -> Decision {
    let t0 = Instant::now();
    let (model, checker) = prepare(inst, registry);
    let outcome = checker.run(&model);
    let verdict = outcome.verdict();
    let total_s = t0.elapsed().as_secs_f64();
    Decision {
        verdict,
        stats: outcome.stats(),
        trace_len: outcome.trace().map(|t| t.actions.len()),
        total_s,
    }
}

/// Checks a decision against the instance's known answer.
fn judge(out: &mut RunOutput, what: &str, inst: &Instance, d: &Decision) {
    out.attempted += 1;
    let expected = &inst.expected;
    let right = d.verdict == expected.verdict
        && expected.stats.is_none_or(|s| s == d.stats)
        && expected.trace_len.is_none_or(|n| Some(n) == d.trace_len);
    if !right {
        out.failed += 1;
    }
    out.check(right, || {
        format!(
            "{what}: got `{}` {:?} trace {:?}, expected `{}` {:?} trace {:?}",
            d.verdict, d.stats, d.trace_len, expected.verdict, expected.stats, expected.trace_len
        )
    });
}

/// The untraced run: end-to-end metrics only.
pub fn run(check: Check, quick: bool, seconds: f64) -> RunOutput {
    let inst = instance(check, quick);
    let control = negative_control(check);
    let mut out = RunOutput::default();
    let (mut work_ms, mut wait_ms) = (Vec::new(), Vec::new());
    let started = Instant::now();
    loop {
        let d = decide(&inst, None);
        judge(&mut out, "verdict", &inst, &d);
        println!(
            "  verdict {} in {:.3}s ({} states, {} transitions, depth {})",
            d.verdict, d.total_s, d.stats.states, d.stats.transitions, d.stats.depth
        );
        work_ms.push(d.total_s * 1e3);
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    for _ in 0..if quick { 1 } else { CONTROL_REPEATS } {
        let c = decide(&control, None);
        judge(&mut out, "negative control", &control, &c);
        wait_ms.push(c.total_s * 1e3);
    }
    let mut setup_s: Vec<f64> = (0..SETUP_REPEATS).map(|_| time_setup(&inst)).collect();
    out.set(WORK_MS, median(&mut work_ms), work_ms.len());
    out.set(WAIT_MS, median(&mut wait_ms), wait_ms.len());
    out.set(SETUP_S, median(&mut setup_s), setup_s.len());
    out.set(PEAK_RSS_MB, peak_rss_mb(), 1);
    out
}

/// Calls one layer received and the time they took.
#[derive(Debug, Clone, Copy, Default)]
pub struct Clock {
    pub calls: u64,
    pub ns: u64,
}

impl Clock {
    #[inline(always)]
    fn time<const TIMED: bool, R>(&mut self, f: impl FnOnce() -> R) -> R {
        self.calls += 1;
        if TIMED {
            let t = Instant::now();
            let r = f();
            self.ns += t.elapsed().as_nanos() as u64;
            r
        } else {
            f()
        }
    }

    fn ns_per_call(&self) -> f64 {
        ratio(self.ns as f64, self.calls as f64)
    }
}

/// One clock per call the engine makes into a layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct Clocks {
    pub successors: Clock,
    pub canonicalize: Clock,
    pub fingerprint: Clock,
    pub seen_insert: Clock,
    pub invariants: Clock,
    pub encode: Clock,
    pub decode: Clock,
}

impl Clocks {
    fn named(&self) -> [(&'static str, Clock); 7] {
        [
            ("model.successors", self.successors),
            ("model.canonicalize", self.canonicalize),
            ("mc.fingerprint", self.fingerprint),
            ("mc.seen_insert", self.seen_insert),
            ("model.invariants", self.invariants),
            ("model.encode", self.encode),
            ("model.decode", self.decode),
        ]
    }
}

/// What a replay explored and where its time went.
#[derive(Debug, Default)]
pub struct Replay {
    pub states: usize,
    pub transitions: usize,
    pub depth: usize,
    pub wall_ns: u64,
    pub clocks: Clocks,
    /// Successors `canonicalize` changed.
    pub canon_changed: u64,
    /// Successors already in the seen-set.
    pub dedup_hits: u64,
    pub encoded_bytes: u64,
    pub violation: Option<&'static str>,
}

/// A sequential BFS over `ts` that makes the calls `mc`'s engine makes per
/// state — successors, canonicalize (symmetry and buffer normal forms; not
/// POR, whose cycle proviso is the engine's own), two `RandomState`
/// fingerprints, a `HashSet<u128>` insert, the properties on each new
/// state — plus the codec on each new state, each under its own clock.
/// With `TIMED` off the clocks only count. Stops after `max_unique`
/// states. Records one span per level and one aggregate per layer in it.
pub fn replay<TS: TransitionSystem, const TIMED: bool>(
    ts: &TS,
    properties: &[Property<TS::State>],
    reduction: Reduction,
    max_unique: usize,
    mut spans: Under<'_>,
) -> Replay {
    let started = Instant::now();
    let canon = reduction.symmetry || reduction.sb_canon;
    let (h1, h2) = (RandomState::new(), RandomState::new());
    let mut seen: HashSet<u128, BuildHasherDefault<mc::FxHasher>> = HashSet::default();
    let mut r = Replay::default();
    let mut frontier: Vec<TS::State> = Vec::new();
    for init in ts.initial_states() {
        let init = if canon {
            ts.canonicalize(&init, &reduction)
        } else {
            init
        };
        let fp = (u128::from(h1.hash_one(&init)) << 64) | u128::from(h2.hash_one(&init));
        if seen.insert(fp) {
            r.violation = r
                .violation
                .or_else(|| properties.iter().find_map(|p| p.violation(&init)));
            frontier.push(init);
            r.states += 1;
        }
    }
    let mut scratch: Vec<(TS::Action, TS::State)> = Vec::new();
    let mut bytes: Vec<u8> = Vec::new();
    let mut level = 0;
    'search: while !frontier.is_empty() && r.violation.is_none() {
        r.depth = level;
        let span = spans.open("mc.level");
        let before = r.clocks;
        let clocks = &mut r.clocks;
        let mut next: Vec<TS::State> = Vec::new();
        for state in &frontier {
            scratch.clear();
            clocks
                .successors
                .time::<TIMED, _>(|| ts.successors_into(state, &mut scratch));
            for (_, succ) in scratch.drain(..) {
                r.transitions += 1;
                let succ = if canon {
                    let c = clocks
                        .canonicalize
                        .time::<TIMED, _>(|| ts.canonicalize(&succ, &reduction));
                    r.canon_changed += u64::from(c != succ);
                    c
                } else {
                    succ
                };
                let fp = clocks.fingerprint.time::<TIMED, _>(|| {
                    (u128::from(h1.hash_one(&succ)) << 64) | u128::from(h2.hash_one(&succ))
                });
                if !clocks.seen_insert.time::<TIMED, _>(|| seen.insert(fp)) {
                    r.dedup_hits += 1;
                    continue;
                }
                r.violation = clocks
                    .invariants
                    .time::<TIMED, _>(|| properties.iter().find_map(|p| p.violation(&succ)));
                bytes.clear();
                if clocks
                    .encode
                    .time::<TIMED, _>(|| ts.encode_state(&succ, &mut bytes))
                {
                    r.encoded_bytes += bytes.len() as u64;
                    let back = clocks.decode.time::<TIMED, _>(|| ts.decode_state(&bytes));
                    assert!(back.as_ref() == Some(&succ), "codec does not round-trip");
                }
                next.push(succ);
                r.states += 1;
                if r.states >= max_unique || r.violation.is_some() {
                    break;
                }
            }
            if r.states >= max_unique || r.violation.is_some() {
                break;
            }
        }
        spans.close(span, |rec, span| {
            for ((name, now), (_, was)) in r.clocks.named().into_iter().zip(before.named()) {
                rec.aggregate(name, span, now.calls - was.calls, now.ns - was.ns);
            }
        });
        if r.states >= max_unique {
            break 'search;
        }
        frontier = next;
        level += 1;
    }
    r.wall_ns = started.elapsed().as_nanos() as u64;
    r
}

/// Median wall-clock of `f` over `n` calls, in milliseconds.
fn median_ms(n: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..n)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&mut samples)
}

/// The traced run: per-layer metrics only.
pub fn trace(check: Check, quick: bool, rec: &mut Recorder) -> RunOutput {
    let inst = instance(check, quick);
    let mut out = RunOutput::default();
    let root = rec.open("check", None);

    // The untraced verdict everything else is attributed against.
    let span = rec.open("mc.verdict", Some(root));
    let plain = decide(&inst, None);
    rec.close(span);
    judge(&mut out, "verdict", &inst, &plain);
    let stats = plain.stats;
    out.set("mc.verdict_s", plain.total_s, 1);
    out.set("mc.states", stats.states as f64, 1);
    out.set("mc.transitions", stats.transitions as f64, 1);
    out.set("mc.depth", stats.depth as f64, 1);
    out.set(
        "mc.states_per_s",
        ratio(stats.states as f64, plain.total_s),
        1,
    );

    // The replay: the same per-state calls, each under a clock.
    let model = GcModel::new(inst.model.clone());
    let props = properties(&inst.model);
    let bound = match check {
        Check::Raw => inst.max_states,
        _ => inst.max_states.min(REPLAY_BOUND),
    };
    let span = rec.open("replay", Some(root));
    let r = replay::<_, true>(
        &model,
        &props,
        inst.reduction,
        bound,
        Under::span(rec, span),
    );
    rec.close(span);
    out.check(r.violation.is_none(), || {
        format!("replay found a violation: {:?}", r.violation)
    });
    if check == Check::Raw {
        out.check(r.states == stats.states, || {
            format!(
                "replay saw {} unique states, Checker {}",
                r.states, stats.states
            )
        });
    }
    let c = &r.clocks;
    let expanded = c.successors.calls as f64;
    out.set("bench.replay_states", r.states as f64, 1);
    let mut per_call = |name, clock: Clock| {
        out.set(name, clock.ns_per_call(), clock.calls as usize);
    };
    per_call("model.successors_ns_per_state", c.successors);
    per_call("model.canonicalize_ns_per_succ", c.canonicalize);
    per_call("model.invariants_ns_per_state", c.invariants);
    per_call("model.encode_ns_per_state", c.encode);
    per_call("model.decode_ns_per_state", c.decode);
    per_call("mc.fingerprint_ns_per_succ", c.fingerprint);
    per_call("mc.seen_insert_ns_per_succ", c.seen_insert);
    let mut share = |name, part: u64, of: u64| {
        out.set(name, ratio(part as f64, of as f64), of as usize);
    };
    share(
        "model.succ_per_state",
        r.transitions as u64,
        c.successors.calls,
    );
    share(
        "model.canon_changed_share",
        r.canon_changed,
        c.canonicalize.calls,
    );
    share(
        "model.encoded_bytes_per_state",
        r.encoded_bytes,
        c.decode.calls,
    );
    share("mc.dedup_hit_share", r.dedup_hits, r.transitions as u64);

    // Layer sum against the end-to-end figure, per state. The codec is on
    // the engine's path only where frontiers spill. With two BFS threads
    // the verdict's wall-clock is doubled into thread time, so barrier and
    // drain idling lands in the residual where the issue wants it.
    let mut layer_ns = c.successors.ns + c.canonicalize.ns + c.fingerprint.ns;
    layer_ns += c.seen_insert.ns + c.invariants.ns;
    if inst.spill_threshold.is_some() {
        layer_ns += c.encode.ns + c.decode.ns;
    }
    let layers_per_state = ratio(layer_ns as f64, expanded);
    let verdict_per_state = ratio(
        plain.total_s * 1e9 * inst.threads as f64,
        stats.states as f64,
    );
    out.set(
        "mc.engine_residual_ns_per_state",
        verdict_per_state - layers_per_state,
        1,
    );
    out.set(
        "bench.layer_sum_share",
        ratio(layers_per_state, verdict_per_state),
        1,
    );
    println!(
        "  layers {:.0} ns/state of {:.0} ns/state end to end ({} thread{})",
        layers_per_state,
        verdict_per_state,
        inst.threads,
        if inst.threads == 1 { "" } else { "s" }
    );

    // What the clocks cost: the same prefix replayed with and without.
    let probe = bound.min(OVERHEAD_PROBE_STATES);
    let span = rec.open("bench.overhead_probe", Some(root));
    let off = replay::<_, false>(&model, &props, inst.reduction, probe, Under::nothing());
    let on = replay::<_, true>(&model, &props, inst.reduction, probe, Under::nothing());
    rec.close(span);
    out.set(
        "bench.span_overhead_pct",
        (on.wall_ns as f64 / off.wall_ns as f64 - 1.0) * 100.0,
        1,
    );

    // Exact-repeat counters and the cost of collecting them: a second
    // decision with a registry attached. `check-raw` requests no reduction
    // and never spills, so every such counter is zero by construction.
    if check != Check::Raw {
        let registry = Arc::new(Registry::new());
        let span = rec.open("mc.verdict+registry", Some(root));
        let with = decide(&inst, Some(Arc::clone(&registry)));
        rec.close(span);
        judge(&mut out, "verdict with registry", &inst, &with);
        out.check(with.stats == stats, || {
            format!(
                "telemetry changed the search: {:?} vs {:?}",
                with.stats, stats
            )
        });
        let hits = |technique: &str| {
            let name = gc_trace::labeled("mc_reduction_hits_total", &[("technique", technique)]);
            registry.value_of(&name).unwrap_or(0) as f64
        };
        let counter = |name: &str| registry.value_of(name).unwrap_or(0) as f64;
        out.set("mc.por_ample_hits", hits("por_ample"), 1);
        out.set("mc.por_fallback_hits", hits("por_fallback"), 1);
        out.set("mc.symmetry_merge_hits", hits("symmetry_merge"), 1);
        out.set("mc.sb_canon_coalesce_hits", hits("sb_canon_coalesce"), 1);
        out.set(
            "mc.spill_bytes_written",
            counter("mc_spill_bytes_written_total"),
            1,
        );
        out.set(
            "mc.spill_bytes_read",
            counter("mc_spill_bytes_read_total"),
            1,
        );
        out.set(
            "mc.telemetry_overhead_pct",
            (with.total_s / plain.total_s - 1.0) * 100.0,
            1,
        );
    }
    if check == Check::Reduced {
        let two = Instance {
            threads: 2,
            ..instance(check, quick)
        };
        let span = rec.open("mc.verdict-2t", Some(root));
        let d = decide(&two, None);
        rec.close(span);
        judge(&mut out, "verdict at 2 threads", &two, &d);
        out.set("mc.par_speedup_2t", ratio(plain.total_s, d.total_s), 1);
    }

    // The layers a verdict pays for before the search starts.
    let span = rec.open("analysis+litmus", Some(root));
    out.set(
        "analysis.precheck_ms",
        median_ms(5, || {
            let diagnostics = gc_analysis::analyze_model(&inst.model);
            assert!(diagnostics.is_empty(), "precheck rejects the instance");
        }),
        5,
    );
    out.set(
        "tso.litmus_suite_ms",
        median_ms(3, || {
            for test in tso_model::litmus::suite() {
                std::hint::black_box(test.outcomes(MemoryModel::Tso));
            }
        }),
        3,
    );
    rec.close(span);
    rec.close(root);
    out.set("bench.spans", rec.len() as f64, 1);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trimmed flagship (no stores: ~2k states) the tests can exhaust.
    fn trimmed() -> ModelConfig {
        let mut cfg = ModelConfig::small(2, 2);
        cfg.initial = InitialHeap::shared_object(2, 1);
        cfg.ops.alloc = false;
        cfg.ops.store = false;
        cfg
    }

    #[test]
    fn replay_counts_agree_with_the_checker_with_and_without_canonicalisation() {
        let cfg = trimmed();
        let canon = Reduction {
            por: false,
            symmetry: true,
            sb_canon: true,
        };
        for reduction in [Reduction::default(), canon] {
            let inst = Instance {
                model: cfg.clone(),
                reduction,
                threads: 1,
                spill_threshold: None,
                precheck: true,
                max_states: usize::MAX,
                expected: Expected {
                    verdict: "VERIFIED".to_owned(),
                    stats: None,
                    trace_len: None,
                },
            };
            let d = decide(&inst, None);
            assert_eq!(d.verdict, "VERIFIED");
            let model = GcModel::new(cfg.clone());
            let props = properties(&cfg);
            let mut rec = Recorder::new("unit");
            let root = rec.open("replay", None);
            let under = Under::span(&mut rec, root);
            let timed = replay::<_, true>(&model, &props, reduction, usize::MAX, under);
            let nothing = Under::nothing();
            let plain = replay::<_, false>(&model, &props, reduction, usize::MAX, nothing);
            for r in [&timed, &plain] {
                assert_eq!(r.states, d.stats.states, "{reduction:?}");
                assert_eq!(r.transitions, d.stats.transitions, "{reduction:?}");
                assert_eq!(r.depth, d.stats.depth, "{reduction:?}");
                assert!(r.violation.is_none());
            }
            assert_eq!(timed.clocks.successors.calls as usize, d.stats.states);
            assert_eq!(plain.clocks.successors.ns, 0);
            assert!(timed.clocks.successors.ns > 0);
            assert_eq!(
                rec.layer_totals()["mc.level"].calls as usize,
                d.stats.depth + 1
            );
            assert_eq!(reduction.any(), timed.clocks.canonicalize.calls > 0);
        }
    }

    #[test]
    fn replay_honours_its_bound() {
        let cfg = trimmed();
        let r = replay::<_, false>(
            &GcModel::new(cfg.clone()),
            &properties(&cfg),
            Reduction::default(),
            500,
            Under::nothing(),
        );
        assert_eq!(r.states, 500);
    }

    #[test]
    fn negative_control_is_caught_and_a_wrong_expectation_fails_the_run() {
        let control = negative_control(Check::Raw);
        let d = decide(&control, None);
        let mut out = RunOutput::default();
        judge(&mut out, "negative control", &control, &d);
        assert!(out.correct(), "{:?}", out.problems);
        assert_eq!((out.attempted, out.failed), (1, 0));
        // A blind checker would answer VERIFIED; the same judge rejects it.
        let blind = Decision {
            verdict: "VERIFIED".to_owned(),
            trace_len: None,
            ..d
        };
        assert!(time_setup(&control) > 0.0);
        judge(&mut out, "negative control", &control, &blind);
        assert!(!out.correct());
        assert_eq!((out.attempted, out.failed), (2, 1));
    }

    #[test]
    fn quick_instances_are_bounded_to_a_twentieth() {
        let quick = instance(Check::Raw, true);
        assert_eq!(quick.max_states, RAW_STATS.states / 20);
        let d = decide(&quick, None);
        assert_eq!(d.verdict, quick.expected.verdict);
        assert_eq!(d.stats.states, quick.max_states);
    }
}
