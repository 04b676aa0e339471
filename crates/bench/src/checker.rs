//! The checker rigs: what the state-space reductions buy, the parallel
//! BFS against the sequential one, and the parameterized probe.

use std::sync::Arc;
use std::time::{Duration, Instant};

use gc_model::invariants::{combined_property, safety_property};
use gc_model::{GcModel, InitialHeap, ModelConfig};
use gc_trace::{CommaList, FlagError, Flags, MetricsServer, Registry};
use mc::{Checker, CheckerConfig, Reduction, Strategy};
use tso_model::MemoryModel;

use crate::{
    bounded_config, check_config_opts, conclude, print_table, CheckReport, Run, Suite, Verdict,
};

const fn reduction(por: bool, symmetry: bool, sb_canon: bool) -> Reduction {
    Reduction {
        por,
        symmetry,
        sb_canon,
    }
}

/// The reduction combinations measured per instance, in report order.
const COMBOS: [(&str, Reduction); 5] = [
    ("none", reduction(false, false, false)),
    ("por", reduction(true, false, false)),
    ("symmetry", reduction(false, true, false)),
    ("sb_canon", reduction(false, false, true)),
    ("por+symmetry+sb_canon", reduction(true, true, true)),
];

fn reduced(max_states: usize, reduction: Reduction, registry: &Arc<Registry>) -> CheckerConfig {
    bounded_config(max_states)
        .reduction(reduction)
        .metrics(Arc::clone(registry))
}

/// Checks `cfg` under every reduction combination and prints the table.
/// Returns the reports in [`COMBOS`] order, or the refutation when a
/// reduction changed the verdict or the counterexample.
fn sweep(
    name: &str,
    cfg: &ModelConfig,
    max_states: usize,
    registry: &Arc<Registry>,
) -> Result<Vec<CheckReport>, Verdict> {
    let reports: Vec<CheckReport> = COMBOS
        .iter()
        .map(|&(label, reduction)| {
            check_config_opts(
                format!("{name} [{label}]"),
                cfg,
                Suite::Full.properties(cfg),
                reduced(max_states, reduction, registry),
                Strategy::default(),
            )
        })
        .collect();
    print_table(&reports);

    let (baseline, all) = (&reports[0], &reports[COMBOS.len() - 1]);
    for report in &reports[1..] {
        if report.outcome != baseline.outcome || report.trace != baseline.trace {
            return Err(Verdict::Fails(format!(
                "reductions must change neither verdict nor counterexample ({}: {} vs {})",
                report.label, report.outcome, baseline.outcome
            )));
        }
    }
    if baseline.verified() && all.verified() {
        println!(
            "  → {:.1}x state reduction (all on: {} vs none: {})\n",
            baseline.states as f64 / all.states.max(1) as f64,
            all.states,
            baseline.states
        );
    } else {
        println!();
    }
    Ok(reports)
}

/// **State-space reduction** — measures what each reduction technique in
/// `mc` + `gc-model` buys on the flagship configurations, and checks the
/// techniques change *state counts only*: every run of every instance must
/// produce the same verdict as the unreduced baseline.
///
/// Three techniques (see `DESIGN.md` §2.13 for soundness):
///
/// * `por` — ample-set partial-order reduction over certified invisible
///   process-local steps;
/// * `symmetry` — canonicalization under mutator permutation (only honoured
///   on symmetric configurations);
/// * `sb_canon` — adjacent-duplicate store-buffer coalescing.
///
/// The final section is the memory-budget acceptance gate: a two-mutator
/// instance with a real (4-slot) heap under allocation + root-discard
/// churn must run to exhaustion (VERIFIED, not bounded) with all
/// reductions on and the disk-spill frontier engaged, so the BFS
/// wave-front never has to be memory-resident.
///
/// Every run shares one metrics [`Registry`] wired into the checker
/// ([`CheckerConfig::metrics`]): BFS progress gauges (`mc_states_total`,
/// `mc_states_per_sec`, `mc_bfs_level`, `mc_frontier_len`), disk-spill
/// counters (`mc_spill_bytes_written_total`, `mc_spill_bytes_read_total`,
/// `mc_spill_frontier_bytes`) and per-technique
/// `mc_reduction_hits_total{technique=...}` counters. `--metrics-addr
/// ADDR` serves it live over HTTP (`/metrics`, `/metrics.json`,
/// `/healthz` keyed to `mc_states_total` progress). `--ci` trims the
/// sweep to pull-request size.
pub(crate) fn reduction_sweep(f: &mut Flags) -> Run {
    let max = f.get("--max-states", 5_000_000usize)?;
    let ci = f.switch("--ci");
    let metrics_addr: Option<String> = f.opt("--metrics-addr")?;
    f.finish()?;

    // One registry for every run: the checker's telemetry accumulates
    // across the sweep and the scrape endpoint (if any) serves it live.
    let registry = Arc::new(Registry::new());
    let _server = match MetricsServer::for_flag(
        metrics_addr.as_deref(),
        &registry,
        "mc_states_total",
        Duration::from_secs(10),
    ) {
        Ok(server) => server,
        Err(e) => return Ok(Verdict::Fails(e.to_string())),
    };

    // The flagship symmetric instance: two mutators contending on one
    // shared object, with deep (6-entry) store buffers — the closest
    // bounded approximation of the paper's unbounded x86-TSO FIFOs that
    // still terminates unreduced, and the instance the ≥10x acceptance
    // gate is measured on. The ratio grows with buffer depth because
    // `sb_canon` collapses redundant buffered-duplicate interleavings:
    // the fully-reduced state count is *identical* from `buffer_cap` 2
    // through 6 while the unreduced count grows ~5x.
    // `--ci` trims the sweep for a pull-request-sized runner: shallower
    // flagship buffers (the fully-reduced count is the same either way)
    // and no 1-mutator sweep. The committed EXPERIMENTS.md numbers come
    // from the full run.
    let mut flagship = ModelConfig::small(2, 2);
    flagship.initial = InitialHeap::shared_object(2, 1);
    flagship.ops.alloc = false;
    flagship.buffer_cap = if ci { 3 } else { 6 };
    println!(
        "flagship: 2 mutators, shared object, no alloc, buffer_cap={}",
        flagship.buffer_cap
    );
    let flagship_runs = match sweep("2mut shared", &flagship, max, &registry) {
        Ok(runs) => runs,
        Err(refuted) => return Ok(refuted),
    };
    let ratio =
        flagship_runs[0].states as f64 / flagship_runs[COMBOS.len() - 1].states.max(1) as f64;

    // The smallest faithful instance (1 mutator: por + sb_canon only;
    // symmetry needs ≥ 2 mutators and is a requested-but-inert flag here).
    if !ci {
        println!("smallest faithful instance: 1 mutator, 2 slots, all ops");
        let one = ModelConfig::small(1, 2);
        if let Err(refuted) = sweep("1mut all-ops", &one, max, &registry) {
            return Ok(refuted);
        }
    }

    // The memory-budget gate: a two-mutator instance with a real heap —
    // 4 slots, a shared object, and allocation + root-discard churn
    // against the concurrent marker. With every reduction on and the
    // disk-spill frontier engaged (20k-entry levels stream to disk
    // through the state codec) the search runs to exhaustion with the
    // wave-front never resident in memory, which is the acceptance gate:
    // the run must VERIFY, not merely stay unviolated within a bound.
    // (Enabling shared-object *stores* as well pushes past 4M states
    // even fully reduced — that frontier is the open scale boundary;
    // see EXPERIMENTS.md.)
    println!("2 mutators, 4 slots, alloc+discard churn — all reductions + disk spill");
    let mut heap_cfg = ModelConfig::small(2, 4);
    heap_cfg.initial = InitialHeap::shared_object(2, 1);
    heap_cfg.ops.load = false;
    heap_cfg.ops.store = false;
    let spilled = |label: &str, reduction: Reduction| {
        let mut config = reduced(max, reduction, &registry);
        config.spill_threshold = Some(20_000);
        let report = check_config_opts(
            label,
            &heap_cfg,
            Suite::Full.properties(&heap_cfg),
            config,
            Strategy::default(),
        );
        print_table(std::slice::from_ref(&report));
        report
    };
    let heap_report = spilled("2mut 4-slot heap [all+spill]", COMBOS[COMBOS.len() - 1].1);
    let mut verdict = conclude(
        std::slice::from_ref(&heap_report),
        heap_report.verified(),
        "the heap-gate instance must complete and verify",
    );

    // The unreduced comparison row for the same instance (skipped in CI,
    // which gates on the reduced run, not the control).
    if !ci && verdict == Verdict::Holds {
        let heap_none = spilled("2mut 4-slot heap [none+spill]", COMBOS[0].1);
        if heap_none.outcome != heap_report.outcome {
            verdict = Verdict::Fails("reductions must not change the heap-gate verdict".into());
        }
    }

    println!("\nflagship reduction (all on vs none): {ratio:.1}x");

    Ok(verdict)
}

/// Upper bound, in nanoseconds, on one runtime-disabled `gc_trace::emit`
/// call. The real cost is one relaxed atomic load (sub-nanosecond on any
/// modern core); the bound is two orders of magnitude looser so it only
/// trips on a genuine fast-path regression, never on a noisy CI host.
const DISABLED_EMIT_BUDGET_NS: f64 = 100.0;

/// Measures the per-site cost of `gc_trace::emit` with tracing
/// runtime-disabled — the state every instrumented hot path runs in unless
/// someone calls `gc_trace::enable()`.
fn disabled_emit_ns_per_site() -> f64 {
    gc_trace::disable();
    const N: u64 = 4_000_000;
    let emit = |i: u64| {
        gc_trace::emit(gc_trace::EventKind::Instant {
            id: 0,
            value: std::hint::black_box(i),
        })
    };
    // Warm-up (first touch of the thread-local track registration).
    (0..1_000).for_each(emit);
    let t0 = Instant::now();
    (0..N).for_each(emit);
    t0.elapsed().as_nanos() as f64 / N as f64
}

/// Parallel-checker comparison: the fig3 configuration (1 mutator, 2 heap
/// slots, full invariant suite, hash-compact) explored by the
/// level-synchronous BFS at 1, 2 and 4 worker threads (or the
/// comma-separated `THREADS` list, e.g. `1,2`).
///
/// The run checks the tentpole guarantee — identical state counts,
/// transition counts, depths and verdicts at every thread count — and
/// reports the wall-clock ratio against the sequential run. The speedup is
/// only meaningful on a multi-core host (the harness prints the machine's
/// available parallelism so the record is interpretable).
pub(crate) fn parallel_speedup(f: &mut Flags) -> Run {
    let max = f.get("--max-states", 5_000_000usize)?;
    let threads = f
        .positional::<CommaList<usize>>("THREADS")?
        .map_or(vec![1, 2, 4], |list| list.0);
    f.finish()?;

    let cfg = ModelConfig::small(1, 2);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("parallel frontier exploration, fig3 configuration (1 mutator, 2 slots, full suite)");
    println!("host parallelism: {cores} core(s)\n");

    let reports: Vec<CheckReport> = threads
        .iter()
        .map(|&t| {
            check_config_opts(
                format!("1 mutator, 2 slots, {t} thread(s)"),
                &cfg,
                Suite::Full.properties(&cfg),
                bounded_config(max),
                Strategy::Bfs { threads: t },
            )
        })
        .collect();
    print_table(&reports);

    let base = &reports[0];
    println!();
    for r in &reports {
        if (r.states, r.transitions, r.depth, &r.outcome)
            != (base.states, base.transitions, base.depth, &base.outcome)
        {
            return Ok(Verdict::Fails(format!(
                "states, transitions, depth and verdict must be thread-invariant: {}",
                r.label
            )));
        }
        let speedup = base.elapsed.as_secs_f64() / r.elapsed.as_secs_f64();
        println!("{:<44} speedup vs sequential: {speedup:>5.2}x", r.label);
    }
    println!("\nall thread counts agree on states, transitions, depth and verdict.");

    // The checker's instrumentation must be free when tracing is off: the
    // runtime-disabled `emit` fast path is a single relaxed load.
    let per_site = disabled_emit_ns_per_site();
    println!("\nruntime-disabled trace emit: {per_site:.2} ns/site (budget {DISABLED_EMIT_BUDGET_NS} ns)");
    if per_site >= DISABLED_EMIT_BUDGET_NS {
        return Ok(Verdict::Fails(format!(
            "runtime-disabled trace emit costs {per_site:.2} ns/site, \
             budget is {DISABLED_EMIT_BUDGET_NS} ns"
        )));
    }

    Ok(Verdict::Holds)
}

/// Quick exploration probe: one instance, one verdict, one line of counts.
///
/// `MUTS CAP [MODE] [SUITE] [THREADS]` — `MODE` is `faithful` (default) |
/// `nodel` | `noins` | `nofence` | `nocas` | `prem` | `sc` | `skip23`;
/// `SUITE` is `full` (default) | `safety`; `THREADS` is the BFS worker
/// count (default 1; 0 = available parallelism).
pub(crate) fn probe(f: &mut Flags) -> Run {
    let max = f.get("--max-states", 3_000_000usize)?;
    let muts = f.positional("MUTS")?.unwrap_or(1usize);
    let cap = f.positional("CAP")?.unwrap_or(2usize);
    let mode: String = f.positional("MODE")?.unwrap_or_else(|| "faithful".into());
    let suite: String = f.positional("SUITE")?.unwrap_or_else(|| "full".into());
    let threads = f.positional("THREADS")?.unwrap_or(1usize);
    f.finish()?;

    let mut cfg = ModelConfig::small(muts, cap);
    match mode.as_str() {
        "faithful" => {}
        "nodel" => {
            // Figure 1 shape: a chain r0 -> r1, head rooted. The hidden
            // object must pre-exist the cycle (allocation during marking is
            // black), so it is part of the initial heap.
            cfg.deletion_barrier = false;
            cfg.initial = InitialHeap::chain(muts, cap.min(2), 1);
            cfg.ops.alloc = false;
        }
        "noins" => cfg.insertion_barrier = false,
        "nofence" => cfg.handshake_fences = false,
        "nocas" => cfg.mark_cas = false,
        "prem" => cfg.premature_alloc_black = true,
        "sc" => cfg.memory_model = MemoryModel::Sc,
        "skip23" => {
            cfg.skip_noop2 = true;
            cfg.skip_noop3 = true;
        }
        other => return Err(FlagError::bad_value("MODE", other)),
    }
    let prop = match suite.as_str() {
        "full" => combined_property(&cfg),
        "safety" => safety_property(&cfg),
        other => return Err(FlagError::bad_value("SUITE", other)),
    };
    let model = GcModel::new(cfg);
    let checker = Checker::with_config(bounded_config(max))
        .strategy(Strategy::Bfs { threads })
        .property(prop);
    let t0 = Instant::now();
    let out = checker.run(&model);
    let stats = out.stats();
    println!(
        "mode={mode} suite={suite} muts={muts} cap={cap} threads={threads}: states={} transitions={} depth={} in {:?}",
        stats.states, stats.transitions, stats.depth, t0.elapsed()
    );
    print!(
        "{}",
        out.report_with(|trace| model.format_trace(&trace.actions))
    );
    Ok(Verdict::Holds)
}
