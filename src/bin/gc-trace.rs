//! `gc-trace`: the observability demo, trace validator and trace differ
//! (DESIGN.md §2.10, §2.14).
//!
//! Default mode runs a short instrumented workload — the on-the-fly
//! collector under a few churning mutators, then a bounded model-checker
//! run — with tracing enabled, and writes into `--out` (default
//! `experiments_output/`):
//!
//! * `trace.json` — a validated Chrome trace-event document: load it in
//!   Perfetto or `chrome://tracing` to see collection cycles as spans with
//!   handshake/mark/sweep nested under them, one track per thread;
//! * `trace.jsonl` — the same events as flat JSON lines (one per event);
//! * `metrics.prom` — the metrics registry as Prometheus text exposition;
//! * `metrics.json` — the same registry as a JSON snapshot.
//!
//! With `--metrics-addr ADDR` the demo also serves the live registry over
//! HTTP while the workload runs (`/metrics`, `/metrics.json`, `/healthz`;
//! see `gc_trace::scrape`), with `/healthz` watching collection-cycle
//! recency.
//!
//! Subcommands:
//!
//! * `gc-trace diff BASE CURRENT [--json FILE] [--shape-only]
//!   [--latency-rel F] [--count-rel F] [--mix-abs F] [--min-count N]` —
//!   extracts the shape of two recorded traces (`trace.jsonl`) and
//!   compares them (see `gc_trace::diff`). Prints the human table,
//!   optionally writes the machine-readable verdict, and exits 0 (clean) /
//!   1 (regressed) / 2 (unreadable input, or a Chrome `trace.json`).
//!
//! `--check <file>` parses and validates an existing Chrome trace document
//! (required fields, begin/end balance per track) and exits nonzero on
//! failure — the CI `trace-smoke` job runs the demo and then this mode on
//! its own output.
//!
//! Flags: `--help` prints the usage line of the demo or of a subcommand;
//! an unknown flag, a bad value or a missing one exits 2 with that line.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use gc_model::invariants::combined_property;
use gc_model::{GcModel, ModelConfig};
use gc_trace::chrome::{chrome_trace, jsonl, validate_chrome_trace};
use gc_trace::{
    diff_shapes, FlagError, Flags, Json, MetricsServer, Registry, Thresholds, TraceShape, Tracer,
};
use mc::{Checker, CheckerConfig, Strategy};
use otf_gc::{churn_list, Collector, GcConfig};

const USAGE: &str = "gc-trace [--out DIR] [--mutators K] [--ops N] [--check FILE] \
                     [--metrics-addr ADDR]   (subcommand: diff; takes --help)";
const DIFF_USAGE: &str = "gc-trace diff BASE CURRENT [--json FILE] [--shape-only] \
                          [--latency-rel F] [--count-rel F] [--mix-abs F] [--min-count N]";

struct Args {
    out: PathBuf,
    mutators: usize,
    ops: usize,
    check: Option<PathBuf>,
    metrics_addr: Option<String>,
}

fn parse_args(f: &mut Flags) -> Result<Args, FlagError> {
    let args = Args {
        out: f.get("--out", PathBuf::from("experiments_output"))?,
        mutators: f.get("--mutators", 3)?,
        ops: f.get("--ops", 12_000)?,
        check: f.opt("--check")?,
        metrics_addr: f.opt("--metrics-addr")?,
    };
    f.finish()?;
    Ok(args)
}

/// `--check` mode: parse + validate an existing Chrome trace document.
fn check_file(path: &Path) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("gc-trace: cannot read {}: {e}", path.display());
            return ExitCode::from(2);
        }
    };
    let doc = match Json::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("gc-trace: {} is not valid JSON: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    match validate_chrome_trace(&doc) {
        Ok(summary) => {
            println!(
                "{}: valid Chrome trace — {} events ({} spans, {} instants) on {} track(s)",
                path.display(),
                summary.events,
                summary.spans,
                summary.instants,
                summary.tracks
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("gc-trace: {} failed validation: {e}", path.display());
            ExitCode::FAILURE
        }
    }
}

/// The `diff` subcommand's command line: thresholds, the verdict file,
/// and exactly two traces.
fn parse_diff(f: &mut Flags) -> Result<(Thresholds, Option<PathBuf>, [PathBuf; 2]), FlagError> {
    let d = Thresholds::default();
    let thr = Thresholds {
        latency_rel: f.get("--latency-rel", d.latency_rel)?,
        count_rel: f.get("--count-rel", d.count_rel)?,
        mix_abs: f.get("--mix-abs", d.mix_abs)?,
        min_count: f.get("--min-count", d.min_count)?,
        check_latency: !f.switch("--shape-only"),
        ..d
    };
    let json_out = f.opt("--json")?;
    let mut file = |what: &str| {
        f.positional(what)?
            .ok_or_else(|| FlagError::MissingValue(what.to_owned()))
    };
    let files = [file("BASE")?, file("CURRENT")?];
    f.finish()?;
    Ok((thr, json_out, files))
}

/// `diff` subcommand: compare two recorded traces, exit 0/1/2.
fn run_diff(f: &mut Flags) -> ExitCode {
    let (thr, json_out, files) = match parse_diff(f) {
        Ok(parsed) => parsed,
        Err(e) => return f.fail(&e),
    };
    let load = |path: &Path| -> Result<TraceShape, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        if Json::parse(&text).is_ok_and(|doc| doc.get("traceEvents").is_some()) {
            let jsonl = path.with_extension("jsonl");
            let (doc, jsonl) = (path.display(), jsonl.display());
            return Err(format!(
                "{doc} is a Chrome trace document; diff its JSONL recording, {jsonl}"
            ));
        }
        TraceShape::from_jsonl(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let (base, current) = match (load(&files[0]), load(&files[1])) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("gc-trace diff: {e}");
            return ExitCode::from(2);
        }
    };
    let report = diff_shapes(&base, &current, &thr);
    print!("{}", report.render_table());
    if let Some(path) = json_out {
        let doc = report.to_json(&base, &current, &thr);
        if let Err(e) = std::fs::write(&path, format!("{doc}\n")) {
            eprintln!("gc-trace diff: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("wrote {}", path.display());
    }
    if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Mutator ops between two collection cycles of the demo workload.
const OPS_PER_CYCLE: usize = 256;

/// The instrumented runtime workload: `mutators` threads churn a shared
/// list (the stress/torture access pattern) with §4 allocation pools,
/// every thread writing to its own trace track, while a pacer thread runs
/// one collection cycle each time the mutators together pass another
/// [`OPS_PER_CYCLE`] ops (and at least one) — so the cycle count is a
/// function of `mutators` and `ops` on any machine, and two recordings of
/// one workload differ in timing only. A full heap is backpressure (no
/// emergency cycles). The pacer publishes `gc_cycles_completed` into
/// `registry` as it goes, so a live `/healthz` probe sees cycle progress.
fn run_gc_workload(mutators: usize, ops: usize, registry: &Registry) -> (u64, usize) {
    let cfg = GcConfig::builder()
        .capacity(2048)
        .max_fields(2)
        .alloc_pool(32)
        .emergency_retries(0)
        .build();
    let collector = Collector::new(cfg);
    // Root the shared anchor until every churner has adopted it, then
    // leave: the pacer's cycles must not wait on a mutator nobody runs.
    let mut m0 = collector.register_mutator();
    let anchor = m0.alloc(2).expect("fresh heap has room");
    let churners: Vec<_> = (0..mutators)
        .map(|_| {
            let mut m = collector.register_mutator();
            m.adopt(anchor);
            m
        })
        .collect();
    drop(m0);
    let done = AtomicUsize::new(0);
    let progress = AtomicUsize::new(0);
    let cycles_gauge = registry.gauge("gc_cycles_completed");
    std::thread::scope(|s| {
        for (i, mut m) in churners.into_iter().enumerate() {
            let (done, progress) = (&done, &progress);
            s.spawn(move || {
                gc_trace::set_track_name(&format!("mutator-{i}"));
                // In 64-op chunks (one list cut each) so the pacer sees
                // progress as it happens.
                let mut left = ops;
                while left > 0 {
                    let chunk = left.min(64);
                    churn_list(&mut m, anchor, chunk, 64, 0);
                    progress.fetch_add(chunk, Ordering::Release);
                    left -= chunk;
                }
                drop(m);
                done.fetch_add(1, Ordering::Release);
            });
        }
        let (collector, done, progress) = (&collector, &done, &progress);
        s.spawn(move || {
            gc_trace::set_track_name("pacer");
            for cycle in 1..=(mutators * ops / OPS_PER_CYCLE).max(1) {
                while progress.load(Ordering::Acquire) < cycle * OPS_PER_CYCLE
                    && done.load(Ordering::Acquire) < mutators
                {
                    std::thread::yield_now();
                }
                collector.collect();
                cycles_gauge.set(collector.stats().cycles() as i64);
            }
        });
    });
    (collector.stats().cycles(), collector.live_objects())
}

/// The instrumented checker workload: a bounded BFS over the fig3
/// configuration, small enough to finish in well under a second. The
/// shared registry also receives the live `mc_*` telemetry gauges.
fn run_checker_workload(registry: &Arc<Registry>) -> (String, usize, usize) {
    let cfg = ModelConfig::small(1, 2);
    let model = GcModel::new(cfg.clone());
    let checker = Checker::with_config(
        CheckerConfig {
            max_states: 30_000,
            hash_compact: true,
            ..CheckerConfig::default()
        }
        .metrics(Arc::clone(registry)),
    )
    .strategy(Strategy::Bfs { threads: 2 })
    .property(combined_property(&cfg));
    let outcome = checker.run(&model);
    let stats = outcome.stats();
    (outcome.verdict(), stats.states, stats.depth)
}

fn main() -> ExitCode {
    let mut flags = Flags::from_env(USAGE);
    match flags.command().as_deref() {
        Some("diff") => {
            flags.set_usage(DIFF_USAGE);
            return run_diff(&mut flags);
        }
        Some(other) => return flags.fail(&FlagError::Unexpected(other.to_owned())),
        None => {}
    }
    let args = match parse_args(&mut flags) {
        Ok(args) => args,
        Err(e) => return flags.fail(&e),
    };
    if let Some(path) = &args.check {
        return check_file(path);
    }

    println!(
        "== gc-trace demo: {} mutators x {} ops + bounded model check ==",
        args.mutators, args.ops
    );
    let registry = Arc::new(Registry::new());
    let server = match MetricsServer::for_flag(
        args.metrics_addr.as_deref(),
        &registry,
        "gc_cycles_completed",
        Duration::from_secs(5),
    ) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("gc-trace: {e}");
            return ExitCode::from(2);
        }
    };
    gc_trace::enable();
    gc_trace::set_track_name("main");

    let (cycles, live) = run_gc_workload(args.mutators, args.ops, &registry);
    println!("runtime workload: {cycles} collection cycles, {live} live objects at exit");

    let (verdict, states, depth) = run_checker_workload(&registry);
    println!("checker workload: {verdict} ({states} states, depth {depth})");

    gc_trace::disable();
    let dumps = Tracer::global().drain();

    // The metrics pillar feeding off the tracing pillar: handshake
    // latencies, cycle durations and barrier/CAS counts come from the
    // drained event stream.
    TraceShape::publish(&dumps, &registry);
    registry.gauge("gc_live_objects").set(live as i64);
    registry.counter("gc_cycles").add(cycles);

    let doc = chrome_trace(&dumps);
    let summary = match validate_chrome_trace(&doc) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("gc-trace: generated trace failed validation: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "trace: {} events ({} spans, {} instants) on {} track(s)",
        summary.events, summary.spans, summary.instants, summary.tracks
    );

    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("gc-trace: cannot create {}: {e}", args.out.display());
        return ExitCode::from(2);
    }
    let outputs: [(&str, String); 4] = [
        ("trace.json", format!("{doc}\n")),
        ("trace.jsonl", jsonl(&dumps)),
        ("metrics.prom", registry.render_text()),
        ("metrics.json", format!("{}\n", registry.snapshot())),
    ];
    for (name, contents) in outputs {
        let path = args.out.join(name);
        if let Err(e) = std::fs::write(&path, contents) {
            eprintln!("gc-trace: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("wrote {}", path.display());
    }
    if let Some(server) = server {
        println!("metrics endpoint served {} request(s)", server.shutdown());
    }
    println!("load trace.json in Perfetto (ui.perfetto.dev) or chrome://tracing");
    ExitCode::SUCCESS
}
