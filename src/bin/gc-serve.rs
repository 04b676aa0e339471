//! `gc-serve`: the request-serving robustness demo and chaos gate
//! (DESIGN.md §2.12).
//!
//! Default mode runs two arms of the serve harness against the same
//! seeded load and writes into `--out` (default `experiments_output/`):
//!
//! * the **robust** arm — admission control, deadline-aware allocation
//!   and adaptive pacing all on, under a chaos storm (handshake-delay
//!   storms, mutator silence, mark delays, mid-barrier mutator panics,
//!   injected worker panics) bounded to the middle third of the run; the
//!   recovery oracle must come back clean (no lost sessions, no UAF,
//!   every request accounted for, post-storm p99 under the SLO);
//! * the **ablation** arm — same load, shedding and pacing off, expected
//!   to degrade into deadline blowups or fatal `Exhausted` verdicts.
//!
//! Outputs:
//!
//! * `metrics.prom` — the robust arm's registry (throughput, shed/reject/
//!   timeout counters, allocation-stall histograms and handshake
//!   histograms distilled from the trace stream) as Prometheus text
//!   exposition;
//! * `serve_trace.json` — a validated Chrome trace-event document of the
//!   robust arm (occupancy and queue-depth counter tracks included).
//!
//! `--stream-trace` additionally streams events to `serve_trace.jsonl`
//! *while serving* via the background sink; since draining is
//! destructive, the in-process Chrome trace and handshake histograms then
//! cover only the post-stream tail — use the default mode for the
//! histograms, the streaming mode to watch a run live.
//!
//! `--metrics-addr ADDR` (e.g. `127.0.0.1:9464`) serves the robust arm's
//! registry over HTTP *while the run is in flight* — `/metrics`
//! (Prometheus text exposition), `/metrics.json` (snapshot) and
//! `/healthz` (200 while collection cycles keep completing, 503 once
//! `gc_cycles_completed` goes stale) — so a real Prometheus can scrape a
//! storm run live.
//!
//! Exits nonzero when the robust arm reports any oracle violation or the
//! generated trace fails validation — the CI `serve-smoke` gate.
//!
//! Flags: `gc-serve --help` prints the usage line; an unknown flag, a bad
//! value or a missing one exits 2 with that line.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use gc_serve::{run_serve, ServeConfig, ServeReport};
use gc_trace::chrome::{chrome_trace, validate_chrome_trace};
use gc_trace::{FlagError, Flags, MetricsServer, Registry, TraceShape, TraceSink, Tracer};
use otf_gc::{FaultPlan, HeapLayout};

const USAGE: &str = "gc-serve [--out DIR] [--requests N] [--seed S] \
                     [--chaos-seed S] [--slo-ms MS] [--no-storm] [--skip-ablation] \
                     [--stream-trace] [--metrics-addr ADDR]";

struct Args {
    out: PathBuf,
    requests: Option<u64>,
    seed: Option<u64>,
    chaos_seed: u64,
    slo_ms: Option<u64>,
    storm: bool,
    ablation: bool,
    stream_trace: bool,
    metrics_addr: Option<String>,
}

fn parse_args(f: &mut Flags) -> Result<Args, FlagError> {
    let args = Args {
        out: f.get("--out", PathBuf::from("experiments_output"))?,
        requests: f.opt("--requests")?,
        seed: f.opt("--seed")?,
        chaos_seed: f.get("--chaos-seed", 0xc4a05)?,
        slo_ms: f.opt("--slo-ms")?,
        storm: !f.switch("--no-storm"),
        ablation: !f.switch("--skip-ablation"),
        stream_trace: f.switch("--stream-trace"),
        metrics_addr: f.opt("--metrics-addr")?,
    };
    f.finish()?;
    Ok(args)
}

/// The storm plan the chaos gate runs: every runtime fault site the serve
/// loop can reach, plus the harness's own worker-panic site. Rates are
/// per-10,000 draws (mirrors `tests/serve_robustness.rs`).
fn storm_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .with_handshake_delay(3_000)
        .with_silence(500, 2)
        .with_mark_delay(1_500)
        .with_mutator_panic(30)
        .with_worker_panic(3_000)
}

/// The seeded load both arms serve.
fn base_config(args: &Args) -> ServeConfig {
    let mut cfg = ServeConfig::quick(HeapLayout::Slab);
    if let Some(r) = args.requests {
        cfg.requests = r;
    }
    if let Some(s) = args.seed {
        cfg.seed = s;
    }
    cfg
}

/// The robust arm's configuration for these CLI arguments.
fn robust_config(args: &Args) -> ServeConfig {
    let mut cfg = base_config(args);
    if args.storm {
        cfg = cfg.with_storm(storm_plan(args.chaos_seed));
        // The storm aborts cycles through the handshake watchdog; give the
        // recovery window margin for one ~100ms stall tail on a loaded
        // runner (still below the 250ms request deadline).
        cfg.slo = Duration::from_millis(200);
    }
    if let Some(ms) = args.slo_ms {
        cfg.slo = Duration::from_millis(ms);
    }
    cfg
}

/// One arm's headline numbers on a line.
fn print_arm(name: &str, r: &ServeReport) {
    println!(
        "{name}: {} ok / {} shed / {} rejected / {} timeout / {} error \
         ({} exhausted, {} worker panics) — {:.0} req/s, p99 {:.1}ms",
        r.ok,
        r.shed,
        r.rejected,
        r.timeouts,
        r.errors,
        r.exhausted,
        r.worker_panics,
        r.throughput_rps,
        r.latency_p99_ns as f64 / 1e6,
    );
}

fn main() -> ExitCode {
    // Injected worker and mutator panics are part of the storm: keep them
    // off stderr (they are caught, counted and reported through the
    // oracle). Genuine panics still print through the default hook.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<&str>()
            .map(|s| s.contains("chaos"))
            .or_else(|| {
                info.payload()
                    .downcast_ref::<String>()
                    .map(|s| s.contains("chaos"))
            })
            .unwrap_or(false);
        if !injected {
            default_hook(info);
        }
    }));

    let mut flags = Flags::from_env(USAGE);
    let args = match parse_args(&mut flags) {
        Ok(args) => args,
        Err(e) => return flags.fail(&e),
    };
    let cfg = robust_config(&args);
    println!(
        "== gc-serve: {} workers x {} requests ({}) ==",
        cfg.workers,
        cfg.requests,
        if args.storm {
            "chaos storm"
        } else {
            "no storm"
        },
    );

    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("gc-serve: cannot create {}: {e}", args.out.display());
        return ExitCode::from(2);
    }

    gc_trace::enable();
    gc_trace::set_track_name("serve-main");
    let sink = if args.stream_trace {
        let path = args.out.join("serve_trace.jsonl");
        match TraceSink::spawn_drain(&path, Duration::from_millis(50)) {
            Ok(s) => {
                println!("streaming events to {}", path.display());
                Some(s)
            }
            Err(e) => {
                eprintln!("gc-serve: cannot open {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
    } else {
        None
    };

    // The robust arm: the registry that becomes metrics.prom. The live
    // scrape endpoint (when requested) serves this registry while the run
    // is in flight, with /healthz tracking cycle-completion recency
    // through the gc_cycles_completed gauge the keeper publishes.
    let registry = Arc::new(Registry::new());
    let _server = match MetricsServer::for_flag(
        args.metrics_addr.as_deref(),
        &registry,
        "gc_cycles_completed",
        Duration::from_secs(5),
    ) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("gc-serve: {e}");
            return ExitCode::from(2);
        }
    };
    let report = run_serve(&cfg, &registry);
    print_arm("robust", &report);
    if let Some(p99) = report.post_storm_p99_ns {
        println!(
            "post-storm p99 {:.1}ms against a {:.0}ms SLO, {} sessions live of {} created",
            p99 as f64 / 1e6,
            report.slo_ns as f64 / 1e6,
            report.sessions_live,
            report.sessions_created,
        );
    }

    // The ablation arm: identical seeded load, shedding and pacing off.
    // Expected to degrade; its registry is scratch (metrics.prom
    // describes the robust arm).
    if args.ablation {
        let abl = run_serve(&base_config(&args).ablation(), &Registry::new());
        print_arm("ablation", &abl);
        let degraded = abl.exhausted > 0 || abl.timeouts > 0;
        println!(
            "ablation {}",
            if degraded {
                "degraded as expected (the robustness layer earns its keep)"
            } else {
                "did NOT degrade — load too light for the comparison to bite"
            }
        );
    }

    gc_trace::disable();
    if let Some(sink) = sink {
        match sink.finish() {
            Ok(s) => println!(
                "sink: {} events streamed, {} dropped, {} drain passes",
                s.events, s.dropped, s.drains
            ),
            Err(e) => eprintln!("gc-serve: trace sink failed: {e}"),
        }
    }
    let dumps = Tracer::global().drain();
    // The handshake histograms metrics.prom reports next to the
    // allocation-stall quantiles `run_serve` recorded come from the trace.
    TraceShape::publish(&dumps, &registry);

    let doc = chrome_trace(&dumps);
    let summary = match validate_chrome_trace(&doc) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("gc-serve: generated trace failed validation: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "trace: {} events ({} spans, {} instants) on {} track(s)",
        summary.events, summary.spans, summary.instants, summary.tracks
    );

    let outputs: [(&str, String); 2] = [
        ("serve_trace.json", format!("{doc}\n")),
        ("metrics.prom", registry.render_text()),
    ];
    for (name, contents) in outputs {
        let path = args.out.join(name);
        if let Err(e) = std::fs::write(&path, contents) {
            eprintln!("gc-serve: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("wrote {}", path.display());
    }

    if report.is_healthy() {
        println!("oracle: clean");
        ExitCode::SUCCESS
    } else {
        eprintln!("gc-serve: oracle violations:");
        for v in &report.violations {
            eprintln!("  - {v}");
        }
        ExitCode::FAILURE
    }
}
