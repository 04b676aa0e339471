//! Integration tests for the observability stack (`gc-trace`, DESIGN.md
//! §2.10): the instrumented collector feeding the tracer, the Chrome
//! trace-event exporter round-trip, the runtime-disable fast path, and the
//! metrics registry fed from real collector counters.

use std::sync::Mutex;

use relaxing_safely::gc::{Collector, GcConfig};
use relaxing_safely::trace::chrome::{chrome_trace, jsonl, validate_chrome_trace};
use relaxing_safely::trace::{EventKind, Json, Registry, Tracer};

/// The tracer is process-global; tests that enable/drain it must not
/// interleave.
static TRACER: Mutex<()> = Mutex::new(());

/// Runs a small collector workload (one mutator churning a list, with §4
/// pools of `alloc_pool` slots) for at least `cycles` completed cycles.
fn run_collector_with(cycles: u64, alloc_pool: usize) -> Collector {
    let collector = Collector::new(
        GcConfig::builder()
            .capacity(256)
            .max_fields(2)
            .alloc_pool(alloc_pool)
            .build(),
    );
    let mut m = collector.register_mutator();
    let anchor = m.alloc(2).expect("fresh heap has room");
    collector.start();
    let target = collector.stats().cycles() + cycles;
    let mut op = 0usize;
    while collector.stats().cycles() < target {
        m.safepoint();
        if let Ok(node) = m.alloc(2) {
            let old = m.load(anchor, 0);
            m.store(node, 0, old);
            m.store(anchor, 0, Some(node));
            if let Some(o) = old {
                m.discard(o);
            }
            m.discard(node);
        }
        if op.is_multiple_of(32) {
            m.store(anchor, 0, None);
        }
        op += 1;
    }
    drop(m);
    collector.stop();
    collector
}

fn run_collector(cycles: u64) -> Collector {
    run_collector_with(cycles, 0)
}

#[test]
fn disabled_tracer_records_nothing() {
    let _guard = TRACER.lock().unwrap();
    relaxing_safely::trace::disable();
    let _ = Tracer::global().drain(); // flush anything left behind
    for i in 0..1_000u64 {
        relaxing_safely::trace::emit(EventKind::Instant { id: 9, value: i });
    }
    let events: usize = Tracer::global()
        .drain()
        .iter()
        .map(|d| d.events.len())
        .sum();
    assert_eq!(events, 0, "runtime-disabled emit must record nothing");
}

#[test]
fn collector_events_export_as_nested_chrome_spans() {
    let _guard = TRACER.lock().unwrap();
    let _ = Tracer::global().drain();
    relaxing_safely::trace::enable();
    let collector = run_collector(3);
    relaxing_safely::trace::disable();
    let dumps = Tracer::global().drain();

    // The raw stream carries the typed runtime vocabulary.
    let kinds: Vec<&'static str> = dumps
        .iter()
        .flat_map(|d| d.events.iter().map(|e| e.kind.name()))
        .collect();
    for expected in [
        "cycle_begin",
        "cycle_end",
        "phase_enter",
        "handshake_begin",
        "handshake_end",
        "barrier_hit",
        "alloc_color",
    ] {
        assert!(
            kinds.contains(&expected),
            "instrumented run must emit {expected}; got kinds {:?}",
            {
                let mut uniq = kinds.clone();
                uniq.sort_unstable();
                uniq.dedup();
                uniq
            }
        );
    }

    // The Chrome export validates and nests phases under cycle spans.
    let doc = chrome_trace(&dumps);
    let summary = validate_chrome_trace(&doc).expect("generated trace must validate");
    assert!(summary.spans > 0, "cycles must export as spans");
    assert!(summary.tracks >= 2, "collector + mutator tracks");
    let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
    let names: Vec<&str> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("B"))
        .filter_map(|e| e.get("name").and_then(Json::as_str))
        .collect();
    assert!(
        names.iter().any(|n| n.starts_with("cycle ")),
        "span names: {names:?}"
    );
    for phase in ["mark", "sweep"] {
        assert!(
            names.contains(&phase),
            "phase `{phase}` must open a nested span; got {names:?}"
        );
    }
    let cycle_pos = names.iter().position(|n| n.starts_with("cycle ")).unwrap();
    let mark_pos = names.iter().position(|n| *n == "mark").unwrap();
    assert!(
        cycle_pos < mark_pos,
        "the first cycle span must open before the first mark span"
    );

    // The JSONL export carries one valid JSON object per line.
    let lines = jsonl(&dumps);
    for line in lines.lines().take(50) {
        let row = Json::parse(line).expect("each JSONL line parses");
        assert!(row.get("event").is_some(), "line missing `event`: {line}");
    }

    // And the run itself was a real collection workload.
    assert!(collector.stats().cycles() >= 3);
    assert!(collector.stats().freed() > 0);
}

#[test]
fn pooled_allocation_emits_one_pool_refill_per_counted_refill() {
    let _guard = TRACER.lock().unwrap();
    let _ = Tracer::global().drain();
    relaxing_safely::trace::enable();
    let collector = run_collector_with(3, 8);
    relaxing_safely::trace::disable();
    let dumps = Tracer::global().drain();
    let refills = dumps
        .iter()
        .flat_map(|d| &d.events)
        .filter(|e| e.kind.name() == "pool_refill")
        .count() as u64;
    // The trace and the stats count the same refills (up to events a full
    // ring dropped), and there were some.
    let counted = collector.stats().tlab_refills();
    let dropped: u64 = dumps.iter().map(|d| d.dropped).sum();
    assert!(refills > 0, "a pooled run must emit pool_refill");
    assert!(
        refills <= counted && counted <= refills + dropped,
        "{refills} traced refills, {counted} counted, {dropped} events dropped"
    );
    let doc = chrome_trace(&dumps);
    validate_chrome_trace(&doc).expect("pooled trace must validate");
}

#[test]
fn metrics_registry_reflects_collector_counters() {
    // Serialized too: this test's collector has instrumented sites that
    // would emit into the global tracer if a concurrent test had tracing
    // enabled, breaking the other tests' drain expectations.
    let _guard = TRACER.lock().unwrap();
    let collector = run_collector(2);
    let s = collector.stats();

    let registry = Registry::new();
    registry.counter("gc_cycles").add(s.cycles());
    registry.counter("gc_allocated").add(s.allocated());
    registry.counter("gc_freed").add(s.freed());
    registry
        .gauge("gc_live_objects")
        .set(collector.live_objects() as i64);
    let h = registry.histogram("gc_cycle_duration_ns");
    for c in s.history() {
        h.record(c.duration_ns);
    }

    let text = registry.render_text();
    assert!(text.contains("# TYPE gc_cycles counter"));
    assert!(text.contains("# TYPE gc_live_objects gauge"));
    assert!(text.contains("gc_cycle_duration_ns{quantile=\"0.50\"}"));

    let snap = registry.snapshot();
    let cycles = snap
        .get("counters")
        .and_then(|c| c.get("gc_cycles"))
        .and_then(Json::as_f64)
        .expect("snapshot carries gc_cycles");
    assert_eq!(cycles as u64, s.cycles());

    // The GcStats JSON view round-trips through the gc-trace parser — the
    // contract the bench records rely on.
    let parsed = Json::parse(&s.to_json()).expect("GcStats::to_json is valid JSON");
    assert_eq!(
        parsed
            .get("cycles")
            .and_then(Json::as_f64)
            .map(|v| v as u64),
        Some(s.cycles())
    );
    let last = s.history().last().copied().unwrap();
    let parsed = Json::parse(&last.to_json()).expect("CycleStats::to_json is valid JSON");
    assert!(parsed.get("chaos_ns").is_some());
    assert!(last.timing_consistent(), "completed cycle timings compose");
}
