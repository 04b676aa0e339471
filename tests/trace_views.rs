//! The trace vocabulary has one definition, `Event::record()` (DESIGN.md
//! §2.10), and every consumer reads it. These tests hold the consumers to
//! that: the JSONL bytes are pinned by a golden file recorded before the
//! exporters were rewritten to render records, the Chrome and JSONL views of
//! every event kind agree field for field, and on real runs the shape and
//! metrics built from a live drain equal those built from its JSONL file
//! and those counted directly from the raw events.

use std::collections::HashMap;
use std::sync::Mutex;

use relaxing_safely::gc::{Collector, GcConfig, HeapLayout};
use relaxing_safely::serve::{run_serve, ServeConfig};
use relaxing_safely::trace::chrome::{chrome_trace, event_json, jsonl, validate_chrome_trace};
use relaxing_safely::trace::event::Role;
use relaxing_safely::trace::{Event, EventKind, Json, Registry, TraceShape, Tracer, TrackDump};

/// The tracer is process-global; tests that enable/drain it must not
/// interleave.
static TRACER: Mutex<()> = Mutex::new(());

/// One event of every kind (the list `event.rs::every_kind_round_trips`
/// builds) on two named tracks, span pairs adjacent so both tracks balance.
/// The timestamps are the ones the golden file was recorded with.
fn fixture() -> Vec<TrackDump> {
    let event = |ts_ns, kind| Event { ts_ns, kind };
    let collector = [
        event(1000, EventKind::CycleBegin { cycle: 7 }),
        event(
            1001,
            EventKind::CycleEnd {
                cycle: 7,
                freed: 12,
                traced: 99,
            },
        ),
        event(1002, EventKind::PhaseEnter { phase: 2 }),
        event(
            1003,
            EventKind::HandshakeBegin {
                generation: 41,
                ty: 2,
            },
        ),
        event(
            1004,
            EventKind::HandshakeEnd {
                generation: 41,
                ty: 2,
                outcome: 0,
            },
        ),
        event(1005, EventKind::MarkCas { won: true }),
        event(1006, EventKind::BarrierHit { deletion: false }),
        event(
            1007,
            EventKind::AllocColor {
                slot: 1234,
                color: true,
            },
        ),
        event(1008, EventKind::PoolRefill { got: 8 }),
        event(1012, EventKind::ChaosFired { site: 3 }),
    ];
    let checker = [
        event(
            1013,
            EventKind::LevelBegin {
                level: 9,
                frontier: 100_000,
            },
        ),
        event(
            1014,
            EventKind::LevelEnd {
                level: 9,
                discovered: 54_321,
                states_total: 1 << 33,
            },
        ),
        event(
            1015,
            EventKind::ShardOccupancy {
                max: 512,
                total: 30_000,
            },
        ),
        event(1016, EventKind::SpanBegin { id: 2 }),
        event(1017, EventKind::SpanEnd { id: 2 }),
        event(
            1018,
            EventKind::Instant {
                id: 1,
                value: u64::MAX,
            },
        ),
        event(1019, EventKind::Counter { id: 2, value: 997 }),
        event(
            1020,
            EventKind::ServeRequest {
                id: 123_456,
                outcome: 3,
                latency_us: 41_000,
            },
        ),
    ];
    let track = |id, name: &str, events: &[Event]| TrackDump {
        id,
        name: name.to_owned(),
        dropped: 0,
        events: events.to_vec(),
    };
    vec![
        track(1, "gc-collector", &collector),
        track(2, "checker", &checker),
    ]
}

#[test]
fn jsonl_bytes_match_the_golden_recorded_before_the_refactor() {
    assert_eq!(
        jsonl(&fixture()),
        include_str!("golden/trace_all_kinds.jsonl")
    );
}

#[test]
fn fixture_holds_every_kind() {
    let mut every_code: Vec<&str> = (0..=u64::from(u8::MAX))
        .filter_map(|code| Event::decode([0, code, 0, 0]))
        .map(|e| e.kind.name())
        .collect();
    let mut in_fixture: Vec<&str> = fixture()
        .iter()
        .flat_map(|d| d.events.iter().map(|e| e.kind.name()))
        .collect();
    every_code.sort_unstable();
    in_fixture.sort_unstable();
    assert_eq!(in_fixture, every_code);
}

#[test]
fn chrome_jsonl_and_the_wire_format_agree_on_every_kind() {
    let dumps = fixture();
    let doc = chrome_trace(&dumps);
    validate_chrome_trace(&doc).expect("the fixture renders balanced");
    let chrome = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
    for dump in &dumps {
        for e in &dump.events {
            let r = e.record();
            assert_eq!(Event::decode(e.encode()).unwrap().record(), r);

            // JSONL: the record's name, then its fields in order.
            let line = event_json(dump.id, &dump.name, e);
            let Json::Obj(entries) = &line else {
                panic!("a JSONL record is an object")
            };
            assert_eq!(line.get("event").and_then(Json::as_str), Some(r.name));
            let fields: Vec<(&str, Json)> = entries[4..]
                .iter()
                .map(|(k, v)| (k.as_str(), v.clone()))
                .collect();
            assert_eq!(fields, r.fields, "{}", r.name);

            // Chrome: the one event of this role at this timestamp carrying
            // args (a forced close at the track's last timestamp has none).
            let (ph, name, skip) = match &r.role {
                Role::Open(_, label) | Role::Next(_, label) => ("B", label.as_str(), 0),
                Role::Close(_) => ("E", "", 0),
                Role::Instant => ("i", r.name, 0),
                Role::Counter(label, track_fields) => ("C", label.as_str(), *track_fields),
            };
            let rendered: Vec<&Json> = chrome
                .iter()
                .filter(|c| c.get("ph").and_then(Json::as_str) == Some(ph))
                .filter(|c| c.get("ts").and_then(Json::as_f64) == Some(e.ts_ns as f64 / 1e3))
                .filter(|c| c.get("args").is_some())
                .collect();
            assert_eq!(rendered.len(), 1, "{} renders once", r.name);
            let c = rendered[0];
            assert_eq!(c.get("name").and_then(Json::as_str), Some(name));
            assert_eq!(c.get("cat").and_then(Json::as_str), Some(r.cat));
            let Some(Json::Obj(args)) = c.get("args") else {
                panic!("args is an object")
            };
            let args: Vec<(&str, Json)> =
                args.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
            assert_eq!(args, r.fields[skip..], "{}", r.name);
            // What a counter leaves out of its args names its track.
            for (_, value) in &r.fields[..skip] {
                let text = value.as_str().map_or(value.to_string(), str::to_owned);
                assert!(name.contains(&text), "{name} names {text}");
            }
            // A sampled field is one more sample, on the track of its name.
            if let Some(key) = r.sampled {
                let sample = chrome
                    .iter()
                    .filter(|c| c.get("ts").and_then(Json::as_f64) == Some(e.ts_ns as f64 / 1e3))
                    .find(|c| c.get("ph").and_then(Json::as_str) == Some("C"))
                    .expect("a sampled field renders a counter sample");
                assert_eq!(sample.get("name").and_then(Json::as_str), Some(key));
                let value = r.get(key).expect("the sampled field exists").clone();
                assert_eq!(sample.get("args"), Some(&Json::obj().set("value", value)));
            }
        }
    }
}

/// The `tests/trace_integration.rs` workload: one mutator churning a list
/// against the collector for at least `cycles` cycles, traced.
fn traced_collector_run(cycles: u64) -> Vec<TrackDump> {
    let _ = Tracer::global().drain();
    relaxing_safely::trace::enable();
    let collector = Collector::new(
        GcConfig::builder()
            .capacity(256)
            .max_fields(2)
            .alloc_pool(8)
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
    relaxing_safely::trace::disable();
    Tracer::global().drain()
}

fn traced_serve_run() -> Vec<TrackDump> {
    let _ = Tracer::global().drain();
    relaxing_safely::trace::enable();
    let report = run_serve(&ServeConfig::quick(HeapLayout::Slab), &Registry::new());
    relaxing_safely::trace::disable();
    assert!(report.ok > 0, "the serve pass served something");
    Tracer::global().drain()
}

/// What the bins' own metrics passes counted before the shape took the job
/// over, straight from the raw events: paired handshake and cycle spans
/// (count, summed duration) and the CAS / barrier tallies.
#[derive(Debug, Default, PartialEq)]
struct RawCounts {
    handshakes: (u64, u64),
    cycles: (u64, u64),
    cas_won: u64,
    cas_lost: u64,
    deletion_hits: u64,
    insertion_hits: u64,
    drained: u64,
    dropped: u64,
}

fn count_raw(dumps: &[TrackDump]) -> RawCounts {
    let mut c = RawCounts::default();
    for dump in dumps {
        c.drained += dump.events.len() as u64;
        c.dropped += dump.dropped;
        let mut hs_open: HashMap<u32, u64> = HashMap::new();
        let mut cycle_open: HashMap<u64, u64> = HashMap::new();
        for e in &dump.events {
            match e.kind {
                EventKind::HandshakeBegin { generation, .. } => {
                    hs_open.insert(generation, e.ts_ns);
                }
                EventKind::HandshakeEnd { generation, .. } => {
                    if let Some(t0) = hs_open.remove(&generation) {
                        c.handshakes.0 += 1;
                        c.handshakes.1 += e.ts_ns.saturating_sub(t0);
                    }
                }
                EventKind::CycleBegin { cycle } => {
                    cycle_open.insert(cycle, e.ts_ns);
                }
                EventKind::CycleEnd { cycle, .. } => {
                    if let Some(t0) = cycle_open.remove(&cycle) {
                        c.cycles.0 += 1;
                        c.cycles.1 += e.ts_ns.saturating_sub(t0);
                    }
                }
                EventKind::MarkCas { won: true } => c.cas_won += 1,
                EventKind::MarkCas { won: false } => c.cas_lost += 1,
                EventKind::BarrierHit { deletion: true } => c.deletion_hits += 1,
                EventKind::BarrierHit { deletion: false } => c.insertion_hits += 1,
                _ => {}
            }
        }
    }
    c
}

#[test]
fn a_live_drain_and_its_jsonl_build_the_same_shape_and_metrics() {
    let _guard = TRACER.lock().unwrap();
    for dumps in [traced_collector_run(3), traced_serve_run()] {
        let shape = TraceShape::from_dumps(&dumps);
        assert!(shape.cycles > 0 && shape.handshake_ns["all"].count > 0);
        assert_eq!(shape, TraceShape::from_jsonl(&jsonl(&dumps)).unwrap());
        validate_chrome_trace(&chrome_trace(&dumps)).expect("a real run renders balanced");

        let registry = Registry::new();
        assert_eq!(TraceShape::publish(&dumps, &registry), shape);
        let hs = registry.histogram("gc_handshake_latency_ns");
        let cycle = registry.histogram("gc_cycle_duration_ns");
        let counter = |name| registry.counter(name).get();
        let published = RawCounts {
            handshakes: (hs.count(), hs.sum()),
            cycles: (cycle.count(), cycle.sum()),
            cas_won: counter("gc_mark_cas_won"),
            cas_lost: counter("gc_mark_cas_lost"),
            deletion_hits: counter("gc_deletion_barrier_hits"),
            insertion_hits: counter("gc_insertion_barrier_hits"),
            drained: counter("trace_events_drained"),
            dropped: counter("trace_events_dropped"),
        };
        assert_eq!(published, count_raw(&dumps));
        assert_eq!(hs.quantile(0.99), shape.handshake_ns["all"].p99);
    }
}
