//! Exporters: Chrome trace-event JSON (loadable in Perfetto / `chrome://
//! tracing`) and a flat JSONL stream.
//!
//! Both render an event's [`Record`] — its name,
//! category, role and fields — so the two views cannot disagree. Each
//! [`TrackDump`] becomes one Chrome thread track (`tid` = track id, named
//! via `thread_name` metadata). Events that open and close spans become
//! balanced `B`/`E` pairs: cycles with the phases and handshakes nested
//! under them on the collector track, BFS levels on the checker track.
//! Point events render as thread-scoped instants, samples (and a level's
//! frontier size) as counter tracks. The exporter enforces span balance itself — stray closes are
//! dropped and spans still open at the end of a dump are closed at the last
//! timestamp — so the emitted trace always passes [`validate_chrome_trace`].

use crate::event::{Event, Record, Role, Span};
use crate::json::Json;
use crate::tracer::TrackDump;

/// The process id used for every emitted event (single-process trace).
const PID: u64 = 1;

fn base(ph: &str, name: &str, cat: &str, ts_ns: u64, tid: u32) -> Json {
    Json::obj()
        .set("name", name)
        .set("cat", cat)
        .set("ph", ph)
        // Chrome's `ts` is in microseconds.
        .set("ts", Json::Num(ts_ns as f64 / 1_000.0))
        .set("pid", PID)
        .set("tid", u64::from(tid))
}

fn metadata(name: &str, tid: u32, value: &str) -> Json {
    Json::obj()
        .set("name", name)
        .set("ph", "M")
        .set("pid", PID)
        .set("tid", u64::from(tid))
        .set("args", Json::obj().set("name", value))
}

/// Converts drained tracks into a complete Chrome trace-event document:
/// `{"traceEvents": [...], "displayTimeUnit": "ms", ...}`.
pub fn chrome_trace(dumps: &[TrackDump]) -> Json {
    let mut events = vec![metadata("process_name", 0, "gc-trace")];
    for dump in dumps {
        events.push(metadata("thread_name", dump.id, &dump.name));
        export_track(dump, &mut events);
    }
    let dropped: u64 = dumps.iter().map(|d| d.dropped).sum();
    Json::obj()
        .set("traceEvents", Json::Arr(events))
        .set("displayTimeUnit", "ms")
        .set("otherData", Json::obj().set("droppedEvents", dropped))
}

fn export_track(dump: &TrackDump, out: &mut Vec<Json>) {
    let tid = dump.id;
    let mut stack: Vec<Span> = Vec::new();
    let mut last_ts = 0u64;

    // Pops spans down to (and including) the topmost `span`, emitting `E`
    // events; a close with no matching open is dropped to keep balance.
    let close = |stack: &mut Vec<Span>, out: &mut Vec<Json>, span: Span, cat: &str, ts: u64| {
        let Some(depth) = stack.iter().rposition(|open| *open == span) else {
            return false;
        };
        while stack.len() > depth {
            stack.pop();
            out.push(base("E", "", cat, ts, tid));
        }
        true
    };

    for e in &dump.events {
        last_ts = last_ts.max(e.ts_ns);
        let ts = e.ts_ns;
        let Record {
            name,
            cat,
            role,
            fields,
            sampled,
        } = e.record();
        let args = |skip: usize| {
            let fields = fields.iter().skip(skip);
            Json::Obj(fields.map(|(k, v)| ((*k).to_owned(), v.clone())).collect())
        };
        match &role {
            Role::Open(span, label) | Role::Next(span, label) => {
                if matches!(role, Role::Next(..)) {
                    close(&mut stack, out, *span, cat, ts);
                }
                stack.push(*span);
                out.push(base("B", label, cat, ts, tid).set("args", args(0)));
            }
            // Everything still nested under the span closes with it; the
            // span's own `E` carries the closing event's fields.
            Role::Close(span) => {
                if close(&mut stack, out, *span, cat, ts) {
                    let end = out.pop().expect("close emitted an E");
                    out.push(end.set("args", args(0)));
                }
            }
            Role::Instant => {
                out.push(
                    base("i", name, cat, ts, tid)
                        .set("s", "t")
                        .set("args", args(0)),
                );
            }
            Role::Counter(label, track_fields) => {
                out.push(base("C", label, cat, ts, tid).set("args", args(*track_fields)));
            }
        }
        if let Some((key, value)) = fields.iter().find(|(k, _)| Some(*k) == sampled) {
            let args = Json::obj().set("value", value.clone());
            out.push(base("C", key, cat, ts, tid).set("args", args));
        }
    }
    // Close anything left open at the track's last timestamp so the trace
    // is always balanced (e.g. a workload stopped mid-cycle).
    for _ in stack {
        out.push(base("E", "", "gc", last_ts, tid));
    }
}

/// Renders dumps as JSONL: one JSON object per event per line, with the
/// track id/name and the decoded event payload. Append-friendly and
/// greppable where the Chrome document is not.
pub fn jsonl(dumps: &[TrackDump]) -> String {
    let mut out = String::new();
    for dump in dumps {
        for e in &dump.events {
            out.push_str(&event_json(dump.id, &dump.name, e).to_string());
            out.push('\n');
        }
    }
    out
}

/// One event as a flat JSON object (the JSONL record shape).
pub fn event_json(track: u32, track_name: &str, e: &Event) -> Json {
    let r = e.record();
    let mut j = Json::obj()
        .set("ts_ns", e.ts_ns)
        .set("track", u64::from(track))
        .set("track_name", track_name)
        .set("event", r.name);
    for (key, value) in r.fields {
        j = j.set(key, value);
    }
    j
}

/// Summary returned by [`validate_chrome_trace`] on success.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSummary {
    /// Entries in `traceEvents` (including metadata).
    pub events: usize,
    /// Matched `B`/`E` span pairs.
    pub spans: usize,
    /// Instant (`ph: "i"`) events.
    pub instants: usize,
    /// Counter (`ph: "C"`) samples.
    pub counters: usize,
    /// Distinct `tid`s seen.
    pub tracks: usize,
}

/// Validates a Chrome trace-event document: the shape every consumer
/// (Perfetto, `chrome://tracing`) requires, plus per-track `B`/`E`
/// balance. Used by the demo's `--check` mode and the CI smoke job.
pub fn validate_chrome_trace(trace: &Json) -> Result<TraceSummary, String> {
    let events = trace
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing traceEvents array")?;
    let mut depths: std::collections::BTreeMap<u64, usize> = std::collections::BTreeMap::new();
    let mut tids: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
    let mut spans = 0usize;
    let mut instants = 0usize;
    let mut counters = 0usize;
    for (i, e) in events.iter().enumerate() {
        let ph = e
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        let tid = e
            .get("tid")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("event {i}: missing tid"))? as u64;
        e.get("pid")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("event {i}: missing pid"))?;
        if ph != "M" {
            let ts = e
                .get("ts")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("event {i}: missing ts"))?;
            if !ts.is_finite() || ts < 0.0 {
                return Err(format!("event {i}: bad ts {ts}"));
            }
            // A track is any tid carrying real events — instants count,
            // not just span pairs (a mutator track may be instants-only).
            tids.insert(tid);
        }
        match ph {
            "B" => {
                e.get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("event {i}: B without name"))?;
                *depths.entry(tid).or_insert(0) += 1;
            }
            "E" => {
                let d = depths.entry(tid).or_insert(0);
                if *d == 0 {
                    return Err(format!("event {i}: E with no open B on tid {tid}"));
                }
                *d -= 1;
                spans += 1;
            }
            "i" => {
                e.get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("event {i}: instant without name"))?;
                instants += 1;
            }
            "C" => {
                e.get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("event {i}: counter without name"))?;
                e.get("args")
                    .ok_or_else(|| format!("event {i}: counter without args"))?;
                counters += 1;
            }
            "M" => {}
            other => return Err(format!("event {i}: unsupported ph {other:?}")),
        }
    }
    if let Some((tid, d)) = depths.iter().find(|(_, d)| **d != 0) {
        return Err(format!("tid {tid}: {d} unclosed B span(s)"));
    }
    Ok(TraceSummary {
        events: events.len(),
        spans,
        instants,
        counters,
        tracks: tids.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn dump(id: u32, name: &str, events: Vec<(u64, EventKind)>) -> TrackDump {
        TrackDump {
            id,
            name: name.to_owned(),
            dropped: 0,
            events: events
                .into_iter()
                .map(|(ts_ns, kind)| Event { ts_ns, kind })
                .collect(),
        }
    }

    fn collector_dump() -> TrackDump {
        dump(
            1,
            "gc-collector",
            vec![
                (100, EventKind::CycleBegin { cycle: 0 }),
                (110, EventKind::PhaseEnter { phase: 1 }),
                (
                    120,
                    EventKind::HandshakeBegin {
                        generation: 1,
                        ty: 1,
                    },
                ),
                (
                    150,
                    EventKind::HandshakeEnd {
                        generation: 1,
                        ty: 1,
                        outcome: 0,
                    },
                ),
                (160, EventKind::PhaseEnter { phase: 2 }),
                (170, EventKind::MarkCas { won: true }),
                (200, EventKind::PhaseEnter { phase: 3 }),
                (240, EventKind::PhaseEnter { phase: 0 }),
                (
                    250,
                    EventKind::CycleEnd {
                        cycle: 0,
                        freed: 5,
                        traced: 9,
                    },
                ),
            ],
        )
    }

    #[test]
    fn round_trips_through_parse_and_validates() {
        let trace = chrome_trace(&[collector_dump()]);
        let text = trace.to_string();
        let parsed = Json::parse(&text).expect("valid JSON");
        let summary = validate_chrome_trace(&parsed).expect("valid trace");
        // Spans: cycle + 3 phases + handshake.
        assert_eq!(summary.spans, 5);
        assert_eq!(summary.instants, 1); // the mark CAS
        assert_eq!(summary.tracks, 1);
    }

    #[test]
    fn spans_nest_cycle_phase_handshake() {
        let trace = chrome_trace(&[collector_dump()]);
        let events = trace.get("traceEvents").unwrap().as_arr().unwrap();
        let names: Vec<(String, String)> = events
            .iter()
            .filter(|e| matches!(e.get("ph").and_then(Json::as_str), Some("B") | Some("E")))
            .map(|e| {
                (
                    e.get("ph").and_then(Json::as_str).unwrap().to_owned(),
                    e.get("name")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_owned(),
                )
            })
            .collect();
        // B cycle, B init, B handshake, E(handshake), E(init via phase 2),
        // B mark, E(mark), B sweep, E(sweep via idle), E(cycle).
        let opens: Vec<&str> = names
            .iter()
            .filter(|(ph, _)| ph == "B")
            .map(|(_, n)| n.as_str())
            .collect();
        assert_eq!(
            opens,
            ["cycle 0", "init", "handshake noop", "mark", "sweep"]
        );
        // Balanced: equal numbers of B and E.
        let b = names.iter().filter(|(ph, _)| ph == "B").count();
        let e = names.iter().filter(|(ph, _)| ph == "E").count();
        assert_eq!(b, e);
    }

    #[test]
    fn unclosed_spans_are_closed_and_stray_closes_dropped() {
        let d = dump(
            2,
            "ragged",
            vec![
                (10, EventKind::SpanEnd { id: 9 }), // stray: dropped
                (20, EventKind::CycleBegin { cycle: 1 }),
                (30, EventKind::PhaseEnter { phase: 2 }),
                // track ends mid-phase: both spans force-closed
            ],
        );
        let trace = chrome_trace(&[d]);
        let summary = validate_chrome_trace(&trace).expect("still balanced");
        assert_eq!(summary.spans, 2);
    }

    #[test]
    fn counter_tracks_render_and_validate() {
        let d = dump(
            4,
            "gc-serve",
            vec![
                (10, EventKind::Counter { id: 0, value: 850 }),
                (20, EventKind::Counter { id: 2, value: 17 }),
                (30, EventKind::Counter { id: 9, value: 3 }),
                (
                    40,
                    EventKind::ServeRequest {
                        id: 12,
                        outcome: 1,
                        latency_us: 900,
                    },
                ),
            ],
        );
        let trace = chrome_trace(&[d]);
        let parsed = Json::parse(&trace.to_string()).expect("valid JSON");
        let summary = validate_chrome_trace(&parsed).expect("counters validate");
        assert_eq!(summary.counters, 3);
        assert_eq!(summary.instants, 1); // the serve_request
        let events = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        let counter_names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("C"))
            .filter_map(|e| e.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(
            counter_names,
            ["heap_occupancy_permille", "queue_depth", "counter-9"]
        );
        // A BFS level opening also samples the frontier counter.
        let lvl = dump(
            5,
            "mc",
            vec![
                (
                    1,
                    EventKind::LevelBegin {
                        level: 0,
                        frontier: 42,
                    },
                ),
                (
                    2,
                    EventKind::LevelEnd {
                        level: 0,
                        discovered: 7,
                        states_total: 49,
                    },
                ),
            ],
        );
        let trace = chrome_trace(&[lvl]);
        let summary = validate_chrome_trace(&trace).expect("valid");
        assert_eq!(summary.counters, 1);
        assert_eq!(summary.spans, 1);
        let events = trace.get("traceEvents").unwrap().as_arr().unwrap();
        let sample = events
            .iter()
            .find(|e| e.get("ph").and_then(Json::as_str) == Some("C"))
            .unwrap();
        assert_eq!(
            sample.get("name").and_then(Json::as_str),
            Some(crate::event::COUNTER_NAMES[1])
        );
        assert_eq!(sample.get("cat").and_then(Json::as_str), Some("mc"));
        assert_eq!(sample.get("args"), Some(&Json::obj().set("value", 42u64)));
        // A counter without args must be rejected.
        let bad = Json::obj().set(
            "traceEvents",
            Json::Arr(vec![Json::obj()
                .set("name", "q")
                .set("ph", "C")
                .set("ts", 1u64)
                .set("pid", 1u64)
                .set("tid", 1u64)]),
        );
        assert!(validate_chrome_trace(&bad).is_err());
    }

    #[test]
    fn metadata_names_every_track() {
        let trace = chrome_trace(&[
            collector_dump(),
            dump(
                7,
                "mutator-3",
                vec![(5, EventKind::BarrierHit { deletion: true })],
            ),
        ]);
        let events = trace.get("traceEvents").unwrap().as_arr().unwrap();
        let thread_names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some("thread_name"))
            .filter_map(|e| e.get("args")?.get("name")?.as_str())
            .collect();
        assert_eq!(thread_names, ["gc-collector", "mutator-3"]);
    }

    #[test]
    fn jsonl_is_one_valid_object_per_line() {
        let text = jsonl(&[collector_dump()]);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 9);
        for line in lines {
            let v = Json::parse(line).expect("valid JSONL line");
            assert!(v.get("event").is_some());
            assert_eq!(
                v.get("track_name").and_then(Json::as_str),
                Some("gc-collector")
            );
        }
    }

    #[test]
    fn validator_rejects_imbalance_and_missing_fields() {
        let bad = Json::obj().set(
            "traceEvents",
            Json::Arr(vec![Json::obj()
                .set("name", "x")
                .set("ph", "E")
                .set("ts", 1u64)
                .set("pid", 1u64)
                .set("tid", 1u64)]),
        );
        assert!(validate_chrome_trace(&bad).is_err());
        let missing = Json::obj().set("traceEvents", Json::Arr(vec![Json::obj().set("ph", "B")]));
        assert!(validate_chrome_trace(&missing).is_err());
        assert!(validate_chrome_trace(&Json::obj()).is_err());
    }
}
