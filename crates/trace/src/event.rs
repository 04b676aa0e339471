//! Typed trace events and their fixed-width binary encoding.
//!
//! Every event is stamped with a nanosecond offset from the tracer's epoch
//! and packs into exactly four 64-bit words — the unit the lock-free ring
//! buffer stores. The encoding is total: any `EventKind` round-trips
//! through [`Event::encode`]/[`Event::decode`] unchanged, and unknown codes
//! decode to `None` so a reader can skip records from a newer writer.

use crate::json::Json;

/// The collector phases, mirrored here so the trace crate stays
/// dependency-free (`otf-gc` depends on us, not the reverse).
pub const PHASE_NAMES: [&str; 4] = ["idle", "init", "mark", "sweep"];

/// Handshake type names, indexed by the wire value used by `otf-gc`
/// (1 = noop, 2 = get-roots, 3 = get-work).
pub const HANDSHAKE_NAMES: [&str; 4] = ["?", "noop", "get-roots", "get-work"];

/// Names for the well-known [`EventKind::Counter`] ids, which are also the
/// names of their Chrome counter tracks. Ids beyond the table render as
/// `counter-<id>`.
pub const COUNTER_NAMES: [&str; 3] = ["heap_occupancy_permille", "frontier", "queue_depth"];

/// Names for [`EventKind::ServeRequest`] outcomes; larger codes are errors.
const SERVE_OUTCOME_NAMES: [&str; 5] = ["ok", "shed", "rejected", "timeout", "error"];

/// One timestamped trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Nanoseconds since the tracer's epoch.
    pub ts_ns: u64,
    /// What happened.
    pub kind: EventKind,
}

/// The typed event vocabulary.
///
/// Span-shaped pairs (`CycleBegin`/`CycleEnd`, `HandshakeBegin`/
/// `HandshakeEnd`, `LevelBegin`/`LevelEnd`, `SpanBegin`/`SpanEnd`) nest on
/// their emitting thread's track; `PhaseEnter` events partition the
/// enclosing cycle span into phase sub-spans. Everything else renders as an
/// instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A collection cycle started (cycle index = completed cycles so far).
    CycleBegin {
        /// 0-based cycle index.
        cycle: u64,
    },
    /// A collection cycle ended.
    CycleEnd {
        /// 0-based cycle index.
        cycle: u64,
        /// Objects freed by the sweep (0 for aborted cycles).
        freed: u32,
        /// Objects traced by the mark loop.
        traced: u32,
    },
    /// The collector entered a phase (0 idle, 1 init, 2 mark, 3 sweep).
    PhaseEnter {
        /// Phase byte, indexes [`PHASE_NAMES`].
        phase: u8,
    },
    /// A soft-handshake round was posted to every registered mutator.
    HandshakeBegin {
        /// Handshake generation.
        generation: u32,
        /// Handshake type, indexes [`HANDSHAKE_NAMES`].
        ty: u8,
    },
    /// A soft-handshake round resolved.
    HandshakeEnd {
        /// Handshake generation.
        generation: u32,
        /// Handshake type, indexes [`HANDSHAKE_NAMES`].
        ty: u8,
        /// 0 done, 1 stopped, 2 timed out.
        outcome: u8,
    },
    /// A marking CAS resolved (Figure 5's slow path).
    MarkCas {
        /// Whether this side turned the object grey.
        won: bool,
    },
    /// A write barrier greyed (or tried to grey) a target.
    BarrierHit {
        /// `true` for the deletion barrier, `false` for insertion.
        deletion: bool,
    },
    /// An object was allocated with the current allocation color.
    AllocColor {
        /// Heap slot index.
        slot: u32,
        /// The allocation sense `f_A` at allocation time.
        color: bool,
    },
    /// A mutator refilled its allocation pool from the shared free list.
    PoolRefill {
        /// Slots obtained.
        got: u32,
    },
    /// A chaos fault fired at an injection site.
    ChaosFired {
        /// `ChaosSite` repr.
        site: u8,
    },
    /// The checker started expanding a BFS level.
    LevelBegin {
        /// BFS level (depth).
        level: u32,
        /// Frontier size entering the level.
        frontier: u64,
    },
    /// The checker finished a BFS level.
    LevelEnd {
        /// BFS level (depth).
        level: u32,
        /// States newly discovered by this level.
        discovered: u64,
        /// Total distinct states after the level.
        states_total: u64,
    },
    /// Seen-set shard occupancy after a level's deterministic drain.
    ShardOccupancy {
        /// Entries in the fullest shard.
        max: u64,
        /// Entries across all shards.
        total: u64,
    },
    /// Start of a generic named span (bench rigs, workloads).
    SpanBegin {
        /// Caller-chosen span id (rendered as `span-<id>` unless named).
        id: u32,
    },
    /// End of a generic named span.
    SpanEnd {
        /// Caller-chosen span id.
        id: u32,
    },
    /// A generic instant measurement.
    Instant {
        /// Caller-chosen counter id.
        id: u32,
        /// The measured value.
        value: u64,
    },
    /// A sampled counter value, rendered as a Chrome counter track
    /// (`ph:"C"`). Well-known ids are named by [`COUNTER_NAMES`]: 0 = heap
    /// occupancy (per-mille), 1 = frontier size, 2 = queue depth.
    Counter {
        /// Counter id, indexes [`COUNTER_NAMES`].
        id: u8,
        /// The sampled value.
        value: u64,
    },
    /// A served request resolved (emitted by the `gc-serve` harness).
    ServeRequest {
        /// Request id.
        id: u32,
        /// 0 ok, 1 shed, 2 rejected, 3 deadline timeout, 4 error.
        outcome: u8,
        /// End-to-end latency in microseconds.
        latency_us: u32,
    },
}

/// The span families an event can open or close on its track.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// A collection cycle.
    Cycle,
    /// A collector phase inside a cycle.
    Phase,
    /// A soft-handshake round.
    Handshake,
    /// A checker BFS level.
    Level,
    /// A caller-named span, matched by id.
    Generic(u32),
}

/// What an event does on its track's timeline. A span or counter track is
/// named by the role's label: `cycle 7`, `handshake get-roots`,
/// `queue_depth`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Role {
    /// Opens a span with this label.
    Open(Span, String),
    /// Ends the open span of this family, if any, and opens the next one:
    /// phases partition their cycle.
    Next(Span, String),
    /// Closes the innermost open span of this family and everything nested
    /// inside it.
    Close(Span),
    /// A point event.
    Instant,
    /// A sample on the counter track with this label. The event's first `n`
    /// fields identify the track; the rest are the sampled series.
    Counter(String, usize),
}

/// The one description of an event that every consumer reads — the JSONL
/// and Chrome exporters, the trace-shape builder and the metrics it
/// publishes.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// The short stable event name: the JSONL `event`, a Chrome instant's
    /// `name`.
    pub name: &'static str,
    /// The Chrome category: `gc`, `mc`, `chaos`, `serve` or `app`.
    pub cat: &'static str,
    /// What the event does on its track.
    pub role: Role,
    /// The named fields (at most three: numbers, flags, and codes written
    /// as their names), in the order every view writes them.
    pub fields: Vec<(&'static str, Json)>,
    /// A field whose value is also a sample on the counter track of the
    /// same name: a level's `frontier`, so the growth curve shows beside
    /// the level spans.
    pub sampled: Option<&'static str>,
}

impl Record {
    /// The value of field `key`, if the event has one.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

/// The name `code` stands for in `names`; `"?"` beyond the table.
fn code_name(code: u8, names: &[&'static str]) -> &'static str {
    names.get(usize::from(code)).copied().unwrap_or("?")
}

fn f(key: &'static str, value: impl Into<Json>) -> (&'static str, Json) {
    (key, value.into())
}

impl EventKind {
    /// A short stable name for JSONL output and debugging.
    pub fn name(&self) -> &'static str {
        self.record().name
    }

    fn record(&self) -> Record {
        use Role::{Close, Counter, Instant, Next, Open};
        let rec = |name, cat, role, fields| Record {
            name,
            cat,
            role,
            fields,
            sampled: None,
        };
        match *self {
            EventKind::CycleBegin { cycle } => {
                let role = Open(Span::Cycle, format!("cycle {cycle}"));
                rec("cycle_begin", "gc", role, vec![f("cycle", cycle)])
            }
            EventKind::CycleEnd {
                cycle,
                freed,
                traced,
            } => {
                let fields = vec![f("cycle", cycle), f("freed", freed), f("traced", traced)];
                rec("cycle_end", "gc", Close(Span::Cycle), fields)
            }
            EventKind::PhaseEnter { phase } => {
                let name = code_name(phase, &PHASE_NAMES);
                // Idle (0) only ends the previous phase.
                let role = match phase {
                    0 => Close(Span::Phase),
                    _ => Next(Span::Phase, name.to_owned()),
                };
                rec("phase_enter", "gc", role, vec![f("phase", name)])
            }
            EventKind::HandshakeBegin { generation, ty } => {
                let ty = code_name(ty, &HANDSHAKE_NAMES);
                let role = Open(Span::Handshake, format!("handshake {ty}"));
                let fields = vec![f("generation", generation), f("type", ty)];
                rec("handshake_begin", "gc", role, fields)
            }
            EventKind::HandshakeEnd {
                generation,
                ty,
                outcome,
            } => {
                let ty = code_name(ty, &HANDSHAKE_NAMES);
                let outcome = u64::from(outcome);
                let fields = vec![
                    f("generation", generation),
                    f("type", ty),
                    f("outcome", outcome),
                ];
                rec("handshake_end", "gc", Close(Span::Handshake), fields)
            }
            EventKind::MarkCas { won } => rec("mark_cas", "gc", Instant, vec![f("won", won)]),
            EventKind::BarrierHit { deletion } => {
                rec("barrier_hit", "gc", Instant, vec![f("deletion", deletion)])
            }
            EventKind::AllocColor { slot, color } => {
                let fields = vec![f("slot", slot), f("color", color)];
                rec("alloc_color", "gc", Instant, fields)
            }
            EventKind::PoolRefill { got } => rec("pool_refill", "gc", Instant, vec![f("got", got)]),
            EventKind::ChaosFired { site } => {
                let fields = vec![f("site", u64::from(site))];
                rec("chaos_fired", "chaos", Instant, fields)
            }
            EventKind::LevelBegin { level, frontier } => {
                let role = Open(Span::Level, format!("level {level}"));
                let fields = vec![f("level", level), f("frontier", frontier)];
                Record {
                    // The track `COUNTER_NAMES[1]` names.
                    sampled: Some("frontier"),
                    ..rec("level_begin", "mc", role, fields)
                }
            }
            EventKind::LevelEnd {
                level,
                discovered,
                states_total,
            } => {
                let fields = vec![
                    f("level", level),
                    f("discovered", discovered),
                    f("states_total", states_total),
                ];
                rec("level_end", "mc", Close(Span::Level), fields)
            }
            EventKind::ShardOccupancy { max, total } => {
                let fields = vec![f("max", max), f("total", total)];
                rec("shard_occupancy", "mc", Instant, fields)
            }
            EventKind::SpanBegin { id } => {
                let role = Open(Span::Generic(id), format!("span-{id}"));
                rec("span_begin", "app", role, vec![f("id", id)])
            }
            EventKind::SpanEnd { id } => {
                let role = Close(Span::Generic(id));
                rec("span_end", "app", role, vec![f("id", id)])
            }
            EventKind::Instant { id, value } => {
                let fields = vec![f("id", id), f("value", value)];
                rec("instant", "app", Instant, fields)
            }
            EventKind::Counter { id, value } => {
                let name = match COUNTER_NAMES.get(usize::from(id)) {
                    Some(name) => (*name).to_owned(),
                    None => format!("counter-{id}"),
                };
                let fields = vec![f("counter", name.clone()), f("value", value)];
                rec("counter", "app", Counter(name, 1), fields)
            }
            EventKind::ServeRequest {
                id,
                outcome,
                latency_us,
            } => {
                let outcome = SERVE_OUTCOME_NAMES[usize::from(outcome.min(4))];
                let fields = vec![
                    f("id", id),
                    f("outcome", outcome),
                    f("latency_us", latency_us),
                ];
                rec("serve_request", "serve", Instant, fields)
            }
        }
    }
}

impl Event {
    /// The event as every consumer reads it (see [`Record`]).
    pub fn record(&self) -> Record {
        self.kind.record()
    }

    /// Packs the event into the ring buffer's four-word record:
    /// `[ts, code, a, b]`. Codes 17-19, 22 and 23 are retired and never
    /// reassigned, so an older recording cannot decode as the wrong kind.
    pub fn encode(&self) -> [u64; 4] {
        let (code, a, b): (u64, u64, u64) = match self.kind {
            EventKind::CycleBegin { cycle } => (1, cycle, 0),
            EventKind::CycleEnd {
                cycle,
                freed,
                traced,
            } => (2, cycle, (u64::from(freed) << 32) | u64::from(traced)),
            EventKind::PhaseEnter { phase } => (3, u64::from(phase), 0),
            EventKind::HandshakeBegin { generation, ty } => {
                (4, u64::from(generation), u64::from(ty))
            }
            EventKind::HandshakeEnd {
                generation,
                ty,
                outcome,
            } => (
                5,
                u64::from(generation),
                (u64::from(outcome) << 8) | u64::from(ty),
            ),
            EventKind::MarkCas { won } => (6, u64::from(won), 0),
            EventKind::BarrierHit { deletion } => (7, u64::from(deletion), 0),
            EventKind::AllocColor { slot, color } => (8, u64::from(slot), u64::from(color)),
            EventKind::PoolRefill { got } => (9, u64::from(got), 0),
            EventKind::ChaosFired { site } => (10, u64::from(site), 0),
            EventKind::LevelBegin { level, frontier } => (11, u64::from(level), frontier),
            EventKind::LevelEnd {
                level,
                discovered,
                states_total,
            } => (12, (u64::from(level) << 40) | discovered, states_total),
            EventKind::ShardOccupancy { max, total } => (13, max, total),
            EventKind::SpanBegin { id } => (14, u64::from(id), 0),
            EventKind::SpanEnd { id } => (15, u64::from(id), 0),
            EventKind::Instant { id, value } => (16, u64::from(id), value),
            EventKind::Counter { id, value } => (20, u64::from(id), value),
            EventKind::ServeRequest {
                id,
                outcome,
                latency_us,
            } => (
                21,
                (u64::from(id) << 8) | u64::from(outcome),
                u64::from(latency_us),
            ),
        };
        [self.ts_ns, code, a, b]
    }

    /// Decodes a four-word record; `None` for unknown codes.
    pub fn decode(w: [u64; 4]) -> Option<Event> {
        let [ts_ns, code, a, b] = w;
        let kind = match code {
            1 => EventKind::CycleBegin { cycle: a },
            2 => EventKind::CycleEnd {
                cycle: a,
                freed: (b >> 32) as u32,
                traced: b as u32,
            },
            3 => EventKind::PhaseEnter { phase: a as u8 },
            4 => EventKind::HandshakeBegin {
                generation: a as u32,
                ty: b as u8,
            },
            5 => EventKind::HandshakeEnd {
                generation: a as u32,
                ty: b as u8,
                outcome: (b >> 8) as u8,
            },
            6 => EventKind::MarkCas { won: a != 0 },
            7 => EventKind::BarrierHit { deletion: a != 0 },
            8 => EventKind::AllocColor {
                slot: a as u32,
                color: b != 0,
            },
            9 => EventKind::PoolRefill { got: a as u32 },
            10 => EventKind::ChaosFired { site: a as u8 },
            11 => EventKind::LevelBegin {
                level: a as u32,
                frontier: b,
            },
            12 => EventKind::LevelEnd {
                level: (a >> 40) as u32,
                discovered: a & ((1 << 40) - 1),
                states_total: b,
            },
            13 => EventKind::ShardOccupancy { max: a, total: b },
            14 => EventKind::SpanBegin { id: a as u32 },
            15 => EventKind::SpanEnd { id: a as u32 },
            16 => EventKind::Instant {
                id: a as u32,
                value: b,
            },
            20 => EventKind::Counter {
                id: a as u8,
                value: b,
            },
            21 => EventKind::ServeRequest {
                id: (a >> 8) as u32,
                outcome: a as u8,
                latency_us: b as u32,
            },
            _ => return None,
        };
        Some(Event { ts_ns, kind })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_round_trips() {
        let kinds = [
            EventKind::CycleBegin { cycle: 7 },
            EventKind::CycleEnd {
                cycle: 7,
                freed: 12,
                traced: 99,
            },
            EventKind::PhaseEnter { phase: 2 },
            EventKind::HandshakeBegin {
                generation: 41,
                ty: 2,
            },
            EventKind::HandshakeEnd {
                generation: 41,
                ty: 2,
                outcome: 0,
            },
            EventKind::MarkCas { won: true },
            EventKind::BarrierHit { deletion: false },
            EventKind::AllocColor {
                slot: 1234,
                color: true,
            },
            EventKind::PoolRefill { got: 8 },
            EventKind::ChaosFired { site: 3 },
            EventKind::LevelBegin {
                level: 9,
                frontier: 100_000,
            },
            EventKind::LevelEnd {
                level: 9,
                discovered: 54_321,
                states_total: 1 << 33,
            },
            EventKind::ShardOccupancy {
                max: 512,
                total: 30_000,
            },
            EventKind::SpanBegin { id: 2 },
            EventKind::SpanEnd { id: 2 },
            EventKind::Instant {
                id: 1,
                value: u64::MAX,
            },
            EventKind::Counter { id: 2, value: 997 },
            EventKind::ServeRequest {
                id: 123_456,
                outcome: 3,
                latency_us: 41_000,
            },
        ];
        for (i, kind) in kinds.into_iter().enumerate() {
            let e = Event {
                ts_ns: 1_000 + i as u64,
                kind,
            };
            assert_eq!(Event::decode(e.encode()), Some(e), "kind {kind:?}");
        }
    }

    #[test]
    fn codes_beyond_their_name_table_keep_their_fallback_names() {
        let name_of = |kind, key| {
            let r = Event { ts_ns: 0, kind }.record();
            r.get(key).and_then(Json::as_str).map(str::to_owned)
        };
        let hs = EventKind::HandshakeBegin {
            generation: 1,
            ty: 9,
        };
        assert_eq!(name_of(hs, "type").as_deref(), Some("?"));
        let phase = EventKind::PhaseEnter { phase: 9 };
        assert_eq!(name_of(phase, "phase").as_deref(), Some("?"));
        let counter = EventKind::Counter { id: 9, value: 0 };
        assert_eq!(name_of(counter, "counter").as_deref(), Some("counter-9"));
        let request = EventKind::ServeRequest {
            id: 0,
            outcome: 9,
            latency_us: 0,
        };
        assert_eq!(name_of(request, "outcome").as_deref(), Some("error"));
    }

    #[test]
    fn unknown_codes_decode_to_none() {
        assert_eq!(Event::decode([0, 0, 0, 0]), None);
        assert_eq!(Event::decode([5, 999, 1, 2]), None);
        for retired in [17, 18, 19, 22, 23] {
            assert_eq!(Event::decode([0, retired, 0, 0]), None);
        }
    }
}
