//! The benchmark's fixed vocabulary: workload and metric names, units,
//! directions and regression bounds. `BENCHMARK.json` at the repository
//! root states the same tables for the driver: it is the output of
//! `benchmark spec`, and a test keeps the two equal. Later issues refer to
//! these names verbatim, so they do not change.

use gc_trace::Json;

/// How the driver starts one run, from the root of a checkout.
const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];
/// The directories that hold the benchmark and nothing else.
const PATHS: [&str; 1] = ["benchmark"];
/// How long one run measures, in seconds.
pub const RUN_SECONDS: u32 = 10;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named workload and the reason it exists.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "check-raw",
        why: "Unreduced exhaustive check: successors, fingerprint, seen-set and invariants do all the work; canonicalisation, codec and spill do none.",
    },
    Workload {
        name: "check-reduced",
        why: "Same instance, deep buffers, every reduction on: canonicalize and POR filtering dominate per-state cost; judges reductions in wall-clock, not state count.",
    },
    Workload {
        name: "check-heap-par",
        why: "4-slot heap under alloc+discard churn, 2 BFS threads, disk-spill frontier: the sharded parallel engine and the codec path; a single-thread win that costs these shows here.",
    },
    Workload {
        name: "churn-alloc",
        why: "One mutator allocating and cutting lists against the free-running collector: allocation fast/slow path and sweep do most of the work.",
    },
    Workload {
        name: "graph-mutate",
        why: "Reads beside writes on a 16,384-node live ring under paced collection: barriers, root bookkeeping and marking dominate; a pure allocator change must not move it.",
    },
    Workload {
        name: "serve-steady",
        why: "Open-loop gc-serve at a load the seed serves in full: request latency with keeper, admission control, deadline allocation and adaptive pacing in the path.",
    },
];

/// An end-to-end metric: reported by every workload's untraced run, gated
/// by `bound` (the share of the parent's median it may worsen by).
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

pub const WORK_MS: &str = "work_ms";
pub const WAIT_MS: &str = "wait_ms";
pub const PEAK_RSS_MB: &str = "peak_rss_mb";
pub const SETUP_S: &str = "setup_s";

/// Every workload reports every one of these (the driver's contract), so
/// the two performance metrics are defined per pipeline — see README.md:
/// `work_ms` is the time one unit of work takes (one verdict; one million
/// mutator iterations; one median request), `wait_ms` the latency the
/// pipeline's user additionally waits on (time to a counterexample; one
/// collector cycle, i.e. reclamation latency; a p95 request).
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: WORK_MS,
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: WAIT_MS,
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: PEAK_RSS_MB,
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: SETUP_S,
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A per-layer metric: reported by every workload's traced run (zero where
/// the workload does not reach the layer), never gated.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Higher,
    }
}

pub const PER_LAYER: [Layer; 72] = [
    // cimp + tso-model + gc-model: from outside these are one call each.
    lower("model.successors_ns_per_state", "ns"),
    lower("model.succ_per_state", "count"),
    lower("model.canonicalize_ns_per_succ", "ns"),
    higher("model.canon_changed_share", "ratio"),
    lower("model.invariants_ns_per_state", "ns"),
    lower("model.encode_ns_per_state", "ns"),
    lower("model.decode_ns_per_state", "ns"),
    lower("model.encoded_bytes_per_state", "B"),
    // mc: the engine around the model.
    lower("mc.verdict_s", "s"),
    lower("mc.fingerprint_ns_per_succ", "ns"),
    lower("mc.seen_insert_ns_per_succ", "ns"),
    lower("mc.dedup_hit_share", "ratio"),
    lower("mc.engine_residual_ns_per_state", "ns"),
    lower("mc.states", "count"),
    lower("mc.transitions", "count"),
    lower("mc.depth", "count"),
    higher("mc.states_per_s", "1/s"),
    higher("mc.por_ample_hits", "count"),
    lower("mc.por_fallback_hits", "count"),
    higher("mc.symmetry_merge_hits", "count"),
    higher("mc.sb_canon_coalesce_hits", "count"),
    lower("mc.spill_bytes_written", "B"),
    lower("mc.spill_bytes_read", "B"),
    lower("mc.telemetry_overhead_pct", "%"),
    higher("mc.par_speedup_2t", "ratio"),
    // gc-analysis and the tso-model litmus suite.
    lower("analysis.precheck_ms", "ms"),
    lower("tso.litmus_suite_ms", "ms"),
    // otf-gc: mutator-side calls, sampled.
    higher("otf-gc.ops_per_s", "1/s"),
    lower("otf-gc.alloc_ns_p50", "ns"),
    lower("otf-gc.alloc_ns_p99", "ns"),
    lower("otf-gc.alloc_failed", "count"),
    lower("otf-gc.store_idle_ns_p50", "ns"),
    lower("otf-gc.store_mark_ns_p50", "ns"),
    lower("otf-gc.load_ns_p50", "ns"),
    lower("otf-gc.discard_ns_p50", "ns"),
    lower("otf-gc.safepoint_ns_p50", "ns"),
    lower("otf-gc.safepoint_us_max", "us"),
    // otf-gc: collector-side, from GcStats and the CycleStats history.
    lower("otf-gc.cycle_p50_ms", "ms"),
    higher("otf-gc.cycles", "count"),
    lower("otf-gc.handshake_share", "ratio"),
    lower("otf-gc.mark_share", "ratio"),
    lower("otf-gc.sweep_share", "ratio"),
    lower("otf-gc.mark_ns_per_obj", "ns"),
    lower("otf-gc.sweep_ns_per_slot", "ns"),
    lower("otf-gc.handshake_us_per_round", "us"),
    lower("otf-gc.barrier_checks_per_op", "count"),
    lower("otf-gc.barrier_cas_per_op", "count"),
    lower("otf-gc.cas_lost_share", "ratio"),
    lower("otf-gc.emergency_cycles", "count"),
    lower("otf-gc.tlab_refills", "count"),
    lower("otf-gc.lazy_sweep_segments", "count"),
    lower("otf-gc.backoff_ms", "ms"),
    // gc-serve.
    lower("serve.req_p50_us", "us"),
    lower("serve.req_p95_us", "us"),
    lower("serve.req_p99_us", "us"),
    lower("serve.req_max_us", "us"),
    lower("serve.alloc_stall_p99_us", "us"),
    higher("serve.goodput_rps", "1/s"),
    higher("serve.offered_rps", "1/s"),
    lower("serve.gen_lag_share", "ratio"),
    lower("serve.shed", "count"),
    lower("serve.rejected", "count"),
    lower("serve.timeouts", "count"),
    lower("serve.errors", "count"),
    higher("serve.cycles", "count"),
    // gc-trace.
    lower("trace.emit_off_ns", "ns"),
    lower("trace.emit_on_ns", "ns"),
    lower("trace.on_overhead_pct", "%"),
    // The benchmark's own spans.
    lower("bench.span_overhead_pct", "%"),
    lower("bench.layer_sum_share", "ratio"),
    lower("bench.replay_states", "count"),
    lower("bench.spans", "count"),
];

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let q = |s: &str| Json::from(s).to_string();
    let list = |items: &[&str]| items.iter().map(|s| q(s)).collect::<Vec<_>>().join(", ");
    let rows = |rows: Vec<String>| format!("[\n    {}\n  ]", rows.join(",\n    "));
    let workloads = WORKLOADS
        .iter()
        .map(|w| format!("{{\"name\": {}, \"why\": {}}}", q(w.name), q(w.why)))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                q(m.name),
                q(m.unit),
                q(m.better.as_str()),
                m.bound
            )
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                q(m.name),
                q(m.unit),
                q(m.better.as_str())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [{}],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        list(&COMMAND),
        list(&PATHS),
        rows(workloads),
        rows(end_to_end),
        rows(per_layer)
    )
}

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// The unit of any metric of either table.
pub fn unit_of(name: &str) -> Option<&'static str> {
    end_to_end(name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` states for the driver what this file states for the
    /// program; they must not drift apart.
    #[test]
    fn benchmark_json_is_the_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate it with `benchmark spec`"
        );
        let doc = Json::parse(&on_disk).expect("BENCHMARK.json is JSON");
        let Json::Obj(keys) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }

    /// The limits the driver refuses a file outside of.
    #[test]
    fn names_units_and_bounds_are_within_the_contract() {
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(name_ok(n), "{n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(
                unit_ok(m.unit) && m.bound > 0.0 && m.bound <= 0.25,
                "{}",
                m.name
            );
        }
        let setup = end_to_end(SETUP_S).expect("setup_s is required");
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(PER_LAYER.iter().all(|m| unit_ok(m.unit)));
        assert!(PER_LAYER.len() <= 128 && (2..=8).contains(&WORKLOADS.len()));
        assert!(benchmark_json().len() <= 64 * 1024);
    }
}
