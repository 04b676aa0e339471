//! What one run of one workload reports, and the result file `run` writes.

use std::collections::BTreeMap;
use std::process::Command;

use gc_trace::Json;

use crate::spec::{self, END_TO_END, PER_LAYER};

pub const SCHEMA: &str = "relaxing-safely-benchmark/v1";

/// The outcome of one run of one workload (one process).
#[derive(Debug, Default)]
pub struct RunOutput {
    /// Operations asked of the program (verdicts, allocations, requests).
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Measured values by metric name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// How many samples stand behind each value.
    pub samples: BTreeMap<&'static str, usize>,
    /// Output checks that did not hold; empty means the run is correct.
    pub problems: Vec<String>,
}

impl RunOutput {
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        debug_assert!(spec::unit_of(name).is_some(), "unknown metric {name}");
        self.metrics.insert(name, value);
        self.samples.insert(name, samples);
    }

    /// Records an output check; a failed one makes the run incorrect.
    pub fn check(&mut self, holds: bool, problem: impl FnOnce() -> String) {
        if !holds {
            self.problems.push(problem());
        }
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The names this kind of run must report, in table order.
    fn names(traced: bool) -> Vec<&'static str> {
        if traced {
            PER_LAYER.iter().map(|m| m.name).collect()
        } else {
            END_TO_END.iter().map(|m| m.name).collect()
        }
    }

    /// The one-object result the driver reads from the last output line:
    /// every end-to-end metric of an untraced run, every per-layer metric
    /// of a traced one. A layer the workload never reached did no work and
    /// reads zero; an end-to-end metric is never missing.
    pub fn contract_json(&self, traced: bool) -> Json {
        let mut metrics = Json::obj();
        for name in Self::names(traced) {
            let value = match self.metrics.get(name) {
                Some(v) => *v,
                None if traced => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            assert!(value.is_finite(), "metric {name} is not a number");
            let unit = spec::unit_of(name).expect("metric is in a table");
            metrics = metrics.set(
                name,
                Json::obj().set("value", Json::Num(value)).set("unit", unit),
            );
        }
        Json::obj()
            .set("correct", self.correct())
            .set("attempted", self.attempted.max(1))
            .set("failed", self.failed)
            .set("metrics", metrics)
    }

    /// Sample counts as one JSON object, printed on the line before the
    /// result so `run` can stamp them into the result file.
    pub fn samples_json(&self) -> Json {
        self.samples
            .iter()
            .fold(Json::obj(), |o, (name, n)| o.set(name, *n))
    }

    /// The human-readable table: every measured metric with its unit.
    pub fn print_table(&self, traced: bool) {
        for name in Self::names(traced) {
            let Some(value) = self.metrics.get(name) else {
                continue;
            };
            let unit = spec::unit_of(name).expect("metric is in a table");
            let samples = self.samples.get(name).copied().unwrap_or(0);
            println!("  {name:<36} {value:>16.6} {unit:<6} (n={samples})");
        }
        for p in &self.problems {
            println!("  OUTPUT CHECK FAILED: {p}");
        }
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The facts a result is only comparable under (ROADMAP ledger item (a)).
pub fn host_stamp() -> Json {
    let host = std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map_or_else(|_| "unknown".to_owned(), |s| s.trim().to_owned());
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj()
        .set("host", host)
        .set("available_parallelism", cores)
        .set("rustc", command_line("rustc", &["--version"]))
        .set(
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        )
        .set("commit", command_line("git", &["rev-parse", "HEAD"]))
        .set("heap_layout", otf_gc::HeapLayout::default().name())
}

/// One workload's row of a result file: each metric's value per repeat.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Row {
    pub correct: bool,
    pub attempted: Vec<u64>,
    pub failed: Vec<u64>,
    /// metric → (values, sample counts), one entry per repeat.
    pub metrics: BTreeMap<String, (Vec<f64>, Vec<u64>)>,
}

impl Row {
    /// Adds one child run: its result object and its sample counts.
    pub fn absorb(&mut self, result: &Json, samples: &Json) {
        let num = |j: Option<&Json>| j.and_then(Json::as_f64);
        self.correct &= result.get("correct") == Some(&Json::Bool(true));
        self.attempted
            .push(num(result.get("attempted")).unwrap_or(0.0) as u64);
        self.failed
            .push(num(result.get("failed")).unwrap_or(0.0) as u64);
        let Some(Json::Obj(metrics)) = result.get("metrics") else {
            self.correct = false;
            return;
        };
        for (metric, m) in metrics {
            let (values, counts) = self.metrics.entry(metric.clone()).or_default();
            values.push(num(m.get("value")).unwrap_or(f64::NAN));
            counts.push(num(samples.get(metric)).unwrap_or(0.0) as u64);
        }
    }
}

/// A result file: what `run --json` writes and `compare` reads.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultFile {
    pub quick: bool,
    pub seed: u64,
    pub seconds: f64,
    pub host: Json,
    pub workloads: BTreeMap<String, Row>,
}

fn nums<T: Copy + Into<Json>>(values: &[T]) -> Json {
    Json::Arr(values.iter().map(|v| (*v).into()).collect())
}

fn parse_nums(j: Option<&Json>) -> Option<Vec<f64>> {
    j?.as_arr()?.iter().map(Json::as_f64).collect()
}

impl ResultFile {
    pub fn to_json(&self) -> Json {
        let mut workloads = Json::obj();
        for (name, row) in &self.workloads {
            let mut metrics = Json::obj();
            for (metric, (values, samples)) in &row.metrics {
                let unit = spec::unit_of(metric).unwrap_or("");
                metrics = metrics.set(
                    metric,
                    Json::obj()
                        .set("unit", unit)
                        .set("values", nums(values))
                        .set("samples", nums(samples)),
                );
            }
            workloads = workloads.set(
                name,
                Json::obj()
                    .set("correct", row.correct)
                    .set("attempted", nums(&row.attempted))
                    .set("failed", nums(&row.failed))
                    .set("metrics", metrics),
            );
        }
        Json::obj()
            .set("schema", SCHEMA)
            .set("quick", self.quick)
            .set("seed", self.seed)
            .set("seconds", Json::Num(self.seconds))
            .set("host", self.host.clone())
            .set("workloads", workloads)
    }

    pub fn from_json(doc: &Json) -> Result<ResultFile, String> {
        if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
            return Err(format!("not a {SCHEMA} result file"));
        }
        let quick = matches!(doc.get("quick"), Some(Json::Bool(true)));
        let num = |key: &str| {
            doc.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("missing number `{key}`"))
        };
        let Some(Json::Obj(entries)) = doc.get("workloads") else {
            return Err("missing object `workloads`".to_owned());
        };
        let mut workloads = BTreeMap::new();
        for (name, w) in entries {
            let counts = |key: &str| {
                parse_nums(w.get(key))
                    .map(|v| v.into_iter().map(|x| x as u64).collect::<Vec<u64>>())
                    .ok_or_else(|| format!("{name}: missing array `{key}`"))
            };
            let Some(Json::Obj(ms)) = w.get("metrics") else {
                return Err(format!("{name}: missing object `metrics`"));
            };
            let mut metrics = BTreeMap::new();
            for (metric, m) in ms {
                let values = parse_nums(m.get("values"))
                    .ok_or_else(|| format!("{name}.{metric}: missing array `values`"))?;
                let samples = parse_nums(m.get("samples"))
                    .unwrap_or_default()
                    .into_iter()
                    .map(|x| x as u64)
                    .collect();
                metrics.insert(metric.clone(), (values, samples));
            }
            workloads.insert(
                name.clone(),
                Row {
                    correct: matches!(w.get("correct"), Some(Json::Bool(true))),
                    attempted: counts("attempted")?,
                    failed: counts("failed")?,
                    metrics,
                },
            );
        }
        Ok(ResultFile {
            quick,
            seed: num("seed")? as u64,
            seconds: num("seconds")?,
            host: doc.get("host").cloned().unwrap_or(Json::Null),
            workloads,
        })
    }

    pub fn read(path: &str) -> Result<ResultFile, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        ResultFile::from_json(&doc).map_err(|e| format!("{path}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_file_round_trips_through_the_shared_json_type() {
        let mut row = Row {
            correct: true,
            attempted: vec![3, 3],
            failed: vec![0, 0],
            ..Row::default()
        };
        row.metrics.insert(
            spec::WORK_MS.to_owned(),
            (vec![12034.25, 11988.5], vec![1, 1]),
        );
        row.metrics.insert(
            spec::SETUP_S.to_owned(),
            (vec![0.000123, 0.000119], vec![21, 21]),
        );
        let file = ResultFile {
            quick: true,
            seed: 42,
            seconds: 0.5,
            host: host_stamp(),
            workloads: BTreeMap::from([("check-raw".to_owned(), row)]),
        };
        let text = file.to_json().to_string();
        let back = ResultFile::from_json(&Json::parse(&text).expect("valid JSON")).expect("schema");
        assert_eq!(back, file);
        assert!(ResultFile::from_json(&Json::obj()).is_err());
    }

    #[test]
    fn contract_json_reports_exactly_the_table_for_the_mode() {
        let mut out = RunOutput::default();
        for m in &END_TO_END {
            out.set(m.name, 1.5, 3);
        }
        out.set("mc.states", 10.0, 1);
        out.attempted = 4;
        let untraced = out.contract_json(false);
        let Some(Json::Obj(ms)) = untraced.get("metrics") else {
            panic!("metrics object");
        };
        assert_eq!(ms.len(), END_TO_END.len());
        assert_eq!(untraced.get("correct"), Some(&Json::Bool(true)));
        let traced = out.contract_json(true);
        let Some(Json::Obj(ms)) = traced.get("metrics") else {
            panic!("metrics object");
        };
        assert_eq!(ms.len(), PER_LAYER.len());
        let states = traced.get("metrics").and_then(|m| m.get("mc.states"));
        assert_eq!(states.and_then(|s| s.get("value")), Some(&Json::Num(10.0)));
        out.check(false, || "boom".to_owned());
        assert_eq!(
            out.contract_json(false).get("correct"),
            Some(&Json::Bool(false))
        );
    }
}
