//! One benchmark for both pipelines of the repository. See `README.md`.
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1 [--quick]
//! benchmark run     [--workload NAME] [--seed N] [--seconds S] [--repeat K] [--quick] [--json OUT]
//! benchmark trace   [--workload NAME] [--seed N] [--seconds S] [--quick]
//! benchmark compare BASE.json CUR.json
//! benchmark spec
//! ```
//!
//! The first form is one run of one workload in this process: the driver's
//! contract (`BENCHMARK.json`). It prints what it measured and, as its last
//! line, one JSON object. `run` and `trace` start that form once per
//! workload in a child process of its own, untraced and traced.

mod checker;
mod compare;
mod report;
mod runtime;
mod serve;
mod spans;
mod spec;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

use gc_trace::Json;

use checker::Check;
use report::{ResultFile, Row, RunOutput};
use runtime::Runtime;
use spans::Recorder;
use spec::{END_TO_END, WORKLOADS};

/// What `run` and `trace` measure for by default; `--quick` measures for a
/// twentieth.
const DEFAULT_SECONDS: f64 = spec::RUN_SECONDS as f64;

/// Where traced runs leave their span files and the checker its spill
/// files: inside the package, never outside the checkout.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    quick: bool,
    repeat: usize,
    json: Option<String>,
    positional: Vec<String>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: None,
        traced: false,
        quick: false,
        repeat: 1,
        json: None,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        let bad = |v: &String| format!("{arg}: cannot read `{v}`");
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                spec::workload(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
                parsed.workload = Some(name.clone());
            }
            "--seed" => parsed.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => {
                let s: f64 = value().and_then(|v| v.parse().map_err(|_| bad(v)))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_owned());
                }
                parsed.seconds = Some(s);
            }
            "--trace" => {
                parsed.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--repeat" => {
                parsed.repeat = value().and_then(|v| v.parse().map_err(|_| bad(v)))?;
                if parsed.repeat == 0 {
                    return Err("--repeat must be at least 1".to_owned());
                }
            }
            "--json" => parsed.json = Some(value()?.clone()),
            "--quick" => parsed.quick = true,
            flag if flag.starts_with("--") => return Err(format!("unknown option `{flag}`")),
            _ => parsed.positional.push(arg.clone()),
        }
    }
    Ok(parsed)
}

impl Args {
    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.quick {
            DEFAULT_SECONDS / 20.0
        } else {
            DEFAULT_SECONDS
        })
    }
}

/// One run of one workload in this process.
fn single(name: &'static str, a: &Args) -> ExitCode {
    // `mc` spills oversized BFS frontiers into the system temporary
    // directory; keep those files inside the checkout. No thread has been
    // started yet, so changing the environment is sound.
    let tmp = out_dir().join("tmp");
    if std::fs::create_dir_all(&tmp).is_ok() {
        std::env::set_var("TMPDIR", &tmp);
    }
    let (seed, seconds, quick) = (a.seed, a.seconds(), a.quick);
    println!(
        "{name}: seed {seed}, {seconds} s, {}{}",
        if a.traced { "traced" } else { "untraced" },
        if quick { ", quick" } else { "" }
    );
    let mut rec = Recorder::new(name);
    let check = |c: Check, rec: &mut Recorder| match a.traced {
        false => checker::run(c, quick, seconds),
        true => checker::trace(c, quick, rec),
    };
    let mutate = |r: Runtime, rec: &mut Recorder| match a.traced {
        false => runtime::run(r, quick, seed, seconds),
        true => runtime::trace(r, quick, seed, seconds, rec),
    };
    let out: RunOutput = match name {
        "check-raw" => check(Check::Raw, &mut rec),
        "check-reduced" => check(Check::Reduced, &mut rec),
        "check-heap-par" => check(Check::HeapPar, &mut rec),
        "churn-alloc" => mutate(Runtime::ChurnAlloc, &mut rec),
        "graph-mutate" => mutate(Runtime::GraphMutate, &mut rec),
        "serve-steady" => match a.traced {
            false => serve::run(quick, seed, seconds),
            true => serve::trace(quick, seed, seconds, &mut rec),
        },
        other => unreachable!("{other} passed `spec::workload`"),
    };
    if a.traced {
        println!("  layer self times:");
        for (layer, total) in rec.layer_totals() {
            println!(
                "    {layer:<24} {:>10} calls {:>12.3} ms",
                total.calls,
                total.self_ns as f64 / 1e6
            );
        }
        match rec.write(&out_dir()) {
            Ok(path) => println!("  spans -> {}", path.display()),
            Err(e) => {
                eprintln!("cannot write the span file: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    out.print_table(a.traced);
    println!("samples {}", out.samples_json());
    println!("{}", out.contract_json(a.traced));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Starts one run of `name` in a child process; returns its result object
/// and sample counts, or `None` if it failed.
fn child(name: &str, a: &Args, seed: u64) -> Option<(Json, Json)> {
    let exe = std::env::current_exe().expect("own path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &seed.to_string()])
        .args(["--seconds", &a.seconds().to_string()])
        .args(["--trace", if a.traced { "1" } else { "0" }]);
    if a.quick {
        cmd.arg("--quick");
    }
    let output = cmd.output().expect("start a child run");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let result = lines.pop().and_then(|l| Json::parse(l).ok());
    let samples = lines
        .pop()
        .and_then(|l| l.strip_prefix("samples "))
        .and_then(|l| Json::parse(l).ok());
    for line in lines {
        println!("{line}");
    }
    if !output.status.success() {
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        eprintln!("{name}: run failed ({})", output.status);
        return None;
    }
    result.zip(samples)
}

/// `run` and `trace`: every workload (or the one named), each run in its
/// own child process.
fn all(a: &Args) -> ExitCode {
    let mut file = ResultFile {
        quick: a.quick,
        seed: a.seed,
        seconds: a.seconds(),
        host: report::host_stamp(),
        workloads: BTreeMap::new(),
    };
    let mut ok = true;
    for w in WORKLOADS
        .iter()
        .filter(|w| a.workload.as_deref().is_none_or(|n| n == w.name))
    {
        let mut row = Row {
            correct: true,
            ..Row::default()
        };
        for k in 0..a.repeat {
            match child(w.name, a, a.seed.wrapping_add(k as u64)) {
                Some((result, samples)) => row.absorb(&result, &samples),
                None => row.correct = false,
            }
        }
        ok &= row.correct;
        file.workloads.insert(w.name.to_owned(), row);
    }
    if !a.traced {
        print!("\n{:<16}", "workload");
        for m in &END_TO_END {
            print!(" {:>16}", format!("{} [{}]", m.name, m.unit));
        }
        println!("  failed/attempted");
        for (name, row) in WORKLOADS
            .iter()
            .filter_map(|w| file.workloads.get_key_value(w.name))
        {
            print!("{name:<16}");
            for m in &END_TO_END {
                let values = row.metrics.get(m.name).map(|(values, _)| values.clone());
                print!(" {:>16.6}", stats::median(&mut values.unwrap_or_default()));
            }
            let (failed, attempted): (u64, u64) =
                (row.failed.iter().sum(), row.attempted.iter().sum());
            let verdict = if row.correct {
                ""
            } else {
                "  OUTPUT CHECK FAILED"
            };
            println!("  {failed}/{attempted}{verdict}");
        }
    }
    if let Some(path) = &a.json {
        if let Err(e) = std::fs::write(path, format!("{}\n", file.to_json())) {
            eprintln!("{path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("results -> {path}");
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_compare(a: &Args) -> Result<ExitCode, String> {
    let [base, cur] = a.positional.as_slice() else {
        return Err("compare takes BASE.json and CUR.json".to_owned());
    };
    let findings = compare::compare(&ResultFile::read(base)?, &ResultFile::read(cur)?)?;
    Ok(if compare::print(&findings) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(c @ ("run" | "trace" | "compare" | "spec")) => (c, &args[1..]),
        _ => ("single", &args[..]),
    };
    let outcome = parse(rest).and_then(|mut a| match command {
        "run" => Ok(all(&a)),
        "trace" => {
            a.traced = true;
            Ok(all(&a))
        }
        "compare" => run_compare(&a),
        "spec" => {
            print!("{}", spec::benchmark_json());
            Ok(ExitCode::SUCCESS)
        }
        _ => {
            let name = a.workload.as_deref().ok_or("--workload is required")?;
            let w = spec::workload(name).expect("checked by `parse`");
            Ok(single(w.name, &a))
        }
    });
    outcome.unwrap_or_else(|problem| {
        eprintln!("{problem}\n");
        eprintln!("usage: benchmark --workload NAME --seed N --seconds S --trace 0|1 [--quick]");
        eprintln!("       benchmark run|trace [--workload NAME] [--seed N] [--seconds S] [--repeat K] [--quick] [--json OUT]");
        eprintln!("       benchmark compare BASE.json CUR.json");
        eprintln!("       benchmark spec");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arguments_are_checked_where_they_enter() {
        let args = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
        let a = parse(&args("--workload check-raw --seed 7 --seconds 2 --trace 1")).expect("valid");
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.traced),
            (Some("check-raw"), 7, true)
        );
        assert_eq!(a.seconds(), 2.0);
        assert_eq!(parse(&args("--quick")).expect("valid").seconds(), 0.5);
        for bad in [
            "--workload nope",
            "--seconds 0",
            "--seconds 61",
            "--trace 2",
            "--seed",
            "--frob",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad}");
        }
    }
}
