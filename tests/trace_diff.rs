//! End-to-end tests for the `gc-trace diff` regression gate (DESIGN.md
//! §2.14), driving the real binary over really-recorded traces: two
//! recordings of the same seeded workload diff clean under the CI
//! thresholds, a seeded latency perturbation trips the default
//! thresholds, and corrupt input produces a structured nonzero failure
//! rather than a panic.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use relaxing_safely::trace::Json;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_gc-trace")
}

/// A scratch directory unique to this test process.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gc-trace-diff-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs the demo workload into `out`, returning the recorded JSONL path.
fn record_demo(out: &Path) -> PathBuf {
    let status = Command::new(bin())
        .args([
            "--out",
            out.to_str().unwrap(),
            "--mutators",
            "2",
            "--ops",
            "1500",
        ])
        .status()
        .expect("run gc-trace demo");
    assert!(status.success(), "demo run failed: {status}");
    let path = out.join("trace.jsonl");
    assert!(path.exists(), "demo produced no trace.jsonl");
    path
}

fn diff(args: &[&str]) -> Output {
    Command::new(bin())
        .arg("diff")
        .args(args)
        .output()
        .expect("run gc-trace diff")
}

#[test]
fn same_workload_twice_diffs_clean_under_ci_thresholds() {
    let dir = scratch("tworuns");
    let a = record_demo(&dir.join("a"));
    let b = record_demo(&dir.join("b"));
    // The CI gate's thresholds: shape must persist — every event family
    // the baseline recorded must still appear, with volumes in the same
    // order of magnitude. Wall-clock latencies are machine noise across
    // runs, cycle counts scale with wall time under background
    // collection, and alloc-color mixes flip with cycle phase on short
    // runs, so those gates are opened wide here; their precise
    // sensitivity (the +20% handshake test below, the unit suite in
    // `gc_trace::diff`) is asserted on controlled inputs instead.
    let verdict_path = dir.join("verdict.json");
    let out = diff(&[
        a.to_str().unwrap(),
        b.to_str().unwrap(),
        "--shape-only",
        "--count-rel",
        "30.0",
        "--mix-abs",
        "1.0",
        "--json",
        verdict_path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "two runs of the same workload regressed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let verdict = Json::parse(&std::fs::read_to_string(&verdict_path).expect("verdict written"))
        .expect("verdict parses");
    assert_eq!(
        verdict.get("verdict").and_then(Json::as_str),
        Some("clean"),
        "verdict: {verdict}"
    );
    assert_eq!(
        verdict.get("schema").and_then(Json::as_str),
        Some("gc-trace-diff/v1")
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn seeded_latency_perturbation_trips_the_default_thresholds() {
    let dir = scratch("perturb");
    let base = record_demo(&dir);

    // Scale every timestamp by 1.2: every recorded span — handshakes
    // included — gets 20% slower while all counts and mixes stay
    // byte-identical, exactly the regression the latency gate exists for.
    let text = std::fs::read_to_string(&base).expect("read base trace");
    let mut perturbed = String::new();
    for line in text.lines() {
        let mut record = Json::parse(line).expect("trace line parses");
        if let Json::Obj(entries) = &mut record {
            for (key, value) in entries.iter_mut() {
                if key == "ts_ns" {
                    if let Json::Num(ts) = value {
                        *ts *= 1.2;
                    }
                }
            }
        }
        perturbed.push_str(&format!("{record}\n"));
    }
    let slow = dir.join("trace_slow.jsonl");
    std::fs::write(&slow, perturbed).expect("write perturbed trace");

    let verdict_path = dir.join("verdict.json");
    let out = diff(&[
        base.to_str().unwrap(),
        slow.to_str().unwrap(),
        "--json",
        verdict_path.to_str().unwrap(),
    ]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "a +20% slowdown must regress at default thresholds:\nstdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let verdict = Json::parse(&std::fs::read_to_string(&verdict_path).expect("verdict written"))
        .expect("verdict parses");
    assert_eq!(
        verdict.get("verdict").and_then(Json::as_str),
        Some("regressed")
    );
    let findings = verdict
        .get("findings")
        .and_then(Json::as_arr)
        .expect("findings array");
    assert!(
        findings.iter().any(|f| {
            matches!(f.get("regressed"), Some(Json::Bool(true)))
                && f.get("metric")
                    .and_then(Json::as_str)
                    .is_some_and(|m| m.contains("latency") || m.contains("_ns"))
        }),
        "no latency finding regressed: {verdict}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_input_is_a_structured_failure() {
    let dir = scratch("corrupt");
    let good = dir.join("good.jsonl");
    let bad = dir.join("bad.jsonl");
    std::fs::write(
        &good,
        "{\"ts_ns\":1,\"track\":0,\"track_name\":\"t\",\"event\":\"cycle_begin\",\"cycle\":1}\n\
         {\"ts_ns\":9,\"track\":0,\"track_name\":\"t\",\"event\":\"cycle_end\",\"cycle\":1,\"freed\":0,\"traced\":1}\n",
    )
    .unwrap();
    // Truncated mid-record on line 2.
    std::fs::write(
        &bad,
        "{\"ts_ns\":1,\"track\":0,\"track_name\":\"t\",\"event\":\"cycle_begin\",\"cycle\":1}\n\
         {\"ts_ns\":9,\"track\":0,\"tr",
    )
    .unwrap();
    let out = diff(&[good.to_str().unwrap(), bad.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "corrupt input must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("line 2"),
        "error should name the corrupt line, got: {stderr}"
    );

    let out = diff(&[
        good.to_str().unwrap(),
        dir.join("missing.jsonl").to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2), "missing input must exit 2");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_chrome_document_is_refused_naming_its_jsonl() {
    let dir = scratch("chrome");
    let jsonl = record_demo(&dir);
    let compact = dir.join("trace.json");
    // However it is laid out: re-keyed and spread over lines too.
    let pretty = dir.join("pretty.json");
    let doc = std::fs::read_to_string(&compact).expect("demo wrote trace.json");
    let events = Json::parse(&doc).expect("trace.json parses");
    let events = events.get("traceEvents").expect("a Chrome document");
    std::fs::write(
        &pretty,
        format!("{{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": {events}\n}}\n"),
    )
    .unwrap();
    for chrome in [&compact, &pretty] {
        let out = diff(&[jsonl.to_str().unwrap(), chrome.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(2), "a Chrome document must exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let hint = chrome.with_extension("jsonl");
        assert!(
            stderr.lines().count() == 1 && stderr.contains(hint.to_str().unwrap()),
            "one line naming {}, got: {stderr}",
            hint.display()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
