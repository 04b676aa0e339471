//! The `experiments` binary at its command line, and the table it runs
//! against the two documents that index it.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

use gc_bench::table::EXPERIMENTS;

fn experiments(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("run experiments")
}

/// The names after `` `experiments `` in the section of `doc` (a file at the
/// workspace root) that starts at the line beginning with `heading` and
/// runs to the next heading of the same level.
fn names_in_section(doc: &str, heading: &str) -> BTreeSet<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(doc);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{doc}: {e}"));
    let start = text
        .find(&format!("\n{heading}"))
        .unwrap_or_else(|| panic!("{doc} has no `{heading}` section"));
    let body = &text[start + 1 + heading.len()..];
    let level = heading.split(' ').next().unwrap();
    let body = &body[..body.find(&format!("\n{level} ")).unwrap_or(body.len())];
    body.split("`experiments ")
        .skip(1)
        .map(|rest| {
            rest.chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '-')
                .collect::<String>()
        })
        .filter(|name| name != "list" && name != "all")
        .collect()
}

#[test]
fn the_table_and_both_indexes_name_the_same_experiments() {
    let table: BTreeSet<String> = EXPERIMENTS.iter().map(|e| e.name.to_owned()).collect();
    assert_eq!(table.len(), EXPERIMENTS.len(), "duplicate names");
    assert_eq!(
        names_in_section("DESIGN.md", "## 3. Experiment index"),
        table,
        "DESIGN.md §3 and the table disagree"
    );
    assert_eq!(
        names_in_section("EXPERIMENTS.md", "## Index"),
        table,
        "the EXPERIMENTS.md index and the table disagree"
    );
}

#[test]
fn list_prints_every_entry() {
    let out = experiments(&["list"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for e in EXPERIMENTS {
        let row = stdout
            .lines()
            .find(|l| l.split_whitespace().next() == Some(e.name))
            .unwrap_or_else(|| panic!("`list` has no row for {}", e.name));
        assert!(row.contains(e.artifact) && row.contains(e.claim), "{row}");
    }
}

#[test]
fn a_malformed_bound_is_a_usage_error_not_the_default() {
    // `50k` used to fall back silently to the 2,000,000-state default.
    let out = experiments(&["fig1", "--max-states", "50k"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("bad value `50k` for `--max-states`"),
        "{stderr}"
    );
    assert!(stderr.contains("usage: experiments fig1"), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing ran");

    for args in [&["fig1", "--bogus"][..], &["nope"], &["fig4", "stray"], &[]] {
        assert_eq!(experiments(args).status.code(), Some(2), "{args:?}");
    }
    assert_eq!(experiments(&["torture", "--help"]).status.code(), Some(0));
}

#[test]
fn a_claim_undecided_under_the_bound_exits_2_without_a_panic() {
    let out = experiments(&["ablate-alloc-color", "--max-states", "100"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("BOUNDED — inconclusive"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    // The same claim decided: the 9-step counterexample, exit 0.
    let out = experiments(&["ablate-alloc-color"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("VIOLATED sys_phase_inv"));
}
