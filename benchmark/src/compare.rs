//! `compare BASE.json CUR.json`: applies each end-to-end metric's bound to
//! every metric × workload row of two result files.
//!
//! A row *regresses* when the current median is worse than the base's by
//! more than the metric's bound. A row whose run-to-run spread is wider
//! than the bound is *unresolved* rather than passed — unless every
//! current run reads better than every base run. Spread needs at least two
//! runs a side (`run --repeat`); with one it is unknown and taken as zero.

use crate::report::{ResultFile, Row};
use crate::spec::{Better, END_TO_END, WORKLOADS};
use crate::stats::median;

/// `failed / attempted` may rise by this much before a row regresses.
const FAILED_SHARE_SLACK: f64 = 0.001;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Pass,
    Regress,
    Unresolved,
}

/// One metric × workload comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    pub workload: String,
    pub metric: &'static str,
    pub base: f64,
    pub cur: f64,
    /// Relative change in the metric's worse direction (negative = better).
    pub worse_by: f64,
    pub spread: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// Distance between the quartiles (the range, below four samples) as a
/// share of the median.
fn spread(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let mid = median(&mut sorted.clone());
    if n < 2 || mid == 0.0 {
        return 0.0;
    }
    let width = if n < 4 {
        sorted[n - 1] - sorted[0]
    } else {
        // The exclusive method of Python's `statistics.quantiles(n=4)`.
        let at = |p: f64| {
            let pos = p * (n + 1) as f64;
            let i = (pos.floor() as usize).clamp(1, n - 1);
            sorted[i - 1] + (pos - i as f64) * (sorted[i] - sorted[i - 1])
        };
        at(0.75) - at(0.25)
    };
    (width / mid).abs()
}

fn failed_share(row: &Row) -> f64 {
    let attempted: u64 = row.attempted.iter().sum();
    row.failed.iter().sum::<u64>() as f64 / attempted.max(1) as f64
}

pub fn compare(base: &ResultFile, cur: &ResultFile) -> Result<Vec<Finding>, String> {
    if base.quick != cur.quick {
        return Err("one file is a --quick result and the other is not".to_owned());
    }
    let mut findings = Vec::new();
    let rows = WORKLOADS
        .iter()
        .filter_map(|w| base.workloads.get_key_value(w.name));
    for (workload, b) in rows {
        let Some(c) = cur.workloads.get(workload) else {
            return Err(format!("{workload} is missing from the current file"));
        };
        for m in &END_TO_END {
            let (Some((bv, _)), Some((cv, _))) = (b.metrics.get(m.name), c.metrics.get(m.name))
            else {
                return Err(format!("{workload}.{} is missing from a file", m.name));
            };
            let (bm, cm) = (median(&mut bv.clone()), median(&mut cv.clone()));
            let worse_by = match m.better {
                Better::Lower => cm / bm - 1.0,
                Better::Higher => 1.0 - cm / bm,
            };
            let spread = spread(bv).max(spread(cv));
            let all_better = bv.iter().all(|b| {
                cv.iter().all(|c| match m.better {
                    Better::Lower => c < b,
                    Better::Higher => c > b,
                })
            });
            let verdict = if spread > m.bound && !all_better {
                Verdict::Unresolved
            } else if worse_by > m.bound {
                Verdict::Regress
            } else {
                Verdict::Pass
            };
            findings.push(Finding {
                workload: workload.clone(),
                metric: m.name,
                base: bm,
                cur: cm,
                worse_by,
                spread,
                bound: m.bound,
                verdict,
            });
        }
        let (bf, cf) = (failed_share(b), failed_share(c));
        let broken = !c.correct || cf - bf > FAILED_SHARE_SLACK;
        findings.push(Finding {
            workload: workload.clone(),
            metric: "failed_share",
            base: bf,
            cur: cf,
            worse_by: cf - bf,
            spread: 0.0,
            bound: FAILED_SHARE_SLACK,
            verdict: if broken {
                Verdict::Regress
            } else {
                Verdict::Pass
            },
        });
    }
    Ok(findings)
}

/// Prints the table; returns whether any row regressed.
pub fn print(findings: &[Finding]) -> bool {
    println!(
        "{:<16} {:<13} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "base", "current", "worse by", "spread", "bound"
    );
    for f in findings {
        println!(
            "{:<16} {:<13} {:>14.6} {:>14.6} {:>8.1}% {:>7.1}% {:>6.1}%  {}",
            f.workload,
            f.metric,
            f.base,
            f.cur,
            f.worse_by * 100.0,
            f.spread * 100.0,
            f.bound * 100.0,
            match f.verdict {
                Verdict::Pass => "pass",
                Verdict::Regress => "REGRESS",
                Verdict::Unresolved => "unresolved (spread wider than bound)",
            }
        );
    }
    findings.iter().any(|f| f.verdict == Verdict::Regress)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{PEAK_RSS_MB, SETUP_S, WAIT_MS, WORK_MS};
    use gc_trace::Json;
    use std::collections::BTreeMap;

    fn file(work_ms: &[f64], quick: bool) -> ResultFile {
        let runs = work_ms.len();
        let mut row = Row {
            correct: true,
            attempted: vec![100; runs],
            failed: vec![0; runs],
            ..Row::default()
        };
        let flat = |v: f64| (vec![v; runs], vec![1; runs]);
        row.metrics
            .insert(WORK_MS.to_owned(), (work_ms.to_vec(), vec![1; runs]));
        row.metrics.insert(WAIT_MS.to_owned(), flat(4.0));
        row.metrics.insert(PEAK_RSS_MB.to_owned(), flat(200.0));
        row.metrics.insert(SETUP_S.to_owned(), flat(0.3));
        ResultFile {
            quick,
            seed: 1,
            seconds: 10.0,
            host: Json::Null,
            workloads: BTreeMap::from([("churn-alloc".to_owned(), row)]),
        }
    }

    fn verdict_of(findings: &[Finding], metric: &str) -> Verdict {
        findings
            .iter()
            .find(|f| f.metric == metric)
            .expect("row")
            .verdict
    }

    #[test]
    fn a_twin_passes_and_a_row_thirty_percent_worse_regresses() {
        let base = file(&[100.0, 101.0, 99.0], false);
        let twin = compare(&base, &base.clone()).expect("comparable");
        assert!(twin.iter().all(|f| f.verdict == Verdict::Pass));
        assert!(!print(&twin));
        let slow = compare(&base, &file(&[130.0, 131.0, 129.0], false)).expect("comparable");
        assert_eq!(verdict_of(&slow, WORK_MS), Verdict::Regress);
        assert_eq!(verdict_of(&slow, WAIT_MS), Verdict::Pass);
        assert!(print(&slow));
        let fast = compare(&base, &file(&[80.0, 81.0, 79.0], false)).expect("comparable");
        assert_eq!(verdict_of(&fast, WORK_MS), Verdict::Pass);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_every_run_is_better() {
        let noisy = file(&[100.0, 140.0, 90.0], false);
        let same = compare(&noisy, &noisy.clone()).expect("comparable");
        assert_eq!(verdict_of(&same, WORK_MS), Verdict::Unresolved);
        let better = compare(&noisy, &file(&[50.0, 70.0, 60.0], false)).expect("comparable");
        assert_eq!(verdict_of(&better, WORK_MS), Verdict::Pass);
    }

    #[test]
    fn failures_and_mixed_sizes_are_caught() {
        let base = file(&[100.0], false);
        let mut failing = base.clone();
        failing
            .workloads
            .get_mut("churn-alloc")
            .expect("row")
            .failed = vec![1];
        let findings = compare(&base, &failing).expect("comparable");
        assert_eq!(verdict_of(&findings, "failed_share"), Verdict::Regress);
        assert!(compare(&base, &file(&[100.0], true)).is_err());
    }

    #[test]
    fn spread_matches_the_exclusive_quartile_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&values) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[5.0]), 0.0);
        assert!((spread(&[4.0, 6.0]) - 0.4).abs() < 1e-12);
    }
}
