//! Small numeric helpers: order statistics and the process's peak memory.

/// The `q`-quantile (`0.0..=1.0`) of `values` by the nearest-rank method:
/// the smallest sample with at least `q` of the samples at or below it.
/// Reorders `values`; returns 0 for an empty slice.
pub fn percentile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let n = values.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    *values.select_nth_unstable_by(rank - 1, f64::total_cmp).1
}

/// The median: the middle sample, or the mean of the two middle samples.
/// Reorders `values`; returns 0 for an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    let n = values.len();
    if n == 0 {
        return 0.0;
    }
    let (below, mid, _) = values.select_nth_unstable_by(n / 2, f64::total_cmp);
    if n % 2 == 1 {
        *mid
    } else {
        let lower = below.iter().copied().fold(f64::MIN, f64::max);
        (lower + *mid) / 2.0
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The process's peak resident set (`VmHWM`) in megabytes.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_serve::SplitMix64;

    #[test]
    fn percentile_and_median_match_a_sorted_vector() {
        let mut rng = SplitMix64::new(7);
        for n in [1usize, 2, 3, 10, 101, 1000] {
            let values: Vec<f64> = (0..n).map(|_| (rng.next_u64() % 10_000) as f64).collect();
            let mut sorted = values.clone();
            sorted.sort_by(f64::total_cmp);
            for q in [0.0, 0.01, 0.5, 0.95, 0.99, 1.0] {
                let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
                assert_eq!(
                    percentile(&mut values.clone(), q),
                    sorted[rank - 1],
                    "q={q} n={n}"
                );
            }
            let oracle = if n % 2 == 1 {
                sorted[n / 2]
            } else {
                (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
            };
            assert_eq!(median(&mut values.clone()), oracle, "n={n}");
        }
        assert_eq!(percentile(&mut [], 0.5), 0.0);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn peak_rss_is_read() {
        assert!(peak_rss_mb() > 0.0);
    }
}
