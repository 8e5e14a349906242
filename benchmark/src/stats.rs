//! Order statistics: medians and quartiles of rep timings, and the
//! percentile rule for virtual-time op latencies.

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile, by the rule of Python's
/// `statistics.quantiles(values, n=4)` (exclusive method), which is what
/// the acceptance runs of this benchmark are judged with. Positions past
/// either end are clamped to the extreme values, not extrapolated (this
/// only differs from Python for two values).
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return (v[0], v[0]);
    }
    let q = |i: usize| {
        // Position i*(n+1)/4, 1-based, linearly interpolated and clamped.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        let delta = delta.clamp(0.0, 1.0);
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (q(1), q(3))
}

/// A percentile in hundredths of a percent (`9990` is p99.9), so that
/// ranks are computed in integers and never round the wrong way.
pub type BasisPoints = u32;

pub const P50: BasisPoints = 5000;
pub const P99: BasisPoints = 9900;

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least that share of the samples at or below it.
pub fn percentile_sorted(sorted: &[u64], pct: BasisPoints) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), pct) - 1]
}

fn rank(n: usize, pct: BasisPoints) -> usize {
    (n * pct as usize).div_ceil(10_000).clamp(1, n)
}

/// The tail percentiles a latency report may quote, ascending.
pub const TAIL_PERCENTILES: [BasisPoints; 5] = [9000, 9500, 9900, 9990, 9999];

/// The highest of [`TAIL_PERCENTILES`] that still has at least ten samples
/// beyond it, or `None` when even p90 has fewer (under 100 samples). A
/// percentile with fewer than ten samples above it is decided by a handful
/// of outliers and does not repeat.
pub fn highest_supported_percentile(n: usize) -> Option<BasisPoints> {
    TAIL_PERCENTILES
        .iter()
        .copied()
        .rfind(|&p| n >= rank(n, p) + 10)
}

/// `9990` -> `"p99.9"`.
pub fn percentile_label(pct: BasisPoints) -> String {
    let s = format!("{:.2}", pct as f64 / 100.0);
    format!("p{}", s.trim_end_matches('0').trim_end_matches('.'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let (q1, q3) = quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 4.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3, 4, 5, 6], n=4) == [1.75, 3.5, 5.25]
        let v: Vec<f64> = (1..=6).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 1.75).abs() < 1e-12 && (q3 - 5.25).abs() < 1e-12);
        // Python extrapolates past two values ([0.75, 1.5, 2.25]); here
        // they are reported as themselves.
        assert_eq!(quartiles(&[1.0, 2.0]), (1.0, 2.0));
        assert_eq!(quartiles(&[9.0]), (9.0, 9.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile_sorted(&v, P50), 500);
        assert_eq!(percentile_sorted(&v, P99), 990);
        assert_eq!(percentile_sorted(&v, 10_000), 1000);
        assert_eq!(percentile_sorted(&[42], P99), 42);
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // p99 of 1000 samples is the 990th: exactly ten lie beyond it.
        assert_eq!(highest_supported_percentile(1000), Some(9900));
        assert_eq!(highest_supported_percentile(999), Some(9500));
        assert_eq!(highest_supported_percentile(10_000), Some(9990));
        assert_eq!(highest_supported_percentile(100_000), Some(9999));
        assert_eq!(highest_supported_percentile(100), Some(9000));
        assert_eq!(highest_supported_percentile(99), None);
        assert_eq!(percentile_label(9990), "p99.9");
        assert_eq!(percentile_label(P50), "p50");
    }
}
