//! Small-sample statistics the benchmark reports with: gated
//! percentiles, medians over windows, quartile spreads and
//! zero-safe ratios.

/// The percentile ladder reports climb; a rung is used only when at
/// least [`SAMPLES_BEYOND`] samples lie beyond it.
pub const LADDER: [f64; 6] = [0.50, 0.75, 0.90, 0.95, 0.99, 0.999];

/// A percentile is reported only with this many samples beyond it, so a
/// tail number is never one or two outliers.
pub const SAMPLES_BEYOND: usize = 10;

/// `num / den`, or 0 when the denominator is 0 — a workload that never
/// commits to the WAL reports `bytes_per_commit` as 0, not NaN.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Sorts in place by total order.
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Nearest-rank percentile of sorted data (0 when empty).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank `q` percentile of `n`.
fn beyond(n: usize, q: f64) -> usize {
    n.saturating_sub(((q * n as f64).ceil() as usize).max(1))
}

/// The highest ladder rung not above `want` that still has
/// [`SAMPLES_BEYOND`] samples beyond it; the median when none has.
pub fn supported_quantile(n: usize, want: f64) -> f64 {
    LADDER
        .iter()
        .copied()
        .filter(|&q| q <= want && beyond(n, q) >= SAMPLES_BEYOND)
        .fold(0.50, f64::max)
}

/// `want`-th percentile of sorted data, stepped down the ladder until
/// ten samples lie beyond it.
pub fn gated_percentile(sorted: &[f64], want: f64) -> f64 {
    percentile(sorted, supported_quantile(sorted.len(), want))
}

/// Median (mean of the middle pair for even counts; 0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    sort(&mut v);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) gives them — the acceptance driver computes its
/// spreads that way, so ours must agree. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    sort(&mut v);
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median (0 with fewer than
/// two values or a zero median).
pub fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some((q1, q3)) => ratio(q3 - q1, median(values).abs()),
        None => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_survives_zero_denominators() {
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(0.0, 0.0), 0.0);
        assert_eq!(ratio(6.0, 3.0), 2.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 0.999), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn ten_samples_beyond_rule_picks_the_rung() {
        // 199 samples: p95 leaves 9 beyond, p90 leaves 19.
        assert_eq!(supported_quantile(199, 0.95), 0.90);
        // 200 samples: p95 leaves exactly 10.
        assert_eq!(supported_quantile(200, 0.95), 0.95);
        // Asking for p999 on 5000 samples: p999 leaves 5, p99 leaves 50.
        assert_eq!(supported_quantile(5_000, 0.999), 0.99);
        assert_eq!(supported_quantile(10_000, 0.999), 0.999);
        // Too few for any tail: the median is all there is.
        assert_eq!(supported_quantile(12, 0.95), 0.50);
        assert_eq!(supported_quantile(0, 0.95), 0.50);
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(gated_percentile(&v, 0.95), 30.0);
    }

    #[test]
    fn window_median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[6.0, 1.0, 5.0, 2.0, 4.0, 3.0]), 3.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5, 6], n=4) == [1.75, 3.5, 5.25]
        let v: Vec<f64> = (1..=6).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((1.75, 5.25)));
        assert_eq!(spread(&v), 1.0);
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), 0.0);
    }
}
