//! Percentiles and the sample-count rule behind them.

/// Timed ops every run must reach before `host_us_p99` is computed. A
/// percentile with fewer than ten samples beyond it is set by a handful
/// of outliers and does not repeat; this floor leaves fifty.
pub const MIN_P99_SAMPLES: usize = 5_000;

/// How many of `n` samples lie strictly beyond percentile `p` (0..1).
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// 1-based nearest-rank position of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending slice. Panics on an empty
/// slice: every caller has already checked its sample count.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// Sort ascending in place (samples are finite by construction).
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
}

/// Median of `values` (mean of the middle pair for even counts); 0 when
/// empty.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    sort(values);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when the denominator is 0 (a layer the workload
/// never exercised reports 0, not NaN).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn sample_count_rule() {
        // Ten samples beyond p99 take a thousand samples.
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert_eq!(samples_beyond(20, 0.5), 10);
        // The harness floor leaves fifty beyond.
        assert_eq!(samples_beyond(MIN_P99_SAMPLES, 0.99), 50);
    }

    #[test]
    fn median_mean_ratio() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
