//! Order statistics for latency samples.
//!
//! A failed frame has no latency; it enters the sample set as `+inf`, so
//! it counts as missing every latency limit and pushes the upper
//! percentiles up instead of silently disappearing.

/// Minimum number of samples that must lie strictly beyond a reported
/// percentile, so the tail figure rests on more than a handful of frames.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `samples` (`p` in `(0, 100]`), or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond its rank. Samples
/// may include `f64::INFINITY` (failed frames); NaN is not allowed.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p <= 100.0, "percentile must be in (0, 100]");
    assert!(samples.iter().all(|v| !v.is_nan()), "latency samples must not be NaN");
    let n = samples.len();
    if n == 0 || beyond(n, p) < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    Some(sorted[rank(n, p) - 1])
}

/// Nearest rank (1-based) of percentile `p` among `n` samples: the
/// smallest rank with at least p% of samples at or below it. The small
/// offset keeps 90% of 100 at rank 90 despite float rounding.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 - 1e-9) / 100.0).ceil().max(1.0) as usize
}

/// Samples lying strictly beyond percentile `p`'s rank among `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// Smallest sample count for which [`percentile`] can report `p`.
pub fn min_samples(p: f64) -> usize {
    (1..).find(|&n| percentile(&vec![0.0; n], p).is_some()).expect("finite")
}

/// Median of finite values (mean of the middle pair for even counts);
/// `None` for an empty set.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let n = v.len();
    Some(if n % 2 == 1 { v[n / 2] } else { (v[n / 2 - 1] + v[n / 2]) / 2.0 })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_on_a_ramp() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        let v = ramp(200);
        assert_eq!(percentile(&v, 90.0), Some(180.0));
        assert_eq!(percentile(&v, 50.0), Some(100.0));
    }

    #[test]
    fn order_of_input_does_not_matter() {
        let mut v = ramp(150);
        v.reverse();
        assert_eq!(percentile(&v, 90.0), percentile(&ramp(150), 90.0));
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        assert_eq!(min_samples(90.0), 100);
        assert!(percentile(&ramp(99), 90.0).is_none());
        assert!(percentile(&ramp(100), 90.0).is_some());
        assert_eq!(min_samples(50.0), 20);
        assert!(percentile(&ramp(19), 50.0).is_none());
        assert!(percentile(&[], 50.0).is_none());
    }

    #[test]
    fn failures_count_as_infinite_latency() {
        // 95 good frames + 5 failures: the failures sit above p90.
        let mut v = ramp(95);
        v.extend([f64::INFINITY; 5]);
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        // 11 failures in 100: p90 itself is a failure.
        let mut v = ramp(89);
        v.extend([f64::INFINITY; 11]);
        assert_eq!(percentile(&v, 90.0), Some(f64::INFINITY));
        assert_eq!(percentile(&v, 50.0), Some(50.0));
    }

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
