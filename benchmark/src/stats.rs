//! Order statistics and the replay noise model.
//!
//! A shared 2-vCPU box moves a single timed run by 2x, so no time metric
//! here comes from one run: every workload is replayed several times on
//! fresh state with identical inputs, and for tick index `i` the series
//! used is `t*_i = min over replays` ([`pointwise_min`]). Percentiles and
//! sums are then taken over `t*`. The minimum is a valid estimator only
//! because the replays do identical work, which the caller proves by
//! comparing per-tick fingerprints before calling in here.

/// The `p`-th percentile (0..=100) of `values` by linear interpolation
/// between closest ranks — the same rule as numpy's default and as
/// `statistics.quantiles(..., method="inclusive")`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty series");
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The highest of p99/p95/p90 that still has at least ten samples beyond
/// it in a series of `n` samples, or `None` when only the median is
/// supported (the choosing-metrics rule: "the highest percentile that has
/// at least ten samples beyond it").
pub fn highest_supported_percentile(n: usize) -> Option<u32> {
    [99u32, 95, 90]
        .into_iter()
        .find(|p| n * (100 - *p as usize) >= 10 * 100)
}

/// Element-wise minimum over equally long series. A ragged input is an
/// error, not a truncation: replays of different length did different
/// work, and a minimum across them would be meaningless.
pub fn pointwise_min(series: &[&[u64]]) -> Result<Vec<u64>, String> {
    let Some(first) = series.first() else {
        return Err("pointwise_min: no series".into());
    };
    if let Some((i, bad)) = series
        .iter()
        .enumerate()
        .find(|(_, s)| s.len() != first.len())
    {
        return Err(format!(
            "pointwise_min: series {i} has {} samples, series 0 has {}",
            bad.len(),
            first.len()
        ));
    }
    let mut out = first.to_vec();
    for s in &series[1..] {
        for (m, v) in out.iter_mut().zip(*s) {
            *m = (*m).min(*v);
        }
    }
    Ok(out)
}

/// Nanosecond series → microsecond floats.
pub fn as_us(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|v| *v as f64 / 1e3).collect()
}

/// Sum of a nanosecond series in seconds.
pub fn sum_s(ns: &[u64]) -> f64 {
    ns.iter().sum::<u64>() as f64 / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [40.0, 10.0, 30.0, 20.0];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 40.0);
        assert_eq!(median(&v), 25.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
    }

    #[test]
    fn sample_count_rule() {
        // Ten samples beyond p95 need 200, beyond p99 need 1000.
        assert_eq!(highest_supported_percentile(50), None);
        assert_eq!(highest_supported_percentile(100), Some(90));
        assert_eq!(highest_supported_percentile(199), Some(90));
        assert_eq!(highest_supported_percentile(200), Some(95));
        assert_eq!(highest_supported_percentile(999), Some(95));
        assert_eq!(highest_supported_percentile(1000), Some(99));
    }

    #[test]
    fn pointwise_min_equal_series() {
        let got = pointwise_min(&[&[5, 2, 9], &[4, 3, 9], &[6, 1, 10]]).unwrap();
        assert_eq!(got, vec![4, 1, 9]);
        assert_eq!(pointwise_min(&[&[3, 1]]).unwrap(), vec![3, 1]);
    }

    #[test]
    fn pointwise_min_ragged_is_an_error() {
        let err = pointwise_min(&[&[1, 2, 3], &[1, 2]]).unwrap_err();
        assert!(err.contains("series 1 has 2 samples"), "{err}");
        assert!(pointwise_min(&[]).is_err());
    }
}
