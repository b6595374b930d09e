//! Order statistics the benchmark reports: medians, quartiles, and the
//! relative spread `--repeat` judges bounds with.

/// `numerator / denominator`, or `0.0` when there is nothing to divide
/// by — a layer a workload does not exercise reports zero, not NaN.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolated percentile (`p` in `0..=100`) of `values`; `0.0`
/// for an empty slice so a workload without samples still prints.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    let Some(&last) = v.last() else { return 0.0 };
    let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let frac = rank - lo as f64;
    if lo + 1 >= v.len() {
        last
    } else {
        v[lo] + (v[lo + 1] - v[lo]) * frac
    }
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Lower quartile of `values` — the statistic the end-to-end timings
/// report (see `metrics.rs` for why not the median).
pub fn lower_quartile(values: &[f64]) -> f64 {
    percentile(values, 25.0)
}

/// First and third quartile by the *exclusive* method — the one
/// Python's `statistics.quantiles(values, n=4)` uses, so `--repeat`
/// computes the spread the same way the benchmark's driver does.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    let at = |k: usize| {
        // Position k·(n+1)/4 in 1-based ranks, clamped to the sample.
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(1), at(3))
}

/// Run-to-run spread of one metric as a share of its median: the
/// interquartile range for four or more sets, the full range below
/// that (quartiles of two or three values say nothing).
pub fn relative_spread(values: &[f64]) -> f64 {
    let mid = median(values);
    if values.len() < 2 || mid == 0.0 {
        return 0.0;
    }
    let width = if values.len() >= 4 {
        let (q1, q3) = quartiles(values);
        q3 - q1
    } else {
        let v = sorted(values);
        v[v.len() - 1] - v[0]
    };
    width / mid.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(lower_quartile(&v), 1.75);
        assert!((percentile(&v, 90.0) - 3.7).abs() < 1e-12);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(6.0, 4.0), 1.5);
        assert_eq!(ratio(6.0, 0.0), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        let (q1, q3) = quartiles(&[8.0, 1.0, 4.0, 2.0]);
        assert!((q1 - 1.25).abs() < 1e-12 && (q3 - 7.0).abs() < 1e-12);
    }

    #[test]
    fn spread_is_iqr_over_median_or_range_for_small_sets() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert!((relative_spread(&[10.0, 11.0]) - 1.0 / 10.5).abs() < 1e-12);
        assert_eq!(relative_spread(&[3.0]), 0.0);
        assert_eq!(relative_spread(&[5.0, 5.0, 5.0, 5.0]), 0.0);
    }
}
