//! The estimator: per-window statistics and the median over windows.
//!
//! A neighbour stalling one of the cluster's threads spoils the
//! window it lands in, not the result, because every timing metric is
//! the median over the windows of that window's own statistic.

/// The window an event at `t_ns` (offset from the measured launch's
/// start) falls in, or `None` during warm-up or after the last window.
pub fn window_of(t_ns: u64, warmup_ns: u64, window_ns: u64, windows: usize) -> Option<usize> {
    let k = t_ns.checked_sub(warmup_ns)? / window_ns;
    (k < windows as u64).then_some(k as usize)
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `q` of the samples at or below it. `None` when empty.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median (mean of the two middle samples when even). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Mean of what is left after dropping the `trim` smallest and the
/// `trim` largest values. Unlike the median it does not jump when the
/// values fall into two clusters of about equal size. `None` when
/// nothing is left.
pub fn trimmed_mean(values: &[f64], trim: usize) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let kept = v.get(trim..v.len().checked_sub(trim)?)?;
    (!kept.is_empty()).then(|| kept.iter().sum::<f64>() / kept.len() as f64)
}

/// First and third quartile by the exclusive method — the same values
/// Python's `statistics.quantiles(values, n=4)` returns, which is what
/// the acceptance rule for this benchmark is written in. Needs at
/// least two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |i: usize| {
        // Position i*(n+1)/4 on a 1-based axis; past the ends the
        // last segment extrapolates, as Python's does.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + delta * (v[j] - v[j - 1])
    };
    Some((at(1), at(3)))
}

/// Interquartile range as a share of the median.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_bucketing_discards_warmup_and_tail() {
        // 2 s warm-up, three 1 s windows.
        let w = |t_ms: u64| window_of(t_ms * 1_000_000, 2_000_000_000, 1_000_000_000, 3);
        assert_eq!(w(0), None);
        assert_eq!(w(1_999), None);
        assert_eq!(w(2_000), Some(0));
        assert_eq!(w(2_999), Some(0));
        assert_eq!(w(3_000), Some(1));
        assert_eq!(w(4_999), Some(2));
        assert_eq!(w(5_000), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), Some(50.0));
        assert_eq!(percentile(&v, 0.95), Some(95.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 0.95), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_windows_ignores_a_spoiled_window() {
        let clean = [21.0, 21.2, 20.9, 21.1, 21.0, 21.3, 20.8, 21.1, 21.0, 21.2];
        let mut spoiled = clean;
        spoiled[3] = 95.0;
        let a = median(&clean).unwrap();
        let b = median(&spoiled).unwrap();
        assert!((a - b).abs() < 0.1, "{a} vs {b}");
        assert_eq!(median(&[1.0, 3.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn trimmed_mean_drops_the_ends_and_averages_two_clusters() {
        assert_eq!(
            trimmed_mean(&[9.0, 1.0, 2.0, 3.0, 100.0], 1),
            Some(14.0 / 3.0)
        );
        assert_eq!(trimmed_mean(&[1.0, 2.0, 3.0], 0), Some(2.0));
        assert_eq!(trimmed_mean(&[1.0, 2.0], 1), None);
        assert_eq!(trimmed_mean(&[1.0], 1), None);
        // Two clusters, 8 against 7 and then 7 against 8: the median
        // jumps by 25 %, the trimmed mean by 2 %.
        let lows = |n| std::iter::repeat_n(0.112, n);
        let highs = |n| std::iter::repeat_n(0.140, n);
        let a: Vec<f64> = lows(8).chain(highs(7)).collect();
        let b: Vec<f64> = lows(7).chain(highs(8)).collect();
        assert_eq!((median(&a), median(&b)), (Some(0.112), Some(0.140)));
        let (ta, tb) = (trimmed_mean(&a, 2).unwrap(), trimmed_mean(&b, 2).unwrap());
        assert!((tb - ta) / ta < 0.025, "{ta} vs {tb}");
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]).unwrap();
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // ends extrapolate; two samples are the documented minimum.
        let (q1, q3) = quartiles(&[1.0, 2.0]).unwrap();
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert!(quartiles(&[1.0]).is_none());
        let share = iqr_share(&v).unwrap();
        assert!((share - 1.0).abs() < 1e-12);
    }
}
