//! Order statistics used for every reported number.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), because the acceptance driver computes
//! run-to-run spread with exactly that function and the two must agree.

/// Samples that must lie beyond a percentile for it to be reported: a
/// tail estimate resting on fewer is one run's luck.
pub const MIN_TAIL_SAMPLES: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[n / 2]),
        n => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// `(q1, q2, q3)` by the exclusive method: the `i`-th cut sits at rank
/// `i * (n + 1) / 4`, interpolated, clamped to the sample range. `None`
/// for fewer than two samples (Python raises there).
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Interquartile distance as a share of the median — the spread the
/// driver gates on. `None` when undefined (too few samples, zero median).
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// Nearest-rank percentile (`p` in `0..=100`): the smallest sample with
/// at least `p`% of the samples at or below it. `None` when empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let v = sorted(values);
    if v.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// Whether percentile `p` of a sample of `n` has [`MIN_TAIL_SAMPLES`]
/// samples beyond it (below it, for `p < 50`).
pub fn supported(p: f64, n: usize) -> bool {
    let tail = if p >= 50.0 { 100.0 - p } else { p };
    (n as f64 * tail / 100.0).floor() as usize >= MIN_TAIL_SAMPLES
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15, 40, 120]
        assert_eq!(
            quartiles(&[160.0, 10.0, 80.0, 20.0, 40.0]),
            Some((15.0, 40.0, 120.0))
        );
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(iqr_share(&v), Some(1.0));
        assert_eq!(iqr_share(&[5.0, 5.0, 5.0]), Some(0.0));
        assert_eq!(iqr_share(&[0.0, 0.0]), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 95.0), Some(95.0));
        assert_eq!(percentile(&v, 5.0), Some(5.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // p95 leaves 5% of the sample beyond it: 200 samples are enough,
        // 199 are not.
        assert!(supported(95.0, 200));
        assert!(!supported(95.0, 199));
        assert!(supported(5.0, 200));
        assert!(!supported(5.0, 199));
        assert!(supported(50.0, 20));
        assert!(!supported(50.0, 19));
        assert!(!supported(99.0, 999));
        assert!(supported(99.0, 1000));
    }
}
