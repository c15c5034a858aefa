//! Timing statistics: medians and sample-count-aware percentiles.

/// Median of `values` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean of the middle half of `values`: the samples left after
/// dropping the lowest and the highest quarter (rounded down).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let cut = v.len() / 4;
    let middle = &v[cut..v.len() - cut];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// `n`, min, median and max of a sample list, for the notes.
pub fn spread_note(v: &[f64]) -> String {
    if v.is_empty() {
        return "no samples".to_owned();
    }
    let min = v.iter().copied().fold(f64::INFINITY, f64::min);
    let max = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    format!("n {} min {min:.3} median {:.3} max {max:.3}", v.len(), median(v))
}

/// A nearest-rank percentile with the sample counts behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly above the percentile's rank.
    pub beyond: usize,
}

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The `p`-th percentile (0 < p ≤ 100) of `values` by nearest rank.
/// Refuses (returns `Err` naming the shortfall) when fewer than
/// [`MIN_BEYOND`] samples lie beyond it, so a tail figure is never
/// read off a handful of points.
pub fn percentile(values: &[f64], p: f64) -> Result<Percentile, String> {
    assert!(p > 0.0 && p <= 100.0, "percentile out of range: {p}");
    let n = values.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let beyond = n.saturating_sub(rank.max(1));
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{p} over {n} samples leaves {beyond} beyond it; at least {MIN_BEYOND} needed"
        ));
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    Ok(Percentile { value: v[rank - 1], samples: n, beyond })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn interquartile_mean_drops_each_outer_quarter() {
        assert_eq!(interquartile_mean(&[100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -50.0]), 3.5);
        assert_eq!(interquartile_mean(&[7.0, 1.0, 4.0]), 4.0);
        assert_eq!(interquartile_mean(&[2.0]), 2.0);
    }

    #[test]
    fn percentile_uses_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let p50 = percentile(&v, 50.0).unwrap();
        assert_eq!((p50.value, p50.samples, p50.beyond), (50.0, 100, 50));
        let p90 = percentile(&v, 90.0).unwrap();
        assert_eq!((p90.value, p90.beyond), (90.0, 10));
    }

    #[test]
    fn percentile_refuses_a_thin_tail() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // p99 of 100 samples has one sample beyond it.
        assert!(percentile(&v, 99.0).is_err());
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = percentile(&v, 99.0).unwrap();
        assert_eq!((p99.value, p99.beyond), (990.0, 10));
        assert!(percentile(&[], 50.0).is_err());
        assert!(percentile(&[1.0; 19], 50.0).is_err(), "9 beyond the median of 19");
    }
}
