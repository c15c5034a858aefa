//! Summary statistics for experiment reporting.
//!
//! The paper reports means (call setup time, detection latency),
//! percentages with binomial 95% confidence intervals (Tables 8 and 9),
//! and per-category breakdowns. These helpers compute exactly those.

/// Streaming mean/variance accumulator (Welford's algorithm).
///
/// # Example
///
/// ```
/// use wtnc_sim::stats::Accumulator;
///
/// let mut acc = Accumulator::new();
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     acc.push(x);
/// }
/// assert_eq!(acc.mean(), 2.5);
/// assert_eq!(acc.count(), 4);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Accumulator {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Accumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Accumulator { n: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample variance (0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Smallest observation (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &Accumulator) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + delta * delta * self.n as f64 * other.n as f64 / n as f64;
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A proportion `successes / trials` with its binomial 95% confidence
/// interval, as reported in the paper's Tables 8 and 9.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Proportion {
    /// Number of successes.
    pub successes: u64,
    /// Number of trials.
    pub trials: u64,
}

impl Proportion {
    /// Builds a proportion.
    ///
    /// # Panics
    ///
    /// Panics if `successes > trials`.
    pub fn new(successes: u64, trials: u64) -> Self {
        assert!(successes <= trials, "more successes than trials");
        Proportion { successes, trials }
    }

    /// The point estimate in `[0, 1]` (0 when there are no trials).
    pub fn estimate(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.successes as f64 / self.trials as f64
        }
    }

    /// The point estimate as a percentage.
    pub fn percent(&self) -> f64 {
        self.estimate() * 100.0
    }

    /// Normal-approximation binomial 95% confidence interval, clamped
    /// to `[0, 1]` — the paper's stated method ("confidence intervals
    /// are calculated assuming a binomial distribution").
    pub fn ci95(&self) -> (f64, f64) {
        if self.trials == 0 {
            return (0.0, 0.0);
        }
        let p = self.estimate();
        let half = 1.96 * (p * (1.0 - p) / self.trials as f64).sqrt();
        ((p - half).max(0.0), (p + half).min(1.0))
    }

    /// The 95% CI as percentages, rounded for table display.
    pub fn ci95_percent(&self) -> (f64, f64) {
        let (lo, hi) = self.ci95();
        (lo * 100.0, hi * 100.0)
    }
}

/// A value histogram used by selective attribute monitoring: counts of
/// how often each distinct value has been observed.
#[derive(Debug, Clone, Default)]
pub struct ValueHistogram {
    counts: std::collections::BTreeMap<u64, u64>,
    total: u64,
}

impl ValueHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation of `value`.
    pub fn observe(&mut self, value: u64) {
        *self.counts.entry(value).or_insert(0) += 1;
        self.total += 1;
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of distinct values seen.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Occurrences of `value`.
    pub fn count(&self, value: u64) -> u64 {
        self.counts.get(&value).copied().unwrap_or(0)
    }

    /// Mean occurrences per distinct value (0 when empty).
    pub fn mean_occurrences(&self) -> f64 {
        if self.counts.is_empty() {
            0.0
        } else {
            self.total as f64 / self.counts.len() as f64
        }
    }

    /// Values whose observed frequency falls below
    /// `fraction * mean_occurrences()` — the paper's "suspect" rule for
    /// selective monitoring (§4.4.2).
    pub fn suspects(&self, fraction: f64) -> Vec<u64> {
        let threshold = self.mean_occurrences() * fraction;
        self.counts.iter().filter(|(_, &c)| (c as f64) < threshold).map(|(&v, _)| v).collect()
    }

    /// Iterates over `(value, count)` pairs in ascending value order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts.iter().map(|(&v, &c)| (v, c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulator_mean_and_variance() {
        let mut acc = Accumulator::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            acc.push(x);
        }
        assert!((acc.mean() - 5.0).abs() < 1e-12);
        assert!((acc.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(acc.min(), Some(2.0));
        assert_eq!(acc.max(), Some(9.0));
    }

    #[test]
    fn accumulator_empty_is_zero() {
        let acc = Accumulator::new();
        assert_eq!(acc.mean(), 0.0);
        assert_eq!(acc.variance(), 0.0);
        assert_eq!(acc.min(), None);
    }

    #[test]
    fn accumulator_merge_matches_sequential() {
        let xs: Vec<f64> = (0..50).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = Accumulator::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut left = Accumulator::new();
        let mut right = Accumulator::new();
        for &x in &xs[..20] {
            left.push(x);
        }
        for &x in &xs[20..] {
            right.push(x);
        }
        left.merge(&right);
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(left.count(), whole.count());
    }

    #[test]
    fn proportion_ci_matches_paper_style() {
        // Paper Table 8: 52% (47, 58) on ~777 runs-ish categories; check
        // a representative binomial CI.
        let p = Proportion::new(404, 777);
        let (lo, hi) = p.ci95_percent();
        assert!((p.percent() - 52.0).abs() < 1.0);
        assert!(lo > 46.0 && lo < 49.5);
        assert!(hi > 54.5 && hi < 56.0);
    }

    #[test]
    fn proportion_edge_cases() {
        assert_eq!(Proportion::new(0, 0).estimate(), 0.0);
        assert_eq!(Proportion::new(0, 0).ci95(), (0.0, 0.0));
        let all = Proportion::new(10, 10);
        let (lo, hi) = all.ci95();
        assert_eq!(hi, 1.0);
        assert!(lo <= 1.0);
    }

    #[test]
    #[should_panic(expected = "more successes")]
    fn proportion_rejects_invalid() {
        let _ = Proportion::new(3, 2);
    }

    #[test]
    fn histogram_suspects_rule() {
        let mut h = ValueHistogram::new();
        for _ in 0..50 {
            h.observe(1);
        }
        for _ in 0..48 {
            h.observe(2);
        }
        h.observe(999); // rare value: suspect
        assert_eq!(h.total(), 99);
        assert_eq!(h.distinct(), 3);
        // mean occurrences = 33; threshold at 0.5 => 16.5; only 999 is below.
        assert_eq!(h.suspects(0.5), vec![999]);
        // a very low fraction flags nothing
        assert!(h.suspects(0.01).is_empty());
    }

    #[test]
    fn histogram_empty() {
        let h = ValueHistogram::new();
        assert_eq!(h.mean_occurrences(), 0.0);
        assert!(h.suspects(0.5).is_empty());
        assert_eq!(h.count(7), 0);
    }
}
