//! Seeded random-number generation with the distributions the paper's
//! experiments use.

use crate::time::SimDuration;

/// A deterministic random-number generator for simulation runs.
///
/// A self-contained xoshiro256++ generator (seeded through SplitMix64,
/// as its authors recommend) offering the paper's distributions:
/// exponential inter-arrival times (error and call arrivals), uniform
/// placement (bit flips in the database image), integer ranges, and
/// weighted choice (proportional error placement, prioritized tables).
/// Being dependency-free keeps campaign streams bit-identical across
/// toolchains and builds.
///
/// # Example
///
/// ```
/// use wtnc_sim::SimRng;
///
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// assert_eq!(a.range_u64(0, 1_000), b.range_u64(0, 1_000));
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    state: [u64; 4],
}

/// One SplitMix64 step: seeds the xoshiro state without the
/// correlated-low-bit pitfalls of using the raw seed directly.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed. Equal seeds yield equal
    /// streams, which is what makes campaign runs reproducible.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        SimRng {
            state: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// The xoshiro256++ core step.
    fn next_u64(&mut self) -> u64 {
        let result =
            self.state[0].wrapping_add(self.state[3]).rotate_left(23).wrapping_add(self.state[0]);
        let t = self.state[1] << 17;
        self.state[2] ^= self.state[0];
        self.state[3] ^= self.state[1];
        self.state[1] ^= self.state[2];
        self.state[0] ^= self.state[3];
        self.state[2] ^= t;
        self.state[3] = self.state[3].rotate_left(45);
        result
    }

    /// A uniform `u64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        let span = hi - lo;
        // Rejection-sample away the modulo bias; with a 64-bit draw the
        // expected number of retries is below 2 for every span.
        let zone = u64::MAX - u64::MAX % span;
        loop {
            let draw = self.next_u64();
            if draw < zone {
                return lo + draw % span;
            }
        }
    }

    /// A uniform `usize` in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot draw an index from an empty collection");
        self.range_u64(0, n as u64) as usize
    }

    /// A uniform `f64` in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A Bernoulli trial with success probability `p` (clamped to
    /// `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p.clamp(0.0, 1.0)
    }

    /// An exponentially distributed duration with the given mean.
    ///
    /// This is the paper's error/call inter-arrival process. A zero mean
    /// yields a zero duration.
    pub fn exponential(&mut self, mean: SimDuration) -> SimDuration {
        if mean.is_zero() {
            return SimDuration::ZERO;
        }
        // Inverse-CDF sampling; clamp u away from 0 so ln is finite.
        let u = self.unit().max(1e-12);
        SimDuration::from_secs_f64(-mean.as_secs_f64() * u.ln())
    }

    /// A uniform duration in `[lo, hi]` (inclusive of both ends at
    /// microsecond resolution).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn uniform_duration(&mut self, lo: SimDuration, hi: SimDuration) -> SimDuration {
        assert!(lo <= hi, "inverted duration range");
        if lo == hi {
            return lo;
        }
        SimDuration::from_micros(self.range_u64(lo.as_micros(), hi.as_micros() + 1))
    }

    /// Picks an index in `[0, weights.len())` with probability
    /// proportional to `weights[i]`. Non-finite or negative weights are
    /// treated as zero; if every weight is zero the choice is uniform.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        assert!(!weights.is_empty(), "weighted choice over empty slice");
        let clean: Vec<f64> =
            weights.iter().map(|&w| if w.is_finite() && w > 0.0 { w } else { 0.0 }).collect();
        let total: f64 = clean.iter().sum();
        if total <= 0.0 {
            return self.index(weights.len());
        }
        let mut target = self.unit() * total;
        for (i, w) in clean.iter().enumerate() {
            if target < *w {
                return i;
            }
            target -= w;
        }
        weights.len() - 1
    }

    /// A raw 64-bit draw, for callers that need bits (e.g. picking which
    /// bit of an instruction word to flip).
    pub fn bits(&mut self) -> u64 {
        self.next_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.bits(), b.bits());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let same = (0..64).filter(|_| a.bits() == b.bits()).count();
        assert!(same < 4, "streams should be effectively independent");
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = SimRng::seed_from(11);
        let mean = SimDuration::from_secs(20);
        let n = 20_000;
        let total: f64 = (0..n).map(|_| rng.exponential(mean).as_secs_f64()).sum();
        let observed = total / n as f64;
        assert!((observed - 20.0).abs() < 0.5, "observed mean {observed} too far from 20");
    }

    #[test]
    fn exponential_zero_mean_is_zero() {
        let mut rng = SimRng::seed_from(5);
        assert_eq!(rng.exponential(SimDuration::ZERO), SimDuration::ZERO);
    }

    #[test]
    fn uniform_duration_bounds() {
        let mut rng = SimRng::seed_from(9);
        let lo = SimDuration::from_secs(20);
        let hi = SimDuration::from_secs(30);
        for _ in 0..1_000 {
            let d = rng.uniform_duration(lo, hi);
            assert!(d >= lo && d <= hi);
        }
        assert_eq!(rng.uniform_duration(lo, lo), lo);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from(4);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-3.0));
        assert!(rng.chance(7.0));
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = SimRng::seed_from(13);
        let weights = [1.0, 0.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..10_000 {
            counts[rng.weighted_index(&weights)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((2.4..3.6).contains(&ratio), "ratio {ratio} not ~3");
    }

    #[test]
    fn weighted_index_all_zero_is_uniform() {
        let mut rng = SimRng::seed_from(17);
        let weights = [0.0, 0.0];
        let mut seen = [false; 2];
        for _ in 0..64 {
            seen[rng.weighted_index(&weights)] = true;
        }
        assert!(seen[0] && seen[1]);
    }

    #[test]
    fn weighted_index_ignores_nan_and_negative() {
        let mut rng = SimRng::seed_from(23);
        let weights = [f64::NAN, -5.0, 2.0];
        for _ in 0..100 {
            assert_eq!(rng.weighted_index(&weights), 2);
        }
    }

    #[test]
    fn range_and_index_stay_in_bounds() {
        let mut rng = SimRng::seed_from(29);
        for _ in 0..1_000 {
            let v = rng.range_u64(10, 20);
            assert!((10..20).contains(&v));
            assert!(rng.index(5) < 5);
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        SimRng::seed_from(0).range_u64(5, 5);
    }
}
