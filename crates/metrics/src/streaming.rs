//! Statistics accumulated one observation at a time, exactly.
//!
//! A sweep merges its repetitions one by one, in repetition order. A
//! [`StreamingStats`] takes each observation as it merges: an exact
//! running sum for the mean, Welford's recurrence for the variance,
//! exact min/max, and the observation itself (8 B) for an exact median.
//! A [`push`](StreamingStats::push) is O(1) and touches no earlier
//! observation; the median sorts a copy of the sample once, when it is
//! asked for.
//!
//! Exactness contract, relied on by the sweep determinism tests:
//!
//! * `n`, `min` and `max` are exact;
//! * `mean` and `median` are bit-for-bit those of
//!   [`RunStats::from_sample`] (a left-to-right sum divided by `n`; the
//!   same stable sort and the same even-n midpoint);
//! * `stddev` is Welford's. It agrees with the two-pass computation to
//!   ~1e-9 relative but rounds differently, and it is the one every
//!   sweep reports.
//!
//! Every field is a function of the pushes in order, so pushing the same
//! observations in the same order rebuilds an accumulator bit for bit.
//! That is all a sweep checkpoint needs: it logs the merged outcomes and
//! replays them on resume.

use crate::stats::{sorted, sorted_median, RunStats};

/// One-pass accumulator producing the summary of
/// [`RunStats::from_sample`], with Welford's stddev.
#[derive(Debug, Clone)]
pub struct StreamingStats {
    sum: f64,
    /// Welford running mean (kept separately from `sum / n` because the
    /// variance recurrence needs its own rounding sequence).
    w_mean: f64,
    /// Welford sum of squared deviations.
    m2: f64,
    min: f64,
    max: f64,
    /// Every observation, in push order.
    sample: Vec<f64>,
}

impl Default for StreamingStats {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamingStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        StreamingStats {
            sum: 0.0,
            w_mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sample: Vec::new(),
        }
    }

    /// Add one observation. Panics on non-finite values, like
    /// [`RunStats::from_sample`].
    pub fn push(&mut self, x: f64) {
        assert!(x.is_finite(), "sample contains non-finite values");
        self.sample.push(x);
        self.sum += x;
        let delta = x - self.w_mean;
        self.w_mean += delta / self.sample.len() as f64;
        self.m2 += delta * (x - self.w_mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Observations seen so far.
    pub fn n(&self) -> u64 {
        self.sample.len() as u64
    }

    /// The observations, in push order.
    pub fn sample(&self) -> &[f64] {
        &self.sample
    }

    /// Running mean (bit-identical to the two-pass mean).
    pub fn mean(&self) -> f64 {
        assert!(self.n() > 0, "no observations");
        self.sum / self.n() as f64
    }

    /// Sample variance (n−1 denominator; 0 for n < 2).
    pub fn variance(&self) -> f64 {
        if self.n() < 2 {
            0.0
        } else {
            self.m2 / (self.n() - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation.
    pub fn min(&self) -> f64 {
        assert!(self.n() > 0, "no observations");
        self.min
    }

    /// Largest observation.
    pub fn max(&self) -> f64 {
        assert!(self.n() > 0, "no observations");
        self.max
    }

    /// The exact median, bit-identical to [`RunStats::from_sample`]'s.
    /// Sorts a copy of the sample: O(n log n), so call it once per
    /// summary, never per observation.
    pub fn median(&self) -> f64 {
        assert!(self.n() > 0, "no observations");
        sorted_median(&sorted(&self.sample))
    }

    /// Freeze into a [`RunStats`] summary. Panics if no observations
    /// were pushed, mirroring `from_sample`'s empty-sample panic.
    pub fn to_stats(&self) -> RunStats {
        assert!(self.n() > 0, "empty sample");
        RunStats {
            n: self.sample.len(),
            mean: self.mean(),
            stddev: self.stddev(),
            min: self.min,
            max: self.max,
            median: self.median(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo_random(n: usize) -> Vec<f64> {
        // Deterministic full-period LCG; values spread over [0, 1e4).
        let mut state: u64 = 0x2545_F491_4F6C_DD1D;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as f64 / (1u64 << 31) as f64 * 1e4
            })
            .collect()
    }

    fn fold(xs: &[f64]) -> StreamingStats {
        let mut s = StreamingStats::new();
        for &x in xs {
            s.push(x);
        }
        s
    }

    #[test]
    fn matches_from_sample_exactly_where_promised() {
        for n in [1, 2, 3, 4, 5, 6, 17, 100, 10_000] {
            let xs = pseudo_random(n);
            let exact = RunStats::from_sample(&xs);
            let got = fold(&xs).to_stats();
            assert_eq!(got.n, exact.n);
            assert_eq!(got.mean.to_bits(), exact.mean.to_bits(), "n={n}");
            assert_eq!(got.median.to_bits(), exact.median.to_bits(), "n={n}");
            assert_eq!(got.min, exact.min);
            assert_eq!(got.max, exact.max);
            let tol = 1e-9 * exact.stddev.max(1.0);
            assert!((got.stddev - exact.stddev).abs() < tol, "n={n}");
        }
    }

    #[test]
    fn median_orders_signed_zeros_like_from_sample() {
        // 0.0 and -0.0 compare equal; the stable sort keeps sample order,
        // so the middle value's sign bit matches from_sample's.
        for xs in [[0.0, -0.0, 1.0], [-0.0, 0.0, -1.0]] {
            let exact = RunStats::from_sample(&xs).median;
            assert_eq!(fold(&xs).median().to_bits(), exact.to_bits(), "{xs:?}");
        }
    }

    #[test]
    fn even_small_sample_median_matches_midpoint() {
        assert_eq!(fold(&[4.0, 1.0, 3.0, 2.0]).median(), 2.5);
        assert_eq!(fold(&[5.0, 1.0, 4.0, 2.0, 3.0]).median(), 3.0);
    }

    #[test]
    fn variance_of_constant_sample_is_zero() {
        let s = fold(&[7.5; 1000]);
        assert_eq!(s.stddev(), 0.0);
        assert_eq!(s.mean(), 7.5);
        assert_eq!(s.median(), 7.5);
    }

    #[test]
    fn sample_keeps_push_order() {
        let xs = pseudo_random(9);
        assert_eq!(fold(&xs).sample(), &xs[..]);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_rejected() {
        StreamingStats::new().push(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_to_stats_panics() {
        let _ = StreamingStats::new().to_stats();
    }
}
