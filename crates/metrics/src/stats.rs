//! Summary statistics for repeated measurements.
//!
//! The classroom posts one time per team per scenario; the harness runs
//! each configuration across many seeds and reports mean ± stddev, which
//! is the honest way to compare stochastic runs.

/// Summary of a sample of measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunStats {
    /// Number of measurements.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 for n < 2).
    pub stddev: f64,
    /// Smallest value.
    pub min: f64,
    /// Largest value.
    pub max: f64,
    /// Median (midpoint average for even n).
    pub median: f64,
}

impl RunStats {
    /// Summarize a non-empty sample.
    pub fn from_sample(xs: &[f64]) -> Self {
        assert!(!xs.is_empty(), "empty sample");
        assert!(
            xs.iter().all(|x| x.is_finite()),
            "sample contains non-finite values"
        );
        let n = xs.len();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        let sorted = sorted(xs);
        RunStats {
            n,
            mean,
            stddev: var.sqrt(),
            min: sorted[0],
            max: sorted[n - 1],
            median: sorted_median(&sorted),
        }
    }

    /// Coefficient of variation (stddev / mean); 0 when the mean is 0.
    pub fn cv(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.stddev / self.mean
        }
    }

    /// Approximate 95% confidence half-width for the mean
    /// (1.96 σ / √n — fine for the n ≥ 30 the harness uses).
    pub fn ci95_half_width(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        1.96 * self.stddev / (self.n as f64).sqrt()
    }

    /// `"12.3 ± 0.4s"`-style display.
    pub fn display_secs(&self) -> String {
        format!("{:.1} ± {:.1}s", self.mean, self.ci95_half_width())
    }
}

/// `xs` sorted ascending. The sort is stable, so values that compare
/// equal (`0.0` and `-0.0`) keep their sample order, and a median read
/// off it is the same bits however the sample is summarized.
pub(crate) fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    sorted
}

/// The median of a sorted, non-empty sample: its middle value, or the
/// midpoint of its two middle values for even n.
pub(crate) fn sorted_median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Whether two samples' 95% confidence intervals are disjoint — a cheap
/// "this difference is real" check for the harness.
pub fn clearly_different(a: &RunStats, b: &RunStats) -> bool {
    let (lo_a, hi_a) = (a.mean - a.ci95_half_width(), a.mean + a.ci95_half_width());
    let (lo_b, hi_b) = (b.mean - b.ci95_half_width(), b.mean + b.ci95_half_width());
    hi_a < lo_b || hi_b < lo_a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_statistics() {
        let s = RunStats::from_sample(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.n, 4);
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.median, 2.5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.stddev - 1.2909944487).abs() < 1e-9);
    }

    #[test]
    fn single_value() {
        let s = RunStats::from_sample(&[7.0]);
        assert_eq!(s.stddev, 0.0);
        assert_eq!(s.median, 7.0);
        assert_eq!(s.ci95_half_width(), 0.0);
    }

    #[test]
    fn odd_median() {
        let s = RunStats::from_sample(&[5.0, 1.0, 3.0]);
        assert_eq!(s.median, 3.0);
    }

    #[test]
    fn clearly_different_detects_separation() {
        let tight_low = RunStats::from_sample(&vec![10.0; 50]);
        let tight_high = RunStats::from_sample(&vec![20.0; 50]);
        assert!(clearly_different(&tight_low, &tight_high));
        let noisy = RunStats::from_sample(&[5.0, 15.0, 10.0, 8.0, 12.0]);
        assert!(!clearly_different(&noisy, &RunStats::from_sample(&[9.0, 11.0, 10.0])));
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_sample_rejected() {
        let _ = RunStats::from_sample(&[]);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn nan_rejected() {
        let _ = RunStats::from_sample(&[1.0, f64::NAN]);
    }

    #[test]
    fn display_format() {
        let s = RunStats::from_sample(&[10.0, 10.0, 10.0]);
        assert_eq!(s.display_secs(), "10.0 ± 0.0s");
        assert_eq!(s.cv(), 0.0);
    }
}
