//! Property tests for the metrics crate: statistical identities that must
//! hold for arbitrary inputs.

use flagsim_metrics::inference::{mcnemar, normal_cdf, two_proportion_z};
use flagsim_metrics::{
    amdahl_speedup, efficiency, gustafson_speedup, karp_flatt, median, speedup, RunStats,
    StreamingStats, TransitionMatrix,
};
use proptest::prelude::*;

proptest! {
    /// Speedup/efficiency identities.
    #[test]
    fn speedup_identities(t1 in 0.001f64..1e6, tp in 0.001f64..1e6, p in 1usize..64) {
        let s = speedup(t1, tp);
        prop_assert!(s > 0.0);
        prop_assert!((efficiency(t1, tp, p) - s / p as f64).abs() < 1e-12);
        // Speedup of a run against itself is 1.
        prop_assert!((speedup(t1, t1) - 1.0).abs() < 1e-12);
    }

    /// Amdahl ≤ Gustafson, both within [1, p], monotone in p.
    #[test]
    fn amdahl_gustafson_bounds(serial in 0.0f64..=1.0, p in 1usize..128) {
        let a = amdahl_speedup(serial, p);
        let g = gustafson_speedup(serial, p);
        prop_assert!(a >= 1.0 - 1e-12 && a <= p as f64 + 1e-12);
        prop_assert!(g >= 1.0 - 1e-12 && g <= p as f64 + 1e-12);
        prop_assert!(g >= a - 1e-9, "gustafson {g} < amdahl {a}");
        if p > 1 {
            prop_assert!(amdahl_speedup(serial, p) >= amdahl_speedup(serial, p - 1) - 1e-12);
        }
    }

    /// Karp–Flatt inverts Amdahl for any serial fraction.
    #[test]
    fn karp_flatt_inverts_amdahl(serial in 0.0f64..=1.0, p in 2usize..64) {
        let s = amdahl_speedup(serial, p);
        prop_assert!((karp_flatt(s, p) - serial).abs() < 1e-9);
    }

    /// The Likert median lies between min and max and is order-invariant.
    #[test]
    fn median_properties(mut responses in proptest::collection::vec(1u8..=5, 1..60)) {
        let m = median(&responses).unwrap();
        let lo = *responses.iter().min().unwrap() as f64;
        let hi = *responses.iter().max().unwrap() as f64;
        prop_assert!(m >= lo && m <= hi);
        responses.reverse();
        prop_assert_eq!(median(&responses), Some(m));
    }

    /// RunStats invariants: min ≤ median ≤ max, mean within [min, max].
    #[test]
    fn runstats_invariants(xs in proptest::collection::vec(0.0f64..1e6, 1..80)) {
        let s = RunStats::from_sample(&xs);
        prop_assert!(s.min <= s.median && s.median <= s.max);
        prop_assert!(s.mean >= s.min - 1e-9 && s.mean <= s.max + 1e-9);
        prop_assert!(s.stddev >= 0.0);
        prop_assert!(s.ci95_half_width() >= 0.0);
    }

    /// Streaming statistics match the batch `RunStats::from_sample` on
    /// arbitrary samples: n/min/max exactly, the mean and the median bit
    /// for bit at every n (a left fold divided by n; the same stable
    /// sort and even-n midpoint), and the stddev to 1e-9 relative
    /// (Welford vs two-pass round differently).
    #[test]
    fn streaming_matches_from_sample(xs in proptest::collection::vec(0.0f64..1e6, 1..300)) {
        let exact = RunStats::from_sample(&xs);
        let mut acc = StreamingStats::new();
        for &x in &xs {
            acc.push(x);
        }
        let got = acc.to_stats();
        prop_assert_eq!(got.n, exact.n);
        prop_assert_eq!(got.mean.to_bits(), exact.mean.to_bits(), "mean not bit-identical");
        prop_assert_eq!(got.median.to_bits(), exact.median.to_bits(), "median not bit-identical");
        prop_assert_eq!(got.min, exact.min);
        prop_assert_eq!(got.max, exact.max);
        let tol = 1e-9 * exact.stddev.max(1.0);
        prop_assert!((got.stddev - exact.stddev).abs() <= tol,
                     "stddev {} vs {}", got.stddev, exact.stddev);
    }

    /// Transition percentages always total 100 for nonempty cohorts, and
    /// net gain equals gained% − lost%.
    #[test]
    fn transition_identities(r in 0usize..100, g in 0usize..100,
                             l in 0usize..100, s in 0usize..100) {
        prop_assume!(r + g + l + s > 0);
        let m = TransitionMatrix::from_counts(r, g, l, s);
        let total = m.retained_pct() + m.gained_pct() + m.lost_pct() + m.stayed_incorrect_pct();
        prop_assert!((total - 100.0).abs() < 1e-9);
        prop_assert!((m.net_gain_pp() - (m.gained_pct() - m.lost_pct())).abs() < 1e-9);
    }

    /// McNemar: p in [0, 1], symmetric in gained/lost, and more discordant
    /// imbalance ⇒ smaller p.
    #[test]
    fn mcnemar_properties(r in 0usize..50, g in 0usize..80, l in 0usize..80, s in 0usize..50) {
        let m = TransitionMatrix::from_counts(r, g, l, s);
        let swapped = TransitionMatrix::from_counts(r, l, g, s);
        match (mcnemar(&m), mcnemar(&swapped)) {
            (Some(a), Some(b)) => {
                prop_assert!((0.0..=1.0).contains(&a.p_value));
                prop_assert!((a.p_value - b.p_value).abs() < 1e-12, "not symmetric");
            }
            (None, None) => prop_assert_eq!(g + l, 0),
            _ => prop_assert!(false, "symmetry of existence violated"),
        }
    }

    /// Normal CDF is monotone and symmetric around 0.5.
    #[test]
    fn normal_cdf_properties(z in -6.0f64..6.0) {
        let p = normal_cdf(z);
        prop_assert!((0.0..=1.0).contains(&p));
        prop_assert!((normal_cdf(-z) - (1.0 - p)).abs() < 1e-6);
        prop_assert!(normal_cdf(z + 0.1) >= p - 1e-9);
    }

    /// Two-proportion z: symmetric sign flip when swapping the samples.
    #[test]
    fn two_prop_symmetry(x1 in 0usize..50, n1 in 1usize..50,
                         x2 in 0usize..50, n2 in 1usize..50) {
        let x1 = x1.min(n1);
        let x2 = x2.min(n2);
        if let (Some(a), Some(b)) =
            (two_proportion_z(x1, n1, x2, n2), two_proportion_z(x2, n2, x1, n1))
        {
            prop_assert!((a.statistic + b.statistic).abs() < 1e-9);
            prop_assert!((a.p_value - b.p_value).abs() < 1e-9);
        }
    }
}
