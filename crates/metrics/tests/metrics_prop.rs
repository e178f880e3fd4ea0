//! Property-based tests of the metrics library: estimator laws that must
//! hold for arbitrary observation sets.

use metrics::{percent_change, JobOutcome, Quantiles, Welford};
use proptest::prelude::*;
use simcore::{JobId, SimSpan, SimTime};
use workload::Job;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Welford mean/min/max agree with the naive computation.
    #[test]
    fn welford_matches_naive(xs in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        let naive_mean: f64 = xs.iter().sum::<f64>() / xs.len() as f64;
        prop_assert!((w.mean() - naive_mean).abs() < 1e-6 * (1.0 + naive_mean.abs()));
        prop_assert_eq!(w.min().unwrap(), xs.iter().cloned().fold(f64::INFINITY, f64::min));
        prop_assert_eq!(w.max().unwrap(), xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max));
        prop_assert!(w.variance() >= 0.0);
    }

    /// Merging two accumulators equals accumulating the concatenation.
    #[test]
    fn welford_merge_is_concat(
        xs in proptest::collection::vec(-1e3f64..1e3, 0..100),
        ys in proptest::collection::vec(-1e3f64..1e3, 0..100),
    ) {
        let mut a = Welford::new();
        for &x in &xs { a.push(x); }
        let mut b = Welford::new();
        for &y in &ys { b.push(y); }
        a.merge(&b);
        let mut all = Welford::new();
        for &v in xs.iter().chain(&ys) { all.push(v); }
        prop_assert_eq!(a.count(), all.count());
        if a.count() > 0 {
            prop_assert!((a.mean() - all.mean()).abs() < 1e-8);
            prop_assert!((a.variance() - all.variance()).abs() < 1e-6);
        }
    }

    /// Quantiles are monotone in q and bounded by min/max.
    #[test]
    fn quantiles_monotone(xs in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
        let mut q = Quantiles::new();
        for &x in &xs { q.push(x); }
        let lo = q.quantile(0.0).unwrap();
        let med = q.quantile(0.5).unwrap();
        let hi = q.quantile(1.0).unwrap();
        prop_assert!(lo <= med && med <= hi);
        prop_assert_eq!(lo, xs.iter().cloned().fold(f64::INFINITY, f64::min));
        prop_assert_eq!(hi, xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max));
        // Monotonicity across a grid.
        let grid = [0.1, 0.25, 0.5, 0.75, 0.9];
        let vals: Vec<f64> = grid.iter().map(|&g| q.quantile(g).unwrap()).collect();
        for w in vals.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
    }

    /// Outcome metrics: identities hold for arbitrary valid outcomes.
    #[test]
    fn outcome_identities(
        arrival in 0u64..1_000_000,
        runtime in 1u64..500_000,
        wait in 0u64..1_000_000,
        width in 1u32..512,
        slack in 0u64..500_000,
    ) {
        let o = JobOutcome::new(
            Job {
                id: JobId(7),
                arrival: SimTime::new(arrival),
                runtime: SimSpan::new(runtime),
                estimate: SimSpan::new(runtime + slack),
                width,
            },
            SimTime::new(arrival + wait),
        );
        prop_assert_eq!(o.wait().as_secs(), wait);
        prop_assert_eq!(o.turnaround().as_secs(), wait + runtime);
        prop_assert!(o.bounded_slowdown() >= 1.0);
        prop_assert!(o.slowdown() >= 1.0);
        // Bounded slowdown never exceeds raw slowdown.
        prop_assert!(o.bounded_slowdown() <= o.slowdown() + 1e-9);
        // Zero wait means both slowdowns are exactly 1.
        if wait == 0 {
            prop_assert!((o.bounded_slowdown() - 1.0).abs() < 1e-12);
        }
    }

    /// percent_change is antisymmetric around its fixed point and
    /// recovers the ratio.
    #[test]
    fn percent_change_laws(base in 0.001f64..1e6, ratio in 0.01f64..100.0) {
        let new = base * ratio;
        let pc = percent_change(new, base);
        prop_assert!((pc - (ratio - 1.0) * 100.0).abs() < 1e-6 * ratio.max(1.0));
        prop_assert!((percent_change(base, base)).abs() < 1e-9);
    }
}
