//! Property-based tests of the metrics library: estimator laws that must
//! hold for arbitrary observation sets, and the per-schedule reports
//! (`fairness`, `capacity_report`) against the straightforward versions
//! they replaced, bit for bit.

use metrics::{
    capacity_report, fairness, gini, percent_change, CapacityReport, FairnessReport, JobOutcome,
    Quantiles, Welford,
};
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

/// The report oracles: the straightforward implementations `fairness` and
/// `capacity_report` once shipped. One stable sort of the whole job list
/// by arrival, a top-down merge sort that allocates at every level, and a
/// sweep over all 3n events sorted as tuples.
mod oracle {
    use super::*;

    pub fn gini(values: &[f64]) -> f64 {
        if values.is_empty() {
            return 0.0;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len() as f64;
        let total: f64 = sorted.iter().sum();
        if total == 0.0 {
            return 0.0;
        }
        let weighted: f64 = sorted
            .iter()
            .enumerate()
            .map(|(i, &x)| (i as f64 + 1.0) * x)
            .sum();
        (2.0 * weighted) / (n * total) - (n + 1.0) / n
    }

    fn count_inversions(v: &[u64]) -> u64 {
        fn sort_count(v: &mut Vec<u64>) -> u64 {
            let n = v.len();
            if n <= 1 {
                return 0;
            }
            let mut right = v.split_off(n / 2);
            let mut inv = sort_count(v) + sort_count(&mut right);
            let left = std::mem::take(v);
            let (mut i, mut j) = (0, 0);
            let mut merged = Vec::with_capacity(left.len() + right.len());
            while i < left.len() && j < right.len() {
                if left[i] <= right[j] {
                    merged.push(left[i]);
                    i += 1;
                } else {
                    inv += (left.len() - i) as u64;
                    merged.push(right[j]);
                    j += 1;
                }
            }
            merged.extend_from_slice(&left[i..]);
            merged.extend_from_slice(&right[j..]);
            *v = merged;
            inv
        }
        sort_count(&mut v.to_vec())
    }

    pub fn fairness(outcomes: &[JobOutcome]) -> FairnessReport {
        let slowdowns: Vec<f64> = outcomes.iter().map(JobOutcome::bounded_slowdown).collect();
        let max_stretch = slowdowns.iter().cloned().fold(0.0, f64::max);
        let mut by_arrival: Vec<(u64, u64)> = outcomes
            .iter()
            .map(|o| (o.job.arrival.as_secs(), o.start.as_secs()))
            .collect();
        by_arrival.sort_by_key(|&(arrival, _)| arrival);
        let starts: Vec<u64> = by_arrival.into_iter().map(|(_, s)| s).collect();
        let inversions = count_inversions(&starts);
        let n = outcomes.len() as u64;
        let pairs = n.saturating_mul(n.saturating_sub(1)) / 2;
        let overtake_rate = if pairs == 0 {
            0.0
        } else {
            inversions as f64 / pairs as f64
        };
        FairnessReport {
            slowdown_gini: gini(&slowdowns),
            max_stretch,
            overtake_rate,
        }
    }

    pub fn capacity_report(outcomes: &[JobOutcome], nodes: u32) -> CapacityReport {
        let zero = CapacityReport {
            utilized: 0.0,
            idle_no_demand: 0.0,
            lost: 0.0,
        };
        if outcomes.is_empty() {
            return zero;
        }
        let mut events: Vec<(SimTime, i64, i64)> = Vec::with_capacity(outcomes.len() * 3);
        for o in outcomes {
            events.push((o.job.arrival, 0, 1));
            events.push((o.start, o.job.width as i64, -1));
            events.push((o.end(), -(o.job.width as i64), 0));
        }
        events.sort_by_key(|&(t, dp, _)| (t, dp));
        let horizon_start = outcomes.iter().map(|o| o.job.arrival).min().unwrap();
        let horizon_end = outcomes.iter().map(|o| o.end()).max().unwrap();
        let total = horizon_end.since(horizon_start).as_secs() as u128 * nodes as u128;
        if total == 0 {
            return zero;
        }
        let mut busy_int: u128 = 0;
        let mut lost_int: u128 = 0;
        let mut running: i64 = 0;
        let mut waiting: i64 = 0;
        let mut prev = horizon_start;
        for (t, dp, dw) in events {
            let dt = t.since(prev).as_secs() as u128;
            if dt > 0 {
                busy_int += running as u128 * dt;
                if waiting > 0 {
                    lost_int += (nodes as i64 - running).max(0) as u128 * dt;
                }
                prev = t;
            }
            running += dp;
            waiting += dw;
        }
        let utilized = busy_int as f64 / total as f64;
        let lost = lost_int as f64 / total as f64;
        CapacityReport {
            utilized,
            lost,
            idle_no_demand: (1.0 - utilized - lost).max(0.0),
        }
    }
}

/// Strategy: up to 80 outcomes on a machine of `nodes` processors.
/// Arrivals, waits and runtimes fall on small ranges, so instants often
/// coincide; about a third of the jobs were suspended (`with_end`); and
/// unless `sorted`, ids do not follow arrivals.
fn arb_outcomes() -> impl Strategy<Value = (u32, Vec<JobOutcome>)> {
    (1u32..=16, any::<bool>()).prop_flat_map(|(nodes, sorted)| {
        let job = (0u64..40, 0u64..20, 0u64..25, 1u32..=nodes, 0u64..30);
        proptest::collection::vec(job, 0..80).prop_map(move |raw| {
            let mut raw = raw;
            if sorted {
                raw.sort_by_key(|&(arrival, ..)| arrival);
            }
            let outcomes = raw
                .into_iter()
                .enumerate()
                .map(|(i, (arrival, wait, runtime, width, suspended))| {
                    let job = Job {
                        id: JobId(i as u32),
                        arrival: SimTime::new(arrival),
                        runtime: SimSpan::new(runtime),
                        estimate: SimSpan::new(runtime),
                        width,
                    };
                    let start = SimTime::new(arrival + wait);
                    if suspended % 3 == 0 {
                        let end = start + SimSpan::new(runtime + suspended);
                        JobOutcome::with_end(job, start, end)
                    } else {
                        JobOutcome::new(job, start)
                    }
                })
                .collect();
            (nodes, outcomes)
        })
    })
}

fn fairness_bits(r: FairnessReport) -> [u64; 3] {
    [
        r.slowdown_gini.to_bits(),
        r.max_stretch.to_bits(),
        r.overtake_rate.to_bits(),
    ]
}

fn capacity_bits(r: CapacityReport) -> [u64; 3] {
    [
        r.utilized.to_bits(),
        r.idle_no_demand.to_bits(),
        r.lost.to_bits(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `fairness` and `gini` equal their oracles to the bit.
    #[test]
    fn fairness_matches_oracle_bit_for_bit(workload in arb_outcomes()) {
        let (_, outcomes) = workload;
        prop_assert_eq!(
            fairness_bits(fairness(&outcomes)),
            fairness_bits(oracle::fairness(&outcomes))
        );
        let slowdowns: Vec<f64> = outcomes.iter().map(JobOutcome::bounded_slowdown).collect();
        prop_assert_eq!(gini(&slowdowns).to_bits(), oracle::gini(&slowdowns).to_bits());
    }

    /// `capacity_report` equals its oracle to the bit.
    #[test]
    fn capacity_matches_oracle_bit_for_bit(workload in arb_outcomes()) {
        let (nodes, outcomes) = workload;
        prop_assert_eq!(
            capacity_bits(capacity_report(&outcomes, nodes)),
            capacity_bits(oracle::capacity_report(&outcomes, nodes))
        );
    }
}
