//! Fairness metrics for schedules.
//!
//! The paper's worst-case turnaround rows (Tables 4, 7) are a fairness
//! signal: EASY's averages improve while individual jobs starve. This
//! module quantifies that trade-off properly — the same research group's
//! follow-up line of work ("Unfairness in parallel job scheduling") made
//! these first-class metrics:
//!
//! * **Gini coefficient** of per-job bounded slowdowns — 0 is perfectly
//!   even service, 1 is maximally concentrated pain;
//! * **max-stretch** — the worst bounded slowdown (the classic theory
//!   metric);
//! * **overtake count** — how many job pairs ran in the opposite order to
//!   their arrival (a direct measure of how much a policy deviates from
//!   FCFS service order).

use crate::outcome::JobOutcome;
use serde::{Deserialize, Serialize};

/// Gini coefficient of a set of non-negative values.
///
/// Uses the sorted-rank formula `G = (2·Σᵢ i·xᵢ)/(n·Σ xᵢ) − (n+1)/n` with
/// 1-based ranks over ascending values. Returns 0 for empty input or an
/// all-zero sum.
pub fn gini(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    assert!(
        values.iter().all(|v| v.is_finite() && *v >= 0.0),
        "gini requires finite non-negative values"
    );
    let mut sorted = values.to_vec();
    // Ties under `total_cmp` are bit-identical, so an unstable sort yields
    // the same sequence as a stable one.
    sorted.sort_unstable_by(f64::total_cmp);
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

/// A schedule's fairness summary.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FairnessReport {
    /// Gini coefficient of bounded slowdowns.
    pub slowdown_gini: f64,
    /// Worst bounded slowdown (max-stretch).
    pub max_stretch: f64,
    /// Fraction of job pairs served out of arrival order
    /// (0 = pure FCFS service, 0.5 ≈ arrival order ignored).
    pub overtake_rate: f64,
}

/// Compute the fairness summary of a schedule's outcomes.
///
/// The overtake rate is exact (O(n log n) via merge-sort inversion
/// counting over start times in arrival order).
pub fn fairness(outcomes: &[JobOutcome]) -> FairnessReport {
    let slowdowns: Vec<f64> = outcomes.iter().map(JobOutcome::bounded_slowdown).collect();
    let max_stretch = slowdowns.iter().cloned().fold(0.0, f64::max);

    // Outcomes are in job-id order; put start times in arrival order
    // (stable: ties keep id order), then count their inversions. A
    // schedule of a `Trace` numbers its jobs in arrival order already, and
    // the stable sort finishes such a slice in one pass.
    let mut by_arrival: Vec<(u64, u64)> = outcomes
        .iter()
        .map(|o| (o.job.arrival.as_secs(), o.start.as_secs()))
        .collect();
    by_arrival.sort_by_key(|&(arrival, _)| arrival);
    let starts: Vec<u64> = by_arrival.into_iter().map(|(_, s)| s).collect();
    let inversions = count_inversions(starts);
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

/// Count pairs `(i, j)` with `i < j` but `v[i] > v[j]` (strict
/// inversions): a bottom-up merge sort that merges runs of width 1, 2, 4,
/// … back and forth between `v` and one scratch buffer, counting each
/// cross inversion as it merges.
fn count_inversions(v: Vec<u64>) -> u64 {
    let n = v.len();
    let mut src = v;
    let mut dst = vec![0; n];
    let mut inv = 0;
    let mut width = 1;
    while width < n {
        for lo in (0..n).step_by(2 * width) {
            let mid = (lo + width).min(n);
            let hi = (lo + 2 * width).min(n);
            let (mut i, mut j, mut k) = (lo, mid, lo);
            while i < mid && j < hi {
                if src[i] <= src[j] {
                    dst[k] = src[i];
                    i += 1;
                } else {
                    // Every element left in the left run is strictly
                    // greater than `src[j]`.
                    inv += (mid - i) as u64;
                    dst[k] = src[j];
                    j += 1;
                }
                k += 1;
            }
            dst[k..k + mid - i].copy_from_slice(&src[i..mid]);
            k += mid - i;
            dst[k..hi].copy_from_slice(&src[j..hi]);
        }
        std::mem::swap(&mut src, &mut dst);
        width *= 2;
    }
    inv
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::{JobId, SimSpan, SimTime};
    use workload::Job;

    fn outcome(arrival: u64, runtime: u64, start: u64) -> JobOutcome {
        JobOutcome::new(
            Job {
                id: JobId(0),
                arrival: SimTime::new(arrival),
                runtime: SimSpan::new(runtime),
                estimate: SimSpan::new(runtime),
                width: 1,
            },
            SimTime::new(start),
        )
    }

    #[test]
    fn gini_of_equal_values_is_zero() {
        assert!(gini(&[5.0, 5.0, 5.0, 5.0]).abs() < 1e-12);
        assert_eq!(gini(&[]), 0.0);
        assert_eq!(gini(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn gini_of_concentrated_values_approaches_one() {
        let mut v = vec![0.0; 99];
        v.push(100.0);
        let g = gini(&v);
        assert!(g > 0.95, "gini {g}");
    }

    #[test]
    fn gini_known_value() {
        // For [1, 3]: G = (2*(1*1 + 2*3))/(2*4) - 3/2 = 14/8 - 1.5 = 0.25.
        assert!((gini(&[1.0, 3.0]) - 0.25).abs() < 1e-12);
        // Order independence.
        assert!((gini(&[3.0, 1.0]) - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn gini_rejects_negative() {
        gini(&[1.0, -2.0]);
    }

    #[test]
    fn inversion_counting() {
        let count = |v: &[u64]| count_inversions(v.to_vec());
        assert_eq!(count(&[1, 2, 3, 4]), 0);
        assert_eq!(count(&[4, 3, 2, 1]), 6);
        assert_eq!(count(&[2, 1, 3]), 1);
        assert_eq!(count(&[]), 0);
        assert_eq!(count(&[7]), 0);
        // Equal elements are not inversions.
        assert_eq!(count(&[5, 5, 5]), 0);
        // Odd lengths leave a short last run at every width.
        assert_eq!(count(&[3, 1, 2, 5, 4]), 3);
        assert_eq!(count(&[9, 8, 7, 6, 5, 4, 3]), 21);
    }

    #[test]
    fn report_round_trips_through_json() {
        let outcomes = vec![outcome(0, 10, 0), outcome(5, 10, 40), outcome(8, 10, 20)];
        let r = fairness(&outcomes);
        let text = serde_json::to_string(&r).unwrap();
        let back: FairnessReport = serde_json::from_str(&text).unwrap();
        assert_eq!(r, back);
    }

    #[test]
    fn fcfs_service_has_zero_overtakes() {
        let outcomes = vec![outcome(0, 10, 0), outcome(5, 10, 10), outcome(8, 10, 20)];
        let r = fairness(&outcomes);
        assert_eq!(r.overtake_rate, 0.0);
    }

    #[test]
    fn reversed_service_has_full_overtake_rate() {
        let outcomes = vec![outcome(0, 10, 40), outcome(5, 10, 20), outcome(8, 10, 8)];
        let r = fairness(&outcomes);
        assert!((r.overtake_rate - 1.0).abs() < 1e-12);
    }

    #[test]
    fn max_stretch_is_worst_slowdown() {
        let outcomes = vec![outcome(0, 100, 0), outcome(0, 100, 300)];
        let r = fairness(&outcomes);
        assert!((r.max_stretch - 4.0).abs() < 1e-12);
    }

    #[test]
    fn empty_schedule() {
        let r = fairness(&[]);
        assert_eq!(r.overtake_rate, 0.0);
        assert_eq!(r.max_stretch, 0.0);
        assert_eq!(r.slowdown_gini, 0.0);
    }
}
