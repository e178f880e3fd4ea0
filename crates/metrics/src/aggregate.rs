//! Aggregation of per-job outcomes into the paper's reported statistics.
//!
//! The paper's central methodological move is reporting metrics **per job
//! category** (SN/SW/LN/LW, and well/poorly estimated) rather than only as
//! trace-wide averages. [`ScheduleStats`] computes all of it in one pass.

use crate::outcome::JobOutcome;
use crate::welford::Welford;
use serde::{Deserialize, Serialize};
use simcore::{SimSpan, SimTime};
use workload::{Category, CategoryCriteria, EstimateQuality};

/// Summary of one group of jobs: bounded slowdown, turnaround, wait.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricSummary {
    /// Bounded slowdown (dimensionless, ≥ 1).
    pub slowdown: Welford,
    /// Turnaround time in seconds.
    pub turnaround: Welford,
    /// Wait time in seconds.
    pub wait: Welford,
}

impl MetricSummary {
    /// Record one job.
    pub fn push(&mut self, o: &JobOutcome) {
        self.slowdown.push(o.bounded_slowdown());
        self.turnaround.push(o.turnaround().as_secs_f64());
        self.wait.push(o.wait().as_secs_f64());
    }

    /// Number of jobs in the group.
    pub fn count(&self) -> u64 {
        self.slowdown.count()
    }

    /// Mean bounded slowdown (the paper's headline metric).
    pub fn avg_slowdown(&self) -> f64 {
        self.slowdown.mean()
    }

    /// Mean turnaround in seconds.
    pub fn avg_turnaround(&self) -> f64 {
        self.turnaround.mean()
    }

    /// Worst-case turnaround in seconds (paper Tables 4 and 7).
    pub fn worst_turnaround(&self) -> f64 {
        self.turnaround.max().unwrap_or(0.0)
    }

    /// Mean wait in seconds.
    pub fn avg_wait(&self) -> f64 {
        self.wait.mean()
    }

    /// Merge another group into this one.
    pub fn merge(&mut self, other: &MetricSummary) {
        self.slowdown.merge(&other.slowdown);
        self.turnaround.merge(&other.turnaround);
        self.wait.merge(&other.wait);
    }
}

/// Full statistics of one simulated schedule.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScheduleStats {
    /// All jobs together.
    pub overall: MetricSummary,
    /// Per SN/SW/LN/LW category, indexed by `Category as usize`.
    pub by_category: [MetricSummary; 4],
    /// Per estimate-quality class: `[well, poor]`.
    pub by_quality: [MetricSummary; 2],
    /// Machine utilization over the busy window (first arrival → last end).
    pub utilization: f64,
    /// Last completion − first arrival.
    pub makespan: SimSpan,
}

impl ScheduleStats {
    /// Aggregate a schedule's outcomes. `nodes` is the machine size the
    /// schedule ran on (for utilization).
    pub fn from_outcomes(outcomes: &[JobOutcome], nodes: u32, criteria: &CategoryCriteria) -> Self {
        assert!(nodes > 0, "machine size must be positive");
        let mut stats = ScheduleStats {
            overall: MetricSummary::default(),
            by_category: Default::default(),
            by_quality: Default::default(),
            utilization: 0.0,
            makespan: SimSpan::ZERO,
        };
        if outcomes.is_empty() {
            return stats;
        }
        let mut first_arrival = SimTime::FAR_FUTURE;
        let mut last_end = SimTime::ZERO;
        let mut busy: u128 = 0;
        for o in outcomes {
            stats.overall.push(o);
            stats.by_category[criteria.categorize(&o.job) as usize].push(o);
            let quality = match EstimateQuality::of(&o.job) {
                EstimateQuality::Well => 0,
                EstimateQuality::Poor => 1,
            };
            stats.by_quality[quality].push(o);
            first_arrival = first_arrival.min(o.job.arrival);
            last_end = last_end.max(o.end());
            busy += o.job.area();
        }
        stats.makespan = last_end.since(first_arrival);
        let window = stats.makespan.as_secs();
        if window > 0 {
            stats.utilization = busy as f64 / (nodes as f64 * window as f64);
        }
        stats
    }

    /// Summary for one category.
    pub fn category(&self, cat: Category) -> &MetricSummary {
        &self.by_category[cat as usize]
    }

    /// Summary for one estimate-quality class.
    pub fn quality(&self, q: EstimateQuality) -> &MetricSummary {
        match q {
            EstimateQuality::Well => &self.by_quality[0],
            EstimateQuality::Poor => &self.by_quality[1],
        }
    }
}

/// Relative change of `new` versus `base`, in percent — the quantity
/// Figure 2 plots (negative = improvement when the metric is a cost).
/// Returns 0 when the baseline is 0.
pub fn percent_change(new: f64, base: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        (new - base) / base * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::JobId;
    use workload::Job;

    fn outcome(arrival: u64, runtime: u64, estimate: u64, width: u32, start: u64) -> JobOutcome {
        JobOutcome::new(
            Job {
                id: JobId(0),
                arrival: SimTime::new(arrival),
                runtime: SimSpan::new(runtime),
                estimate: SimSpan::new(estimate),
                width,
            },
            SimTime::new(start),
        )
    }

    #[test]
    fn overall_averages() {
        let outcomes = vec![
            outcome(0, 100, 100, 4, 0),   // slowdown 1, turnaround 100
            outcome(0, 100, 100, 4, 100), // slowdown 2, turnaround 200
        ];
        let s = ScheduleStats::from_outcomes(&outcomes, 8, &CategoryCriteria::default());
        assert_eq!(s.overall.count(), 2);
        assert!((s.overall.avg_slowdown() - 1.5).abs() < 1e-12);
        assert!((s.overall.avg_turnaround() - 150.0).abs() < 1e-12);
        assert_eq!(s.overall.worst_turnaround(), 200.0);
    }

    #[test]
    fn category_split() {
        let outcomes = vec![
            outcome(0, 100, 100, 1, 0),    // SN
            outcome(0, 100, 100, 64, 0),   // SW
            outcome(0, 7200, 7200, 1, 0),  // LN
            outcome(0, 7200, 7200, 64, 0), // LW
        ];
        let s = ScheduleStats::from_outcomes(&outcomes, 128, &CategoryCriteria::default());
        for cat in Category::ALL {
            assert_eq!(s.category(cat).count(), 1, "{cat}");
        }
    }

    #[test]
    fn quality_split() {
        let outcomes = vec![
            outcome(0, 100, 150, 1, 0), // well (1.5x)
            outcome(0, 100, 500, 1, 0), // poor (5x)
            outcome(0, 100, 100, 1, 0), // well (exact)
        ];
        let s = ScheduleStats::from_outcomes(&outcomes, 8, &CategoryCriteria::default());
        assert_eq!(s.quality(EstimateQuality::Well).count(), 2);
        assert_eq!(s.quality(EstimateQuality::Poor).count(), 1);
    }

    #[test]
    fn utilization_and_makespan() {
        // One job: 8 procs x 100 s on an 8-proc machine, arrival 0,
        // start 0: utilization 1 over makespan 100.
        let outcomes = vec![outcome(0, 100, 100, 8, 0)];
        let s = ScheduleStats::from_outcomes(&outcomes, 8, &CategoryCriteria::default());
        assert_eq!(s.makespan, SimSpan::new(100));
        assert!((s.utilization - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_schedule() {
        let s = ScheduleStats::from_outcomes(&[], 8, &CategoryCriteria::default());
        assert_eq!(s.overall.count(), 0);
        assert_eq!(s.utilization, 0.0);
        assert_eq!(s.makespan, SimSpan::ZERO);
    }

    #[test]
    fn merge_summaries() {
        let mut a = MetricSummary::default();
        a.push(&outcome(0, 100, 100, 1, 0));
        let mut b = MetricSummary::default();
        b.push(&outcome(0, 100, 100, 1, 100));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!((a.avg_slowdown() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn percent_change_signs() {
        assert!((percent_change(50.0, 100.0) + 50.0).abs() < 1e-12);
        assert!((percent_change(150.0, 100.0) - 50.0).abs() < 1e-12);
        assert_eq!(percent_change(5.0, 0.0), 0.0);
    }
}
