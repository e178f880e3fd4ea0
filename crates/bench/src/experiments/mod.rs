//! The experiment harness: one function per table/figure of the paper.
//!
//! Each experiment regenerates a paper artifact as one or more [`Table`]s
//! (text + CSV). The mapping to the paper, and the calibration notes, live
//! in `DESIGN.md` (system inventory) and `EXPERIMENTS.md` (paper-vs-
//! measured record).
//!
//! All experiments are deterministic in [`Opts`]: same options, same bytes.
//! Multi-seed replication is built in — every reported number is averaged
//! over `opts.seeds` independent synthetic traces, so no conclusion hangs
//! on one lucky workload.

pub mod ablations;
pub mod accurate;
pub mod estimates;
pub mod robustness;
pub mod workload_tables;

use backfill_sim::prelude::*;
use std::num::NonZeroUsize;

/// Options shared by all experiments.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Jobs per synthetic trace.
    pub jobs: usize,
    /// Independent trace seeds; results are averaged across them.
    pub seeds: Vec<u64>,
    /// Offered load for the paper's "high load" condition.
    pub load: f64,
    /// Worker threads (`None` = all cores).
    pub threads: Option<NonZeroUsize>,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            jobs: 20_000,
            seeds: vec![42, 1337, 2002],
            load: 0.9,
            threads: None,
        }
    }
}

impl Opts {
    /// A reduced configuration for fast test runs.
    pub fn quick() -> Self {
        Opts {
            jobs: 2_000,
            seeds: vec![42],
            load: 0.9,
            threads: None,
        }
    }

    /// The CTC trace sources, one per seed.
    pub fn ctc_sources(&self) -> Vec<TraceSource> {
        self.seeds
            .iter()
            .map(|&seed| TraceSource::Ctc {
                jobs: self.jobs,
                seed,
            })
            .collect()
    }

    /// The SDSC trace sources, one per seed.
    pub fn sdsc_sources(&self) -> Vec<TraceSource> {
        self.seeds
            .iter()
            .map(|&seed| TraceSource::Sdsc {
                jobs: self.jobs,
                seed,
            })
            .collect()
    }
}

/// The scheduler × policy grid the paper's figures compare.
pub fn paper_grid() -> Vec<(SchedulerKind, Policy)> {
    let mut grid = Vec::new();
    for kind in [SchedulerKind::Conservative, SchedulerKind::Easy] {
        for policy in Policy::PAPER {
            grid.push((kind, policy));
        }
    }
    grid
}

/// Run the full (sources × grid) sweep for one estimate model and collect,
/// per grid cell, the per-seed schedules. Returned in grid order:
/// `result[cell][seed]`.
pub fn sweep(
    opts: &Opts,
    sources: &[TraceSource],
    grid: &[(SchedulerKind, Policy)],
    estimate: EstimateModel,
) -> Vec<Vec<Schedule>> {
    let mut configs = Vec::new();
    for &(kind, policy) in grid {
        for &source in sources {
            configs.push(RunConfig {
                scenario: Scenario {
                    source,
                    estimate,
                    estimate_seed: estimate_seed_for(source),
                    load: Some(opts.load),
                },
                kind,
                policy,
            });
        }
    }
    let results = run_all(&configs, opts.threads);
    let mut out = Vec::with_capacity(grid.len());
    let per_cell = sources.len();
    for (i, _) in grid.iter().enumerate() {
        let schedules = results[i * per_cell..(i + 1) * per_cell]
            .iter()
            .map(|r| {
                r.schedule.validate().expect("schedule failed audit");
                r.schedule.clone()
            })
            .collect();
        out.push(schedules);
    }
    out
}

/// Estimate-model seed derived from the trace source so that the same
/// trace always receives the same noisy estimates, while different seeds
/// get independent noise.
fn estimate_seed_for(source: TraceSource) -> u64 {
    match source {
        TraceSource::Ctc { seed, .. } => seed ^ 0xC7C0,
        TraceSource::Sdsc { seed, .. } => seed ^ 0x5D5C,
    }
}

/// Merge per-seed schedules into one pooled [`ScheduleStats`]: job
/// statistics pooled over every job, utilization the mean over seeds,
/// makespan the longest.
pub fn pooled_stats(schedules: &[Schedule]) -> ScheduleStats {
    let criteria = CategoryCriteria::default();
    let mut iter = schedules.iter();
    let first = iter.next().expect("at least one schedule");
    let mut acc = first.stats(&criteria);
    let mut utilization = acc.utilization;
    for s in iter {
        let stats = s.stats(&criteria);
        acc.overall.merge(&stats.overall);
        for c in 0..4 {
            acc.by_category[c].merge(&stats.by_category[c]);
        }
        for q in 0..2 {
            acc.by_quality[q].merge(&stats.by_quality[q]);
        }
        utilization += stats.utilization;
        acc.makespan = acc.makespan.max(stats.makespan);
    }
    acc.utilization = utilization / schedules.len() as f64;
    acc
}

/// Mean bounded slowdown of an id-subset of jobs, pooled across seeds.
/// `pick(seed_index, outcome)` selects membership.
pub fn subset_slowdown(
    schedules: &[Schedule],
    mut pick: impl FnMut(usize, &JobOutcome) -> bool,
) -> f64 {
    let mut acc = metrics::Welford::new();
    for (si, s) in schedules.iter().enumerate() {
        for o in &s.outcomes {
            if pick(si, o) {
                acc.push(o.bounded_slowdown());
            }
        }
    }
    acc.mean()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_paper_cells() {
        let g = paper_grid();
        assert_eq!(g.len(), 6);
        assert!(g.contains(&(SchedulerKind::Easy, Policy::XFactor)));
        assert!(g.contains(&(SchedulerKind::Conservative, Policy::Fcfs)));
    }

    #[test]
    fn sweep_shape_and_determinism() {
        let opts = Opts {
            jobs: 300,
            seeds: vec![1, 2],
            load: 0.9,
            threads: None,
        };
        let grid = [(SchedulerKind::Easy, Policy::Fcfs)];
        let a = sweep(&opts, &opts.ctc_sources(), &grid, EstimateModel::Exact);
        let b = sweep(&opts, &opts.ctc_sources(), &grid, EstimateModel::Exact);
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].len(), 2);
        assert_eq!(a[0][0].fingerprint(), b[0][0].fingerprint());
        assert_ne!(
            a[0][0].fingerprint(),
            a[0][1].fingerprint(),
            "seeds should differ"
        );
    }

    #[test]
    fn pooled_stats_counts_all_seeds() {
        let opts = Opts {
            jobs: 200,
            seeds: vec![1, 2],
            load: 0.9,
            threads: None,
        };
        let grid = [(SchedulerKind::Easy, Policy::Fcfs)];
        let res = sweep(&opts, &opts.ctc_sources(), &grid, EstimateModel::Exact);
        let pooled = pooled_stats(&res[0]);
        assert_eq!(pooled.overall.count(), 400);
    }

    #[test]
    fn pooled_utilization_is_the_mean_over_seeds() {
        let opts = Opts {
            jobs: 200,
            seeds: vec![1, 2, 3],
            load: 0.9,
            threads: None,
        };
        let grid = [(SchedulerKind::Easy, Policy::Fcfs)];
        let res = sweep(&opts, &opts.ctc_sources(), &grid, EstimateModel::Exact);
        let criteria = CategoryCriteria::default();
        let each: Vec<f64> = res[0]
            .iter()
            .map(|s| s.stats(&criteria).utilization)
            .collect();
        assert!(
            each[0] != each[1] && each[1] != each[2] && each[0] != each[2],
            "seeds should differ: {each:?}"
        );
        let mean = each.iter().sum::<f64>() / 3.0;
        let pooled = pooled_stats(&res[0]).utilization;
        assert!((pooled - mean).abs() < 1e-12, "{pooled} vs mean {mean}");
    }

    #[test]
    fn subset_slowdown_of_everything_matches_overall() {
        let opts = Opts {
            jobs: 200,
            seeds: vec![7],
            load: 0.9,
            threads: None,
        };
        let grid = [(SchedulerKind::Conservative, Policy::Fcfs)];
        let res = sweep(&opts, &opts.ctc_sources(), &grid, EstimateModel::Exact);
        let all = subset_slowdown(&res[0], |_, _| true);
        let pooled = pooled_stats(&res[0]);
        assert!((all - pooled.overall.avg_slowdown()).abs() < 1e-9);
    }
}
