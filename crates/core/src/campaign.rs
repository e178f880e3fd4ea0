//! Replicated experiment campaigns with confidence intervals.
//!
//! A single simulated trace is one sample from the workload model; any
//! comparison of schedulers on it could be a seed artifact. A
//! [`Campaign`] runs the same scenario across many seeds and reports each
//! metric as **mean ± half-width of the 95 % confidence interval** over
//! seeds (Student's t), so "A beats B" claims carry their uncertainty.

use crate::config::{RunConfig, Scenario, TraceSource};
use crate::driver::SchedulerKind;
use crate::runner::run_all;
use sched::Policy;
use std::num::NonZeroUsize;
use workload::CategoryCriteria;

/// A replicated estimate: sample mean and 95 % CI half-width over seeds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Mean over seeds.
    pub mean: f64,
    /// Half-width of the 95 % confidence interval (0 with one seed).
    pub ci95: f64,
    /// Number of replicates.
    pub replicates: usize,
}

impl Estimate {
    /// Compute from per-seed values.
    pub fn from_samples(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "estimate needs at least one sample");
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        if n == 1 {
            return Estimate {
                mean,
                ci95: 0.0,
                replicates: 1,
            };
        }
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64;
        let se = (var / n as f64).sqrt();
        Estimate {
            mean,
            ci95: t_crit_95(n - 1) * se,
            replicates: n,
        }
    }
}

impl std::fmt::Display for Estimate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.replicates > 1 {
            write!(f, "{:.2} ± {:.2}", self.mean, self.ci95)
        } else {
            write!(f, "{:.2}", self.mean)
        }
    }
}

/// Two-sided 95 % Student-t critical value for `df` degrees of freedom
/// (table for small df, 1.96 asymptote beyond).
fn t_crit_95(df: usize) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    if df == 0 {
        f64::INFINITY
    } else if df <= TABLE.len() {
        TABLE[df - 1]
    } else {
        1.96
    }
}

/// Per-(scheduler, policy) campaign results.
#[derive(Debug, Clone)]
pub struct CampaignCell {
    /// The scheduler variant.
    pub kind: SchedulerKind,
    /// The priority policy.
    pub policy: Policy,
    /// Mean bounded slowdown, with CI over seeds.
    pub slowdown: Estimate,
    /// Mean turnaround (seconds), with CI over seeds.
    pub turnaround: Estimate,
    /// Mean utilization, with CI over seeds.
    pub utilization: Estimate,
}

/// A replicated comparison of scheduler configurations on one workload
/// model.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// Scenario template; the trace-source seed is replaced per replicate.
    pub scenario: Scenario,
    /// Seeds to replicate over.
    pub seeds: Vec<u64>,
    /// The (scheduler, policy) grid to compare.
    pub grid: Vec<(SchedulerKind, Policy)>,
    /// Worker threads (`None` = all cores).
    pub threads: Option<NonZeroUsize>,
}

impl Campaign {
    /// Run the full campaign. Cells come back in grid order.
    pub fn run(&self) -> Vec<CampaignCell> {
        assert!(!self.seeds.is_empty(), "campaign needs seeds");
        assert!(!self.grid.is_empty(), "campaign needs a grid");
        let mut configs = Vec::new();
        for &(kind, policy) in &self.grid {
            for &seed in &self.seeds {
                let source = match self.scenario.source {
                    TraceSource::Ctc { jobs, .. } => TraceSource::Ctc { jobs, seed },
                    TraceSource::Sdsc { jobs, .. } => TraceSource::Sdsc { jobs, seed },
                };
                configs.push(RunConfig {
                    scenario: Scenario {
                        source,
                        ..self.scenario
                    },
                    kind,
                    policy,
                });
            }
        }
        let results = run_all(&configs, self.threads);
        let criteria = CategoryCriteria::default();
        let per_cell = self.seeds.len();
        self.grid
            .iter()
            .enumerate()
            .map(|(i, &(kind, policy))| {
                let cell = &results[i * per_cell..(i + 1) * per_cell];
                let stats: Vec<_> = cell.iter().map(|r| r.schedule.stats(&criteria)).collect();
                let collect = |f: &dyn Fn(&metrics::ScheduleStats) -> f64| -> Estimate {
                    Estimate::from_samples(&stats.iter().map(f).collect::<Vec<_>>())
                };
                CampaignCell {
                    kind,
                    policy,
                    slowdown: collect(&|s| s.overall.avg_slowdown()),
                    turnaround: collect(&|s| s.overall.avg_turnaround()),
                    utilization: collect(&|s| s.utilization),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::EstimateModel;

    #[test]
    fn estimate_from_samples() {
        let e = Estimate::from_samples(&[10.0, 12.0, 14.0]);
        assert!((e.mean - 12.0).abs() < 1e-12);
        // sd = 2, se = 2/sqrt(3), t(2) = 4.303.
        assert!((e.ci95 - 4.303 * 2.0 / 3f64.sqrt()).abs() < 1e-9);
        assert_eq!(e.replicates, 3);
    }

    #[test]
    fn single_sample_has_zero_ci() {
        let e = Estimate::from_samples(&[5.0]);
        assert_eq!(e.ci95, 0.0);
        assert_eq!(e.to_string(), "5.00");
    }

    #[test]
    fn display_includes_ci_for_replicates() {
        let e = Estimate::from_samples(&[1.0, 2.0]);
        assert!(e.to_string().contains('±'));
    }

    #[test]
    fn t_table_values() {
        assert!((t_crit_95(1) - 12.706).abs() < 1e-9);
        assert!((t_crit_95(30) - 2.042).abs() < 1e-9);
        assert!((t_crit_95(1000) - 1.96).abs() < 1e-9);
        assert!(t_crit_95(0).is_infinite());
    }

    #[test]
    fn campaign_replicates_and_orders() {
        let campaign = Campaign {
            scenario: Scenario {
                source: TraceSource::Ctc { jobs: 200, seed: 0 },
                estimate: EstimateModel::Exact,
                estimate_seed: 1,
                load: Some(0.9),
            },
            seeds: vec![1, 2, 3],
            grid: vec![
                (SchedulerKind::Conservative, Policy::Fcfs),
                (SchedulerKind::Easy, Policy::Sjf),
            ],
            threads: None,
        };
        let cells = campaign.run();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].kind, SchedulerKind::Conservative);
        assert_eq!(cells[0].slowdown.replicates, 3);
        assert!(cells[0].slowdown.mean >= 1.0);
        assert!(cells[1].utilization.mean > 0.0);
    }

    #[test]
    #[should_panic(expected = "needs seeds")]
    fn campaign_rejects_empty_seeds() {
        Campaign {
            scenario: Scenario::high_load(TraceSource::Ctc { jobs: 10, seed: 0 }),
            seeds: vec![],
            grid: vec![(SchedulerKind::Easy, Policy::Fcfs)],
            threads: None,
        }
        .run();
    }
}
