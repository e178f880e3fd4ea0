//! Declarative sweep specifications.
//!
//! A [`SweepSpec`] is the serializable description of one parameter
//! sweep: a grid of trace models × seeds × estimate models × loads ×
//! scheduler kinds × priority policies. [`SweepSpec::expand`] turns it
//! into the concrete `RunConfig` cells in a **pinned, deterministic
//! order** (trace model outermost, policy innermost), so two processes
//! expanding the same spec — the `bfsim bench` harness and the
//! distributed sweep coordinator — agree on every cell and its index.
//!
//! The pinned bench grids ([`tiny_spec`], [`full_specs`],
//! [`bench_cells`]) are expressed as specs too, so there is exactly one
//! expansion code path: a sweep sharded across daemons by the
//! coordinator covers byte-for-byte the same cells the serial bench
//! measures.

use backfill_sim::{
    check_estimate, check_kind, check_load, RunConfig, Scenario, SchedulerKind, TraceSource,
};
use sched::Policy;
use serde::{Deserialize, Serialize};
use simcore::SimSpan;
use workload::{EstimateModel, UserModelParams};

/// Which synthetic workload model a sweep axis draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceModel {
    /// CTC SP2 model (430 nodes).
    Ctc,
    /// SDSC SP2 model (128 nodes).
    Sdsc,
}

impl TraceModel {
    /// Bind the model to a job count and generator seed.
    pub fn source(self, jobs: usize, seed: u64) -> TraceSource {
        match self {
            TraceModel::Ctc => TraceSource::Ctc { jobs, seed },
            TraceModel::Sdsc => TraceSource::Sdsc { jobs, seed },
        }
    }
}

/// A declarative parameter sweep: the cross product of every axis.
///
/// Axes expand in this fixed nesting order (outermost first):
/// `models → seeds → estimates → estimate_seeds → loads → kinds →
/// policies`. The order is part of the format — cell indices derived
/// from it are stable across processes and code versions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepSpec {
    /// Trace models to sweep.
    pub models: Vec<TraceModel>,
    /// Jobs per generated trace.
    pub jobs: usize,
    /// Trace-generator seeds to sweep.
    pub seeds: Vec<u64>,
    /// Estimate models to sweep.
    pub estimates: Vec<EstimateModel>,
    /// Seeds for stochastic estimate models.
    pub estimate_seeds: Vec<u64>,
    /// Offered loads ρ to sweep (`None` keeps the model's native load).
    pub loads: Vec<Option<f64>>,
    /// Backfilling strategies to sweep.
    pub kinds: Vec<SchedulerKind>,
    /// Queue-priority policies to sweep.
    pub policies: Vec<Policy>,
}

impl SweepSpec {
    /// Number of cells [`Self::expand`] will produce (before any
    /// dedup): the product of every axis length.
    pub fn cell_count(&self) -> u64 {
        [
            self.models.len(),
            self.seeds.len(),
            self.estimates.len(),
            self.estimate_seeds.len(),
            self.loads.len(),
            self.kinds.len(),
            self.policies.len(),
        ]
        .iter()
        .map(|&n| n as u64)
        .product()
    }

    /// Reject specs that cannot expand to at least one cell, or that hold
    /// a parameter out of its range (`backfill_sim::check_kind` and its
    /// siblings).
    pub fn validate(&self) -> Result<(), String> {
        let axes: [(&str, usize); 7] = [
            ("models", self.models.len()),
            ("seeds", self.seeds.len()),
            ("estimates", self.estimates.len()),
            ("estimate_seeds", self.estimate_seeds.len()),
            ("loads", self.loads.len()),
            ("kinds", self.kinds.len()),
            ("policies", self.policies.len()),
        ];
        let empty: Vec<&str> = axes
            .iter()
            .filter(|(_, n)| *n == 0)
            .map(|(name, _)| *name)
            .collect();
        if !empty.is_empty() {
            return Err(format!("empty sweep axes: {}", empty.join(", ")));
        }
        if self.jobs == 0 {
            return Err("jobs must be >= 1".to_string());
        }
        for &kind in &self.kinds {
            check_kind(kind).map_err(|e| format!("kinds: {kind:?}: {e}"))?;
        }
        for &estimate in &self.estimates {
            check_estimate(estimate).map_err(|e| format!("estimates: {estimate:?}: {e}"))?;
        }
        for &rho in self.loads.iter().flatten() {
            check_load(rho).map_err(|e| format!("loads: {rho}: {e}"))?;
        }
        Ok(())
    }

    /// Expand to concrete cells in the pinned nesting order. Purely a
    /// function of the spec: equal specs expand identically in every
    /// process.
    pub fn expand(&self) -> Vec<RunConfig> {
        let mut cells = Vec::with_capacity(self.cell_count() as usize);
        for &model in &self.models {
            for &seed in &self.seeds {
                for &estimate in &self.estimates {
                    for &estimate_seed in &self.estimate_seeds {
                        for &load in &self.loads {
                            let scenario = Scenario {
                                source: model.source(self.jobs, seed),
                                estimate,
                                estimate_seed,
                                load,
                            };
                            for &kind in &self.kinds {
                                for &policy in &self.policies {
                                    cells.push(RunConfig {
                                        scenario,
                                        kind,
                                        policy,
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        cells
    }
}

/// The pinned **tiny** bench grid (`bfsim bench --tiny`, CI smoke): one
/// CTC trace under Conservative and EASY across the paper's three
/// policies — six cells, seconds of wall time, and an exact subset of
/// the full sweep.
pub fn tiny_spec() -> SweepSpec {
    SweepSpec {
        models: vec![TraceModel::Ctc],
        jobs: 3_000,
        seeds: vec![7],
        estimates: vec![EstimateModel::Exact],
        estimate_seeds: vec![1],
        loads: vec![Some(0.9)],
        kinds: vec![SchedulerKind::Conservative, SchedulerKind::Easy],
        policies: Policy::PAPER.to_vec(),
    }
}

/// The pinned **full** bench grid as a sequence of specs, expanded in
/// order: the 2-trace × 7-strategy × 3-policy paper grid, then the hot
/// deep-queue cells (sustained 2.2× overload with noisy user estimates)
/// under Conservative, then the single hot EASY/XFactor cell.
pub fn full_specs() -> Vec<SweepSpec> {
    let paper = SweepSpec {
        models: vec![TraceModel::Ctc, TraceModel::Sdsc],
        jobs: 3_000,
        seeds: vec![7],
        estimates: vec![EstimateModel::Exact],
        estimate_seeds: vec![1],
        loads: vec![Some(0.9)],
        kinds: vec![
            SchedulerKind::NoBackfill,
            SchedulerKind::Conservative,
            SchedulerKind::Easy,
            SchedulerKind::Depth { depth: 4 },
            SchedulerKind::Selective { threshold: 2.0 },
            SchedulerKind::Slack { slack_factor: 0.5 },
            SchedulerKind::Preemptive { threshold: 5.0 },
        ],
        policies: Policy::PAPER.to_vec(),
    };
    // The hot cells: noisy user estimates under sustained overload back
    // the queue up to ~1k jobs, and every early completion triggers a
    // compression pass. Pinned to peak ≈ 1.1k queued jobs (probed via
    // `simulate --series`).
    let hot_estimate = EstimateModel::User(UserModelParams::capped(SimSpan::from_hours(18)));
    let hot_conservative = SweepSpec {
        models: vec![TraceModel::Ctc],
        jobs: 20_000,
        seeds: vec![7],
        estimates: vec![hot_estimate],
        estimate_seeds: vec![7],
        loads: vec![Some(2.2)],
        kinds: vec![SchedulerKind::Conservative],
        policies: Policy::PAPER.to_vec(),
    };
    let hot_easy = SweepSpec {
        kinds: vec![SchedulerKind::Easy],
        policies: vec![Policy::XFactor],
        ..hot_conservative.clone()
    };
    vec![paper, hot_conservative, hot_easy]
}

/// The pinned bench sweep as concrete cells. Fixed traces, seeds and
/// loads: numbers from two runs of the same binary are comparable, and
/// numbers from two versions of the code measure the code, not the
/// workload. `tiny` shrinks it to six cells for CI smoke testing — an
/// exact *subset* of the full sweep, so a tiny run can be compared
/// (`--baseline`, `--enforce-parity`) against a full report and every
/// cell finds its baseline partner.
pub fn bench_cells(tiny: bool) -> Vec<RunConfig> {
    if tiny {
        tiny_spec().expand()
    } else {
        full_specs().iter().flat_map(SweepSpec::expand).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_is_a_subset_and_prefix_order_is_pinned() {
        let tiny = bench_cells(true);
        let full = bench_cells(false);
        assert_eq!(tiny.len(), 6);
        assert_eq!(full.len(), 2 * 7 * 3 + 3 + 1);
        for cell in &tiny {
            assert!(full.contains(cell), "tiny cell {cell:?} missing from full");
        }
        // The tiny grid's order itself is pinned: Conservative before
        // EASY, FCFS/SJF/XFactor within each.
        assert_eq!(tiny[0].kind, SchedulerKind::Conservative);
        assert_eq!(tiny[3].kind, SchedulerKind::Easy);
        assert_eq!(tiny[0].policy, Policy::Fcfs);
        assert_eq!(tiny[2].policy, Policy::XFactor);
    }

    #[test]
    fn expansion_is_deterministic_and_counts_match() {
        let spec = SweepSpec {
            models: vec![TraceModel::Ctc, TraceModel::Sdsc],
            jobs: 100,
            seeds: vec![1, 2, 3],
            estimates: vec![EstimateModel::Exact, EstimateModel::systematic(3.0)],
            estimate_seeds: vec![1],
            loads: vec![Some(0.7), None],
            kinds: vec![SchedulerKind::Easy],
            policies: vec![Policy::Fcfs, Policy::Sjf],
        };
        assert_eq!(spec.cell_count(), 2 * 3 * 2 * 2 * 2);
        let a = spec.expand();
        let b = spec.expand();
        assert_eq!(a.len(), spec.cell_count() as usize);
        assert_eq!(a, b, "expansion must be deterministic");
        // Innermost axis varies fastest.
        assert_eq!(a[0].policy, Policy::Fcfs);
        assert_eq!(a[1].policy, Policy::Sjf);
        assert_eq!(a[0].scenario, a[1].scenario);
    }

    #[test]
    fn validate_rejects_empty_axes() {
        let mut spec = tiny_spec();
        assert!(spec.validate().is_ok());
        spec.policies.clear();
        spec.seeds.clear();
        let err = spec.validate().unwrap_err();
        assert!(err.contains("policies") && err.contains("seeds"), "{err}");
        assert_eq!(spec.cell_count(), 0);
        let mut zero_jobs = tiny_spec();
        zero_jobs.jobs = 0;
        assert!(zero_jobs.validate().is_err());
        let out_of_range = |edit: fn(&mut SweepSpec)| {
            let mut spec = tiny_spec();
            edit(&mut spec);
            spec.validate().unwrap_err()
        };
        let err = out_of_range(|s| s.kinds.push(SchedulerKind::Depth { depth: 0 }));
        assert_eq!(
            err,
            "kinds: Depth { depth: 0 }: reservation depth must be >= 1"
        );
        let err = out_of_range(|s| {
            s.kinds = vec![SchedulerKind::Preemptive {
                threshold: f64::NAN,
            }]
        });
        assert!(err.starts_with("kinds: Preemptive"), "{err}");
        assert!(
            out_of_range(|s| s.kinds = vec![SchedulerKind::Selective { threshold: 0.5 }])
                .starts_with("kinds: Selective")
        );
        assert!(
            out_of_range(|s| s.kinds = vec![SchedulerKind::Slack { slack_factor: -1.0 }])
                .starts_with("kinds: Slack")
        );
        let err = out_of_range(|s| {
            s.estimates = vec![EstimateModel::SystematicOver {
                factor: f64::INFINITY,
            }]
        });
        assert!(err.starts_with("estimates: SystematicOver"), "{err}");
        assert_eq!(
            out_of_range(|s| s.loads = vec![None, Some(0.0)]),
            "loads: 0: load must be finite and > 0"
        );
        assert!(out_of_range(|s| s.loads = vec![Some(f64::NAN)]).starts_with("loads: NaN"));
        let mut edge = tiny_spec();
        edge.kinds = vec![
            SchedulerKind::Selective {
                threshold: f64::INFINITY,
            },
            SchedulerKind::Slack { slack_factor: 0.0 },
        ];
        edge.loads = vec![None];
        assert!(
            edge.validate().is_ok(),
            "inf never reserves; slack 0 is conservative"
        );
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = tiny_spec();
        let json = serde_json::to_string(&spec).unwrap();
        let back: SweepSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
        assert_eq!(spec.expand(), back.expand());
    }
}
