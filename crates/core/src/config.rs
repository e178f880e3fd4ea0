//! Declarative experiment configuration.
//!
//! An experiment is fully described by a [`RunConfig`]: where the workload
//! comes from, how estimates are derived, what offered load to impose, and
//! which scheduler × priority policy to run. Configs are plain serde data,
//! so sweeps can be written down, saved, diffed, and reproduced exactly.

use crate::driver::{simulate, SchedulerKind};
use crate::schedule::Schedule;
use sched::Policy;
use serde::{Deserialize, Serialize};
use workload::load::scale_to_load;
use workload::models::{ctc, sdsc};
use workload::{EstimateModel, Trace};

/// Where the workload trace comes from.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TraceSource {
    /// Synthetic CTC SP2 model (430 nodes).
    Ctc {
        /// Number of jobs to generate.
        jobs: usize,
        /// Generator seed.
        seed: u64,
    },
    /// Synthetic SDSC SP2 model (128 nodes).
    Sdsc {
        /// Number of jobs to generate.
        jobs: usize,
        /// Generator seed.
        seed: u64,
    },
}

impl TraceSource {
    /// Generate the base trace (exact estimates).
    pub fn generate(&self) -> Trace {
        match *self {
            TraceSource::Ctc { jobs, seed } => ctc().generate(jobs, seed),
            TraceSource::Sdsc { jobs, seed } => sdsc().generate(jobs, seed),
        }
    }

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            TraceSource::Ctc { .. } => "CTC",
            TraceSource::Sdsc { .. } => "SDSC",
        }
    }
}

/// A workload scenario: source trace + estimate model + load level.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Trace source.
    pub source: TraceSource,
    /// How user estimates are derived from runtimes.
    pub estimate: EstimateModel,
    /// Seed for stochastic estimate models.
    pub estimate_seed: u64,
    /// Target offered load ρ (`None` keeps the model's base load).
    pub load: Option<f64>,
}

impl Scenario {
    /// A scenario with exact estimates at the paper's high load.
    pub fn high_load(source: TraceSource) -> Self {
        Scenario {
            source,
            estimate: EstimateModel::Exact,
            estimate_seed: 1,
            load: Some(0.9),
        }
    }

    /// Canonical compact JSON of this scenario (object keys sorted
    /// recursively). Equal scenarios produce byte-identical text, so
    /// this is the trace-sharing key used by the sweep runner and the
    /// service's trace cache.
    pub fn canonical_json(&self) -> String {
        crate::canon::canonical_json(self)
    }

    /// Materialize the trace: generate, apply estimates, rescale load.
    pub fn materialize(&self) -> Trace {
        let base = self.source.generate();
        let estimated = self.estimate.apply(&base, self.estimate_seed);
        match self.load {
            Some(rho) => scale_to_load(&estimated, rho),
            None => estimated,
        }
    }
}

/// One full simulation run: a scenario under a scheduler and policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunConfig {
    /// The workload scenario.
    pub scenario: Scenario,
    /// Backfilling strategy.
    pub kind: SchedulerKind,
    /// Queue-priority policy.
    pub policy: Policy,
}

impl RunConfig {
    /// Materialize the trace and simulate. Deterministic: equal configs
    /// produce byte-identical schedules.
    pub fn run(&self) -> Schedule {
        let trace = self.scenario.materialize();
        simulate(&trace, self.kind, self.policy)
    }

    /// Run against an already materialized trace (callers sharing one
    /// trace across many scheduler configs avoid regenerating it).
    pub fn run_on(&self, trace: &Trace) -> Schedule {
        simulate(trace, self.kind, self.policy)
    }

    /// Canonical compact JSON of this config (object keys sorted
    /// recursively). Equal configs produce byte-identical text, so this
    /// is the content-addressed cache key used by the simulation service.
    pub fn canonical_json(&self) -> String {
        crate::canon::canonical_json(self)
    }

    /// Stable 64-bit content hash of [`Self::canonical_json`] (FNV-1a).
    /// The compact display form of the cache key; equal configs hash
    /// equal in every process on every platform.
    pub fn content_hash(&self) -> u64 {
        crate::canon::content_hash(self)
    }

    /// Report label, e.g. `"CTC EASY/SJF"`.
    pub fn label(&self) -> String {
        format!(
            "{} {}/{}",
            self.scenario.source.label(),
            self.kind.label(),
            self.policy
        )
    }
}

/// The range its constructor asserts for a scheduler kind's parameter:
/// depth ≥ 1, a selective or preemptive threshold ≥ 1 (`inf` allowed), a
/// finite slack factor ≥ 0. The CLI and sweep specs check every cell with
/// this, [`check_estimate`] and [`check_load`] before it runs.
pub fn check_kind(kind: SchedulerKind) -> Result<(), String> {
    match kind {
        SchedulerKind::Depth { depth: 0 } => Err("reservation depth must be >= 1".into()),
        SchedulerKind::Selective { threshold: t } | SchedulerKind::Preemptive { threshold: t }
            if t.is_nan() || t < 1.0 =>
        {
            Err("threshold must be >= 1 (inf allowed)".into())
        }
        SchedulerKind::Slack { slack_factor: f } if !f.is_finite() || f < 0.0 => {
            Err("slack factor must be finite and >= 0".into())
        }
        _ => Ok(()),
    }
}

/// The range of an estimate model's parameter: a systematic
/// overestimation factor is finite and ≥ 1.
pub fn check_estimate(estimate: EstimateModel) -> Result<(), String> {
    match estimate {
        EstimateModel::SystematicOver { factor } if !factor.is_finite() || factor < 1.0 => {
            Err("overestimation factor must be finite and >= 1".into())
        }
        _ => Ok(()),
    }
}

/// The range of an offered load ρ: finite and > 0.
pub fn check_load(rho: f64) -> Result<(), String> {
    if rho.is_finite() && rho > 0.0 {
        Ok(())
    } else {
        Err("load must be finite and > 0".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_ctc() -> TraceSource {
        TraceSource::Ctc {
            jobs: 300,
            seed: 11,
        }
    }

    #[test]
    fn materialize_is_deterministic() {
        let sc = Scenario::high_load(small_ctc());
        assert_eq!(sc.materialize().jobs(), sc.materialize().jobs());
    }

    #[test]
    fn load_targeting_applies() {
        let sc = Scenario {
            source: small_ctc(),
            estimate: EstimateModel::Exact,
            estimate_seed: 1,
            load: Some(1.1),
        };
        let t = sc.materialize();
        assert!(
            (t.offered_load() - 1.1).abs() < 0.05,
            "rho {}",
            t.offered_load()
        );
    }

    #[test]
    fn estimate_model_applies() {
        let sc = Scenario {
            source: small_ctc(),
            estimate: EstimateModel::systematic(4.0),
            estimate_seed: 1,
            load: None,
        };
        let t = sc.materialize();
        for j in t.jobs() {
            assert!(
                (j.overestimation() - 4.0).abs() < 0.51,
                "R {}",
                j.overestimation()
            );
        }
    }

    #[test]
    fn run_produces_valid_schedule() {
        let cfg = RunConfig {
            scenario: Scenario::high_load(small_ctc()),
            kind: SchedulerKind::Easy,
            policy: Policy::Sjf,
        };
        let s = cfg.run();
        assert_eq!(s.outcomes.len(), 300);
        s.validate().unwrap();
        assert_eq!(cfg.label(), "CTC EASY/SJF");
    }

    #[test]
    fn run_on_shared_trace_matches_run() {
        let cfg = RunConfig {
            scenario: Scenario::high_load(small_ctc()),
            kind: SchedulerKind::Conservative,
            policy: Policy::Fcfs,
        };
        let trace = cfg.scenario.materialize();
        assert_eq!(cfg.run().fingerprint(), cfg.run_on(&trace).fingerprint());
    }

    #[test]
    fn config_round_trips_through_json() {
        let cfg = RunConfig {
            scenario: Scenario::high_load(TraceSource::Sdsc { jobs: 10, seed: 3 }),
            kind: SchedulerKind::Selective { threshold: 2.5 },
            policy: Policy::XFactor,
        };
        let json = serde_json::to_string(&cfg).unwrap();
        let back: RunConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
    }
}
