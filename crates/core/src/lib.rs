//! # backfill-sim — characterization of backfilling strategies
//!
//! A trace-driven simulator for parallel job scheduling, reproducing
//! *"Characterization of Backfilling Strategies for Parallel Job
//! Scheduling"* (Srinivasan, Kettimuthu, Subramani, Sadayappan; ICPP 2002).
//!
//! ## Quick start
//!
//! ```
//! use backfill_sim::prelude::*;
//!
//! // A small synthetic CTC-like workload at high load, exact estimates.
//! let scenario = Scenario::high_load(TraceSource::Ctc { jobs: 200, seed: 42 });
//! let trace = scenario.materialize();
//!
//! // EASY backfilling with shortest-job-first priorities.
//! let schedule = simulate(&trace, SchedulerKind::Easy, Policy::Sjf);
//! schedule.validate().expect("no capacity violations");
//!
//! let stats = schedule.stats(&CategoryCriteria::default());
//! assert!(stats.overall.avg_slowdown() >= 1.0);
//! ```
//!
//! ## Crate map
//!
//! * [`driver`] — the event loop binding trace + scheduler + machine;
//! * [`config`] — declarative scenario/run configuration;
//! * [`canon`] — canonical JSON + stable content hashing (cache keys);
//! * [`runner`] — parallel sweep execution (deterministic results);
//! * [`campaign`] — multi-seed replication with confidence intervals;
//! * [`schedule`] — the simulated schedule, auditing, fingerprints;
//! * re-exported substrates: `sched` (policies), `workload` (traces,
//!   estimate models), `metrics` (statistics), `simcore` (clock, event
//!   queue, RNG).

#![warn(missing_docs)]

pub mod campaign;
pub mod canon;
pub mod config;
pub mod driver;
pub mod runner;
pub mod schedule;

pub use campaign::{Campaign, CampaignCell, Estimate};
pub use config::{check_estimate, check_kind, check_load, RunConfig, Scenario, TraceSource};
pub use driver::{flush_profile_stats, simulate, simulate_observed, SchedulerKind, SimOptions};
pub use runner::{
    materialize_caught, run_all, run_all_checked, run_cell_on, CellError, RunResult, SweepSharing,
};
pub use schedule::{RunLog, Schedule};

/// Everything a typical experiment needs, in one import.
pub mod prelude {
    pub use crate::campaign::{Campaign, CampaignCell, Estimate};
    pub use crate::config::{RunConfig, Scenario, TraceSource};
    pub use crate::driver::{simulate, simulate_observed, SchedulerKind, SimOptions};
    pub use crate::runner::{
        run_all, run_all_checked, run_cell_on, CellError, RunResult, SweepSharing,
    };
    pub use crate::schedule::Schedule;
    pub use metrics::{
        fnum, fpct, percent_change, JobOutcome, Quantiles, ScheduleStats, Table, Welford,
    };
    pub use sched::{Policy, Scheduler};
    pub use simcore::{JobId, SimSpan, SimTime};
    pub use workload::{
        Category, CategoryCriteria, EstimateModel, EstimateQuality, Job, Trace, UserModelParams,
    };
}
