//! # metrics — measurement library for scheduling simulations
//!
//! * [`outcome`] — per-job results and the paper's job-level metrics
//!   (wait, turnaround, bounded slowdown with the 10 s threshold);
//! * [`aggregate`] — one-pass aggregation into overall, per-category
//!   (SN/SW/LN/LW) and per-estimate-quality summaries;
//! * [`welford`] — streaming mean/variance/min/max;
//! * [`quantile`] — exact quantiles;
//! * [`capacity`] — loss-of-capacity breakdown (idle-while-waiting);
//! * [`mod@fairness`] — Gini / max-stretch / overtake-rate fairness measures;
//! * [`timeseries`] — binned utilization and queue-depth series;
//! * [`viz`] — sparkline and ASCII-Gantt renderers;
//! * [`report`] — aligned text tables and CSV for the repro harness.

#![warn(missing_docs)]

pub mod aggregate;
pub mod capacity;
pub mod fairness;
pub mod outcome;
pub mod quantile;
pub mod report;
pub mod timeseries;
pub mod viz;
pub mod welford;

pub use aggregate::{percent_change, MetricSummary, ScheduleStats};
pub use capacity::{capacity_report, CapacityReport};
pub use fairness::{fairness, gini, FairnessReport};
pub use outcome::{JobOutcome, BOUNDED_SLOWDOWN_THRESHOLD_SECS};
pub use quantile::Quantiles;
pub use report::{fnum, fpct, Table};
pub use timeseries::{queue_depth_series, utilization_series, TimeSeries};
pub use welford::Welford;
