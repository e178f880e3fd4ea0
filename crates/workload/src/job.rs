//! The job model.
//!
//! A parallel job, as the paper (and every space-sharing scheduler since
//! EASY) sees it: it arrives at some instant, requests a rectangle of
//! `width` processors × `estimate` seconds, and actually runs for
//! `runtime ≤ estimate` seconds. Schedulers may only consult `estimate`;
//! the simulation driver alone knows `runtime`.

use serde::{Deserialize, Serialize};
use simcore::{JobId, SimSpan, SimTime};

/// One parallel job of a workload trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Job {
    /// Dense identifier; equals the job's index in its trace.
    pub id: JobId,
    /// Submission instant.
    pub arrival: SimTime,
    /// Actual runtime. Hidden from schedulers.
    pub runtime: SimSpan,
    /// User-estimated runtime (wall-clock limit). What schedulers see.
    pub estimate: SimSpan,
    /// Number of processors requested (held for the whole runtime).
    pub width: u32,
}

impl Job {
    /// Processor-seconds of real work (`width × runtime`).
    pub fn area(&self) -> u128 {
        self.width as u128 * self.runtime.as_secs() as u128
    }

    /// Overestimation ratio `estimate / max(runtime, 1)`.
    pub fn overestimation(&self) -> f64 {
        self.estimate.as_secs_f64() / self.runtime.as_secs().max(1) as f64
    }

    /// Check the invariants every schedulable job must satisfy. Returns a
    /// human-readable description of the first violation, if any.
    pub fn validate(&self) -> Result<(), JobDefect> {
        if self.width == 0 {
            return Err(JobDefect::ZeroWidth);
        }
        if self.runtime.is_zero() {
            return Err(JobDefect::ZeroRuntime);
        }
        if self.estimate < self.runtime {
            return Err(JobDefect::EstimateBelowRuntime {
                estimate: self.estimate,
                runtime: self.runtime,
            });
        }
        Ok(())
    }
}

/// Why a job record is unusable by the simulator.
///
/// Real archive logs contain cancelled jobs (zero runtime), zero-width
/// records, and jobs killed past their wall-clock limit (runtime > estimate).
/// The paper's methodology drops/repairs these before simulation; `Trace`
/// construction surfaces them explicitly instead of silently mangling data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobDefect {
    /// The job requests zero processors.
    ZeroWidth,
    /// The job has zero runtime (e.g. cancelled before starting).
    ZeroRuntime,
    /// The recorded runtime exceeds the user estimate.
    EstimateBelowRuntime {
        /// The deficient estimate.
        estimate: SimSpan,
        /// The recorded runtime.
        runtime: SimSpan,
    },
}

impl std::fmt::Display for JobDefect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobDefect::ZeroWidth => write!(f, "zero processors requested"),
            JobDefect::ZeroRuntime => write!(f, "zero runtime"),
            JobDefect::EstimateBelowRuntime { estimate, runtime } => {
                write!(f, "estimate {estimate} below runtime {runtime}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(runtime: u64, estimate: u64, width: u32) -> Job {
        Job {
            id: JobId(0),
            arrival: SimTime::new(100),
            runtime: SimSpan::new(runtime),
            estimate: SimSpan::new(estimate),
            width,
        }
    }

    #[test]
    fn area_is_width_times_runtime() {
        assert_eq!(job(100, 100, 7).area(), 700);
    }

    #[test]
    fn overestimation_ratio() {
        assert!((job(50, 100, 1).overestimation() - 2.0).abs() < 1e-12);
        assert!((job(100, 100, 1).overestimation() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn validate_accepts_good_job() {
        assert_eq!(job(10, 10, 1).validate(), Ok(()));
        assert_eq!(job(10, 40, 128).validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_defects() {
        assert_eq!(job(10, 10, 0).validate(), Err(JobDefect::ZeroWidth));
        assert_eq!(job(0, 10, 1).validate(), Err(JobDefect::ZeroRuntime));
        assert!(matches!(
            job(20, 10, 1).validate(),
            Err(JobDefect::EstimateBelowRuntime { .. })
        ));
    }

    #[test]
    fn defect_display() {
        assert!(JobDefect::ZeroWidth.to_string().contains("zero processors"));
        assert!(job(20, 10, 1)
            .validate()
            .unwrap_err()
            .to_string()
            .contains("below runtime"));
    }
}
