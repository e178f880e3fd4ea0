//! Workload traces: ordered collections of jobs bound to a machine size.

use crate::job::{Job, JobDefect};
use serde::{Deserialize, Serialize};
use simcore::{JobId, SimSpan, SimTime};

/// An immutable, validated workload trace.
///
/// Invariants enforced at construction:
/// * jobs are sorted by `(arrival, id)`;
/// * job ids are dense (`jobs[i].id == JobId(i)`);
/// * every job passes [`Job::validate`];
/// * every width fits the machine (`width <= nodes`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Trace {
    name: String,
    nodes: u32,
    jobs: Vec<Job>,
}

/// Error produced when assembling a trace from raw job records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// A job record violates a per-job invariant.
    BadJob {
        /// Index of the offending record.
        index: usize,
        /// What is wrong with it.
        defect: JobDefect,
    },
    /// A job requests more processors than the machine has.
    TooWide {
        /// Index of the offending record.
        index: usize,
        /// The requested width.
        width: u32,
        /// Machine size.
        nodes: u32,
    },
    /// The machine size is zero.
    NoNodes,
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::BadJob { index, defect } => write!(f, "job at index {index}: {defect}"),
            TraceError::TooWide {
                index,
                width,
                nodes,
            } => {
                write!(f, "job at index {index} requests {width} > {nodes} nodes")
            }
            TraceError::NoNodes => write!(f, "machine has zero nodes"),
        }
    }
}

impl std::error::Error for TraceError {}

impl Trace {
    /// Build a trace from raw records, sorting by arrival and reassigning
    /// dense ids. Rejects any defective record.
    pub fn new(
        name: impl Into<String>,
        nodes: u32,
        mut jobs: Vec<Job>,
    ) -> Result<Self, TraceError> {
        if nodes == 0 {
            return Err(TraceError::NoNodes);
        }
        for (index, job) in jobs.iter().enumerate() {
            job.validate()
                .map_err(|defect| TraceError::BadJob { index, defect })?;
            if job.width > nodes {
                return Err(TraceError::TooWide {
                    index,
                    width: job.width,
                    nodes,
                });
            }
        }
        // Stable sort keeps submission order among simultaneous arrivals.
        jobs.sort_by_key(|j| j.arrival);
        for (i, job) in jobs.iter_mut().enumerate() {
            job.id = JobId(i as u32);
        }
        Ok(Trace {
            name: name.into(),
            nodes,
            jobs,
        })
    }

    /// Trace name (e.g. `"CTC-syn"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Machine size the trace targets.
    pub fn nodes(&self) -> u32 {
        self.nodes
    }

    /// The jobs, sorted by arrival.
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True if the trace holds no jobs.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Look up a job by id.
    pub fn job(&self, id: JobId) -> &Job {
        &self.jobs[id.0 as usize]
    }

    /// First arrival instant (zero for an empty trace).
    pub fn first_arrival(&self) -> SimTime {
        self.jobs.first().map_or(SimTime::ZERO, |j| j.arrival)
    }

    /// Last arrival instant (zero for an empty trace).
    pub fn last_arrival(&self) -> SimTime {
        self.jobs.last().map_or(SimTime::ZERO, |j| j.arrival)
    }

    /// Arrival span: last arrival − first arrival.
    pub fn arrival_span(&self) -> SimSpan {
        self.last_arrival().since(self.first_arrival())
    }

    /// Total real work in processor-seconds (Σ width·runtime).
    pub fn total_area(&self) -> u128 {
        self.jobs.iter().map(Job::area).sum()
    }

    /// Offered load ρ = total work / (nodes × arrival span).
    ///
    /// The standard open-system load measure: the machine can keep up in the
    /// long run iff ρ < 1. Returns infinity for a zero arrival span with
    /// non-zero work.
    pub fn offered_load(&self) -> f64 {
        let span = self.arrival_span().as_secs();
        if span == 0 {
            return if self.total_area() == 0 {
                0.0
            } else {
                f64::INFINITY
            };
        }
        self.total_area() as f64 / (self.nodes as f64 * span as f64)
    }

    /// Replace every job's estimate using `f(job) -> new_estimate`.
    ///
    /// Panics (in the returned `Trace::new` error) if `f` produces an
    /// estimate below the runtime; estimate models must respect
    /// `estimate ≥ runtime`.
    pub fn map_estimates(&self, mut f: impl FnMut(&Job) -> SimSpan) -> Result<Trace, TraceError> {
        let jobs = self
            .jobs
            .iter()
            .map(|j| Job {
                estimate: f(j),
                ..*j
            })
            .collect();
        Trace::new(self.name.clone(), self.nodes, jobs)
    }

    /// Return a copy containing only the first `n` jobs (by arrival).
    pub fn truncated(&self, n: usize) -> Trace {
        Trace {
            name: self.name.clone(),
            nodes: self.nodes,
            jobs: self.jobs.iter().take(n).copied().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw(arrival: u64, runtime: u64, estimate: u64, width: u32) -> Job {
        Job {
            id: JobId(999), // deliberately wrong; Trace::new reassigns
            arrival: SimTime::new(arrival),
            runtime: SimSpan::new(runtime),
            estimate: SimSpan::new(estimate),
            width,
        }
    }

    #[test]
    fn construction_sorts_and_reassigns_ids() {
        let t = Trace::new("t", 8, vec![raw(20, 1, 1, 1), raw(10, 1, 1, 1)]).unwrap();
        assert_eq!(t.jobs()[0].arrival, SimTime::new(10));
        assert_eq!(t.jobs()[0].id, JobId(0));
        assert_eq!(t.jobs()[1].id, JobId(1));
        assert_eq!(t.job(JobId(1)).arrival, SimTime::new(20));
    }

    #[test]
    fn simultaneous_arrivals_keep_submission_order() {
        let mut a = raw(10, 5, 5, 1);
        a.width = 1;
        let mut b = raw(10, 7, 7, 2);
        b.width = 2;
        let t = Trace::new("t", 8, vec![a, b]).unwrap();
        assert_eq!(t.jobs()[0].width, 1);
        assert_eq!(t.jobs()[1].width, 2);
    }

    #[test]
    fn rejects_defective_jobs() {
        assert!(matches!(
            Trace::new("t", 8, vec![raw(0, 0, 1, 1)]),
            Err(TraceError::BadJob { index: 0, .. })
        ));
        assert!(matches!(
            Trace::new("t", 8, vec![raw(0, 1, 1, 9)]),
            Err(TraceError::TooWide {
                width: 9,
                nodes: 8,
                ..
            })
        ));
        assert!(matches!(
            Trace::new("t", 0, vec![]),
            Err(TraceError::NoNodes)
        ));
    }

    #[test]
    fn load_and_area() {
        // Two jobs: 4x100 and 4x100 = 800 proc-s, arrivals 0 and 100,
        // 8 nodes -> rho = 800 / (8*100) = 1.0.
        let t = Trace::new("t", 8, vec![raw(0, 100, 100, 4), raw(100, 100, 100, 4)]).unwrap();
        assert_eq!(t.total_area(), 800);
        assert!((t.offered_load() - 1.0).abs() < 1e-12);
        assert_eq!(t.arrival_span(), SimSpan::new(100));
    }

    #[test]
    fn offered_load_degenerate_cases() {
        let t = Trace::new("t", 8, vec![raw(5, 10, 10, 1)]).unwrap();
        assert!(t.offered_load().is_infinite());
        let t = Trace::new("t", 8, vec![]).unwrap();
        assert_eq!(t.offered_load(), 0.0);
        assert!(t.is_empty());
    }

    #[test]
    fn map_estimates_scales() {
        let t = Trace::new("t", 8, vec![raw(0, 50, 50, 1)]).unwrap();
        let doubled = t.map_estimates(|j| j.estimate.scale(2.0)).unwrap();
        assert_eq!(doubled.jobs()[0].estimate, SimSpan::new(100));
        assert_eq!(doubled.jobs()[0].runtime, SimSpan::new(50));
    }

    #[test]
    fn map_estimates_rejects_below_runtime() {
        let t = Trace::new("t", 8, vec![raw(0, 50, 50, 1)]).unwrap();
        assert!(t.map_estimates(|_| SimSpan::new(10)).is_err());
    }

    #[test]
    fn truncated_keeps_prefix() {
        let t = Trace::new(
            "t",
            8,
            vec![raw(0, 1, 1, 1), raw(1, 1, 1, 1), raw(2, 1, 1, 1)],
        )
        .unwrap();
        let p = t.truncated(2);
        assert_eq!(p.len(), 2);
        assert_eq!(p.last_arrival(), SimTime::new(1));
    }
}
