//! The result of simulating one trace under one scheduler.

use metrics::{JobOutcome, ScheduleStats};
use sched::ProfileStats;
use simcore::{validate_schedule, PlacedJob, SimError, SimTime};
use workload::CategoryCriteria;

/// A completed schedule: one outcome per job, in job-id order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Name of the scheduler that produced it (e.g. `"EASY/SJF"`).
    pub scheduler: String,
    /// Machine size the schedule ran on.
    pub nodes: u32,
    /// Per-job outcomes, indexed by job id.
    pub outcomes: Vec<JobOutcome>,
    /// Every run of each job that was ever suspended, in the order they
    /// ended (a suspended job holds no processors). Any other job ran once,
    /// over its outcome's `[start, end)`.
    pub suspended_runs: RunLog,
    /// Availability-profile operation counters accumulated by the
    /// scheduler over the run, if it maintains a profile (`None` for
    /// profile-free schedulers such as plain FCFS).
    pub profile_stats: Option<ProfileStats>,
    /// Discrete events the driver delivered over the run (arrivals,
    /// completions, wake-ups). The denominator of events/sec throughput;
    /// excluded from [`Schedule::fingerprint`], which hashes decisions
    /// only.
    pub events: u64,
}

impl Schedule {
    /// Aggregate the paper's statistics.
    pub fn stats(&self, criteria: &CategoryCriteria) -> ScheduleStats {
        ScheduleStats::from_outcomes(&self.outcomes, self.nodes, criteria)
    }

    /// Audit the schedule against machine capacity, independent of the
    /// scheduler's own bookkeeping. Sweeps every run — the suspended jobs'
    /// runs and one `[start, end)` run per other job — and checks that
    /// each job's runs cover exactly its runtime within its `[start, end]`
    /// outcome window.
    pub fn validate(&self) -> Result<(), SimError> {
        let mut runs: Vec<PlacedJob> = self.suspended_runs.iter().copied().collect();
        let mut suspended = vec![false; self.outcomes.len()];
        runs.iter().for_each(|r| suspended[r.id as usize] = true);
        runs.extend(
            self.outcomes
                .iter()
                .filter(|o| !suspended[o.id().0 as usize])
                .map(|o| PlacedJob {
                    id: o.id().0,
                    arrival: o.job.arrival,
                    start: o.start,
                    end: o.end(),
                    width: o.job.width,
                }),
        );
        validate_schedule(&runs, self.nodes)?;
        let mut covered = vec![0u64; self.outcomes.len()];
        for seg in &runs {
            let o = &self.outcomes[seg.id as usize];
            if seg.start < o.start || seg.end > o.end() {
                return Err(SimError::AuditFailure(format!(
                    "job#{} segment [{}, {}] outside its outcome window",
                    seg.id, seg.start, seg.end
                )));
            }
            covered[seg.id as usize] += seg.end.since(seg.start).as_secs();
        }
        for (o, &c) in self.outcomes.iter().zip(&covered) {
            if c != o.job.runtime.as_secs() {
                return Err(SimError::AuditFailure(format!(
                    "{} ran {c} s of its {} runtime",
                    o.id(),
                    o.job.runtime
                )));
            }
        }
        Ok(())
    }

    /// Completion time of the last job (zero for an empty schedule).
    pub fn last_end(&self) -> SimTime {
        self.outcomes
            .iter()
            .map(|o| o.end())
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// FNV-1a fingerprint of the `(job id, start time)` assignment —
    /// two schedules are behaviourally identical iff their fingerprints
    /// match. Used to verify the paper's Section 4.1 equivalence theorem.
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01B3;
        let mut h = OFFSET;
        let mut eat = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(PRIME);
            }
        };
        for o in &self.outcomes {
            eat(o.id().0 as u64);
            eat(o.start.as_secs());
        }
        h
    }
}

/// An append-only list of runs in chunks of 128 (4 KiB), so that it grows
/// without copying: a doubling `Vec` would allocate about twice what it
/// ends up holding.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunLog(Vec<Vec<PlacedJob>>);

impl RunLog {
    /// Append `run`.
    pub fn push(&mut self, run: PlacedJob) {
        if self.0.last().is_none_or(|chunk| chunk.len() == 128) {
            self.0.push(Vec::with_capacity(128));
        }
        self.0.last_mut().expect("a chunk with room").push(run);
    }

    /// The runs in the order they were appended.
    pub fn iter(&self) -> impl Iterator<Item = &PlacedJob> {
        self.0.iter().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::{JobId, SimSpan};
    use workload::Job;

    fn outcome(id: u32, arrival: u64, runtime: u64, width: u32, start: u64) -> JobOutcome {
        JobOutcome::new(
            Job {
                id: JobId(id),
                arrival: SimTime::new(arrival),
                runtime: SimSpan::new(runtime),
                estimate: SimSpan::new(runtime),
                width,
            },
            SimTime::new(start),
        )
    }

    fn schedule(outcomes: Vec<JobOutcome>) -> Schedule {
        Schedule {
            scheduler: "test".into(),
            nodes: 8,
            outcomes,
            suspended_runs: RunLog::default(),
            profile_stats: None,
            events: 0,
        }
    }

    fn run(id: u32, start: u64, end: u64, width: u32) -> PlacedJob {
        PlacedJob {
            id,
            arrival: SimTime::ZERO,
            start: SimTime::new(start),
            end: SimTime::new(end),
            width,
        }
    }

    #[test]
    fn valid_schedule_passes_audit() {
        let s = schedule(vec![outcome(0, 0, 100, 8, 0), outcome(1, 0, 50, 8, 100)]);
        assert!(s.validate().is_ok());
        assert_eq!(s.last_end(), SimTime::new(150));
    }

    #[test]
    fn oversubscribed_schedule_fails_audit() {
        let s = schedule(vec![outcome(0, 0, 100, 6, 0), outcome(1, 0, 100, 6, 50)]);
        assert!(s.validate().is_err());
    }

    #[test]
    fn suspended_runs_are_audited_beside_the_other_outcomes() {
        // Job 0 (runtime 100) runs [0, 40), is suspended while job 1
        // holds the whole machine over [40, 90), and runs [90, 150).
        let mut s = schedule(vec![
            JobOutcome::with_end(
                outcome(0, 0, 100, 6, 0).job,
                SimTime::ZERO,
                SimTime::new(150),
            ),
            outcome(1, 0, 50, 8, 40),
        ]);
        let log = |runs: &[PlacedJob]| {
            let mut log = RunLog::default();
            runs.iter().for_each(|&r| log.push(r));
            log
        };
        s.suspended_runs = log(&[run(0, 0, 40, 6), run(0, 90, 150, 6)]);
        // Its outcome window overlaps job 1's run: only the runs count.
        assert!(s.validate().is_ok());
        // A lost run leaves the runtime uncovered.
        s.suspended_runs = log(&[run(0, 0, 40, 6)]);
        let err = s.validate().unwrap_err().to_string();
        assert!(err.contains("ran 40 s of its"), "{err}");
        // A run overlapping job 1 oversubscribes the machine.
        s.suspended_runs = log(&[run(0, 0, 50, 6), run(0, 90, 140, 6)]);
        assert!(s.validate().is_err());
    }

    #[test]
    fn run_log_keeps_order_across_chunks() {
        let mut log = RunLog::default();
        for id in 0..3 * 128 + 1 {
            log.push(run(id, 0, 1, 1));
        }
        assert!(log.iter().map(|r| r.id).eq(0..3 * 128 + 1));
        assert!(log.0.iter().all(|chunk| chunk.capacity() == 128));
    }

    #[test]
    fn fingerprint_detects_start_time_differences() {
        let a = schedule(vec![outcome(0, 0, 100, 4, 0), outcome(1, 0, 100, 4, 0)]);
        let b = schedule(vec![outcome(0, 0, 100, 4, 0), outcome(1, 0, 100, 4, 0)]);
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = schedule(vec![outcome(0, 0, 100, 4, 0), outcome(1, 0, 100, 4, 7)]);
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn empty_schedule() {
        let s = schedule(vec![]);
        assert!(s.validate().is_ok());
        assert_eq!(s.last_end(), SimTime::ZERO);
        let stats = s.stats(&CategoryCriteria::default());
        assert_eq!(stats.overall.count(), 0);
    }
}
