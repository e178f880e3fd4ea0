//! The no-backfill baseline scheduler.
//!
//! Jobs are started strictly in priority order: the head of the queue
//! starts as soon as enough processors are free, and **nothing behind it
//! may jump ahead** — if the head doesn't fit, the machine drains until it
//! does. This is the classic FCFS space-sharing scheduler whose poor
//! utilization motivated backfilling in the first place (Section 2 of the
//! paper); it is the control arm for every backfilling comparison.

use crate::policy::Policy;
use crate::queue::SchedQueue;
use crate::scheduler::{Decisions, JobMeta, Running, Scheduler};
use simcore::SimTime;

/// Priority-ordered scheduler without backfilling.
#[derive(Debug, Clone)]
pub struct FcfsScheduler {
    policy: Policy,
    capacity: u32,
    free: u32,
    queue: SchedQueue,
    /// Opt-in per-phase profiling accumulator (strictly observational).
    phases: Option<obs::SharedPhases>,
}

impl FcfsScheduler {
    /// Create for a machine with `capacity` processors.
    pub fn new(capacity: u32, policy: Policy) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        FcfsScheduler {
            policy,
            capacity,
            free: capacity,
            queue: SchedQueue::new(policy),
            phases: None,
        }
    }

    fn reschedule(&mut self, now: SimTime, out: &mut Decisions) {
        let t0 = obs::span::start_nested(&self.phases, obs::Phase::QueueOps);
        self.queue.prepare(now);
        obs::span::finish_nested(&self.phases, obs::Phase::QueueOps, t0);
        while let Some(head) = self.queue.front() {
            if head.width > self.free {
                break; // strict: nothing may pass the blocked head
            }
            let head = self.queue.pop_front().expect("front() was Some");
            self.free -= head.width;
            out.starts.push(head.id);
        }
    }
}

impl Scheduler for FcfsScheduler {
    fn name(&self) -> String {
        format!("NoBackfill/{}", self.policy)
    }

    fn on_arrival(&mut self, job: JobMeta, now: SimTime, out: &mut Decisions) {
        assert!(job.width <= self.capacity, "{} wider than machine", job.id);
        let t0 = obs::span::start_nested(&self.phases, obs::Phase::QueueOps);
        self.queue.push(job);
        obs::span::finish_nested(&self.phases, obs::Phase::QueueOps, t0);
        self.reschedule(now, out);
    }

    fn on_completion(&mut self, job: Running, now: SimTime, out: &mut Decisions) {
        self.free += job.meta.width;
        self.reschedule(now, out);
    }

    fn on_wake(&mut self, now: SimTime, out: &mut Decisions) {
        self.reschedule(now, out);
    }

    fn queue_len(&self) -> usize {
        self.queue.len()
    }

    fn set_phases(&mut self, phases: obs::SharedPhases) {
        self.phases = Some(phases);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::testing::Harness;
    use simcore::{JobId, SimSpan};

    fn meta(id: u32, arrival: u64, estimate: u64, width: u32) -> JobMeta {
        JobMeta {
            id: JobId(id),
            arrival: SimTime::new(arrival),
            estimate: SimSpan::new(estimate),
            width,
        }
    }

    #[test]
    fn starts_immediately_when_fits() {
        let mut s = Harness::new(FcfsScheduler::new(8, Policy::Fcfs));
        let d = s.arrive(meta(0, 0, 100, 4), SimTime::ZERO);
        assert_eq!(d.starts, vec![JobId(0)]);
        assert_eq!(s.queue_len(), 0);
    }

    #[test]
    fn blocked_head_blocks_everything_behind_it() {
        let mut s = Harness::new(FcfsScheduler::new(8, Policy::Fcfs));
        s.arrive(meta(0, 0, 100, 6), SimTime::ZERO);
        // Head needs 4 > 2 free; the 1-wide job behind must NOT start.
        let d = s.arrive(meta(1, 1, 100, 4), SimTime::new(1));
        assert!(d.starts.is_empty());
        let d = s.arrive(meta(2, 2, 10, 1), SimTime::new(2));
        assert!(
            d.starts.is_empty(),
            "no-backfill scheduler must not backfill"
        );
        assert_eq!(s.queue_len(), 2);
    }

    #[test]
    fn completion_unblocks_in_order() {
        let mut s = Harness::new(FcfsScheduler::new(8, Policy::Fcfs));
        s.arrive(meta(0, 0, 100, 8), SimTime::ZERO);
        s.arrive(meta(1, 1, 100, 4), SimTime::new(1));
        s.arrive(meta(2, 2, 100, 4), SimTime::new(2));
        let d = s.complete(JobId(0), SimTime::new(100));
        assert_eq!(d.starts, vec![JobId(1), JobId(2)]);
    }

    #[test]
    fn sjf_reorders_queue() {
        let mut s = Harness::new(FcfsScheduler::new(8, Policy::Sjf));
        s.arrive(meta(0, 0, 100, 8), SimTime::ZERO);
        s.arrive(meta(1, 1, 900, 8), SimTime::new(1));
        s.arrive(meta(2, 2, 100, 8), SimTime::new(2));
        let d = s.complete(JobId(0), SimTime::new(100));
        // Shorter job 2 starts despite arriving later.
        assert_eq!(d.starts, vec![JobId(2)]);
    }

    #[test]
    fn wake_is_harmless() {
        let mut s = Harness::new(FcfsScheduler::new(8, Policy::Fcfs));
        let d = s.wake(SimTime::new(5));
        assert!(d.starts.is_empty());
    }

    #[test]
    fn name_includes_policy() {
        assert_eq!(
            FcfsScheduler::new(4, Policy::XFactor).name(),
            "NoBackfill/XF"
        );
    }

    #[test]
    #[should_panic(expected = "wider than machine")]
    fn rejects_impossible_job() {
        let mut s = Harness::new(FcfsScheduler::new(4, Policy::Fcfs));
        s.arrive(meta(0, 0, 10, 5), SimTime::ZERO);
    }
}
