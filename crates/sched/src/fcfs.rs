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
use crate::scheduler::{Decisions, JobMeta, Scheduler};
use simcore::{JobId, SimTime};
use std::collections::HashMap;

/// Priority-ordered scheduler without backfilling.
#[derive(Debug, Clone)]
pub struct FcfsScheduler {
    policy: Policy,
    capacity: u32,
    free: u32,
    queue: SchedQueue,
    running: HashMap<JobId, u32>,
    /// Recycled `starts` buffer from the previous event's [`Decisions`]
    /// (handed back by the driver via [`Scheduler::recycle`]).
    starts_scratch: Vec<JobId>,
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
            running: HashMap::new(),
            starts_scratch: Vec::new(),
        }
    }

    fn reschedule(&mut self, now: SimTime) -> Decisions {
        self.queue.prepare(now);
        let mut starts = std::mem::take(&mut self.starts_scratch);
        debug_assert!(starts.is_empty());
        while let Some(head) = self.queue.front() {
            if head.width > self.free {
                break; // strict: nothing may pass the blocked head
            }
            let head = self.queue.pop_front().expect("front() was Some");
            self.free -= head.width;
            self.running.insert(head.id, head.width);
            starts.push(head.id);
        }
        Decisions::start(starts)
    }
}

impl Scheduler for FcfsScheduler {
    fn name(&self) -> String {
        format!("NoBackfill/{}", self.policy)
    }

    fn on_arrival(&mut self, job: JobMeta, now: SimTime) -> Decisions {
        assert!(job.width <= self.capacity, "{} wider than machine", job.id);
        self.queue.push(job);
        self.reschedule(now)
    }

    fn on_completion(&mut self, id: JobId, now: SimTime) -> Decisions {
        let width = self
            .running
            .remove(&id)
            .expect("completion for unknown job");
        self.free += width;
        self.reschedule(now)
    }

    fn on_wake(&mut self, now: SimTime) -> Decisions {
        self.reschedule(now)
    }

    fn queue_len(&self) -> usize {
        self.queue.len()
    }

    fn recycle(&mut self, spent: Decisions) {
        let mut starts = spent.starts;
        starts.clear();
        self.starts_scratch = starts;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimSpan;

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
        let mut s = FcfsScheduler::new(8, Policy::Fcfs);
        let d = s.on_arrival(meta(0, 0, 100, 4), SimTime::ZERO);
        assert_eq!(d.starts, vec![JobId(0)]);
        assert_eq!(s.queue_len(), 0);
    }

    #[test]
    fn blocked_head_blocks_everything_behind_it() {
        let mut s = FcfsScheduler::new(8, Policy::Fcfs);
        s.on_arrival(meta(0, 0, 100, 6), SimTime::ZERO);
        // Head needs 4 > 2 free; the 1-wide job behind must NOT start.
        let d = s.on_arrival(meta(1, 1, 100, 4), SimTime::new(1));
        assert!(d.starts.is_empty());
        let d = s.on_arrival(meta(2, 2, 10, 1), SimTime::new(2));
        assert!(
            d.starts.is_empty(),
            "no-backfill scheduler must not backfill"
        );
        assert_eq!(s.queue_len(), 2);
    }

    #[test]
    fn completion_unblocks_in_order() {
        let mut s = FcfsScheduler::new(8, Policy::Fcfs);
        s.on_arrival(meta(0, 0, 100, 8), SimTime::ZERO);
        s.on_arrival(meta(1, 1, 100, 4), SimTime::new(1));
        s.on_arrival(meta(2, 2, 100, 4), SimTime::new(2));
        let d = s.on_completion(JobId(0), SimTime::new(100));
        assert_eq!(d.starts, vec![JobId(1), JobId(2)]);
    }

    #[test]
    fn sjf_reorders_queue() {
        let mut s = FcfsScheduler::new(8, Policy::Sjf);
        s.on_arrival(meta(0, 0, 100, 8), SimTime::ZERO);
        s.on_arrival(meta(1, 1, 900, 8), SimTime::new(1));
        s.on_arrival(meta(2, 2, 100, 8), SimTime::new(2));
        let d = s.on_completion(JobId(0), SimTime::new(100));
        // Shorter job 2 starts despite arriving later.
        assert_eq!(d.starts, vec![JobId(2)]);
    }

    #[test]
    fn wake_is_harmless() {
        let mut s = FcfsScheduler::new(8, Policy::Fcfs);
        let d = s.on_wake(SimTime::new(5));
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
        let mut s = FcfsScheduler::new(4, Policy::Fcfs);
        s.on_arrival(meta(0, 0, 10, 5), SimTime::ZERO);
    }
}
