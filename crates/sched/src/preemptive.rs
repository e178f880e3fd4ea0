//! Selective preemption — the authors' companion strategy (their reference
//! \[6\], "Selective preemption strategies for parallel job scheduling",
//! ICPP 2002) — as a rule of the depth-1 pass
//! ([`DepthScheduler::preemptive`](crate::DepthScheduler::preemptive)).
//!
//! Backfilling alone cannot help a starving wide job: nothing running can
//! be displaced. When the blocked head's expansion factor crosses a
//! threshold, the scheduler may **suspend** running jobs to make room,
//! re-queueing them with their remaining work. Safeguards keep it
//! "selective" rather than thrashing:
//!
//! * only the *highest-priority* starving job triggers preemption;
//! * victims are chosen lowest-priority-first among jobs that have run at
//!   least `min_run` (no sniping of fresh starts) — the running jobs the
//!   driver reported through `Scheduler::on_started`, so a job started
//!   earlier in the same event is never a candidate;
//! * a job is suspended at most `max_preemptions` times, guaranteeing
//!   global progress.
//!
//! With an infinite threshold the scheduler is EASY — tested below.

use crate::policy::Policy;
use crate::scheduler::{JobMeta, Running};
use simcore::{JobId, SimSpan, SimTime};

/// The rule's threshold, safeguards and victim set.
#[derive(Debug, Clone)]
pub(crate) struct Preemption {
    /// Expansion-factor threshold that triggers preemption.
    threshold: f64,
    /// Minimum uninterrupted runtime before a job may be victimized.
    min_run: SimSpan,
    /// Per-job suspension cap.
    max_preemptions: u32,
    /// Every running job, as the driver reported its start, until it
    /// completes or is picked. [`victims`](Self::victims) sorts it by the
    /// policy's total order, so the order it arrived in never reaches a
    /// decision.
    running: Vec<Running>,
    /// The runners [`victims`](Self::victims) picked; reused across events.
    victims: Vec<Running>,
}

impl Preemption {
    /// The rule at `threshold` (≥ 1; infinity never preempts).
    pub(crate) fn new(threshold: f64) -> Self {
        assert!(
            threshold >= 1.0,
            "preemption threshold must be >= 1, got {threshold}"
        );
        Preemption {
            threshold,
            min_run: SimSpan::from_mins(10),
            max_preemptions: 2,
            running: Vec::new(),
            victims: Vec::new(),
        }
    }

    pub(crate) fn name(&self, policy: Policy) -> String {
        match self.threshold {
            t if t.is_finite() => format!("Preempt({t})/{policy}"),
            _ => format!("Preempt(∞)/{policy}"),
        }
    }

    pub(crate) fn started(&mut self, job: Running) {
        self.running.push(job);
    }

    pub(crate) fn completed(&mut self, id: JobId) {
        self.running.retain(|r| r.meta.id != id);
    }

    /// The runners to suspend, lowest priority first, so that the blocked
    /// `head` starts now: none unless it is starving and the safeguards
    /// free enough processors beside the `free` ones. They leave the
    /// victim set.
    pub(crate) fn victims(
        &mut self,
        head: Option<&JobMeta>,
        free: u32,
        policy: Policy,
        now: SimTime,
    ) -> &[Running] {
        self.victims.clear();
        let Some(head) = head.filter(|head| Policy::xfactor(head, now) >= self.threshold) else {
            return &self.victims;
        };
        // Lowest priority last in `compare` order; victimize from the back.
        // `compare` is a total order over distinct jobs, so an unstable
        // sort (which needs no merge buffer) gives the stable sort's order.
        self.running
            .sort_unstable_by(|a, b| policy.compare(&a.meta, &b.meta, now));
        let mut freed = free;
        for &job in self.running.iter().rev() {
            if freed >= head.width {
                break;
            }
            if now.since(job.started_at) >= self.min_run && job.suspensions < self.max_preemptions {
                self.victims.push(job);
                freed += job.meta.width;
            }
        }
        if freed < head.width {
            self.victims.clear();
        }
        let victims = &self.victims;
        self.running.retain(|r| !victims.contains(r));
        &self.victims
    }

    /// The wake-up at which the new `head` crosses the threshold, so that
    /// a quiet machine still runs its episode.
    pub(crate) fn wakeup(&self, head: Option<&JobMeta>, now: SimTime) -> Option<SimTime> {
        let cross = Policy::crossing_time(self.threshold, head?);
        (self.threshold.is_finite() && cross > now).then_some(cross)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::testing::Harness;
    use crate::{DepthScheduler, Scheduler};

    fn meta(id: u32, arrival: u64, estimate: u64, width: u32) -> JobMeta {
        JobMeta {
            id: JobId(id),
            arrival: SimTime::new(arrival),
            estimate: SimSpan::new(estimate),
            width,
        }
    }

    fn sched(threshold: f64) -> Harness<DepthScheduler> {
        guarded(threshold, SimSpan::new(60), 2)
    }

    fn guarded(threshold: f64, min_run: SimSpan, max: u32) -> Harness<DepthScheduler> {
        let mut s = DepthScheduler::preemptive(8, Policy::Fcfs, threshold);
        let rule = s.rule();
        rule.min_run = min_run;
        rule.max_preemptions = max;
        Harness::new(s)
    }

    /// The victim set of `s`.
    fn running(s: &mut DepthScheduler) -> &[Running] {
        &s.rule().running
    }

    #[test]
    fn behaves_like_easy_until_threshold() {
        let mut s = sched(10.0);
        s.arrive(meta(0, 0, 1_000, 6), SimTime::ZERO);
        let d = s.arrive(meta(1, 1, 500, 8), SimTime::new(1));
        assert!(d.starts.is_empty());
        assert!(d.preempts.is_empty());
        // Backfill still works.
        let d = s.arrive(meta(2, 2, 90, 2), SimTime::new(2));
        assert_eq!(d.starts, vec![JobId(2)]);
    }

    #[test]
    fn starving_head_triggers_preemption() {
        let mut s = sched(2.0);
        s.arrive(meta(0, 0, 10_000, 8), SimTime::ZERO);
        // Head: 8-wide, estimate 100 -> crosses xf 2 at wait 100.
        let d = s.arrive(meta(1, 1, 100, 8), SimTime::new(1));
        assert_eq!(d.wakeup, Some(SimTime::new(101)), "wake at the crossing");
        let d = s.wake(SimTime::new(101));
        assert_eq!(d.preempts, vec![JobId(0)], "the hog is suspended");
        assert_eq!(d.starts, vec![JobId(1)], "the starving job runs at once");
        // Driver callback: hog re-queued with remaining estimate.
        s.requeue(meta(0, 0, 10_000 - 101, 8));
        assert_eq!(s.queue_len(), 1);
    }

    #[test]
    fn min_run_protects_fresh_jobs() {
        let mut s = guarded(2.0, SimSpan::new(1_000), 2);
        s.arrive(meta(0, 0, 10_000, 8), SimTime::ZERO);
        s.arrive(meta(1, 1, 100, 8), SimTime::new(1));
        // At the crossing the hog has only run 101 s < 1000: no preemption.
        let d = s.wake(SimTime::new(101));
        assert!(d.preempts.is_empty());
        assert!(d.starts.is_empty());
    }

    #[test]
    fn max_preemptions_is_honoured() {
        let mut s = guarded(1.5, SimSpan::ZERO, 1);
        s.arrive(meta(0, 0, 10_000, 8), SimTime::ZERO);
        s.arrive(meta(1, 1, 100, 8), SimTime::new(1));
        let d = s.wake(SimTime::new(51));
        assert_eq!(d.preempts, vec![JobId(0)]);
        s.requeue(meta(0, 0, 10_000 - 51, 8));
        // Job 1 completes; the hog resumes.
        let d = s.complete(JobId(1), SimTime::new(151));
        assert_eq!(d.starts, vec![JobId(0)]);
        // A new starving job cannot displace it again (cap = 1).
        s.arrive(meta(2, 152, 100, 8), SimTime::new(152));
        let d = s.wake(SimTime::new(252));
        assert!(d.preempts.is_empty(), "second suspension must be refused");
    }

    #[test]
    fn a_job_started_in_the_same_event_is_no_victim() {
        // With no minimum run, only the victim set's origin keeps a job
        // that the event's head-start step just started out of the
        // episode that follows it.
        let mut s = guarded(2.0, SimSpan::ZERO, 2);
        s.arrive(meta(0, 0, 10_000, 4), SimTime::ZERO); // R
        s.arrive(meta(1, 0, 100, 4), SimTime::ZERO); // X
        s.arrive(meta(2, 1, 10_000, 4), SimTime::new(1)); // A
        s.arrive(meta(3, 2, 10, 8), SimTime::new(2)); // B
                                                      // X ends: A starts from the head, then B (xf 10.8) starves, but
                                                      // R alone frees only 4 of its 8 processors.
        let d = s.complete(JobId(1), SimTime::new(100));
        assert_eq!(d.starts, vec![JobId(2)]);
        assert!(d.preempts.is_empty(), "A was preempted: {:?}", d.preempts);
        // A reached the victim set once the start was applied.
        let d = s.wake(SimTime::new(101));
        assert_eq!(d.preempts, vec![JobId(2), JobId(0)]);
        assert_eq!(d.starts, vec![JobId(3)]);
    }

    #[test]
    fn completed_jobs_leave_the_bookkeeping() {
        let mut s = guarded(1.5, SimSpan::ZERO, 2);
        s.arrive(meta(0, 0, 10_000, 8), SimTime::ZERO);
        s.arrive(meta(1, 1, 100, 8), SimTime::new(1));
        let d = s.wake(SimTime::new(51));
        assert_eq!(d.preempts, vec![JobId(0)]);
        assert_eq!(running(&mut s).len(), 1, "the victim left the victim set");
        s.requeue(meta(0, 0, 10_000 - 51, 8));
        s.complete(JobId(1), SimTime::new(151)); // the hog resumes
        let suspensions: Vec<_> = running(&mut s)
            .iter()
            .map(|r| (r.meta.id, r.suspensions))
            .collect();
        assert_eq!(
            suspensions,
            [(JobId(0), 1)],
            "the resumed run counts its suspension"
        );
        s.complete(JobId(0), SimTime::new(10_000));
        assert!(running(&mut s).is_empty());
    }

    #[test]
    fn infinite_threshold_never_preempts_and_never_wakes() {
        let mut s = sched(f64::INFINITY);
        s.arrive(meta(0, 0, 10_000, 8), SimTime::ZERO);
        let d = s.arrive(meta(1, 1, 100, 8), SimTime::new(1));
        assert!(d.preempts.is_empty());
        assert_eq!(d.wakeup, None);
        assert_eq!(s.name(), "Preempt(∞)/FCFS");
    }

    #[test]
    #[should_panic(expected = "never asked to preempt")]
    fn a_plain_depth_scheduler_refuses_a_requeue() {
        DepthScheduler::new(8, Policy::Fcfs, 1).on_preempted(meta(0, 0, 100, 8));
    }

    #[test]
    #[should_panic(expected = "must be >= 1")]
    fn rejects_sub_one_threshold() {
        DepthScheduler::preemptive(8, Policy::Fcfs, 0.5);
    }
}
