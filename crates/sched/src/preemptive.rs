//! Selective preemption — the authors' companion strategy (their reference
//! \[6\], "Selective preemption strategies for parallel job scheduling",
//! ICPP 2002).
//!
//! Backfilling alone cannot help a starving wide job: nothing running can
//! be displaced. Selective preemption adds the missing lever — when a
//! waiting job's expansion factor crosses a threshold, the scheduler may
//! **suspend** running jobs to make room, re-queueing them with their
//! remaining work. Safeguards keep it "selective" rather than thrashing:
//!
//! * only the *highest-priority* starving job triggers preemption;
//! * victims are chosen lowest-priority-first among jobs that have run at
//!   least `min_run` (no sniping of fresh starts);
//! * a job is suspended at most `max_preemptions` times, guaranteeing
//!   global progress.
//!
//! Around the preemption episodes the scheduler *is* EASY: it embeds a
//! depth-1 [`DepthScheduler`] and runs its start-heads step and backfill
//! pass, so with an infinite threshold it degenerates to EASY — tested
//! below.

use crate::depth::DepthScheduler;
use crate::policy::Policy;
use crate::profile::ProfileStats;
use crate::scheduler::{Decisions, JobMeta, Scheduler};
use obs::trace::SharedRecorder;
use simcore::{JobId, SimSpan, SimTime};
use std::collections::HashMap;

/// EASY backfilling with selective preemption of running jobs.
#[derive(Debug, Clone)]
pub struct PreemptiveScheduler {
    /// The EASY (depth-1) scheduler underneath: queue, running set and
    /// backfill pass. Its queued `estimate`s are *remaining* estimates for
    /// previously preempted jobs.
    easy: DepthScheduler,
    /// Times a job has been suspended so far (sticky across resumes;
    /// dropped when it completes).
    suspended_count: HashMap<JobId, u32>,
    /// Each queued or running job's original meta, as first submitted —
    /// needed to rebuild the remaining estimate when a preempted job
    /// re-enters the queue. Dropped when the job completes.
    original: HashMap<JobId, JobMeta>,
    /// Expansion-factor threshold that triggers preemption.
    threshold: f64,
    /// Minimum uninterrupted runtime before a job may be victimized.
    min_run: SimSpan,
    /// Per-job suspension cap.
    max_preemptions: u32,
    /// Scratch for [`pick_victims`](Self::pick_victims): the runners that
    /// may be suspended, and the ones it picks. Reused across events.
    candidates: Vec<JobMeta>,
    victims: Vec<JobId>,
    /// Recycled `preempts` buffer from the previous event's [`Decisions`].
    preempts_scratch: Vec<JobId>,
}

impl PreemptiveScheduler {
    /// Create for a machine with `capacity` processors. `threshold` is the
    /// starving job's expansion factor that triggers preemption (≥ 1;
    /// infinity disables preemption entirely, yielding EASY).
    pub fn new(capacity: u32, policy: Policy, threshold: f64) -> Self {
        assert!(
            threshold >= 1.0,
            "preemption threshold must be >= 1, got {threshold}"
        );
        PreemptiveScheduler {
            easy: DepthScheduler::new(capacity, policy, 1),
            suspended_count: HashMap::new(),
            original: HashMap::new(),
            threshold,
            min_run: SimSpan::from_mins(10),
            max_preemptions: 2,
            candidates: Vec::new(),
            victims: Vec::new(),
            preempts_scratch: Vec::new(),
        }
    }

    /// Override the anti-thrashing safeguards.
    pub fn with_safeguards(mut self, min_run: SimSpan, max_preemptions: u32) -> Self {
        self.min_run = min_run;
        self.max_preemptions = max_preemptions;
        self
    }

    /// Pick victims (lowest priority first) freeing enough processors for
    /// `needed`, honouring the safeguards, into `self.victims`. Returns
    /// false if that is impossible.
    fn pick_victims(&mut self, needed: u32, now: SimTime) -> bool {
        let suspended_count = &self.suspended_count;
        let suspensions = |id: &JobId| suspended_count.get(id).copied().unwrap_or(0);
        self.candidates.clear();
        self.candidates.extend(
            self.easy
                .running
                .values()
                .filter(|r| {
                    now.since(r.started_at) >= self.min_run
                        && suspensions(&r.meta.id) < self.max_preemptions
                })
                .map(|r| r.meta),
        );
        // Lowest priority last in `compare` order; victimize from the back.
        // `compare` is a total order over distinct jobs, so an unstable
        // sort (which needs no merge buffer) gives the stable sort's order.
        let policy = self.easy.queue.policy();
        self.candidates
            .sort_unstable_by(|a, b| policy.compare(a, b, now));
        self.victims.clear();
        let mut freed = self.easy.free;
        for job in self.candidates.iter().rev() {
            if freed >= needed {
                break;
            }
            self.victims.push(job.id);
            freed += job.width;
        }
        freed >= needed
    }

    fn reschedule(&mut self, now: SimTime) -> Decisions {
        let mut starts = self.easy.start_heads(now);
        let mut preempts = std::mem::take(&mut self.preempts_scratch);
        debug_assert!(preempts.is_empty());

        // Preemption episode: if the blocked head is starving, displace the
        // least deserving runners and start it right away.
        if let Some(&head) = self.easy.queue.front() {
            if self.threshold.is_finite()
                && Policy::xfactor(&head, now) >= self.threshold
                && self.pick_victims(head.width, now)
            {
                for &id in &self.victims {
                    self.easy.finish(id, now);
                    *self.suspended_count.entry(id).or_insert(0) += 1;
                    preempts.push(id);
                    // The driver answers with on_preempted, where the
                    // job re-enters the queue with remaining estimate.
                }
                let head = self.easy.queue.pop_front().expect("front() was Some");
                self.easy.start(head, now, &mut starts);
            }
        }

        self.easy.backfill(now, &mut starts);

        // Wake when the head crosses the starvation threshold (so a quiet
        // machine still triggers the episode).
        let wakeup = match self.easy.queue.front() {
            Some(head) if self.threshold.is_finite() => {
                let cross = Policy::crossing_time(self.threshold, head);
                (cross > now).then_some(cross)
            }
            _ => None,
        };
        Decisions {
            preempts,
            starts,
            wakeup,
        }
    }
}

impl Scheduler for PreemptiveScheduler {
    fn name(&self) -> String {
        if self.threshold.is_finite() {
            format!("Preempt({})/{}", self.threshold, self.easy.queue.policy())
        } else {
            format!("Preempt(∞)/{}", self.easy.queue.policy())
        }
    }

    fn on_arrival(&mut self, job: JobMeta, now: SimTime) -> Decisions {
        self.original.insert(job.id, job);
        self.easy.enqueue(job);
        self.reschedule(now)
    }

    fn on_completion(&mut self, id: JobId, now: SimTime) -> Decisions {
        self.easy.finish(id, now);
        // A completed job is never suspended or re-queued again: both maps
        // hold only the jobs still queued or running.
        self.original.remove(&id);
        self.suspended_count.remove(&id);
        self.reschedule(now)
    }

    fn on_wake(&mut self, now: SimTime) -> Decisions {
        self.reschedule(now)
    }

    fn on_preempted(&mut self, id: JobId, ran: SimSpan, now: SimTime) {
        let _ = now;
        // Re-queue with the remaining estimate. The original arrival is
        // kept, so the job's priority keeps aging while suspended.
        let mut meta = *self
            .original
            .get(&id)
            .expect("preempted job must have been seen before");
        meta.estimate = (meta.estimate - ran).max(SimSpan::SECOND);
        self.easy.enqueue(meta);
    }

    fn queue_len(&self) -> usize {
        self.easy.queue_len()
    }

    fn profile_stats(&self) -> Option<ProfileStats> {
        self.easy.profile_stats()
    }

    fn set_recorder(&mut self, recorder: SharedRecorder) {
        self.easy.set_recorder(recorder);
    }

    fn set_phases(&mut self, phases: obs::SharedPhases) {
        self.easy.set_phases(phases);
    }

    fn recycle(&mut self, mut spent: Decisions) {
        spent.preempts.clear();
        self.preempts_scratch = std::mem::take(&mut spent.preempts);
        self.easy.recycle(spent);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(id: u32, arrival: u64, estimate: u64, width: u32) -> JobMeta {
        JobMeta {
            id: JobId(id),
            arrival: SimTime::new(arrival),
            estimate: SimSpan::new(estimate),
            width,
        }
    }

    fn sched(threshold: f64) -> PreemptiveScheduler {
        PreemptiveScheduler::new(8, Policy::Fcfs, threshold).with_safeguards(SimSpan::new(60), 2)
    }

    #[test]
    fn behaves_like_easy_until_threshold() {
        let mut s = sched(10.0);
        s.on_arrival(meta(0, 0, 1_000, 6), SimTime::ZERO);
        let d = s.on_arrival(meta(1, 1, 500, 8), SimTime::new(1));
        assert!(d.starts.is_empty());
        assert!(d.preempts.is_empty());
        // Backfill still works.
        let d = s.on_arrival(meta(2, 2, 90, 2), SimTime::new(2));
        assert_eq!(d.starts, vec![JobId(2)]);
    }

    #[test]
    fn starving_head_triggers_preemption() {
        let mut s = sched(2.0);
        s.on_arrival(meta(0, 0, 10_000, 8), SimTime::ZERO);
        // Head: 8-wide, estimate 100 -> crosses xf 2 at wait 100.
        let d = s.on_arrival(meta(1, 1, 100, 8), SimTime::new(1));
        assert_eq!(d.wakeup, Some(SimTime::new(101)), "wake at the crossing");
        let d = s.on_wake(SimTime::new(101));
        assert_eq!(d.preempts, vec![JobId(0)], "the hog is suspended");
        assert_eq!(d.starts, vec![JobId(1)], "the starving job runs at once");
        // Driver callback: hog re-queued with remaining estimate.
        s.on_preempted(JobId(0), SimSpan::new(101), SimTime::new(101));
        assert_eq!(s.queue_len(), 1);
    }

    #[test]
    fn min_run_protects_fresh_jobs() {
        let mut s = sched(2.0).with_safeguards(SimSpan::new(1_000), 2);
        s.on_arrival(meta(0, 0, 10_000, 8), SimTime::ZERO);
        s.on_arrival(meta(1, 1, 100, 8), SimTime::new(1));
        // At the crossing the hog has only run 101 s < 1000: no preemption.
        let d = s.on_wake(SimTime::new(101));
        assert!(d.preempts.is_empty());
        assert!(d.starts.is_empty());
    }

    #[test]
    fn max_preemptions_is_honoured() {
        let mut s = sched(1.5).with_safeguards(SimSpan::ZERO, 1);
        s.on_arrival(meta(0, 0, 10_000, 8), SimTime::ZERO);
        s.on_arrival(meta(1, 1, 100, 8), SimTime::new(1));
        let d = s.on_wake(SimTime::new(51));
        assert_eq!(d.preempts, vec![JobId(0)]);
        s.on_preempted(JobId(0), SimSpan::new(51), SimTime::new(51));
        // Job 1 completes; the hog resumes.
        let d = s.on_completion(JobId(1), SimTime::new(151));
        assert_eq!(d.starts, vec![JobId(0)]);
        // A new starving job cannot displace it again (cap = 1).
        s.on_arrival(meta(2, 152, 100, 8), SimTime::new(152));
        let d = s.on_wake(SimTime::new(252));
        assert!(d.preempts.is_empty(), "second suspension must be refused");
    }

    #[test]
    fn completed_jobs_leave_the_bookkeeping() {
        let mut s = sched(1.5).with_safeguards(SimSpan::ZERO, 2);
        s.on_arrival(meta(0, 0, 10_000, 8), SimTime::ZERO);
        s.on_arrival(meta(1, 1, 100, 8), SimTime::new(1));
        let d = s.on_wake(SimTime::new(51));
        assert_eq!(d.preempts, vec![JobId(0)]);
        s.on_preempted(JobId(0), SimSpan::new(51), SimTime::new(51));
        assert_eq!((s.original.len(), s.suspended_count.len()), (2, 1));
        s.on_completion(JobId(1), SimTime::new(151)); // the hog resumes
        assert_eq!((s.original.len(), s.suspended_count.len()), (1, 1));
        s.on_completion(JobId(0), SimTime::new(10_000));
        assert!(s.original.is_empty() && s.suspended_count.is_empty());
    }

    #[test]
    fn infinite_threshold_never_preempts_and_never_wakes() {
        let mut s = sched(f64::INFINITY);
        s.on_arrival(meta(0, 0, 10_000, 8), SimTime::ZERO);
        let d = s.on_arrival(meta(1, 1, 100, 8), SimTime::new(1));
        assert!(d.preempts.is_empty());
        assert_eq!(d.wakeup, None);
        assert_eq!(s.name(), "Preempt(∞)/FCFS");
    }

    #[test]
    #[should_panic(expected = "must be >= 1")]
    fn rejects_sub_one_threshold() {
        PreemptiveScheduler::new(8, Policy::Fcfs, 0.5);
    }
}
