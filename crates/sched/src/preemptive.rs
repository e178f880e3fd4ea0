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
//!   least `min_run` (no sniping of fresh starts) — the running jobs the
//!   driver reported through [`Scheduler::on_started`], so a job started
//!   earlier in the same event is never a candidate;
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
use crate::scheduler::{Decisions, JobMeta, Running, Scheduler};
use obs::trace::SharedRecorder;
use simcore::{SimSpan, SimTime};

/// EASY backfilling with selective preemption of running jobs.
#[derive(Debug, Clone)]
pub struct PreemptiveScheduler {
    /// The EASY (depth-1) scheduler underneath: queue, running profile
    /// and backfill pass. Its queued `estimate`s are *remaining* estimates
    /// for previously preempted jobs, as the driver re-announced them.
    easy: DepthScheduler,
    /// The victim set: every running job, as the driver reported its
    /// start (with the suspensions before the run), until it completes or
    /// is picked. Its order never reaches a decision, because
    /// [`pick_victims`](Self::pick_victims) sorts the candidates by the
    /// policy's total order.
    running: Vec<Running>,
    /// Expansion-factor threshold that triggers preemption.
    threshold: f64,
    /// Minimum uninterrupted runtime before a job may be victimized.
    min_run: SimSpan,
    /// Per-job suspension cap.
    max_preemptions: u32,
    /// Scratch for [`pick_victims`](Self::pick_victims): the runners that
    /// may be suspended, and the ones it picks. Reused across events.
    candidates: Vec<Running>,
    victims: Vec<Running>,
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
            running: Vec::new(),
            threshold,
            min_run: SimSpan::from_mins(10),
            max_preemptions: 2,
            candidates: Vec::new(),
            victims: Vec::new(),
        }
    }

    /// Pick victims (lowest priority first) freeing enough processors for
    /// `needed`, honouring the safeguards, into `self.victims`. Returns
    /// false if that is impossible.
    fn pick_victims(&mut self, needed: u32, now: SimTime) -> bool {
        self.candidates.clear();
        self.candidates.extend(
            self.running
                .iter()
                .filter(|r| {
                    now.since(r.started_at) >= self.min_run && r.suspensions < self.max_preemptions
                })
                .copied(),
        );
        // Lowest priority last in `compare` order; victimize from the back.
        // `compare` is a total order over distinct jobs, so an unstable
        // sort (which needs no merge buffer) gives the stable sort's order.
        let policy = self.easy.queue.policy();
        self.candidates
            .sort_unstable_by(|a, b| policy.compare(&a.meta, &b.meta, now));
        self.victims.clear();
        let mut freed = self.easy.free;
        for &job in self.candidates.iter().rev() {
            if freed >= needed {
                break;
            }
            self.victims.push(job);
            freed += job.meta.width;
        }
        freed >= needed
    }

    fn reschedule(&mut self, now: SimTime, out: &mut Decisions) {
        self.easy.start_heads(now, &mut out.starts);

        // Preemption episode: if the blocked head is starving, displace the
        // least deserving runners and start it right away.
        if let Some(&head) = self.easy.queue.front() {
            if self.threshold.is_finite()
                && Policy::xfactor(&head, now) >= self.threshold
                && self.pick_victims(head.width, now)
            {
                let victims = &self.victims;
                self.running.retain(|r| !victims.contains(r));
                for &job in &self.victims {
                    self.easy.finish(job, now);
                    out.preempts.push(job.meta.id);
                    // The driver answers with on_preempted, where the
                    // job re-enters the queue with remaining estimate.
                }
                let head = self.easy.queue.pop_front().expect("front() was Some");
                self.easy.start(head, now, &mut out.starts);
            }
        }

        self.easy.backfill(now, &mut out.starts);

        // Wake when the head crosses the starvation threshold (so a quiet
        // machine still triggers the episode).
        out.wakeup = match self.easy.queue.front() {
            Some(head) if self.threshold.is_finite() => {
                let cross = Policy::crossing_time(self.threshold, head);
                (cross > now).then_some(cross)
            }
            _ => None,
        };
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

    fn on_arrival(&mut self, job: JobMeta, now: SimTime, out: &mut Decisions) {
        self.easy.enqueue(job);
        self.reschedule(now, out);
    }

    fn on_completion(&mut self, job: Running, now: SimTime, out: &mut Decisions) {
        self.running.retain(|r| r.meta.id != job.meta.id);
        self.easy.finish(job, now);
        self.reschedule(now, out);
    }

    fn on_wake(&mut self, now: SimTime, out: &mut Decisions) {
        self.reschedule(now, out);
    }

    fn on_started(&mut self, job: Running) {
        self.running.push(job);
    }

    fn on_preempted(&mut self, job: JobMeta) {
        // The driver keeps the original arrival, so the job's priority
        // keeps aging while suspended.
        self.easy.enqueue(job);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::testing::Harness;
    use simcore::JobId;

    fn meta(id: u32, arrival: u64, estimate: u64, width: u32) -> JobMeta {
        JobMeta {
            id: JobId(id),
            arrival: SimTime::new(arrival),
            estimate: SimSpan::new(estimate),
            width,
        }
    }

    fn sched(threshold: f64) -> Harness<PreemptiveScheduler> {
        guarded(threshold, SimSpan::new(60), 2)
    }

    fn guarded(threshold: f64, min_run: SimSpan, max: u32) -> Harness<PreemptiveScheduler> {
        let mut s = PreemptiveScheduler::new(8, Policy::Fcfs, threshold);
        s.min_run = min_run;
        s.max_preemptions = max;
        Harness::new(s)
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
        assert_eq!(s.running.len(), 1, "the victim left the victim set");
        s.requeue(meta(0, 0, 10_000 - 51, 8));
        s.complete(JobId(1), SimTime::new(151)); // the hog resumes
        let suspensions: Vec<_> = s
            .running
            .iter()
            .map(|r| (r.meta.id, r.suspensions))
            .collect();
        assert_eq!(
            suspensions,
            [(JobId(0), 1)],
            "the resumed run counts its suspension"
        );
        s.complete(JobId(0), SimTime::new(10_000));
        assert!(s.running.is_empty());
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
    #[should_panic(expected = "must be >= 1")]
    fn rejects_sub_one_threshold() {
        PreemptiveScheduler::new(8, Policy::Fcfs, 0.5);
    }
}
