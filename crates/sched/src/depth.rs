//! Reservation-depth backfilling: protect the top *k* queued jobs. EASY
//! is depth 1.
//!
//! EASY — aggressive backfilling, the classic rule of the ANL/IBM SP
//! scheduler (Lifka 1995) evaluated by Mu'alem & Feitelson and by this
//! paper — gives exactly one queued job a reservation: the head of the
//! priority queue (the *pivot*). Everything else may leap ahead, as long
//! as starting it now does not delay the pivot. Conservative backfilling
//! protects every queued job. Chiang, Arpaci-Dusseau & Vernon's
//! re-evaluation of reservation policies studies the continuum between
//! the two: protect the **top `k` jobs of the priority queue** and let
//! everything else backfill around them. Large `k` approaches
//! conservative's protection (without its arrival-order guarantees).
//!
//! At every arrival, completion and wake-up the scheduler:
//! 1. establishes priority order via the certificate-ordered
//!    [`SchedQueue`] (it places the arrivals and, under XFactor, only the
//!    jobs whose ranks crossed since the last event);
//! 2. starts jobs from the head while they fit in the free processors;
//! 3. gives the top `k` blocked jobs reservations, in priority order, each
//!    at its earliest anchor given the running jobs and the reservations
//!    placed before it;
//! 4. scans the rest of the queue in priority order and starts any job
//!    whose rectangle fits *now* without touching a reservation.
//!
//! Reservations persist between events. The top-`k` rectangles stay in
//! the scheduler's running profile from one pass to the next, so the
//! running profile is never cloned and a pass re-places only what changed:
//! it keeps the longest prefix of held reservations whose jobs still head
//! the queue unchanged, releases the rest and places the queue from there
//! on. A kept anchor is the one a fresh search would find, because between
//! passes the profile only gains load (backfills, each of which fit around
//! every held rectangle), and every event that could free room or change
//! a rectangle releases the held ones first: a completion or suspension
//! that returns a tail, a start by any route other than the held head
//! starting at its own anchor, and time moving past a held anchor. Step
//! 4's check is exact, not the two-condition shortcut: a candidate
//! backfills iff its rectangle fits at `now` in the profile that holds
//! the running jobs, the reservations and the backfills accepted earlier
//! in the pass. DESIGN.md §11.2 gives the argument in full.
//!
//! [`DepthScheduler::preemptive`] adds one rule at depth 1, selective
//! preemption (the authors' companion strategy, their reference \[6\]):
//! between steps 2 and 3 a starving head may suspend running jobs and
//! start at once, and the scheduler asks to be woken when the head will
//! cross its threshold (the crate's private `preemptive` module).

use crate::policy::Policy;
use crate::preemptive::Preemption;
use crate::profile::{Horizon, Profile, ProfileStats};
use crate::queue::SchedQueue;
use crate::scheduler::{Decisions, JobMeta, Running, Scheduler};
use obs::trace::{SharedRecorder, TraceKind};
use simcore::{JobId, SimTime};

/// Depth-`k` reservation backfilling scheduler (EASY at `k = 1`), with
/// selective preemption when built by [`DepthScheduler::preemptive`].
#[derive(Debug, Clone)]
pub struct DepthScheduler {
    depth: usize,
    free: u32,
    queue: SchedQueue,
    /// The running set's remaining estimated occupancy plus the live held
    /// reservations, updated on every start, finish and pass instead of
    /// rebuilt per event; the scheduler keeps no record of the running
    /// jobs. Its from-scratch rebuild is the test-only reference of
    /// `sched/tests/reservation_differential.rs`.
    cached: Profile,
    /// Pass counters not kept by the profile itself.
    stats: ProfileStats,
    /// Opt-in decision-trace recorder (strictly observational).
    recorder: Option<SharedRecorder>,
    /// Opt-in per-phase profiling accumulator (strictly observational).
    phases: Option<obs::SharedPhases>,
    /// The held reservations, `(job, anchor)` in priority order: the last
    /// pass's list less the head once it starts at its own anchor and
    /// less what was released since. Their rectangles are in `cached`.
    held: Vec<(JobMeta, SimTime)>,
    /// The last pass's reservations released since, `(job, anchor)`,
    /// filled only while recording. A job the next pass places gets a
    /// `Reserve` trace event only when its pair is not among them (a kept
    /// reservation is never placed again).
    released: Vec<(JobId, SimTime)>,
    /// The preemption rule of a [`DepthScheduler::preemptive`] instance.
    preemption: Option<Preemption>,
}

impl DepthScheduler {
    /// Create for a machine with `capacity` processors, protecting the top
    /// `depth` queued jobs (`depth >= 1`; 1 is EASY).
    pub fn new(capacity: u32, policy: Policy, depth: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        assert!(depth >= 1, "reservation depth must be at least 1");
        DepthScheduler {
            depth,
            free: capacity,
            queue: SchedQueue::new(policy),
            cached: Profile::new(capacity),
            stats: ProfileStats::default(),
            recorder: None,
            phases: None,
            held: Vec::new(),
            released: Vec::new(),
            preemption: None,
        }
    }

    /// EASY with selective preemption, for a machine with `capacity`
    /// processors: a blocked head whose expansion factor reaches
    /// `threshold` (≥ 1; infinity never preempts, yielding EASY) may
    /// suspend running jobs to start at once.
    pub fn preemptive(capacity: u32, policy: Policy, threshold: f64) -> Self {
        DepthScheduler {
            preemption: Some(Preemption::new(threshold)),
            ..Self::new(capacity, policy, 1)
        }
    }

    /// Queue an arriving (or re-queued) job.
    fn enqueue(&mut self, job: JobMeta) {
        let capacity = self.cached.capacity();
        assert!(job.width <= capacity, "{} wider than machine", job.id);
        let t0 = obs::span::start_nested(&self.phases, obs::Phase::QueueOps);
        self.queue.push(job);
        obs::span::finish_nested(&self.phases, obs::Phase::QueueOps, t0);
    }

    /// Start `job` now, outside the backfill scan. The held head starting
    /// at its own anchor turns its reservation into its running rectangle,
    /// which is the same rectangle; any other start releases the held
    /// reservations first (the next pass places them again).
    fn start(&mut self, job: JobMeta, now: SimTime, starts: &mut Vec<JobId>) {
        if self.held.first() == Some(&(job, now)) {
            self.held.remove(0);
        } else {
            self.release_held_from(0);
            self.cached.reserve(now, job.estimate, job.width);
        }
        self.run(job, starts);
    }

    /// Put `job`, whose rectangle is already in `cached`, on the machine.
    fn run(&mut self, job: JobMeta, starts: &mut Vec<JobId>) {
        debug_assert!(job.width <= self.free);
        self.free -= job.width;
        starts.push(job.id);
    }

    /// Take a running job off the machine — it completed or was suspended —
    /// and return the not-yet-elapsed tail of its estimated occupancy to
    /// the profile, releasing the held reservations first (room freed
    /// early may move them). An overrun job (`est_end <= now`) holds
    /// nothing in the profile's future and leaves them in place. `job` is
    /// the record the driver kept since the start.
    fn finish(&mut self, job: Running, now: SimTime) {
        self.free += job.meta.width;
        debug_assert!(
            self.free <= self.cached.capacity(),
            "{} held no processors",
            job.meta.id
        );
        let est_end = job.est_end();
        if est_end > now {
            self.release_held_from(0);
            self.cached.release(now, est_end.since(now), job.meta.width);
        }
    }

    /// Release the held reservations from `held[from]` on.
    fn release_held_from(&mut self, from: usize) {
        for &(job, anchor) in &self.held[from..] {
            self.cached.release(anchor, job.estimate, job.width);
            if self.recorder.is_some() {
                self.released.push((job.id, anchor));
            }
        }
        self.held.truncate(from);
    }

    /// Open an event: bring the profile and the queue up to `now`, then
    /// start jobs from the head while they fit.
    fn start_heads(&mut self, now: SimTime, starts: &mut Vec<JobId>) {
        // Trimming drops the part of a rectangle before `now`, so a held
        // reservation whose anchor time has passed is released first, with
        // every one placed after it.
        if let Some(i) = self.held.iter().position(|&(_, anchor)| anchor < now) {
            self.release_held_from(i);
        }
        self.cached.trim_before(now);
        let t0 = obs::span::start_nested(&self.phases, obs::Phase::QueueOps);
        self.queue.prepare(now);
        obs::span::finish_nested(&self.phases, obs::Phase::QueueOps, t0);
        while let Some(head) = self.queue.front() {
            if head.width > self.free {
                break;
            }
            let head = self.queue.pop_front().expect("front() was Some");
            self.start(head, now, starts);
        }
    }

    /// The backfill pass: hold reservations for the top `depth` queued
    /// jobs in the running profile, then start every later job that fits
    /// now around them. Held reservations whose jobs still head the queue
    /// in order stay where they are; the rest are released and placed
    /// again.
    fn backfill(&mut self, now: SimTime, starts: &mut Vec<JobId>) {
        if self.queue.is_empty() {
            return;
        }
        // One backfill pass per event.
        self.stats.compress_passes += 1;
        // A whole-`JobMeta` match: a re-queued victim's shorter remaining
        // estimate makes it a different rectangle.
        let kept = self
            .held
            .iter()
            .zip(self.queue.iter().take(self.depth))
            .take_while(|((held, _), job)| held == *job)
            .count();
        self.release_held_from(kept);
        self.released.sort_unstable_by_key(|&(id, _)| id);

        // `anchor == now` is possible even for the head, which did not
        // start: the profile (built from *estimated* ends) may already
        // count a job done whose completion event, at this same instant, is
        // still queued behind this one. The head starts when that sibling
        // completion is delivered; meanwhile its reservation blocks unsafe
        // backfills exactly as it should.
        let mut hole_end = self
            .held
            .iter()
            .map(|&(_, anchor)| anchor)
            .fold(SimTime::FAR_FUTURE, SimTime::min);
        for &job in self.queue.iter().skip(kept).take(self.depth - kept) {
            let anchor = self.cached.find_anchor(now, job.estimate, job.width);
            self.cached.reserve(anchor, job.estimate, job.width);
            self.held.push((job, anchor));
            hole_end = hole_end.min(anchor);
            // One Reserve per distinct reservation, not per pass
            // (`released` is empty unless recording).
            let unchanged = self
                .released
                .binary_search_by_key(&job.id, |&(id, _)| id)
                .is_ok_and(|i| self.released[i].1 == anchor);
            if !unchanged {
                obs::trace::record(
                    &self.recorder,
                    now.as_secs(),
                    job.id.0 as u64,
                    TraceKind::Reserve {
                        anchor: anchor.as_secs(),
                    },
                );
            }
        }
        // `held` is this pass's list: the kept prefix, then what it placed.
        self.released.clear();

        // Backfill the rest in priority order. Accepted backfills start,
        // so they enter the profile and later candidates see them. A
        // read-only scan rejects, before any probe, a candidate wider than
        // the free processors or one whose window ends past the profile's
        // zero horizon (computed on the first candidate no wider, again
        // after each start), and passes over a whole block whose summary
        // rejects all of its candidates the same way.
        let scan_t0 = obs::span::start_nested(&self.phases, obs::Phase::Backfill);
        let mut at = self.queue.pos_of(self.held.len());
        let mut horizon = Horizon::new(now);
        loop {
            let (free, cached) = (self.free, &self.cached);
            let Some(found) = self.queue.find(
                at,
                |sum| sum.rules_out(now, free, horizon.known()),
                |cand| cand.width <= free && horizon.fits(cached, cand.estimate, cand.width),
            ) else {
                break;
            };
            let cand = self.queue.remove_at(found);
            at = found;
            // The hole this candidate slotted into runs from `now` to the
            // earliest protected anchor.
            obs::trace::record(
                &self.recorder,
                now.as_secs(),
                cand.id.0 as u64,
                TraceKind::Backfill {
                    filled_hole: hole_end.since(now).as_secs(),
                },
            );
            // It fit around every held rectangle, so they stay.
            self.cached.reserve(now, cand.estimate, cand.width);
            horizon.forget();
            self.run(cand, starts);
        }
        obs::span::finish_nested(&self.phases, obs::Phase::Backfill, scan_t0);
    }

    fn reschedule(&mut self, now: SimTime, out: &mut Decisions) {
        self.start_heads(now, &mut out.starts);
        // The rule is set aside while its victims leave through `finish`.
        if let Some(mut rule) = self.preemption.take() {
            // The episode: a starving head suspends the least deserving
            // runners (the driver re-queues them through `on_preempted`)
            // and starts at once.
            let victims = rule.victims(self.queue.front(), self.free, self.queue.policy(), now);
            for &job in victims {
                self.finish(job, now);
                out.preempts.push(job.meta.id);
            }
            if !victims.is_empty() {
                let head = self.queue.pop_front().expect("a starving head");
                self.start(head, now, &mut out.starts);
            }
            self.preemption = Some(rule);
        }
        self.backfill(now, &mut out.starts);
        if let Some(rule) = &self.preemption {
            out.wakeup = rule.wakeup(self.queue.front(), now);
        }
    }
}

impl Scheduler for DepthScheduler {
    fn name(&self) -> String {
        let policy = self.queue.policy();
        match &self.preemption {
            Some(rule) => rule.name(policy),
            None if self.depth == 1 => format!("EASY/{policy}"),
            None => format!("Depth({})/{policy}", self.depth),
        }
    }

    fn on_arrival(&mut self, job: JobMeta, now: SimTime, out: &mut Decisions) {
        self.enqueue(job);
        self.reschedule(now, out);
    }

    fn on_completion(&mut self, job: Running, now: SimTime, out: &mut Decisions) {
        if let Some(rule) = &mut self.preemption {
            rule.completed(job.meta.id);
        }
        self.finish(job, now);
        self.reschedule(now, out);
    }

    fn on_wake(&mut self, now: SimTime, out: &mut Decisions) {
        self.reschedule(now, out);
    }

    fn on_started(&mut self, job: Running) {
        if let Some(rule) = &mut self.preemption {
            rule.started(job);
        }
    }

    fn on_preempted(&mut self, job: JobMeta) {
        assert!(
            self.preemption.is_some(),
            "scheduler never asked to preempt {}",
            job.id
        );
        // A suspended job keeps its arrival, so its priority keeps aging.
        self.enqueue(job);
    }

    fn queue_len(&self) -> usize {
        self.queue.len()
    }

    fn profile_stats(&self) -> Option<ProfileStats> {
        let mut stats = self.stats;
        stats.absorb(&self.cached.stats());
        self.queue.counters().merge_into(&mut stats);
        Some(stats)
    }

    fn set_recorder(&mut self, recorder: SharedRecorder) {
        self.recorder = Some(recorder);
    }

    fn set_phases(&mut self, phases: obs::SharedPhases) {
        self.phases = Some(phases);
    }
}

#[cfg(test)]
impl DepthScheduler {
    /// The preemption rule, for its unit tests in `preemptive`.
    pub(crate) fn rule(&mut self) -> &mut Preemption {
        self.preemption.as_mut().expect("a preemptive scheduler")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::testing::{recorded, recorder, Harness};
    use simcore::SimSpan;

    fn meta(id: u32, arrival: u64, estimate: u64, width: u32) -> JobMeta {
        JobMeta {
            id: JobId(id),
            arrival: SimTime::new(arrival),
            estimate: SimSpan::new(estimate),
            width,
        }
    }

    fn easy(capacity: u32, policy: Policy) -> Harness<DepthScheduler> {
        depth(capacity, policy, 1)
    }

    fn depth(capacity: u32, policy: Policy, k: usize) -> Harness<DepthScheduler> {
        Harness::new(DepthScheduler::new(capacity, policy, k))
    }

    #[test]
    fn short_job_backfills_without_delaying_pivot() {
        let mut s = easy(8, Policy::Fcfs);
        s.arrive(meta(0, 0, 100, 6), SimTime::ZERO); // running [0,100)
        s.arrive(meta(1, 1, 500, 8), SimTime::new(1)); // pivot, anchor 100
                                                       // 2 procs free until 100. Job 2: 2 procs, 90 s -> ends at 92 < 100.
        let d = s.arrive(meta(2, 2, 90, 2), SimTime::new(2));
        assert_eq!(d.starts, vec![JobId(2)]);
    }

    #[test]
    fn backfill_that_would_delay_pivot_is_refused_then_sidestepped() {
        let mut s = easy(8, Policy::Fcfs);
        s.arrive(meta(0, 0, 100, 6), SimTime::ZERO);
        s.arrive(meta(1, 1, 500, 8), SimTime::new(1)); // pivot at 100
                                                       // Job 2 wants 2 procs for 200 s: would run past 100 using procs the
                                                       // pivot needs (pivot needs all 8). Refused.
        let d = s.arrive(meta(2, 2, 200, 2), SimTime::new(2));
        assert!(d.starts.is_empty());
    }

    #[test]
    fn long_backfill_on_pivot_spare_processors_is_allowed() {
        let mut s = easy(8, Policy::Fcfs);
        s.arrive(meta(0, 0, 100, 6), SimTime::ZERO);
        s.arrive(meta(1, 1, 500, 6), SimTime::new(1)); // pivot: 6 procs at 100
                                                       // Job 2: 2 procs for 1000 s. Pivot leaves 2 spare procs, so running
                                                       // past the pivot's start is fine — the EASY "extra processors" rule.
        let d = s.arrive(meta(2, 2, 1000, 2), SimTime::new(2));
        assert_eq!(d.starts, vec![JobId(2)]);
    }

    #[test]
    fn only_head_is_protected_under_fcfs() {
        let mut s = easy(8, Policy::Fcfs);
        s.arrive(meta(0, 0, 100, 8), SimTime::ZERO);
        s.arrive(meta(1, 1, 100, 8), SimTime::new(1)); // pivot at 100
        s.arrive(meta(2, 2, 100, 8), SimTime::new(2)); // second in queue: no guarantee
                                                       // Job 3 (1 proc, 95 s) fits before the pivot's anchor: backfills,
                                                       // even though it may delay job 2.
        let d = s.arrive(meta(3, 3, 95, 1), SimTime::new(3));
        assert!(
            d.starts.is_empty(),
            "8-wide pivot needs the whole machine; nothing is free"
        );
        // Free the machine at 100; pivot starts; job 2 becomes pivot.
        let d = s.complete(JobId(0), SimTime::new(100));
        assert_eq!(d.starts, vec![JobId(1)]);
        assert_eq!(s.queue_len(), 2);
    }

    #[test]
    fn sjf_picks_new_head_dynamically() {
        let mut s = easy(8, Policy::Sjf);
        s.arrive(meta(0, 0, 100, 8), SimTime::ZERO);
        s.arrive(meta(1, 1, 900, 8), SimTime::new(1));
        s.arrive(meta(2, 2, 50, 8), SimTime::new(2));
        // At completion, SJF queue is [2 (50 s), 1 (900 s)]: job 2 starts.
        let d = s.complete(JobId(0), SimTime::new(100));
        assert_eq!(d.starts, vec![JobId(2)]);
    }

    #[test]
    fn xfactor_ages_long_waiters_to_the_front() {
        let mut s = easy(8, Policy::XFactor);
        s.arrive(meta(0, 0, 10_000, 8), SimTime::ZERO);
        // Long job waits from t=0; short job arrives much later.
        s.arrive(meta(1, 0, 10_000, 8), SimTime::ZERO);
        s.arrive(meta(2, 9_999, 100, 8), SimTime::new(9_999));
        // At t=10000: xf(1) = (10000+10000)/10000 = 2;
        // xf(2) = (1+100)/100 = 1.01. Job 1 leads despite being long.
        let d = s.complete(JobId(0), SimTime::new(10_000));
        assert_eq!(d.starts, vec![JobId(1)]);
    }

    #[test]
    fn multiple_backfills_stack_correctly() {
        let mut s = easy(8, Policy::Fcfs);
        s.arrive(meta(0, 0, 100, 6), SimTime::ZERO);
        s.arrive(meta(1, 1, 500, 8), SimTime::new(1)); // pivot at 100
                                                       // Two 1-proc 50 s jobs both fit before 100.
        let d = s.arrive(meta(2, 2, 50, 1), SimTime::new(2));
        assert_eq!(d.starts, vec![JobId(2)]);
        let d = s.arrive(meta(3, 3, 50, 1), SimTime::new(3));
        assert_eq!(d.starts, vec![JobId(3)]);
        // A third would exceed the 2 free procs.
        let d = s.arrive(meta(4, 4, 50, 1), SimTime::new(4));
        assert!(d.starts.is_empty());
    }

    #[test]
    fn recorder_sees_pivot_reserve_and_backfill() {
        use obs::trace::TraceKind;
        let mut s = easy(8, Policy::Fcfs);
        let rec = recorder();
        s.set_recorder(rec.clone());
        s.arrive(meta(0, 0, 100, 6), SimTime::ZERO); // starts immediately
        s.arrive(meta(1, 1, 500, 8), SimTime::new(1)); // pivot, anchor 100
        s.arrive(meta(2, 2, 90, 2), SimTime::new(2)); // backfills before 100
        let events = recorded(&rec);
        let kinds: Vec<(u64, &TraceKind)> = events.iter().map(|e| (e.job, &e.kind)).collect();
        assert_eq!(
            kinds,
            vec![
                // One Reserve for the pivot (deduped across the second
                // pass, where its anchor is unchanged)...
                (1, &TraceKind::Reserve { anchor: 100 }),
                // ...then the backfill into the 98 s hole before it.
                (2, &TraceKind::Backfill { filled_hole: 98 }),
            ]
        );
    }

    #[test]
    fn recorder_dedups_reserves_per_job_at_depth_two() {
        use obs::trace::TraceKind;
        let mut s = depth(8, Policy::Fcfs, 2);
        let rec = recorder();
        s.set_recorder(rec.clone());
        s.arrive(meta(0, 0, 100, 8), SimTime::ZERO); // running [0,100)
        s.arrive(meta(1, 1, 50, 8), SimTime::new(1)); // anchor 100
        s.arrive(meta(2, 2, 100, 8), SimTime::new(2)); // anchor 150
                                                       // Job 0 ends on time: job 1 starts, and job 2 moves up to the
                                                       // first slot with its anchor unchanged, so it gets no new Reserve.
        let d = s.complete(JobId(0), SimTime::new(100));
        assert_eq!(d.starts, vec![JobId(1)]);
        s.arrive(meta(3, 101, 10, 8), SimTime::new(101)); // anchor 250
                                                          // Job 1 ends early: job 2 starts and job 3's reservation moves.
        let d = s.complete(JobId(1), SimTime::new(120));
        assert_eq!(d.starts, vec![JobId(2)]);
        let events = recorded(&rec);
        let kinds: Vec<(u64, &TraceKind)> = events.iter().map(|e| (e.job, &e.kind)).collect();
        assert_eq!(
            kinds,
            vec![
                (1, &TraceKind::Reserve { anchor: 100 }),
                (2, &TraceKind::Reserve { anchor: 150 }),
                (3, &TraceKind::Reserve { anchor: 250 }),
                (3, &TraceKind::Reserve { anchor: 220 }),
            ]
        );
    }

    #[test]
    fn held_pivot_is_kept_between_events_and_becomes_the_running_job() {
        let mut s = easy(8, Policy::Fcfs);
        s.arrive(meta(0, 0, 100, 6), SimTime::ZERO); // running [0,100)
        s.arrive(meta(1, 1, 500, 8), SimTime::new(1)); // pivot, anchor 100
        let d = s.arrive(meta(2, 2, 200, 2), SimTime::new(2)); // refused
        assert!(d.starts.is_empty());
        let stats = s.profile_stats().unwrap();
        // Job 0's start and one pivot: the second pass kept the pivot.
        assert_eq!((stats.reserves, stats.releases), (2, 0));
        // Job 0 ends on its estimate, so nothing is returned and the
        // pivot starts at its own anchor: its reservation becomes its
        // running rectangle. Job 2 becomes the pivot at 600.
        let d = s.complete(JobId(0), SimTime::new(100));
        assert_eq!(d.starts, vec![JobId(1)]);
        let stats = s.profile_stats().unwrap();
        assert_eq!(
            (stats.reserves, stats.releases, stats.compress_passes),
            (3, 0, 3)
        );
    }

    #[test]
    fn held_reservation_whose_anchor_passed_is_placed_again() {
        // Depth 2: the 8-wide head waits for job 0; job 2 fits at once but
        // is protected, not backfilled, so it is reserved at t=2 and not
        // started. By t=10 its anchor lies in the past: it is released
        // before the profile is trimmed and placed again at 10.
        let mut s = depth(8, Policy::Fcfs, 2);
        s.arrive(meta(0, 0, 100, 4), SimTime::ZERO);
        s.arrive(meta(1, 1, 100, 8), SimTime::new(1)); // anchor 100
        let d = s.arrive(meta(2, 2, 50, 2), SimTime::new(2)); // anchor 2
        assert!(d.starts.is_empty());
        let d = s.wake(SimTime::new(10));
        assert!(d.starts.is_empty());
        let stats = s.profile_stats().unwrap();
        // Starts: job 0. Reservations: job 1 once, job 2 at 2 and at 10.
        assert_eq!((stats.reserves, stats.releases), (4, 1));
        // The head is job 0's successor at 100; job 2 still waits.
        let d = s.complete(JobId(0), SimTime::new(100));
        assert_eq!(d.starts, vec![JobId(1)]);
    }

    #[test]
    fn name_includes_policy() {
        assert_eq!(easy(4, Policy::XFactor).name(), "EASY/XF");
    }

    #[test]
    fn deeper_reservations_block_more_backfill() {
        // Running: 6-wide until 100. Queue: 6-wide pivot (anchor 100,
        // 2 spare procs) then 8-wide second (anchor 200). A 2-wide 250 s
        // candidate runs [3, 253): it rides the pivot's spare processors
        // (harmless at depth 1) but overlaps the 8-wide reservation at
        // [200, 253) — exactly what depth 2 must refuse.
        let setup = |depth| {
            let mut s = self::depth(8, Policy::Fcfs, depth);
            s.arrive(meta(0, 0, 100, 6), SimTime::ZERO); // running [0,100)
            s.arrive(meta(1, 1, 100, 6), SimTime::new(1)); // anchor 100, spare 2
            s.arrive(meta(2, 2, 100, 8), SimTime::new(2)); // anchor 200
            s
        };
        let mut d1 = setup(1);
        let got = d1.arrive(meta(3, 3, 250, 2), SimTime::new(3));
        assert_eq!(
            got.starts,
            vec![JobId(3)],
            "depth 1 should admit (only pivot protected)"
        );

        let mut d2 = setup(2);
        let got = d2.arrive(meta(3, 3, 250, 2), SimTime::new(3));
        assert!(
            got.starts.is_empty(),
            "depth 2 must protect the second reservation"
        );
    }

    #[test]
    fn large_depth_protects_everyone() {
        let mut s = depth(8, Policy::Fcfs, usize::MAX);
        s.arrive(meta(0, 0, 100, 6), SimTime::ZERO);
        s.arrive(meta(1, 1, 50, 8), SimTime::new(1));
        // Like conservative: a 200 s 2-wide job would delay job 1 -> refused.
        let d = s.arrive(meta(2, 2, 200, 2), SimTime::new(2));
        assert!(d.starts.is_empty());
    }

    #[test]
    fn name_reports_depth() {
        assert_eq!(
            DepthScheduler::new(4, Policy::Sjf, 3).name(),
            "Depth(3)/SJF"
        );
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn rejects_zero_depth() {
        DepthScheduler::new(4, Policy::Fcfs, 0);
    }
}
