//! Selective backfilling — the strategy the paper's conclusion proposes.
//!
//! Conservative backfilling gives *every* job a reservation (limiting
//! backfill opportunities); EASY gives a reservation only to the queue head
//! (letting unlucky wide jobs wait unboundedly). Section 6 of the paper
//! sketches the middle ground the authors pursue in their follow-up work
//! ("Selective Reservation Strategies for Backfill Job Scheduling"): **no
//! job holds a reservation until its expected slowdown crosses a
//! threshold**, whereupon it receives — and keeps — a guaranteed start
//! time. With a judicious threshold, few reservations exist at any moment
//! (EASY-like backfill freedom) but every needy job is eventually protected
//! (conservative-like worst-case bounds).
//!
//! Expected slowdown is measured by the job's *expansion factor*
//! `(wait + estimate) / estimate`, exactly the quantity the XFactor
//! priority policy uses, so the threshold is in natural units:
//! `threshold = 2.0` means "protect a job once its wait equals its
//! estimated runtime".
//!
//! Degenerate settings recover the other two schemes: `threshold <= 1`
//! reserves on arrival (conservative), `threshold = ∞` never reserves
//! (pure free-for-all backfilling, more aggressive than EASY).

use crate::policy::Policy;
use crate::profile::{Profile, ProfileStats};
use crate::queue::{repair_order, OrderScratch, SchedQueue};
use crate::scheduler::{Decisions, JobMeta, Scheduler};
use simcore::{JobId, SimSpan, SimTime};
use std::collections::HashMap;

#[derive(Debug, Clone, Copy)]
struct Reservation {
    meta: JobMeta,
    start: SimTime,
}

#[derive(Debug, Clone, Copy)]
struct Running {
    width: u32,
    est_end: SimTime,
}

/// Selective backfilling scheduler.
#[derive(Debug, Clone)]
pub struct SelectiveScheduler {
    policy: Policy,
    threshold: f64,
    profile: Profile,
    /// Protected jobs. Deliberately a plain `Vec`: between compression
    /// passes its order (last repair + promotion appends) is event-visible
    /// through the due-start scan, so it must not be kept eagerly sorted.
    reserved: Vec<Reservation>,
    unreserved: SchedQueue,
    running: HashMap<JobId, Running>,
    /// Processors physically free right now (see the conservative
    /// scheduler: the profile runs ahead of the event stream at instants
    /// with several simultaneous completions).
    free: u32,
    /// Recycled `starts` buffer from the previous event's [`Decisions`].
    starts_scratch: Vec<JobId>,
    /// Reusable buffers for the compression pass's order repair.
    order_scratch: OrderScratch<Reservation>,
}

impl SelectiveScheduler {
    /// Create for a machine with `capacity` processors. `threshold` is the
    /// expansion-factor level at which a job is promoted to a reservation
    /// (must be ≥ 1; pass `f64::INFINITY` to disable reservations).
    pub fn new(capacity: u32, policy: Policy, threshold: f64) -> Self {
        assert!(
            threshold >= 1.0,
            "xfactor threshold must be >= 1, got {threshold}"
        );
        SelectiveScheduler {
            policy,
            threshold,
            profile: Profile::new(capacity),
            reserved: Vec::new(),
            unreserved: SchedQueue::new(policy),
            running: HashMap::new(),
            free: capacity,
            starts_scratch: Vec::new(),
            order_scratch: OrderScratch::default(),
        }
    }

    /// The instant at which `job`'s expansion factor reaches the threshold.
    fn crossing_time(&self, job: &JobMeta) -> SimTime {
        if self.threshold.is_infinite() {
            return SimTime::FAR_FUTURE;
        }
        // xf(t) = ((t - arrival) + est) / est >= τ  ⇔  t >= arrival + (τ-1)·est.
        let est = job.estimate.as_secs().max(1) as f64;
        let wait_needed = (self.threshold - 1.0) * est;
        job.arrival + SimSpan::new(wait_needed.ceil() as u64)
    }

    /// True if the job currently deserves a reservation.
    fn crossed(&self, job: &JobMeta, now: SimTime) -> bool {
        Policy::xfactor(job, now) >= self.threshold
    }

    fn start_running(&mut self, meta: JobMeta, now: SimTime, starts: &mut Vec<JobId>) {
        debug_assert!(meta.width <= self.free);
        self.free -= meta.width;
        self.running.insert(
            meta.id,
            Running {
                width: meta.width,
                est_end: now + meta.estimate,
            },
        );
        starts.push(meta.id);
    }

    /// Re-anchor reservations after a hole opened (early completion).
    fn compress(&mut self, now: SimTime) {
        self.profile.note_compress_pass();
        if self.order_scratch.is_warm() {
            self.profile.note_scratch_reuse();
        }
        let reordered = repair_order(
            &mut self.reserved,
            self.policy,
            now,
            &mut self.order_scratch,
            |r| r.meta,
        );
        self.profile
            .note_queue_ops(0, u64::from(reordered), u64::from(!reordered));
        for i in 0..self.reserved.len() {
            let res = self.reserved[i];
            // If the rectangle fits at `now` with the job's own
            // reservation still in place, releasing it only adds
            // capacity, so the re-anchor would land at `now` — one fits
            // descent replaces the release/find_anchor round-trip (and
            // a reservation already at `now` needs no mutation at all).
            if res.start >= now && self.profile.fits(now, res.meta.estimate, res.meta.width) {
                if res.start > now {
                    self.profile
                        .release(res.start, res.meta.estimate, res.meta.width);
                    self.profile.reserve(now, res.meta.estimate, res.meta.width);
                    self.reserved[i].start = now;
                }
                continue;
            }
            self.profile
                .release(res.start, res.meta.estimate, res.meta.width);
            let anchor = self
                .profile
                .find_anchor(now, res.meta.estimate, res.meta.width);
            assert!(anchor <= res.start, "compression delayed a protected job");
            self.profile
                .reserve(anchor, res.meta.estimate, res.meta.width);
            self.reserved[i].start = anchor;
        }
    }

    /// Promote, start, and backfill; report the next wake-up. See
    /// the conservative scheduler for the `retry_same_instant` contract:
    /// wake-ups are the last event class at an instant, so a deferral
    /// observed during `on_wake` cannot resolve at `now` and asking for a
    /// same-instant wake-up again would spin forever.
    fn reschedule(&mut self, now: SimTime, retry_same_instant: bool) -> Decisions {
        let mut starts = std::mem::take(&mut self.starts_scratch);
        debug_assert!(starts.is_empty());
        if starts.capacity() > 0 {
            self.profile.note_scratch_reuse();
        }

        // Promote jobs whose expansion factor crossed the threshold, in
        // priority order (simultaneous crossers are anchored best-first).
        self.unreserved.prepare(now);
        let mut i = 0;
        while i < self.unreserved.len() {
            if self.crossed(&self.unreserved[i], now) {
                let meta = self.unreserved.remove(i);
                let anchor = self.profile.find_anchor(now, meta.estimate, meta.width);
                self.profile.reserve(anchor, meta.estimate, meta.width);
                self.reserved.push(Reservation {
                    meta,
                    start: anchor,
                });
            } else {
                i += 1;
            }
        }

        // Start protected jobs whose reservation is due and physically
        // fits. A due job blocked by a sibling same-instant completion is
        // retried via the same-instant wake-up below. One ascending pass
        // suffices: starting a job only consumes processors (the rectangle
        // stays where it was), so nothing skipped can become startable
        // within the pass.
        let mut deferred = false;
        let mut i = 0;
        while i < self.reserved.len() {
            if self.reserved[i].start <= now && self.reserved[i].meta.width <= self.free {
                let res = self.reserved.remove(i);
                self.start_running(res.meta, now, &mut starts);
            } else {
                if self.reserved[i].start <= now {
                    deferred = true;
                }
                i += 1;
            }
        }

        // Backfill unprotected jobs around the reservations.
        let mut i = 0;
        while i < self.unreserved.len() {
            let cand = self.unreserved[i];
            if cand.width <= self.free && self.profile.fits(now, cand.estimate, cand.width) {
                self.profile.reserve(now, cand.estimate, cand.width);
                self.unreserved.remove(i);
                self.start_running(cand, now, &mut starts);
            } else {
                i += 1;
            }
        }

        self.profile.trim_before(now);
        let wakeup = if deferred && retry_same_instant {
            Some(now)
        } else {
            // Next strictly-future reservation or threshold crossing.
            // (Outside the deferred case nothing due remains, so the
            // `> now` filter changes nothing; in the deferred-at-wake case
            // it is what prevents the same-instant spin.)
            self.reserved
                .iter()
                .map(|r| r.start)
                .chain(self.unreserved.iter().map(|j| self.crossing_time(j)))
                .filter(|&t| t > now && t < SimTime::FAR_FUTURE)
                .min()
        };
        Decisions {
            preempts: Vec::new(),
            starts,
            wakeup,
        }
    }
}

impl Scheduler for SelectiveScheduler {
    fn name(&self) -> String {
        if self.threshold.is_infinite() {
            format!("Selective(∞)/{}", self.policy)
        } else {
            format!("Selective({})/{}", self.threshold, self.policy)
        }
    }

    fn on_arrival(&mut self, job: JobMeta, now: SimTime) -> Decisions {
        assert!(
            job.width <= self.profile.capacity(),
            "{} wider than machine",
            job.id
        );
        self.unreserved.push(job);
        self.reschedule(now, true)
    }

    fn on_completion(&mut self, id: JobId, now: SimTime) -> Decisions {
        let run = self
            .running
            .remove(&id)
            .expect("completion for unknown job");
        self.free += run.width;
        if now < run.est_end {
            self.profile.release(now, run.est_end.since(now), run.width);
            self.compress(now);
        }
        self.reschedule(now, true)
    }

    fn on_wake(&mut self, now: SimTime) -> Decisions {
        self.reschedule(now, false)
    }

    fn queue_len(&self) -> usize {
        self.reserved.len() + self.unreserved.len()
    }

    fn profile_stats(&self) -> Option<ProfileStats> {
        let mut stats = self.profile.stats();
        self.unreserved.counters().merge_into(&mut stats);
        Some(stats)
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

    fn meta(id: u32, arrival: u64, estimate: u64, width: u32) -> JobMeta {
        JobMeta {
            id: JobId(id),
            arrival: SimTime::new(arrival),
            estimate: SimSpan::new(estimate),
            width,
        }
    }

    #[test]
    fn idle_machine_starts_immediately() {
        let mut s = SelectiveScheduler::new(8, Policy::Fcfs, 2.0);
        let d = s.on_arrival(meta(0, 0, 100, 8), SimTime::ZERO);
        assert_eq!(d.starts, vec![JobId(0)]);
    }

    #[test]
    fn unprotected_jobs_backfill_freely() {
        let mut s = SelectiveScheduler::new(8, Policy::Fcfs, 100.0);
        s.on_arrival(meta(0, 0, 100, 6), SimTime::ZERO);
        s.on_arrival(meta(1, 1, 500, 8), SimTime::new(1)); // waits, unprotected
                                                           // A long 2-wide job backfills at once — EASY would refuse it
                                                           // (it would delay job 1's reservation); selective has none to delay.
        let d = s.on_arrival(meta(2, 2, 9_000, 2), SimTime::new(2));
        assert_eq!(d.starts, vec![JobId(2)]);
    }

    #[test]
    fn crossing_time_formula() {
        let s = SelectiveScheduler::new(8, Policy::Fcfs, 3.0);
        let j = meta(1, 1000, 200, 1);
        // wait needed = (3-1)*200 = 400 -> crossing at 1400.
        assert_eq!(s.crossing_time(&j), SimTime::new(1400));
        let s = SelectiveScheduler::new(8, Policy::Fcfs, f64::INFINITY);
        assert_eq!(s.crossing_time(&j), SimTime::FAR_FUTURE);
    }

    #[test]
    fn job_gets_reservation_once_threshold_crossed() {
        let mut s = SelectiveScheduler::new(8, Policy::Fcfs, 2.0);
        s.on_arrival(meta(0, 0, 1_000, 8), SimTime::ZERO);
        // Job 1 (est 100): crosses at t = 1 + 100 = 101.
        let d = s.on_arrival(meta(1, 1, 100, 8), SimTime::new(1));
        assert_eq!(
            d.wakeup,
            Some(SimTime::new(101)),
            "wake at the crossing time"
        );
        let d = s.on_wake(SimTime::new(101));
        assert!(d.starts.is_empty());
        // Now protected: a new job that would delay it must not backfill.
        let d = s.on_arrival(meta(2, 102, 2_000, 8), SimTime::new(102));
        assert!(d.starts.is_empty());
        // At job 0's (exact) completion, the protected job starts first.
        let d = s.on_completion(JobId(0), SimTime::new(1_000));
        assert_eq!(d.starts, vec![JobId(1)]);
    }

    #[test]
    fn threshold_one_reserves_on_arrival() {
        let mut s = SelectiveScheduler::new(8, Policy::Fcfs, 1.0);
        s.on_arrival(meta(0, 0, 100, 6), SimTime::ZERO);
        s.on_arrival(meta(1, 1, 500, 8), SimTime::new(1));
        // Like conservative: job 2 anchored after job 1's rectangle, so a
        // conflicting backfill is refused.
        let d = s.on_arrival(meta(2, 2, 200, 2), SimTime::new(2));
        assert!(d.starts.is_empty());
        assert_eq!(s.queue_len(), 2);
    }

    #[test]
    fn early_completion_compresses_protected_jobs() {
        let mut s = SelectiveScheduler::new(8, Policy::Fcfs, 1.0);
        s.on_arrival(meta(0, 0, 1_000, 8), SimTime::ZERO);
        s.on_arrival(meta(1, 1, 100, 8), SimTime::new(1));
        let d = s.on_completion(JobId(0), SimTime::new(300));
        assert_eq!(d.starts, vec![JobId(1)]);
    }

    #[test]
    fn infinite_threshold_never_reserves() {
        let mut s = SelectiveScheduler::new(8, Policy::Fcfs, f64::INFINITY);
        s.on_arrival(meta(0, 0, 1_000, 8), SimTime::ZERO);
        let d = s.on_arrival(meta(1, 1, 100, 8), SimTime::new(1));
        assert_eq!(d.wakeup, None, "no reservations, no crossings, no wake-ups");
        assert_eq!(s.name(), "Selective(∞)/FCFS");
    }

    #[test]
    #[should_panic(expected = "must be >= 1")]
    fn rejects_sub_one_threshold() {
        SelectiveScheduler::new(8, Policy::Fcfs, 0.5);
    }

    #[test]
    fn due_protected_job_does_not_spin_same_instant_wakeups() {
        // A protected job whose reservation is due but whose processors are
        // held by an overrunning job must not answer a wake-up with another
        // same-instant wake-up (nothing else can happen at that instant).
        let mut s = SelectiveScheduler::new(8, Policy::Fcfs, 1.0);
        s.on_arrival(meta(0, 0, 100, 8), SimTime::ZERO); // starts; est_end 100
        let d = s.on_arrival(meta(1, 1, 50, 8), SimTime::new(1)); // protected at 100
        assert_eq!(d.wakeup, Some(SimTime::new(100)));
        // Job 0 overruns its estimate; the wake at 150 finds the machine busy.
        let d = s.on_wake(SimTime::new(150));
        assert!(d.starts.is_empty());
        assert_ne!(
            d.wakeup,
            Some(SimTime::new(150)),
            "would spin the event loop"
        );
        let d = s.on_completion(JobId(0), SimTime::new(200));
        assert_eq!(d.starts, vec![JobId(1)]);
    }

    #[test]
    fn exposes_profile_stats() {
        let mut s = SelectiveScheduler::new(8, Policy::Fcfs, 1.0);
        s.on_arrival(meta(0, 0, 1_000, 8), SimTime::ZERO);
        s.on_arrival(meta(1, 1, 100, 8), SimTime::new(1));
        s.on_completion(JobId(0), SimTime::new(300)); // early → compress
        let stats = s.profile_stats().expect("selective keeps a profile");
        assert!(stats.find_anchor_calls > 0);
        assert_eq!(stats.compress_passes, 1);
    }
}
