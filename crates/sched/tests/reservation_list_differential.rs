//! Lockstep differential of the reservation-list family.
//!
//! `ConservativeScheduler::selective` and `ConservativeScheduler::slack`
//! run selective and slack-based backfilling as admission and promise
//! rules on the conservative scheduler's reservation list. The modules
//! below keep the two schedulers they replaced, verbatim apart from their
//! `use` lines and selective's order repair (now a full sort of its
//! reserved list, with no counters), as references: selective with its
//! own reserved list, unreserved queue and compression loop, slack with a
//! whole-queue stable sort and a start-now probe of every job on every
//! event.
//!
//! Shipped scheduler and reference run in lockstep over arbitrary small
//! traces — simultaneous arrivals and completions, estimates that are
//! exact or far too long, no overruns — for τ ∈ {1, 1.5, 2, ∞} and
//! σ-factors ∈ {0, 0.5, 2} under all five policies. After every event both
//! must have started the same jobs in the same order, asked for the same
//! wake-up and hold the same number of waiting jobs; for slack, every
//! queued job's promise must agree too. Longer traces back the lists up
//! across several of their 64-entry queue blocks.

use proptest::prelude::*;
use sched::{ConservativeScheduler, Decisions, JobMeta, Policy, Running, Scheduler};
use simcore::{JobId, SimSpan, SimTime};
use std::cell::Cell;
use std::collections::BTreeSet;

const CAPACITY: u32 = 16;

const POLICIES: [Policy; 5] = [
    Policy::Fcfs,
    Policy::Sjf,
    Policy::XFactor,
    Policy::Ljf,
    Policy::WidestFirst,
];

const THRESHOLDS: [f64; 4] = [1.0, 1.5, 2.0, f64::INFINITY];

const SLACK_FACTORS: [f64; 3] = [0.0, 0.5, 2.0];

#[allow(dead_code)]
mod selective_ref {
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

    use sched::queue::SchedQueue;
    use sched::{Decisions, JobMeta, Policy, Profile, ProfileStats, Scheduler};
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
            let policy = self.policy;
            self.reserved
                .sort_by(|a, b| policy.compare(&a.meta, &b.meta, now));
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
            let mut starts = Vec::new();

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

        fn on_arrival(&mut self, job: JobMeta, now: SimTime, out: &mut Decisions) {
            assert!(
                job.width <= self.profile.capacity(),
                "{} wider than machine",
                job.id
            );
            self.unreserved.push(job);
            *out = self.reschedule(now, true);
        }

        fn on_completion(&mut self, job: sched::Running, now: SimTime, out: &mut Decisions) {
            let run = self
                .running
                .remove(&job.meta.id)
                .expect("completion for unknown job");
            self.free += run.width;
            if now < run.est_end {
                self.profile.release(now, run.est_end.since(now), run.width);
                self.compress(now);
            }
            *out = self.reschedule(now, true);
        }

        fn on_wake(&mut self, now: SimTime, out: &mut Decisions) {
            *out = self.reschedule(now, false);
        }

        fn queue_len(&self) -> usize {
            self.reserved.len() + self.unreserved.len()
        }

        fn profile_stats(&self) -> Option<ProfileStats> {
            let mut stats = self.profile.stats();
            self.unreserved.counters().merge_into(&mut stats);
            Some(stats)
        }
    }
}

#[allow(dead_code)]
mod slack_ref {
    //! Slack-based backfilling (Talby & Feitelson, IPPS 1999 — the paper's
    //! reference \[13\]).
    //!
    //! Conservative backfilling promises every job the *earliest* feasible
    //! start; EASY promises nothing except to the queue head. Slack-based
    //! backfilling promises every job a start time **with built-in slack**: on
    //! arrival a job is told "you will start no later than your earliest
    //! feasible anchor plus σ". The reservation rectangle is parked at that
    //! later promise, leaving the span between the earliest anchor and the
    //! promise open for backfilling — so later jobs may effectively delay a
    //! queued job, but never beyond its promise.
    //!
    //! σ = 0 degenerates to conservative backfilling exactly (verified by a
    //! fingerprint test); growing σ trades guarantee tightness for backfill
    //! freedom, approaching EASY-like schedules while keeping a hard bound on
    //! every job's delay — the knob Talby & Feitelson tune by job priority.
    //!
    //! Like the conservative scheduler, holes from early completions are
    //! offered to queued jobs in priority order (a job moves only to start
    //! immediately, and its promise never moves later).

    use sched::{Decisions, JobMeta, Policy, Profile, ProfileStats, Scheduler};
    use serde::{Deserialize, Serialize};
    use simcore::{JobId, SimSpan, SimTime};
    use std::collections::HashMap;

    /// How much slack each job's promise carries.
    #[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
    pub enum SlackPolicy {
        /// A fixed allowance for every job.
        Constant(SimSpan),
        /// `σ = factor × estimated runtime` — short jobs get tight promises,
        /// long jobs proportionally looser ones.
        ProportionalToEstimate(f64),
    }

    impl SlackPolicy {
        fn slack_for(&self, job: &JobMeta) -> SimSpan {
            match *self {
                SlackPolicy::Constant(s) => s,
                SlackPolicy::ProportionalToEstimate(f) => {
                    assert!(f >= 0.0, "slack factor must be non-negative");
                    job.estimate.scale(f)
                }
            }
        }
    }

    #[derive(Debug, Clone, Copy)]
    struct Promise {
        meta: JobMeta,
        /// Where the reservation rectangle sits (the latest promised start).
        start: SimTime,
    }

    #[derive(Debug, Clone, Copy)]
    struct Running {
        width: u32,
        est_end: SimTime,
    }

    /// Slack-based backfilling scheduler.
    #[derive(Debug, Clone)]
    pub struct SlackScheduler {
        policy: Policy,
        slack: SlackPolicy,
        profile: Profile,
        queue: Vec<Promise>,
        running: HashMap<JobId, Running>,
        free: u32,
    }

    impl SlackScheduler {
        /// Create for a machine with `capacity` processors.
        pub fn new(capacity: u32, policy: Policy, slack: SlackPolicy) -> Self {
            SlackScheduler {
                policy,
                slack,
                profile: Profile::new(capacity),
                queue: Vec::new(),
                running: HashMap::new(),
                free: capacity,
            }
        }

        /// The promised (latest) start of a queued job, for tests and metrics.
        pub fn promise(&self, id: JobId) -> Option<SimTime> {
            self.queue.iter().find(|p| p.meta.id == id).map(|p| p.start)
        }

        fn start_job(&mut self, p: Promise, now: SimTime) {
            debug_assert!(
                p.start >= now,
                "promise {} already passed at {now}",
                p.start
            );
            self.free -= p.meta.width;
            self.running.insert(
                p.meta.id,
                Running {
                    width: p.meta.width,
                    est_end: now + p.meta.estimate,
                },
            );
            if p.start > now {
                // Starting ahead of the promise: move the rectangle to now.
                self.profile.release(p.start, p.meta.estimate, p.meta.width);
                self.profile.reserve(now, p.meta.estimate, p.meta.width);
            }
        }

        /// Start queued jobs that fit immediately (in priority order) and any
        /// whose promise is due; report the next wake-up.
        ///
        /// See the conservative scheduler for the `retry_same_instant`
        /// contract: a deferral observed during `on_wake` cannot resolve at
        /// `now` (wakes are the last event class at an instant), so asking for
        /// a same-instant wake-up again would spin forever.
        fn collect(&mut self, now: SimTime, retry_same_instant: bool) -> Decisions {
            let mut starts = Vec::new();
            self.queue
                .sort_by(|a, b| self.policy.compare(&a.meta, &b.meta, now));
            let mut deferred = false;
            let mut i = 0;
            while i < self.queue.len() {
                let p = self.queue[i];
                let due = p.start <= now;
                if p.meta.width <= self.free {
                    // Can it start now without breaking any other promise?
                    // The release → fits → reserve probe of the job's own
                    // rectangle is needed only when that rectangle could change
                    // the answer: if the hole fits with the rectangle still in
                    // place, lifting it only adds capacity (still fits); if it
                    // does not fit and the rectangle is disjoint from the
                    // candidate window, lifting it cannot help.
                    let fits_now = if self.profile.fits(now, p.meta.estimate, p.meta.width) {
                        true
                    } else if p.start < now + p.meta.estimate {
                        self.profile.release(p.start, p.meta.estimate, p.meta.width);
                        let fits = self.profile.fits(now, p.meta.estimate, p.meta.width);
                        self.profile.reserve(p.start, p.meta.estimate, p.meta.width);
                        fits
                    } else {
                        false
                    };
                    if fits_now || due {
                        let p = self.queue.remove(i);
                        // Starting ahead of the promise relocates the job's
                        // rectangle to `now`, which frees capacity at its old
                        // position — that can unblock a higher-priority job
                        // already skipped this pass, so only then rescan.
                        // A start at the promise itself only consumes
                        // processors and can unblock nothing.
                        let moved = p.start > now;
                        self.start_job(p, now);
                        starts.push(p.meta.id);
                        if moved {
                            i = 0;
                        }
                        continue;
                    }
                } else if due {
                    deferred = true;
                }
                i += 1;
            }
            let wakeup = if deferred && retry_same_instant {
                Some(now)
            } else if deferred {
                // Deferred at a wake-up: wait for the next strictly-future
                // promise; completions re-trigger collection on their own.
                self.queue
                    .iter()
                    .map(|p| p.start)
                    .filter(|&s| s > now)
                    .min()
            } else {
                self.queue.iter().map(|p| p.start).min()
            };
            self.profile.trim_before(now);
            Decisions {
                preempts: Vec::new(),
                starts,
                wakeup,
            }
        }
    }

    impl Scheduler for SlackScheduler {
        fn name(&self) -> String {
            match self.slack {
                SlackPolicy::Constant(s) => format!("Slack({s})/{}", self.policy),
                SlackPolicy::ProportionalToEstimate(f) => format!("Slack({f}×est)/{}", self.policy),
            }
        }

        fn on_arrival(&mut self, job: JobMeta, now: SimTime, out: &mut Decisions) {
            assert!(
                job.width <= self.profile.capacity(),
                "{} wider than machine",
                job.id
            );
            // Earliest feasible anchor, then park the rectangle σ later (at the
            // first feasible position at or after anchor + σ).
            let earliest = self.profile.find_anchor(now, job.estimate, job.width);
            let sigma = self.slack.slack_for(&job);
            let promise = if sigma.is_zero() {
                earliest
            } else {
                self.profile
                    .find_anchor(earliest + sigma, job.estimate, job.width)
            };
            self.profile.reserve(promise, job.estimate, job.width);
            self.queue.push(Promise {
                meta: job,
                start: promise,
            });
            *out = self.collect(now, true);
        }

        fn on_completion(&mut self, job: sched::Running, now: SimTime, out: &mut Decisions) {
            let run = self
                .running
                .remove(&job.meta.id)
                .expect("completion for unknown job");
            self.free += run.width;
            if now < run.est_end {
                self.profile.release(now, run.est_end.since(now), run.width);
            }
            *out = self.collect(now, true);
        }

        fn on_wake(&mut self, now: SimTime, out: &mut Decisions) {
            *out = self.collect(now, false);
        }

        fn queue_len(&self) -> usize {
            self.queue.len()
        }

        fn profile_stats(&self) -> Option<ProfileStats> {
            Some(self.profile.stats())
        }
    }
}

use selective_ref::SelectiveScheduler;
use slack_ref::{SlackPolicy, SlackScheduler};

/// One job of a generated trace.
#[derive(Debug, Clone, Copy)]
struct Job {
    meta: JobMeta,
    runtime: SimSpan,
}

/// The compression differential's generator: arrival gaps of 0–3 s (many
/// simultaneous arrivals), runtimes that are exact or zero to seven
/// eighths of the estimate (early completions), widths 1–16 — with
/// estimates of 1–400 s rather than 0–400 s. A zero-estimate job holds no
/// rectangle, so on a busy machine it stays due past its reservation, and
/// both references then fail an assert (selective's "compression delayed
/// a protected job", slack's "promise already passed"); the shipped
/// scheduler starts it once processors free up, as the overdue unit tests
/// in `conservative.rs` pin.
fn arb_trace() -> impl Strategy<Value = Vec<Job>> {
    let job = (0u64..4, 1u64..400, 0u64..10, 1u32..=CAPACITY);
    proptest::collection::vec(job, 1..28).prop_map(|raw| {
        let mut arrival = 0;
        raw.into_iter()
            .enumerate()
            .map(|(i, (gap, estimate, eighths, width))| {
                arrival += gap;
                // Selectors 8 and 9 complete exactly at the estimate.
                let runtime = estimate * eighths.min(8) / 8;
                Job {
                    meta: JobMeta {
                        id: JobId(i as u32),
                        arrival: SimTime::new(arrival),
                        estimate: SimSpan::new(estimate),
                        width,
                    },
                    runtime: SimSpan::new(runtime),
                }
            })
            .collect()
    })
}

/// The reservation-depth differential's generator: a machine of 2–24
/// processors and up to 60 jobs whose arrivals fall on a 10 s grid and
/// estimates on a 5 s grid, so arrivals, completions, estimated ends and
/// promises often coincide. Half the jobs run their full estimate; the
/// rest complete early.
fn arb_grid_trace() -> impl Strategy<Value = (u32, Vec<Job>)> {
    (2u32..=24).prop_flat_map(|capacity| {
        let job = (
            0u64..60,        // arrival slot
            1u64..=60,       // estimate, in 5 s units
            1u64..=200,      // runtime, % of estimate (above 100 means 100)
            1u32..=capacity, // width
        );
        proptest::collection::vec(job, 1..60).prop_map(move |raw| {
            let mut raw = raw;
            raw.sort_by_key(|&(slot, ..)| slot);
            let jobs = raw
                .into_iter()
                .enumerate()
                .map(|(i, (slot, est, pct, width))| {
                    let estimate = 5 * est;
                    Job {
                        meta: JobMeta {
                            id: JobId(i as u32),
                            arrival: SimTime::new(10 * slot),
                            estimate: SimSpan::new(estimate),
                            width,
                        },
                        runtime: SimSpan::new((estimate * pct.min(100) / 100).max(1)),
                    }
                })
                .collect();
            (capacity, jobs)
        })
    })
}

/// Long traces that back the lists up past four full 64-entry queue
/// blocks: 260–340 jobs arriving 0–1 s apart with estimates of
/// 1–3,000 s, half completing early and half on their estimate (the
/// references take neither zero estimates nor overruns, see
/// [`arb_trace`]).
fn arb_deep_trace() -> impl Strategy<Value = Vec<Job>> {
    let job = (0u64..2, 1u64..=3_000, 1u64..=200, 1u32..=CAPACITY);
    proptest::collection::vec(job, 260..340).prop_map(|raw| {
        let mut arrival = 0;
        raw.into_iter()
            .enumerate()
            .map(|(i, (gap, estimate, pct, width))| {
                arrival += gap;
                Job {
                    meta: JobMeta {
                        id: JobId(i as u32),
                        arrival: SimTime::new(arrival),
                        estimate: SimSpan::new(estimate),
                        width,
                    },
                    runtime: SimSpan::new(estimate * pct.min(100) / 100),
                }
            })
            .collect()
    })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    // Same-instant order as the simulation driver: completions, then
    // arrivals, then wake-ups.
    Complete(u32),
    Arrive(u32),
    Wake,
}

/// Drive `shipped` and `reference` through `trace`, comparing after every
/// event, and return the most jobs that waited at once. `promise` reads a
/// queued job's promise from the reference, when it exposes one.
fn lockstep<R: Scheduler>(
    trace: &[Job],
    mut shipped: ConservativeScheduler,
    mut reference: R,
    promise: impl Fn(&R, JobId) -> Option<SimTime>,
) -> Result<usize, TestCaseError> {
    let label = reference.name();
    prop_assert_eq!(shipped.name(), label.clone());
    let mut events: BTreeSet<(SimTime, Event)> = trace
        .iter()
        .map(|j| (j.meta.arrival, Event::Arrive(j.meta.id.0)))
        .collect();
    let mut queued: BTreeSet<u32> = BTreeSet::new();
    let mut started = 0;
    let mut started_at = vec![SimTime::ZERO; trace.len()];
    let mut deepest = 0;
    let (mut d, mut expected) = (Decisions::default(), Decisions::default());
    while let Some((now, event)) = events.pop_first() {
        d.clear();
        expected.clear();
        match event {
            Event::Arrive(i) => {
                queued.insert(i);
                let job = trace[i as usize].meta;
                shipped.on_arrival(job, now, &mut d);
                reference.on_arrival(job, now, &mut expected);
            }
            Event::Complete(i) => {
                let record = Running {
                    meta: trace[i as usize].meta,
                    started_at: started_at[i as usize],
                    suspensions: 0,
                };
                shipped.on_completion(record, now, &mut d);
                reference.on_completion(record, now, &mut expected);
            }
            Event::Wake => {
                shipped.on_wake(now, &mut d);
                reference.on_wake(now, &mut expected);
            }
        }
        let at = format!("{label} at {now} after {event:?}");
        prop_assert_eq!(&d.starts, &expected.starts, "starts diverged: {}", at);
        prop_assert_eq!(d.wakeup, expected.wakeup, "wake-ups diverged: {}", at);
        prop_assert!(d.preempts.is_empty());
        for &id in &d.starts {
            queued.remove(&id.0);
            started_at[id.0 as usize] = now;
            started += 1;
            let end = now + trace[id.0 as usize].runtime;
            events.insert((end, Event::Complete(id.0)));
        }
        for &i in &queued {
            if let Some(p) = promise(&reference, JobId(i)) {
                prop_assert_eq!(
                    shipped.guarantee(JobId(i)),
                    Some(p),
                    "promise of job {} diverged: {}",
                    i,
                    at
                );
            }
        }
        prop_assert_eq!(shipped.queue_len(), reference.queue_len(), "{}", at);
        deepest = deepest.max(shipped.queue_len());
        if let Some(wake) = d.wakeup {
            events.insert((wake, Event::Wake));
        }
    }
    prop_assert_eq!(started, trace.len(), "not every job ran ({})", label);
    Ok(deepest)
}

/// Every threshold and slack factor under every policy; returns the most
/// jobs that waited at once in any of the runs.
fn lockstep_all(capacity: u32, trace: &[Job]) -> Result<usize, TestCaseError> {
    let mut deepest = 0;
    for policy in POLICIES {
        for threshold in THRESHOLDS {
            deepest = deepest.max(lockstep(
                trace,
                ConservativeScheduler::selective(capacity, policy, threshold),
                SelectiveScheduler::new(capacity, policy, threshold),
                |_, _| None,
            )?);
        }
        for factor in SLACK_FACTORS {
            deepest = deepest.max(lockstep(
                trace,
                ConservativeScheduler::slack(capacity, policy, factor),
                SlackScheduler::new(
                    capacity,
                    policy,
                    SlackPolicy::ProportionalToEstimate(factor),
                ),
                |r, id| r.promise(id),
            )?);
        }
    }
    Ok(deepest)
}

/// Case count: `PROPTEST_CASES` can raise it (CI runs this file in
/// release with more cases), never lower it.
fn cases(default: u32) -> ProptestConfig {
    let raised = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    ProptestConfig::with_cases(default.max(raised))
}

proptest! {
    #![proptest_config(cases(96))]

    #[test]
    fn admission_and_promise_rules_match_the_replaced_schedulers(trace in arb_trace()) {
        lockstep_all(CAPACITY, &trace)?;
    }

    #[test]
    fn coarse_grid_traces_match_the_replaced_schedulers(workload in arb_grid_trace()) {
        let (capacity, trace) = workload;
        lockstep_all(capacity, &trace)?;
    }
}

/// Long traces whose waiting jobs fill more than four queue blocks, so at
/// least one of selective's two lists, and slack's one, spans three
/// blocks or more. The run reports how many cases got there and fails if
/// none did.
#[test]
fn deep_queues_match_the_replaced_schedulers() {
    let deep = Cell::new(0);
    proptest::run_cases(
        cases(1),
        "deep_queues_match_the_replaced_schedulers",
        |rng| {
            let trace = arb_deep_trace().generate(rng);
            if lockstep_all(CAPACITY, &trace)? > 256 {
                deep.set(deep.get() + 1);
            }
            Ok(())
        },
    );
    eprintln!(
        "reservation-list differential: {} cases queued more than 256 jobs",
        deep.get()
    );
    assert!(deep.get() > 0, "no case spanned three queue blocks");
}

/// A hand-built case for the slack rescan: a deep queue of wide jobs
/// behind narrow holes, with early completions throughout, so starts
/// ahead of a promise keep vacating rectangles that higher-priority jobs
/// were blocked on.
#[test]
fn wide_queue_behind_narrow_holes() {
    let mut trace = Vec::new();
    for i in 0..40u32 {
        let width = if i % 5 == 0 { 2 } else { 4 + i % 9 };
        let estimate = 100 + (i as u64 * 37) % 300;
        trace.push(Job {
            meta: JobMeta {
                id: JobId(i),
                arrival: SimTime::new(i as u64 / 3),
                estimate: SimSpan::new(estimate),
                width,
            },
            runtime: SimSpan::new(estimate / (1 + i as u64 % 4)),
        });
    }
    lockstep_all(CAPACITY, &trace).unwrap();
}
