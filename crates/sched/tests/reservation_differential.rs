//! Differential test of the reservation-depth backfill pass and of
//! selective preemption around it.
//!
//! `DepthScheduler` (EASY at depth 1) keeps one running profile for its
//! whole life: starts reserve into it, completions release their unused
//! tails, and each pass reserves the top `k` queued jobs into it, backfills
//! against it and releases the `k` rectangles again. `PreemptiveScheduler`
//! runs the same pass at depth 1 and picks its victims from the starts the
//! driver reported through `Scheduler::on_started`. The reference here
//! does none of that. At every event it re-sorts a plain `Vec` queue,
//! starts heads while they fit, runs the selective-preemption episode from
//! its own running `Vec` (a starving head, victims lowest priority first,
//! the minimum run and the suspension cap), rebuilds a fresh profile from
//! its running set, reserves the top `k` at their earliest anchors, and
//! backfills every later job whose rectangle `fits` now, reserving each
//! into the throwaway profile.
//!
//! The two run in lockstep over arbitrary traces — simultaneous arrivals,
//! completions that coincide with each other and with estimated ends,
//! early completions and overruns (a resumed victim's clamped estimate can
//! be short of what it still runs), and wake-ups at random instants, at
//! the very instants the reference anchored a reservation and at the
//! instants the scheduler asks for — for `k` ∈ {1, 2, 4, ∞} under all five
//! policies, and for `PreemptiveScheduler` with the shipped safeguards at
//! an infinite threshold and at three finite ones. Longer traces, with
//! zero estimates, back the queue up across several of its 64-entry
//! blocks. After every event both
//! must order the same preemptions, the same starts in the same order and
//! the same wake-up. The lockstep driver plays the simulation driver's
//! part: it voids the pending completion of a suspended job and
//! re-announces the job with `max(estimate − ran, 1 s)`.
//!
//! The shipped pass keeps its reservations between events and re-places
//! only those whose inputs changed; the reference has nothing to keep, so
//! any reservation kept where a fresh search would put it elsewhere, and
//! any cached profile that drifts from the running set, shows up as a
//! diverging decision.

use proptest::prelude::*;
use sched::{
    Decisions, DepthScheduler, JobMeta, Policy, PreemptiveScheduler, Profile, Running, Scheduler,
};
use simcore::{JobId, SimSpan, SimTime};
use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashMap};

const DEPTHS: [usize; 4] = [1, 2, 4, usize::MAX];

/// Finite preemption thresholds: 1 lets any blocked head start an
/// episode, 5 is the benchmark's.
const THRESHOLDS: [f64; 3] = [1.0, 2.0, 5.0];

const POLICIES: [Policy; 5] = [
    Policy::Fcfs,
    Policy::Sjf,
    Policy::XFactor,
    Policy::Ljf,
    Policy::WidestFirst,
];

/// `PreemptiveScheduler`'s safeguards: a victim has run at least ten
/// minutes and has been suspended fewer than twice.
const MIN_RUN: SimSpan = SimSpan::from_mins(10);
const MAX_PREEMPTIONS: u32 = 2;

/// The naive depth-`k` scheduler, with selective preemption at a finite
/// threshold: everything recomputed per event.
struct Reference {
    capacity: u32,
    policy: Policy,
    depth: usize,
    /// The starving head's expansion factor that starts an episode;
    /// infinite for none.
    threshold: f64,
    queue: Vec<JobMeta>,
    /// `(job, start)` for every job holding processors.
    running: Vec<(JobMeta, SimTime)>,
    /// Times each job has been suspended.
    suspensions: HashMap<JobId, u32>,
    /// The anchors the last pass gave the protected jobs.
    anchors: Vec<SimTime>,
}

impl Reference {
    fn new(capacity: u32, policy: Policy, depth: usize, threshold: f64) -> Self {
        Reference {
            capacity,
            policy,
            depth,
            threshold,
            queue: Vec::new(),
            running: Vec::new(),
            suspensions: HashMap::new(),
            anchors: Vec::new(),
        }
    }

    fn arrive(&mut self, job: JobMeta, now: SimTime) -> Decisions {
        self.queue.push(job);
        self.reschedule(now)
    }

    fn complete(&mut self, id: JobId, now: SimTime) -> Decisions {
        self.leave(id);
        self.reschedule(now)
    }

    /// A suspended job comes back with its remaining estimate.
    fn requeue(&mut self, job: JobMeta) {
        self.queue.push(job);
    }

    fn leave(&mut self, id: JobId) {
        let i = self
            .running
            .iter()
            .position(|(job, _)| job.id == id)
            .expect("a running job");
        self.running.remove(i);
    }

    fn start(&mut self, job: JobMeta, now: SimTime, out: &mut Decisions) {
        self.running.push((job, now));
        out.starts.push(job.id);
    }

    /// The selective-preemption episode: if the blocked head is starving,
    /// suspend the lowest-priority runners that may be suspended until it
    /// fits, and start it; if they cannot free enough, do nothing.
    /// Returns the free processors after it.
    fn preempt(&mut self, mut free: u32, now: SimTime, out: &mut Decisions) -> u32 {
        let Some(&head) = self.queue.first() else {
            return free;
        };
        if Policy::xfactor(&head, now) < self.threshold {
            return free;
        }
        let mut candidates: Vec<JobMeta> = self
            .running
            .iter()
            .filter(|&&(job, start)| {
                now.since(start) >= MIN_RUN
                    && self.suspensions.get(&job.id).copied().unwrap_or(0) < MAX_PREEMPTIONS
            })
            .map(|&(job, _)| job)
            .collect();
        self.policy.sort(&mut candidates, now);
        let mut victims = Vec::new();
        let mut freed = free;
        while freed < head.width {
            let Some(victim) = candidates.pop() else {
                return free;
            };
            freed += victim.width;
            victims.push(victim.id);
        }
        for id in victims {
            self.leave(id);
            *self.suspensions.entry(id).or_insert(0) += 1;
            out.preempts.push(id);
        }
        free = freed - head.width;
        let head = self.queue.remove(0);
        self.start(head, now, out);
        free
    }

    fn reschedule(&mut self, now: SimTime) -> Decisions {
        let mut out = Decisions::default();
        self.policy.sort(&mut self.queue, now);
        let busy: u32 = self.running.iter().map(|(job, _)| job.width).sum();
        let mut free = self.capacity - busy;
        while !self.queue.is_empty() && self.queue[0].width <= free {
            let head = self.queue.remove(0);
            free -= head.width;
            self.start(head, now, &mut out);
        }
        free = self.preempt(free, now, &mut out);

        let mut profile = Profile::new(self.capacity);
        for (job, start) in &self.running {
            let est_end = *start + job.estimate;
            if est_end > now {
                profile.reserve(now, est_end.since(now), job.width);
            }
        }
        let protected = self.depth.min(self.queue.len());
        self.anchors.clear();
        for job in &self.queue[..protected] {
            let anchor = profile.find_anchor(now, job.estimate, job.width);
            profile.reserve(anchor, job.estimate, job.width);
            self.anchors.push(anchor);
        }
        let mut i = protected;
        while i < self.queue.len() {
            let cand = self.queue[i];
            if cand.width <= free && profile.fits(now, cand.estimate, cand.width) {
                profile.reserve(now, cand.estimate, cand.width);
                self.queue.remove(i);
                free -= cand.width;
                self.start(cand, now, &mut out);
            } else {
                i += 1;
            }
        }

        // Wake when the head will cross the threshold.
        out.wakeup = self
            .queue
            .first()
            .filter(|_| self.threshold.is_finite())
            .map(|head| Policy::crossing_time(self.threshold, head))
            .filter(|&cross| cross > now);
        out
    }
}

/// One job of a generated trace: its meta plus its actual runtime.
#[derive(Debug, Clone, Copy)]
struct TestJob {
    meta: JobMeta,
    runtime: SimSpan,
}

/// A generated trace: the machine size, the jobs, and the instants at
/// which the scheduler is woken with no other event.
type Workload = (u32, Vec<TestJob>, Vec<SimTime>);

/// Strategy: a machine size, up to 60 jobs sorted by arrival and up to 30
/// wake-ups, on a grid of `unit` seconds. Arrivals fall every 2 units, and
/// estimates (1–60 units) and wake-ups every unit, so arrivals,
/// completions, wake-ups and estimated ends often coincide. About a third
/// of the jobs complete early, a third run their full estimate and a third
/// overrun it, by up to 2× (floor rounding turns some short overruns into
/// exact runs). A unit of 5 s keeps every run short of the preemption
/// safeguards' 10-minute minimum; a unit of 60 s puts most runs past it.
fn arb_workload(unit: u64) -> impl Strategy<Value = Workload> {
    (2u32..=24).prop_flat_map(move |capacity| {
        let job = (
            0u64..60,        // arrival slot
            1u64..=60,       // estimate, in units
            1u64..=300,      // runtime, % of estimate: 100..=200 means 100
            1u32..=capacity, // width
        );
        let wakes = proptest::collection::vec(0u64..240, 0..30);
        (proptest::collection::vec(job, 1..60), wakes).prop_map(move |(raw, wakes)| {
            let mut raw = raw;
            raw.sort_by_key(|&(slot, ..)| slot);
            let jobs = raw
                .into_iter()
                .enumerate()
                .map(|(i, (slot, est, pct, width))| {
                    let estimate = unit * est;
                    TestJob {
                        meta: JobMeta {
                            id: JobId(i as u32),
                            arrival: SimTime::new(2 * unit * slot),
                            estimate: SimSpan::new(estimate),
                            width,
                        },
                        runtime: SimSpan::new(runtime_of(estimate, pct)),
                    }
                })
                .collect();
            let wakes = wakes
                .into_iter()
                .map(|slot| SimTime::new(unit * slot))
                .collect();
            (capacity, jobs, wakes)
        })
    })
}

/// Strategy: long traces that back the queue up past two full 64-entry
/// queue blocks — 130–240 jobs on 4–16 processors, arriving on a grid of
/// 30 slots, with estimates of 0–60 units (one in eight zero) and the
/// same mix of early, exact and overrunning runtimes; a zero-estimate job
/// overruns by its one-second floor.
fn arb_deep_workload(unit: u64) -> impl Strategy<Value = Workload> {
    (4u32..=16).prop_flat_map(move |capacity| {
        let job = (
            0u64..30,        // arrival slot
            0u64..=60,       // estimate, in units
            0u64..8,         // zero selector
            1u64..=300,      // runtime, % of estimate
            1u32..=capacity, // width
        );
        let wakes = proptest::collection::vec(0u64..240, 0..30);
        (proptest::collection::vec(job, 130..240), wakes).prop_map(move |(raw, wakes)| {
            let mut raw = raw;
            raw.sort_by_key(|&(slot, ..)| slot);
            let jobs = raw
                .into_iter()
                .enumerate()
                .map(|(i, (slot, est, zero, pct, width))| {
                    let estimate = if zero == 0 { 0 } else { unit * est.max(1) };
                    TestJob {
                        meta: JobMeta {
                            id: JobId(i as u32),
                            arrival: SimTime::new(2 * unit * slot),
                            estimate: SimSpan::new(estimate),
                            width,
                        },
                        runtime: SimSpan::new(runtime_of(estimate, pct)),
                    }
                })
                .collect();
            let wakes = wakes
                .into_iter()
                .map(|slot| SimTime::new(unit * slot))
                .collect();
            (capacity, jobs, wakes)
        })
    })
}

/// Runtime for a drawn percentage: 1..=99 complete early, 100..=200 run
/// the estimate exactly, 201..=300 overrun it by 1–100% (before rounding
/// down to whole seconds).
fn runtime_of(estimate: u64, pct: u64) -> u64 {
    let pct = match pct {
        0..=100 => pct,
        101..=200 => 100,
        _ => pct - 100,
    };
    (estimate * pct / 100).max(1)
}

/// Event classes in the driver's order at one instant: completions free
/// processors before arrivals are considered, and wake-ups come last.
const COMPLETE: u8 = 0;
const ARRIVE: u8 = 1;
const WAKE: u8 = 2;

/// Drive the shipped scheduler and the reference through one trace,
/// comparing the decisions after every event, and return the number of
/// preemptions they made and the longest queue. Besides the drawn wake-ups and the ones the
/// scheduler asks for, every instant the reference anchors one of its
/// first two reservations at gets a wake-up of its own (once), so events
/// land exactly on held anchors. (Waking at every anchor of the unbounded
/// depth makes a case several times slower and finds nothing the first
/// two do not.)
fn lockstep(
    workload: &Workload,
    mut shipped: impl Scheduler,
    mut reference: Reference,
) -> Result<(usize, usize), TestCaseError> {
    let (_, jobs, wakes) = workload;
    let name = shipped.name();
    // Min-heap of (time, class, insertion seq, job index, run epoch); a
    // wake-up's job index and epoch are unused, and a completion whose
    // epoch is stale belongs to a run a suspension ended.
    let mut events = BinaryHeap::new();
    let mut seq = 0u64;
    for (i, job) in jobs.iter().enumerate() {
        events.push(Reverse((job.meta.arrival, ARRIVE, seq, i, 0)));
        seq += 1;
    }
    let mut woken: BTreeSet<SimTime> = BTreeSet::new();
    for &at in wakes {
        if woken.insert(at) {
            events.push(Reverse((at, WAKE, seq, 0, 0)));
            seq += 1;
        }
    }
    // Per job: the meta as last announced, the runtime still owed, the
    // total run so far, the start of the current run and the run epoch.
    let mut metas: Vec<JobMeta> = jobs.iter().map(|job| job.meta).collect();
    let mut owed: Vec<SimSpan> = jobs.iter().map(|job| job.runtime).collect();
    let mut ran = vec![SimSpan::ZERO; jobs.len()];
    let mut running: Vec<Option<SimTime>> = vec![None; jobs.len()];
    let mut epochs = vec![0u32; jobs.len()];
    let (mut completed, mut preemptions, mut deepest) = (0, 0, 0);
    let mut decisions = Decisions::default();
    while let Some(Reverse((now, class, _, i, epoch))) = events.pop() {
        if class == COMPLETE && epoch != epochs[i] {
            continue;
        }
        decisions.clear();
        let (expected, what) = match class {
            ARRIVE => {
                shipped.on_arrival(metas[i], now, &mut decisions);
                (reference.arrive(metas[i], now), "arrival")
            }
            COMPLETE => {
                let started_at = running[i].take().expect("completion of a running job");
                owed[i] = SimSpan::ZERO;
                completed += 1;
                let record = Running {
                    meta: metas[i],
                    started_at,
                    suspensions: epochs[i],
                };
                shipped.on_completion(record, now, &mut decisions);
                (reference.complete(metas[i].id, now), "completion")
            }
            _ => {
                shipped.on_wake(now, &mut decisions);
                (reference.reschedule(now), "wake-up")
            }
        };
        prop_assert_eq!(
            &decisions,
            &expected,
            "{}: decisions diverged at t={} ({})",
            &name,
            now.as_secs(),
            what
        );
        deepest = deepest.max(shipped.queue_len());
        for &anchor in reference.anchors.iter().take(2) {
            if anchor >= now && woken.insert(anchor) {
                events.push(Reverse((anchor, WAKE, seq, 0, 0)));
                seq += 1;
            }
        }
        if let Some(at) = decisions.wakeup {
            if woken.insert(at) {
                events.push(Reverse((at, WAKE, seq, 0, 0)));
                seq += 1;
            }
        }
        for &id in &decisions.preempts {
            let v = id.0 as usize;
            let started_at = running[v].take().expect("preempted a running job");
            let ran_now = now.since(started_at);
            prop_assert!(ran_now <= owed[v], "{} ran past its runtime", id);
            owed[v] = owed[v] - ran_now;
            ran[v] += ran_now;
            epochs[v] += 1;
            metas[v].estimate = (jobs[v].meta.estimate - ran[v]).max(SimSpan::SECOND);
            shipped.on_preempted(metas[v]);
            reference.requeue(metas[v]);
            preemptions += 1;
        }
        for &id in &decisions.starts {
            let s = id.0 as usize;
            prop_assert!(running[s].is_none(), "{} started twice", id);
            running[s] = Some(now);
            events.push(Reverse((now + owed[s], COMPLETE, seq, s, epochs[s])));
            seq += 1;
            shipped.on_started(Running {
                meta: metas[s],
                started_at: now,
                suspensions: epochs[s],
            });
        }
    }
    prop_assert_eq!(completed, jobs.len(), "every job completes exactly once");
    prop_assert_eq!(shipped.queue_len(), 0);
    Ok((preemptions, deepest))
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
    #![proptest_config(cases(64))]

    #[test]
    fn in_place_pass_matches_rebuilt_reference(workload in arb_workload(5)) {
        let capacity = workload.0;
        for policy in POLICIES {
            for depth in DEPTHS {
                let shipped = DepthScheduler::new(capacity, policy, depth);
                let reference = Reference::new(capacity, policy, depth, f64::INFINITY);
                lockstep(&workload, shipped, reference)?;
            }
            let never = PreemptiveScheduler::new(capacity, policy, f64::INFINITY);
            lockstep(&workload, never, Reference::new(capacity, policy, 1, f64::INFINITY))?;
        }
    }
}

/// `PreemptiveScheduler` at finite thresholds on the coarse grid, where
/// runs outlast the minimum run. The run reports how many preemptions it
/// checked and fails if there were none.
#[test]
fn preemption_episodes_match_rebuilt_reference() {
    let preemptions = Cell::new(0);
    proptest::run_cases(
        cases(64),
        "preemption_episodes_match_rebuilt_reference",
        |rng| {
            let workload = arb_workload(60).generate(rng);
            let capacity = workload.0;
            for policy in POLICIES {
                for threshold in THRESHOLDS {
                    let shipped = PreemptiveScheduler::new(capacity, policy, threshold);
                    let reference = Reference::new(capacity, policy, 1, threshold);
                    let (preempted, _) = lockstep(&workload, shipped, reference)?;
                    preemptions.set(preemptions.get() + preempted);
                }
            }
            Ok(())
        },
    );
    eprintln!(
        "preemption differential: {} preemptions checked",
        preemptions.get()
    );
    assert!(preemptions.get() > 0, "no case preempted anything");
}

/// Long traces whose queues span three blocks or more, with zero
/// estimates and overruns, for every depth and for preemption at the
/// benchmark's threshold, so that the backfill scan passes over whole
/// blocks. The run reports how many cases queued more than 128 jobs and
/// fails if none did.
#[test]
fn deep_queues_match_rebuilt_reference() {
    let deep = Cell::new(0);
    proptest::run_cases(cases(4), "deep_queues_match_rebuilt_reference", |rng| {
        let workload = arb_deep_workload(5).generate(rng);
        let capacity = workload.0;
        let mut deepest = 0;
        for policy in POLICIES {
            for depth in DEPTHS {
                let shipped = DepthScheduler::new(capacity, policy, depth);
                let reference = Reference::new(capacity, policy, depth, f64::INFINITY);
                deepest = deepest.max(lockstep(&workload, shipped, reference)?.1);
            }
            let preempt = PreemptiveScheduler::new(capacity, policy, 5.0);
            let reference = Reference::new(capacity, policy, 1, 5.0);
            deepest = deepest.max(lockstep(&workload, preempt, reference)?.1);
        }
        if deepest > 128 {
            deep.set(deep.get() + 1);
        }
        Ok(())
    });
    eprintln!(
        "reservation differential: {} cases queued more than 128 jobs",
        deep.get()
    );
    assert!(deep.get() > 0, "no case spanned three queue blocks");
}
