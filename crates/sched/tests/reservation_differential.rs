//! Differential test of the reservation-depth backfill pass.
//!
//! `DepthScheduler` (EASY at depth 1) keeps one running profile for its
//! whole life: starts reserve into it, completions release their unused
//! tails, and each pass reserves the top `k` queued jobs into it, backfills
//! against it and releases the `k` rectangles again. The reference here
//! does none of that. At every event it re-sorts a plain `Vec` queue,
//! rebuilds a fresh profile from its running set, reserves the top `k` at
//! their earliest anchors, and backfills every later job whose rectangle
//! `fits` now, reserving each into the throwaway profile. The two run in
//! lockstep over arbitrary traces — simultaneous arrivals, completions
//! that coincide with each other and with estimated ends, early
//! completions and overruns (a resumed victim's clamped estimate can be
//! short of what it still runs), and wake-ups at random instants and at
//! the very instants the reference anchored a reservation — for
//! `k` ∈ {1, 2, 4, ∞} under all five policies, plus
//! `PreemptiveScheduler` with an infinite threshold at depth 1, and must
//! start the same jobs in the same order after every event.
//!
//! The shipped pass keeps its reservations between events and re-places
//! only those whose inputs changed; the reference has nothing to keep, so
//! any reservation kept where a fresh search would put it elsewhere shows
//! up as a diverging start.

use proptest::prelude::*;
use sched::{DepthScheduler, JobMeta, Policy, PreemptiveScheduler, Profile, Scheduler};
use simcore::{JobId, SimSpan, SimTime};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

const DEPTHS: [usize; 4] = [1, 2, 4, usize::MAX];

const POLICIES: [Policy; 5] = [
    Policy::Fcfs,
    Policy::Sjf,
    Policy::XFactor,
    Policy::Ljf,
    Policy::WidestFirst,
];

/// The naive depth-`k` scheduler: everything recomputed per event.
struct Reference {
    capacity: u32,
    policy: Policy,
    depth: usize,
    queue: Vec<JobMeta>,
    /// `(job, start)` for every job holding processors.
    running: Vec<(JobMeta, SimTime)>,
    /// The anchors the last pass gave the protected jobs.
    anchors: Vec<SimTime>,
}

impl Reference {
    fn new(capacity: u32, policy: Policy, depth: usize) -> Self {
        Reference {
            capacity,
            policy,
            depth,
            queue: Vec::new(),
            running: Vec::new(),
            anchors: Vec::new(),
        }
    }

    fn arrive(&mut self, job: JobMeta, now: SimTime) -> Vec<JobId> {
        self.queue.push(job);
        self.reschedule(now)
    }

    fn complete(&mut self, id: JobId, now: SimTime) -> Vec<JobId> {
        let i = self
            .running
            .iter()
            .position(|(job, _)| job.id == id)
            .expect("completion of a running job");
        self.running.remove(i);
        self.reschedule(now)
    }

    fn start(&mut self, job: JobMeta, now: SimTime, starts: &mut Vec<JobId>) {
        self.running.push((job, now));
        starts.push(job.id);
    }

    fn reschedule(&mut self, now: SimTime) -> Vec<JobId> {
        self.policy.sort(&mut self.queue, now);
        let mut starts = Vec::new();
        let busy: u32 = self.running.iter().map(|(job, _)| job.width).sum();
        let mut free = self.capacity - busy;
        while !self.queue.is_empty() && self.queue[0].width <= free {
            let head = self.queue.remove(0);
            free -= head.width;
            self.start(head, now, &mut starts);
        }
        if self.queue.is_empty() {
            return starts;
        }

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
                self.start(cand, now, &mut starts);
            } else {
                i += 1;
            }
        }
        starts
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
/// wake-ups. Arrivals fall on a coarse 10 s grid, and estimates and
/// wake-ups on a 5 s grid, so arrivals, completions, wake-ups and
/// estimated ends often coincide. About a third of the jobs complete
/// early, a third run their full estimate and a third overrun it, by up to
/// 2× (floor rounding turns some short overruns into exact runs).
fn arb_workload() -> impl Strategy<Value = Workload> {
    (2u32..=24).prop_flat_map(|capacity| {
        let job = (
            0u64..60,        // arrival slot
            1u64..=60,       // estimate, in 5 s units
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
                    let estimate = 5 * est;
                    TestJob {
                        meta: JobMeta {
                            id: JobId(i as u32),
                            arrival: SimTime::new(10 * slot),
                            estimate: SimSpan::new(estimate),
                            width,
                        },
                        runtime: SimSpan::new(runtime_of(estimate, pct)),
                    }
                })
                .collect();
            let wakes = wakes
                .into_iter()
                .map(|slot| SimTime::new(5 * slot))
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
/// comparing the starts after every event. Besides the drawn wake-ups,
/// every instant the reference anchors one of its first two reservations
/// at gets a wake-up of its own (once), so events land exactly on held
/// anchors. (Waking at every anchor of the unbounded depth makes a case
/// several times slower and finds nothing the first two do not.)
fn lockstep(
    workload: &Workload,
    mut shipped: impl Scheduler,
    policy: Policy,
    depth: usize,
) -> Result<(), TestCaseError> {
    let (capacity, jobs, wakes) = workload;
    let name = shipped.name();
    let mut reference = Reference::new(*capacity, policy, depth);
    // Min-heap of (time, class, insertion seq, job index); a wake-up's
    // job index is unused.
    let mut events = BinaryHeap::new();
    let mut seq = 0u64;
    for (i, job) in jobs.iter().enumerate() {
        events.push(Reverse((job.meta.arrival, ARRIVE, seq, i)));
        seq += 1;
    }
    let mut woken: BTreeSet<SimTime> = BTreeSet::new();
    for &at in wakes {
        if woken.insert(at) {
            events.push(Reverse((at, WAKE, seq, 0)));
            seq += 1;
        }
    }
    let mut started = 0;
    while let Some(Reverse((now, class, _, i))) = events.pop() {
        let job = jobs[i];
        let (decisions, expected, what) = match class {
            ARRIVE => (
                shipped.on_arrival(job.meta, now),
                reference.arrive(job.meta, now),
                "arrival",
            ),
            COMPLETE => (
                shipped.on_completion(job.meta.id, now),
                reference.complete(job.meta.id, now),
                "completion",
            ),
            _ => (shipped.on_wake(now), reference.reschedule(now), "wake-up"),
        };
        prop_assert_eq!(
            &decisions.starts,
            &expected,
            "{}: starts diverged at t={} ({})",
            &name,
            now.as_secs(),
            what
        );
        for &anchor in reference.anchors.iter().take(2) {
            if anchor >= now && woken.insert(anchor) {
                events.push(Reverse((anchor, WAKE, seq, 0)));
                seq += 1;
            }
        }
        prop_assert!(decisions.preempts.is_empty() && decisions.wakeup.is_none());
        for &id in &decisions.starts {
            let end = now + jobs[id.0 as usize].runtime;
            events.push(Reverse((end, COMPLETE, seq, id.0 as usize)));
            seq += 1;
            started += 1;
        }
        shipped.recycle(decisions);
    }
    prop_assert_eq!(started, jobs.len(), "every job starts exactly once");
    prop_assert_eq!(shipped.queue_len(), 0);
    Ok(())
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
    fn in_place_pass_matches_rebuilt_reference(workload in arb_workload()) {
        let capacity = workload.0;
        for policy in POLICIES {
            for depth in DEPTHS {
                lockstep(&workload, DepthScheduler::new(capacity, policy, depth), policy, depth)?;
            }
            let never = PreemptiveScheduler::new(capacity, policy, f64::INFINITY);
            lockstep(&workload, never, policy, 1)?;
        }
    }
}
