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
//! that coincide with each other and with estimated ends, and early
//! completions — for `k` ∈ {1, 2, 4, ∞} under all five policies, and must
//! start the same jobs in the same order after every event.

use proptest::prelude::*;
use sched::{DepthScheduler, JobMeta, Policy, Profile, Scheduler};
use simcore::{JobId, SimSpan, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

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
}

impl Reference {
    fn new(capacity: u32, policy: Policy, depth: usize) -> Self {
        Reference {
            capacity,
            policy,
            depth,
            queue: Vec::new(),
            running: Vec::new(),
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
        for job in &self.queue[..protected] {
            let anchor = profile.find_anchor(now, job.estimate, job.width);
            profile.reserve(anchor, job.estimate, job.width);
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

/// Strategy: a machine size and up to 60 jobs sorted by arrival. Arrivals
/// fall on a coarse 10 s grid and estimates on a 5 s grid, so arrivals,
/// completions and estimated ends often coincide. Half the jobs run their
/// full estimate; the rest complete early.
fn arb_workload() -> impl Strategy<Value = (u32, Vec<TestJob>)> {
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
                    TestJob {
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

/// Event classes in the driver's order at one instant: completions free
/// processors before arrivals are considered.
const COMPLETE: u8 = 0;
const ARRIVE: u8 = 1;

/// Drive the shipped scheduler and the reference through one trace,
/// comparing the starts after every event.
fn lockstep(
    capacity: u32,
    jobs: &[TestJob],
    policy: Policy,
    depth: usize,
) -> Result<(), TestCaseError> {
    let mut shipped = DepthScheduler::new(capacity, policy, depth);
    let mut reference = Reference::new(capacity, policy, depth);
    // Min-heap of (time, class, insertion seq, job index).
    let mut events = BinaryHeap::new();
    let mut seq = 0u64;
    for (i, job) in jobs.iter().enumerate() {
        events.push(Reverse((job.meta.arrival, ARRIVE, seq, i)));
        seq += 1;
    }
    let mut started = 0;
    while let Some(Reverse((now, class, _, i))) = events.pop() {
        let job = jobs[i];
        let (decisions, expected) = if class == ARRIVE {
            (
                shipped.on_arrival(job.meta, now),
                reference.arrive(job.meta, now),
            )
        } else {
            (
                shipped.on_completion(job.meta.id, now),
                reference.complete(job.meta.id, now),
            )
        };
        prop_assert_eq!(
            &decisions.starts,
            &expected,
            "{} depth {}: starts diverged at t={} ({})",
            policy,
            depth,
            now.as_secs(),
            if class == ARRIVE {
                "arrival"
            } else {
                "completion"
            }
        );
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
        let (capacity, jobs) = workload;
        for depth in DEPTHS {
            for policy in POLICIES {
                lockstep(capacity, &jobs, policy, depth)?;
            }
        }
    }
}
