//! Differential test of conservative compression against a full-walk
//! reference.
//!
//! `ConservativeScheduler` keeps a compression pass proportional to the
//! jobs that can move: it merges only the arrivals appended since the
//! last pass into the sorted reservation list (static-key policies) or
//! repairs the order in place (XFactor) instead of re-sorting it, rejects
//! jobs wider than the free level at `now` without probing the profile,
//! and skips the due-job scan while the earliest reservation lies in the
//! future. `Reference` below is the plain version
//! of the same scheduler: every pass sorts the whole queue with
//! `Policy::compare` and probes every queued job, and every event scans
//! the whole queue for due jobs.
//!
//! Both run in lockstep over arbitrary small traces — simultaneous
//! arrivals and completions, estimates that are exact or far too long —
//! for all five policies and the three compressing modes. After every
//! event, both must have started the same jobs in the same order, asked
//! for the same wake-up, and hold the same guarantee for every queued job.

use proptest::prelude::*;
use sched::{
    Compression, ConservativeScheduler, Decisions, JobMeta, Policy, Profile, Running, Scheduler,
};
use simcore::{JobId, SimSpan, SimTime};
use std::collections::{BTreeSet, HashMap};

const CAPACITY: u32 = 16;

const POLICIES: [Policy; 5] = [
    Policy::Fcfs,
    Policy::Sjf,
    Policy::XFactor,
    Policy::Ljf,
    Policy::WidestFirst,
];

const MODES: [Compression; 3] = [
    Compression::Backfill,
    Compression::HeadStart,
    Compression::Reanchor,
];

#[derive(Debug, Clone, Copy)]
struct Reservation {
    meta: JobMeta,
    start: SimTime,
}

/// Conservative backfilling with a full sort and a full walk on every
/// compression pass, and a full due-job scan on every event.
struct Reference {
    policy: Policy,
    mode: Compression,
    profile: Profile,
    queue: Vec<Reservation>,
    /// Width and estimated end of each running job.
    running: HashMap<JobId, (u32, SimTime)>,
    free: u32,
}

impl Reference {
    fn new(policy: Policy, mode: Compression) -> Self {
        Reference {
            policy,
            mode,
            profile: Profile::new(CAPACITY),
            queue: Vec::new(),
            running: HashMap::new(),
            free: CAPACITY,
        }
    }

    fn guarantee(&self, id: JobId) -> Option<SimTime> {
        self.queue.iter().find(|r| r.meta.id == id).map(|r| r.start)
    }

    fn on_arrival(&mut self, job: JobMeta, now: SimTime) -> (Vec<JobId>, Option<SimTime>) {
        let anchor = self.profile.find_anchor(now, job.estimate, job.width);
        self.profile.reserve(anchor, job.estimate, job.width);
        self.queue.push(Reservation {
            meta: job,
            start: anchor,
        });
        self.collect(now, true)
    }

    fn on_completion(&mut self, id: JobId, now: SimTime) -> (Vec<JobId>, Option<SimTime>) {
        let (width, est_end) = self.running.remove(&id).expect("unknown job");
        self.free += width;
        if now < est_end {
            self.profile.release(now, est_end.since(now), width);
            self.compress(now);
        }
        self.collect(now, true)
    }

    fn on_wake(&mut self, now: SimTime) -> (Vec<JobId>, Option<SimTime>) {
        self.collect(now, false)
    }

    fn collect(&mut self, now: SimTime, retry_same_instant: bool) -> (Vec<JobId>, Option<SimTime>) {
        let mut starts = Vec::new();
        let mut deferred = false;
        let mut i = 0;
        while i < self.queue.len() {
            let res = self.queue[i];
            if res.start <= now && res.meta.width <= self.free {
                self.queue.remove(i);
                self.free -= res.meta.width;
                self.running
                    .insert(res.meta.id, (res.meta.width, now + res.meta.estimate));
                starts.push(res.meta.id);
            } else {
                deferred |= res.start <= now;
                i += 1;
            }
        }
        let wakeup = if deferred && retry_same_instant {
            Some(now)
        } else {
            self.queue
                .iter()
                .map(|r| r.start)
                .filter(|&s| s > now)
                .min()
        };
        self.profile.trim_before(now);
        (starts, wakeup)
    }

    fn compress(&mut self, now: SimTime) {
        let policy = self.policy;
        self.queue
            .sort_by(|a, b| policy.compare(&a.meta, &b.meta, now));
        for i in 0..self.queue.len() {
            let res = self.queue[i];
            if res.start <= now {
                continue;
            }
            let (estimate, width) = (res.meta.estimate, res.meta.width);
            match self.mode {
                Compression::Backfill | Compression::HeadStart => {
                    // The job's own rectangle can only overlap the tail of
                    // the window; probe the part before it.
                    let window = if res.start < now + estimate {
                        res.start.since(now)
                    } else {
                        estimate
                    };
                    let moved = self.profile.fits(now, window, width);
                    if moved {
                        self.profile.release(res.start, estimate, width);
                        self.profile.reserve(now, estimate, width);
                        self.queue[i].start = now;
                    } else if self.mode == Compression::HeadStart {
                        break;
                    }
                }
                Compression::Reanchor => {
                    self.profile.release(res.start, estimate, width);
                    let anchor = self.profile.find_anchor(now, estimate, width);
                    assert!(anchor <= res.start, "reference pushed a job later");
                    self.profile.reserve(anchor, estimate, width);
                    self.queue[i].start = anchor;
                }
                Compression::None => unreachable!(),
            }
        }
    }
}

/// One job of a generated trace.
#[derive(Debug, Clone, Copy)]
struct Job {
    meta: JobMeta,
    runtime: SimSpan,
}

/// Arrival gaps of 0–3 s (many simultaneous arrivals), estimates of
/// 0–400 s, runtimes that are exact or zero to seven eighths of the
/// estimate (early completions), widths 1–16.
fn arb_trace() -> impl Strategy<Value = Vec<Job>> {
    let job = (0u64..4, 0u64..400, 0u64..10, 1u32..=CAPACITY);
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

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    // Same-instant order as the simulation driver: completions, then
    // arrivals, then wake-ups.
    Complete(u32),
    Arrive(u32),
    Wake,
}

/// Drive both schedulers through `trace`, comparing after every event.
fn lockstep(trace: &[Job], policy: Policy, mode: Compression) -> Result<(), TestCaseError> {
    let mut fast = ConservativeScheduler::with_compression(CAPACITY, policy, mode);
    let mut reference = Reference::new(policy, mode);
    let mut events: BTreeSet<(SimTime, Event)> = trace
        .iter()
        .map(|j| (j.meta.arrival, Event::Arrive(j.meta.id.0)))
        .collect();
    let mut queued: BTreeSet<u32> = BTreeSet::new();
    let mut started = 0;
    let mut started_at = vec![SimTime::ZERO; trace.len()];
    let mut d = Decisions::default();
    while let Some((now, event)) = events.pop_first() {
        d.clear();
        let (ref_starts, ref_wakeup) = match event {
            Event::Arrive(i) => {
                queued.insert(i);
                let job = trace[i as usize].meta;
                fast.on_arrival(job, now, &mut d);
                reference.on_arrival(job, now)
            }
            Event::Complete(i) => {
                let record = Running {
                    meta: trace[i as usize].meta,
                    started_at: started_at[i as usize],
                };
                fast.on_completion(record, now, &mut d);
                reference.on_completion(JobId(i), now)
            }
            Event::Wake => {
                fast.on_wake(now, &mut d);
                reference.on_wake(now)
            }
        };
        let at = format!("{policy}/{mode:?} at {now} after {event:?}");
        prop_assert_eq!(&d.starts, &ref_starts, "starts diverged: {}", at);
        prop_assert_eq!(d.wakeup, ref_wakeup, "wake-ups diverged: {}", at);
        for &id in &d.starts {
            queued.remove(&id.0);
            started_at[id.0 as usize] = now;
            started += 1;
            let end = now + trace[id.0 as usize].runtime;
            events.insert((end, Event::Complete(id.0)));
        }
        for &i in &queued {
            let id = JobId(i);
            prop_assert_eq!(
                fast.guarantee(id),
                reference.guarantee(id),
                "guarantee of {} diverged: {}",
                id,
                at
            );
        }
        prop_assert_eq!(fast.queue_len(), reference.queue.len(), "{}", at);
        if let Some(wake) = d.wakeup {
            events.insert((wake, Event::Wake));
        }
    }
    prop_assert_eq!(
        started,
        trace.len(),
        "not every job ran ({policy}/{mode:?})"
    );
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
    #![proptest_config(cases(192))]

    #[test]
    fn pruned_compression_matches_full_walk(trace in arb_trace()) {
        for policy in POLICIES {
            for mode in MODES {
                lockstep(&trace, policy, mode)?;
            }
        }
    }
}

/// A hand-built case that exercises each shortcut: a deep queue of
/// wide jobs behind a narrow hole, so most probes are rejected by width,
/// and a long stretch with nothing due, so most events skip the scan.
#[test]
fn wide_queue_behind_a_narrow_hole() {
    let mut trace = Vec::new();
    for i in 0..40u32 {
        let width = if i % 5 == 0 { 2 } else { 12 + i % 5 };
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
    for policy in POLICIES {
        for mode in MODES {
            lockstep(&trace, policy, mode).unwrap();
        }
    }
}
