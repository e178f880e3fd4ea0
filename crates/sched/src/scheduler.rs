//! The scheduler interface the simulation driver programs against.
//!
//! A scheduler is an event-driven state machine. The driver feeds it three
//! kinds of events — a job arrived, a running job completed, a requested
//! timer fired — and after each event the scheduler answers in the
//! driver's [`Decisions`] buffer: the jobs to start *right now*, plus an
//! optional wake-up time for schedulers whose next action is not triggered
//! by an arrival or completion (e.g. a reservation coming due, or a
//! selective-backfilling threshold crossing).
//!
//! Information hiding is enforced structurally: schedulers receive a
//! [`JobMeta`] carrying only what a real scheduler would know (arrival,
//! *estimated* runtime, width) — never the actual runtime. The driver alone
//! knows when jobs will really complete. The machine's state is the
//! driver's too: it keeps which jobs run and since when, hands a finished
//! job's [`Running`] record back with its completion, and works out a
//! suspended job's remaining estimate. A scheduler keeps only its policy
//! state (queues, reservations, its profile).

use crate::profile::ProfileStats;
use obs::trace::SharedRecorder;
use simcore::{JobId, SimSpan, SimTime};

/// What the scheduler is allowed to know about a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobMeta {
    /// Job identifier.
    pub id: JobId,
    /// Submission instant.
    pub arrival: SimTime,
    /// User-estimated runtime (the wall-clock limit). For a job the driver
    /// re-announces after a suspension, the *remaining* estimate.
    pub estimate: SimSpan,
    /// Processors requested.
    pub width: u32,
}

/// A job holding processors, as the driver hands it back when the job
/// completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Running {
    /// The job as the scheduler last saw it: a resumed job's `estimate`
    /// is its remaining estimate.
    pub meta: JobMeta,
    /// Start of the current run.
    pub started_at: SimTime,
}

impl Running {
    /// Where the current run's estimate ends.
    pub fn est_end(&self) -> SimTime {
        self.started_at + self.meta.estimate
    }
}

/// The scheduler's response to an event. The driver owns one buffer,
/// clears it before each event and hands it to the handler, so a handler
/// only ever adds to an empty `Decisions` and the vectors keep their
/// capacity from one event to the next.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Decisions {
    /// Running jobs to suspend *before* the starts are applied. Their
    /// processors become free immediately; the driver re-announces each
    /// preempted job to the scheduler via [`Scheduler::on_preempted`] with
    /// its remaining estimate. Only preemption-aware schedulers emit these.
    pub preempts: Vec<JobId>,
    /// Jobs to start immediately (at the event's timestamp). Order is the
    /// order in which they claim processors. A previously preempted job
    /// may appear here to resume.
    pub starts: Vec<JobId>,
    /// If set, the driver fires [`Scheduler::on_wake`] at this time (unless
    /// another event arrives first; stale wake-ups are harmless no-ops).
    pub wakeup: Option<SimTime>,
}

impl Decisions {
    /// Empty the buffer for the next event, keeping its capacity.
    pub fn clear(&mut self) {
        self.preempts.clear();
        self.starts.clear();
        self.wakeup = None;
    }
}

/// An online parallel-job scheduler.
///
/// Contract (checked by the driver and the test suite):
/// * every job passed to `on_arrival` is eventually returned in some
///   `starts` exactly once (and once more after each suspension);
/// * a started job's processors are in use until the driver calls
///   `on_completion` for it, or suspends it;
/// * the scheduler never starts jobs beyond machine capacity.
///
/// Each event handler answers in `out`, which the driver hands over
/// empty.
pub trait Scheduler {
    /// Human-readable name, e.g. `"EASY/SJF"`.
    fn name(&self) -> String;

    /// A job entered the queue at `now`.
    fn on_arrival(&mut self, job: JobMeta, now: SimTime, out: &mut Decisions);

    /// A started job released its processors at `now` (this may be earlier
    /// than its estimate — the interesting case). `job` is its record: the
    /// meta the scheduler last saw and the start of its current run.
    fn on_completion(&mut self, job: Running, now: SimTime, out: &mut Decisions);

    /// A timer requested via [`Decisions::wakeup`] fired.
    fn on_wake(&mut self, now: SimTime, out: &mut Decisions);

    /// A job this scheduler asked to preempt has been suspended and must be
    /// requeued. `job` keeps its arrival and width; its `estimate` is the
    /// remaining estimate the driver worked out, `max(estimate − total
    /// ran, 1 s)`. Default: panic — non-preemptive schedulers never emit
    /// preempts, so receiving this is a driver/scheduler contract
    /// violation.
    fn on_preempted(&mut self, job: JobMeta) {
        unreachable!("scheduler never asked to preempt {}", job.id);
    }

    /// Number of jobs currently waiting (diagnostics).
    fn queue_len(&self) -> usize;

    /// Cumulative availability-profile operation counters, if this
    /// scheduler maintains a profile. Schedulers that keep a persistent
    /// profile report it directly; ones that rebuild a throwaway profile
    /// per event report the accumulated counters across all rebuilds.
    /// Default: `None` (profile-free schedulers, e.g. plain FCFS).
    fn profile_stats(&self) -> Option<ProfileStats> {
        None
    }

    /// Hand the scheduler a shared decision-trace recorder. Schedulers
    /// that make profile-level decisions (reservations, backfills,
    /// compression) emit `Reserve`/`Backfill`/`Compress` events into it;
    /// the driver emits the job lifecycle (`Arrive`/`Start`/`Complete`/
    /// `Preempt`) itself. Recording must be strictly observational —
    /// decisions may never depend on the recorder — so the default is to
    /// ignore it.
    fn set_recorder(&mut self, recorder: SharedRecorder) {
        let _ = recorder;
    }

    /// Hand the scheduler a shared per-phase profiling accumulator (see
    /// `obs::span::PhaseAcc`). Schedulers with distinguishable internal
    /// phases (queue maintenance, backfill scans, profile compression)
    /// time them into it; like the recorder, profiling must be strictly
    /// observational, so the default is to ignore it.
    fn set_phases(&mut self, phases: obs::SharedPhases) {
        let _ = phases;
    }
}

/// The driver's side of the contract, for the schedulers' unit tests: it
/// keeps each running job's record, as the simulation driver does, so a
/// test names a completing job by its id.
#[cfg(test)]
pub(crate) mod testing {
    use super::*;
    use std::collections::HashMap;

    /// A scheduler under test plus the records of its running jobs.
    /// Derefs to the scheduler, so its own methods and fields stay at
    /// hand.
    pub(crate) struct Harness<S> {
        sched: S,
        /// Every job announced so far, as last announced.
        seen: HashMap<JobId, JobMeta>,
        running: HashMap<JobId, Running>,
    }

    impl<S: Scheduler> Harness<S> {
        pub(crate) fn new(sched: S) -> Self {
            Harness {
                sched,
                seen: HashMap::new(),
                running: HashMap::new(),
            }
        }

        pub(crate) fn arrive(&mut self, job: JobMeta, now: SimTime) -> Decisions {
            self.seen.insert(job.id, job);
            let mut out = Decisions::default();
            self.sched.on_arrival(job, now, &mut out);
            self.apply(&out, now)
        }

        /// Complete a running job; panics if `id` is not running.
        pub(crate) fn complete(&mut self, id: JobId, now: SimTime) -> Decisions {
            let job = self.running.remove(&id).expect("completion of an idle job");
            let mut out = Decisions::default();
            self.sched.on_completion(job, now, &mut out);
            self.apply(&out, now)
        }

        pub(crate) fn wake(&mut self, now: SimTime) -> Decisions {
            let mut out = Decisions::default();
            self.sched.on_wake(now, &mut out);
            self.apply(&out, now)
        }

        /// Requeue a suspended job with the remaining estimate `job`
        /// carries.
        pub(crate) fn requeue(&mut self, job: JobMeta) {
            self.seen.insert(job.id, job);
            self.sched.on_preempted(job);
        }

        fn apply(&mut self, out: &Decisions, now: SimTime) -> Decisions {
            for id in &out.preempts {
                self.running.remove(id).expect("preempted an idle job");
            }
            for &id in &out.starts {
                let meta = self.seen[&id];
                let prev = self.running.insert(
                    id,
                    Running {
                        meta,
                        started_at: now,
                    },
                );
                assert!(prev.is_none(), "{id} started twice");
            }
            out.clone()
        }
    }

    impl<S> std::ops::Deref for Harness<S> {
        type Target = S;
        fn deref(&self) -> &S {
            &self.sched
        }
    }

    impl<S> std::ops::DerefMut for Harness<S> {
        fn deref_mut(&mut self) -> &mut S {
            &mut self.sched
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clear_empties_the_buffer_and_keeps_its_capacity() {
        let mut d = Decisions {
            preempts: vec![JobId(1)],
            starts: vec![JobId(2), JobId(3)],
            wakeup: Some(SimTime::new(5)),
        };
        let capacity = (d.preempts.capacity(), d.starts.capacity());
        d.clear();
        assert_eq!(d, Decisions::default());
        assert_eq!((d.preempts.capacity(), d.starts.capacity()), capacity);
    }
}
