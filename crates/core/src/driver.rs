//! The simulation driver: feeds a trace through a scheduler on a machine.
//!
//! The driver is the only component that knows jobs' **actual** runtimes,
//! and it is the simulation's one event loop, one processor ledger and one
//! keeper of job records. It pops a [`simcore::EventQueue`] until it
//! drains, relays each event to the scheduler, and applies the starts and
//! preemptions the scheduler orders: each start adds the job's width to
//! the processors in use (a start that does not fit panics on the spot, as
//! does a second start of a running job), each completion or suspension
//! takes it back off, and each start schedules the job's completion at
//! `start + runtime`. A run ends with every job completed, the queue empty
//! and no processor in use.
//!
//! The scheduler answers every event in one [`Decisions`] buffer the driver
//! owns and clears before each event, so the event path allocates nothing
//! for it once the buffer has grown. The driver also tracks each job's
//! remaining work and current run: a completion hands the scheduler the
//! job's [`Running`] record, and a suspended job is re-announced with its
//! remaining estimate, `max(estimate − total ran, 1 s)`, worked out here
//! and nowhere else.
//!
//! Simultaneous events process in a fixed class order — completions, then
//! arrivals, then scheduler wake-ups — so that a job ending at instant *t*
//! frees its processors before anything else at *t* is considered, and
//! wake-ups observe fully updated state.

use crate::schedule::Schedule;
use metrics::JobOutcome;
use obs::trace::{SharedRecorder, TraceCategory, TraceKind};
use sched::conservative::Compression;
use sched::{ConservativeScheduler, DepthScheduler, FcfsScheduler, PreemptiveScheduler};
use sched::{Decisions, JobMeta, Policy, ProfileStats, Running, Scheduler};
use serde::{Deserialize, Serialize};
use simcore::{EventClass, EventQueue, JobId, SimSpan, SimTime};
use workload::{Category, CategoryCriteria, Trace};

/// Which scheduling strategy to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SchedulerKind {
    /// Priority order, no backfilling (the pre-backfilling baseline).
    NoBackfill,
    /// Conservative backfilling: a reservation for every job. Holes are
    /// filled per the paper (a queued job moves only to start immediately).
    Conservative,
    /// Conservative backfilling with full re-anchoring compression: every
    /// early completion re-anchors all queued reservations as early as
    /// possible (ablation variant).
    ConservativeReanchor,
    /// Conservative backfilling where early-completion holes are offered to
    /// queued jobs strictly in priority order, stopping at the first that
    /// cannot start immediately (ablation variant).
    ConservativeHeadStart,
    /// Conservative backfilling that never moves queued reservations:
    /// holes from early completions benefit only later arrivals
    /// (ablation variant).
    ConservativeNoCompress,
    /// Aggressive (EASY) backfilling: one pivot reservation. Runs the
    /// reservation-depth scheduler at depth 1.
    Easy,
    /// Selective backfilling: reservation once the expansion factor
    /// crosses the threshold.
    Selective {
        /// Expansion-factor threshold (≥ 1).
        threshold: f64,
    },
    /// Slack-based backfilling: every job is promised its earliest anchor
    /// plus `slack_factor × estimate`; the window in between is open for
    /// backfilling (Talby & Feitelson, the paper's reference \[13\]).
    Slack {
        /// Multiple of the estimate used as the promise slack.
        slack_factor: f64,
    },
    /// Reservation-depth backfilling: the top `depth` queued jobs hold
    /// reservations, recomputed per event (EASY = depth 1; the
    /// EASY↔conservative continuum of Chiang et al.).
    Depth {
        /// Number of protected queue positions (≥ 1).
        depth: usize,
    },
    /// EASY with selective preemption: once the queue head's expansion
    /// factor crosses the threshold, running jobs may be suspended to make
    /// room (the authors' companion strategy, their reference \[6\]).
    Preemptive {
        /// Expansion-factor threshold that triggers a preemption episode.
        threshold: f64,
    },
}

impl SchedulerKind {
    /// Instantiate the scheduler for a machine of `capacity` processors.
    pub fn build(&self, capacity: u32, policy: Policy) -> Box<dyn Scheduler> {
        match *self {
            SchedulerKind::NoBackfill => Box::new(FcfsScheduler::new(capacity, policy)),
            SchedulerKind::Conservative => Box::new(ConservativeScheduler::new(capacity, policy)),
            SchedulerKind::ConservativeReanchor => Box::new(
                ConservativeScheduler::with_compression(capacity, policy, Compression::Reanchor),
            ),
            SchedulerKind::ConservativeHeadStart => Box::new(
                ConservativeScheduler::with_compression(capacity, policy, Compression::HeadStart),
            ),
            SchedulerKind::ConservativeNoCompress => Box::new(
                ConservativeScheduler::with_compression(capacity, policy, Compression::None),
            ),
            SchedulerKind::Easy => Box::new(DepthScheduler::new(capacity, policy, 1)),
            SchedulerKind::Selective { threshold } => Box::new(ConservativeScheduler::selective(
                capacity, policy, threshold,
            )),
            SchedulerKind::Slack { slack_factor } => {
                Box::new(ConservativeScheduler::slack(capacity, policy, slack_factor))
            }
            SchedulerKind::Depth { depth } => {
                Box::new(DepthScheduler::new(capacity, policy, depth))
            }
            SchedulerKind::Preemptive { threshold } => {
                Box::new(PreemptiveScheduler::new(capacity, policy, threshold))
            }
        }
    }

    /// Short label for reports.
    pub fn label(&self) -> String {
        match self {
            SchedulerKind::NoBackfill => "NoBF".into(),
            SchedulerKind::Conservative => "Cons".into(),
            SchedulerKind::ConservativeReanchor => "Cons(re)".into(),
            SchedulerKind::ConservativeHeadStart => "Cons(hs)".into(),
            SchedulerKind::ConservativeNoCompress => "Cons(no)".into(),
            SchedulerKind::Easy => "EASY".into(),
            SchedulerKind::Selective { threshold } => format!("Sel({threshold})"),
            SchedulerKind::Slack { slack_factor } => format!("Slack({slack_factor})"),
            SchedulerKind::Depth { depth } => format!("Depth({depth})"),
            SchedulerKind::Preemptive { threshold } => format!("Preempt({threshold})"),
        }
    }
}

/// Observability options for one simulation run. Everything here is
/// record-only: enabling any of it cannot change a single scheduling
/// decision (asserted by the fingerprint-parity tests).
#[derive(Debug, Default)]
pub struct SimOptions {
    /// Record typed decision-trace events into this recorder. The driver
    /// tags every job with its paper category at arrival and emits
    /// `Arrive`/`Start`/`Complete`/`Preempt`; profile-keeping schedulers
    /// additionally emit `Reserve`/`Backfill`/`Compress`.
    pub recorder: Option<SharedRecorder>,
    /// Accumulate per-phase self-profiling timings (event pop, arrival /
    /// completion / wake handling, and the schedulers' queue-ops /
    /// compress / backfill sub-phases) into this shared accumulator. See
    /// `obs::span::PhaseAcc`; DESIGN.md §17 covers the phase taxonomy.
    pub phases: Option<obs::SharedPhases>,
}

impl SimOptions {
    /// Record into `recorder`, nothing else.
    pub fn with_recorder(recorder: SharedRecorder) -> Self {
        SimOptions {
            recorder: Some(recorder),
            phases: None,
        }
    }

    /// Accumulate per-phase timings into `phases`, nothing else.
    pub fn with_phases(phases: obs::SharedPhases) -> Self {
        SimOptions {
            recorder: None,
            phases: Some(phases),
        }
    }
}

/// Map a workload category onto its trace-event tag.
fn trace_category(cat: Category) -> TraceCategory {
    match cat {
        Category::SN => TraceCategory::SN,
        Category::SW => TraceCategory::SW,
        Category::LN => TraceCategory::LN,
        Category::LW => TraceCategory::LW,
    }
}

/// Accumulate one run's profile counters into `registry` under the
/// `sim.*` naming convention (see the `obs::metrics` docs). The per-run
/// [`ProfileStats`] stays the protocol-level report; `bfsimd` flushes
/// each fresh run into its own registry, so the `metrics` verb serves
/// running totals.
pub fn flush_profile_stats(registry: &obs::Registry, stats: &ProfileStats) {
    registry
        .counter("sim.profile.find_anchor_calls")
        .add(stats.find_anchor_calls);
    registry
        .counter("sim.profile.segments_visited")
        .add(stats.segments_visited);
    // The `tree.*` names outlived the min/max tree that once indexed the
    // profile's chunk summaries; they count chunk leaps, the summaries
    // those leaps read, summary changes and chunk-count changes (see
    // `ProfileStats`).
    registry
        .counter("sim.profile.tree.descents")
        .add(stats.tree_descents);
    registry
        .counter("sim.profile.tree.nodes_visited")
        .add(stats.tree_nodes_visited);
    registry
        .counter("sim.profile.tree.incremental_updates")
        .add(stats.tree_incremental_updates);
    registry
        .counter("sim.profile.tree.rebuilds")
        .add(stats.tree_rebuilds);
    registry.counter("sim.profile.reserves").add(stats.reserves);
    registry.counter("sim.profile.releases").add(stats.releases);
    registry
        .counter("sim.profile.compress_passes")
        .add(stats.compress_passes);
    registry
        .counter("sim.profile.fits_cache.hits")
        .add(stats.fits_cache_hits);
    registry
        .counter("sim.profile.fits_cache.misses")
        .add(stats.fits_cache_misses);
    registry
        .counter("sim.queue.inserts")
        .add(stats.queue_inserts);
    registry.counter("sim.queue.sorts").add(stats.queue_sorts);
    registry
        .counter("sim.queue.sorts_avoided")
        .add(stats.queue_sorts_avoided);
    registry.counter("sim.queue.moves").add(stats.queue_moves);
    let peak = registry.gauge("sim.profile.peak_segments");
    if stats.peak_segments as i64 > peak.get() {
        peak.set(stats.peak_segments as i64);
    }
}

/// A suspended job's remaining estimate: its estimate less the total it
/// ran, floored at 1 s.
fn remaining_estimate(estimate: SimSpan, ran: SimSpan) -> SimSpan {
    (estimate - ran).max(SimSpan::SECOND)
}

/// Event classes: completions release processors before anything else at
/// the same instant; wake-ups run last, over fully updated state.
const CLASS_COMPLETION: EventClass = EventClass::FIRST;
const CLASS_ARRIVAL: EventClass = EventClass::NORMAL;
const CLASS_WAKE: EventClass = EventClass::LAST;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    Arrive(u32),
    /// Completion of the run-epoch given by the second field; a stale
    /// epoch means the job was preempted after this event was scheduled,
    /// and the event is ignored.
    Complete(JobId, u32),
    Wake,
}

impl Ev {
    /// The top-level phase that handling this event is timed under.
    fn phase(self) -> obs::Phase {
        match self {
            Ev::Arrive(_) => obs::Phase::Arrival,
            Ev::Complete(..) => obs::Phase::Completion,
            Ev::Wake => obs::Phase::Wake,
        }
    }
}

struct Driver<'a> {
    trace: &'a Trace,
    scheduler: Box<dyn Scheduler>,
    /// Pending events: the next arrival plus in-flight completions and
    /// wake-ups.
    queue: EventQueue<Ev>,
    /// Processors held by running jobs: the sum of the widths of the jobs
    /// whose `running_since` is set.
    in_use: u32,
    /// First start per job.
    starts: Vec<Option<SimTime>>,
    /// Final completion per job.
    ends: Vec<Option<SimTime>>,
    /// Actual runtime still owed per job (shrinks across preemptions).
    remaining: Vec<SimSpan>,
    /// Start of the current run segment, when running.
    running_since: Vec<Option<SimTime>>,
    /// Run-epoch per job; bumped on every preemption to invalidate the
    /// pending completion event. Nonzero once the job has been suspended.
    epoch: Vec<u32>,
    /// Completed run segments, for capacity auditing of preemptive
    /// schedules (a suspended job holds no processors).
    segments: Vec<simcore::PlacedJob>,
    completions: u32,
    /// Discrete events delivered (arrivals, completions — stale ones
    /// included — and wake-ups): the denominator of events/sec throughput.
    events: u64,
    /// Opt-in decision-trace recorder (shared with the scheduler).
    recorder: Option<SharedRecorder>,
    /// Criteria used to tag trace events with the paper category. Only
    /// the driver may categorize: assignment uses the actual runtime,
    /// which schedulers never see.
    criteria: CategoryCriteria,
    /// Times with a wake event already in flight. Schedulers restate their
    /// earliest wake-up need after every event; scheduling each request
    /// verbatim would let stale wake chains multiply. The invariant kept
    /// here is: if the scheduler needs a wake at `W`, a wake event is
    /// pending at some time `<= W` — and whenever a wake fires, the
    /// scheduler restates its need, re-establishing the invariant.
    pending_wakes: std::collections::BTreeSet<SimTime>,
    /// Index of the next trace arrival to seed. Arrivals enter the event
    /// queue one at a time — each delivered arrival schedules the next —
    /// so the pending set stays shallow instead of holding the whole
    /// trace up front (see the seeding comment in `simulate_with`).
    next_arrival: u32,
}

impl Driver<'_> {
    /// Pop and handle events until none remain. With a phase accumulator,
    /// each event costs two chained fast-clock reads: one after the pop
    /// (closing the pop interval) and one after the handler (closing the
    /// handler interval, attributed to the popped event's phase, and
    /// opening the next pop's). The four top-level phases (pop, arrival,
    /// completion, wake) thereby tile the loop's wall time; the
    /// schedulers' nested phases are attribution inside them, never
    /// additional to them. The untimed loop carries no timing branch, and
    /// both loops hand the handler the same events in the same order.
    fn run(&mut self, phases: Option<&obs::SharedPhases>) {
        // The one decision buffer: every handler answers into it.
        let mut out = Decisions::default();
        let Some(phases) = phases else {
            while let Some((now, event)) = self.queue.pop() {
                self.handle(event, now, &mut out);
            }
            return;
        };
        let mut last = obs::span::clock_ticks();
        let mut mark = |phase| {
            let now = obs::span::clock_ticks();
            phases
                .borrow_mut()
                .record(phase, obs::span::ticks_to_ns(now.saturating_sub(last)));
            last = now;
        };
        loop {
            let popped = self.queue.pop();
            mark(obs::Phase::EventPop);
            let Some((now, event)) = popped else {
                return;
            };
            self.handle(event, now, &mut out);
            mark(event.phase());
        }
    }

    /// Record one decision-trace event, if a recorder is attached.
    fn trace_event(&self, now: SimTime, id: JobId, kind: TraceKind) {
        if let Some(rec) = &self.recorder {
            rec.borrow_mut().record(now.as_secs(), id.0 as u64, kind);
        }
    }

    /// Job `id` as the scheduler knows it: once the job has been
    /// suspended, with its remaining estimate.
    fn meta(&self, id: JobId) -> JobMeta {
        let i = id.0 as usize;
        let job = self.trace.job(id);
        let estimate = if self.epoch[i] == 0 {
            job.estimate
        } else {
            remaining_estimate(job.estimate, job.runtime - self.remaining[i])
        };
        JobMeta {
            id,
            arrival: job.arrival,
            estimate,
            width: job.width,
        }
    }

    fn apply(&mut self, decisions: &Decisions, now: SimTime) {
        for &id in &decisions.preempts {
            let i = id.0 as usize;
            let seg_start = self.running_since[i]
                .take()
                .unwrap_or_else(|| panic!("{id} preempted while not running"));
            let job = self.trace.job(id);
            let ran_now = now.since(seg_start);
            // ran_now == remaining is possible: the victim's completion is
            // pending at this very instant behind the event that decided
            // the preemption. The suspension wins (epoch bump voids the
            // completion); the job resumes later with zero remaining work
            // and completes immediately on restart.
            debug_assert!(ran_now <= self.remaining[i], "{id} ran past its runtime");
            self.remaining[i] = self.remaining[i] - ran_now;
            self.epoch[i] += 1; // invalidates the pending completion event
            self.in_use -= job.width;
            self.segments.push(simcore::PlacedJob {
                id: id.0,
                arrival: job.arrival,
                start: seg_start,
                end: now,
                width: job.width,
            });
            let requeued = self.meta(id);
            self.scheduler.on_preempted(requeued);
            self.trace_event(now, id, TraceKind::Preempt);
        }
        for &id in &decisions.starts {
            let i = id.0 as usize;
            let job = self.trace.job(id);
            assert!(
                self.running_since[i].is_none() && self.ends[i].is_none(),
                "{id} started while already running or done ({})",
                self.scheduler.name()
            );
            let free = self.trace.nodes() - self.in_use;
            if job.width > free {
                panic!(
                    "{} oversubscribed: {id} requested {} processors but only {free} are free",
                    self.scheduler.name(),
                    job.width
                );
            }
            self.in_use += job.width;
            if self.starts[i].is_none() {
                self.starts[i] = Some(now);
            }
            self.running_since[i] = Some(now);
            self.trace_event(now, id, TraceKind::Start);
            self.queue.push_classed(
                now + self.remaining[i],
                CLASS_COMPLETION,
                Ev::Complete(id, self.epoch[i]),
            );
        }
        if let Some(at) = decisions.wakeup {
            debug_assert!(at >= now, "wake-up scheduled in the past");
            let at = at.max(now);
            if self.pending_wakes.range(..=at).next().is_none() {
                self.pending_wakes.insert(at);
                self.queue.push_classed(at, CLASS_WAKE, Ev::Wake);
            }
        }
    }

    fn handle(&mut self, event: Ev, now: SimTime, out: &mut Decisions) {
        self.events += 1;
        out.clear();
        match event {
            Ev::Arrive(idx) => {
                // Seed the successor before anything else this instant
                // can be scheduled; arrivals thereby keep ascending
                // insertion order among themselves.
                let next = self.next_arrival as usize;
                if next < self.trace.jobs().len() {
                    self.next_arrival += 1;
                    self.queue.push_classed(
                        self.trace.jobs()[next].arrival,
                        CLASS_ARRIVAL,
                        Ev::Arrive(next as u32),
                    );
                }
                let job = self.trace.jobs()[idx as usize];
                if let Some(rec) = &self.recorder {
                    // Tag before the scheduler sees the job, so any
                    // Reserve/Backfill it records carries the category.
                    let cat = trace_category(self.criteria.categorize(&job));
                    let mut rec = rec.borrow_mut();
                    rec.tag(job.id.0 as u64, cat);
                    rec.record(
                        now.as_secs(),
                        job.id.0 as u64,
                        TraceKind::Arrive {
                            estimate: job.estimate.as_secs(),
                            width: job.width,
                        },
                    );
                }
                let meta = self.meta(job.id);
                self.scheduler.on_arrival(meta, now, out);
            }
            Ev::Complete(id, epoch) => {
                let i = id.0 as usize;
                if epoch != self.epoch[i] {
                    // The job was preempted after this completion was
                    // scheduled; its resume scheduled a fresh one.
                    return;
                }
                let seg_start = self.running_since[i]
                    .take()
                    .expect("completion of idle job");
                // The record before the remaining work is zeroed: its
                // estimate is the one this run started with.
                let record = Running {
                    meta: self.meta(id),
                    started_at: seg_start,
                };
                let job = self.trace.job(id);
                self.in_use -= job.width;
                self.segments.push(simcore::PlacedJob {
                    id: id.0,
                    arrival: job.arrival,
                    start: seg_start,
                    end: now,
                    width: job.width,
                });
                self.remaining[i] = SimSpan::ZERO;
                self.ends[i] = Some(now);
                self.completions += 1;
                self.trace_event(
                    now,
                    id,
                    TraceKind::Complete {
                        overestimate_factor: job.overestimation(),
                    },
                );
                self.scheduler.on_completion(record, now, out);
            }
            Ev::Wake => {
                self.pending_wakes.remove(&now);
                self.scheduler.on_wake(now, out);
            }
        }
        self.apply(out, now);
    }
}

/// Simulate `trace` under the given scheduler and priority policy.
///
/// Panics if the scheduler misbehaves (oversubscribes, loses a job, or
/// never starts one) — scheduler bugs must be loud in a study whose output
/// is comparative numbers.
pub fn simulate(trace: &Trace, kind: SchedulerKind, policy: Policy) -> Schedule {
    simulate_observed(trace, kind, policy, SimOptions::default()).0
}

/// Like [`simulate`], with explicit observability options: a
/// decision-trace recorder and/or per-phase timing. Recording is strictly
/// observational — the returned schedule is byte-identical to an
/// unobserved run's.
///
/// The `()` keeps the two-tuple shape existing callers destructure; the
/// decision trace in [`SimOptions::recorder`] is the run's event log.
pub fn simulate_observed(
    trace: &Trace,
    kind: SchedulerKind,
    policy: Policy,
    options: SimOptions,
) -> (Schedule, ()) {
    let scheduler = kind.build(trace.nodes(), policy);
    (simulate_with(trace, scheduler, options), ())
}

/// Run `trace` through `scheduler` and check that it drained.
fn simulate_with(
    trace: &Trace,
    mut scheduler: Box<dyn Scheduler>,
    options: SimOptions,
) -> Schedule {
    if let Some(rec) = &options.recorder {
        scheduler.set_recorder(rec.clone());
    }
    if let Some(phases) = &options.phases {
        scheduler.set_phases(phases.clone());
    }
    let name = scheduler.name();
    let mut driver = Driver {
        trace,
        scheduler,
        queue: EventQueue::new(),
        in_use: 0,
        starts: vec![None; trace.len()],
        ends: vec![None; trace.len()],
        remaining: trace.jobs().iter().map(|j| j.runtime).collect(),
        running_since: vec![None; trace.len()],
        epoch: vec![0; trace.len()],
        segments: Vec::with_capacity(trace.len()),
        completions: 0,
        events: 0,
        recorder: options.recorder,
        criteria: CategoryCriteria::default(),
        pending_wakes: std::collections::BTreeSet::new(),
        next_arrival: 1,
    };
    // Arrivals are seeded lazily: prime only the first, and each arrival
    // schedules its successor (the trace is sorted by arrival, so the
    // successor is never in the past). The pending-event set then holds
    // one arrival plus the in-flight completions/wake-ups — dozens —
    // instead of the whole trace, keeping the event heap shallow.
    // Delivery order is unchanged: arrivals keep their trace-relative
    // insertion order, and cross-class ties at an instant are decided by
    // `EventClass`, not insertion sequence.
    if let Some(first) = trace.jobs().first() {
        driver
            .queue
            .push_classed(first.arrival, CLASS_ARRIVAL, Ev::Arrive(first.id.0));
    }
    driver.run(options.phases.as_ref());

    assert_eq!(
        driver.completions,
        trace.len() as u32,
        "{name}: {} of {} jobs never completed",
        trace.len() as u32 - driver.completions,
        trace.len()
    );
    assert_eq!(driver.in_use, 0, "{name}: machine not drained");
    assert_eq!(
        driver.scheduler.queue_len(),
        0,
        "{name}: jobs stranded in queue"
    );

    let outcomes: Vec<JobOutcome> = trace
        .jobs()
        .iter()
        .enumerate()
        .map(|(i, job)| {
            let start =
                driver.starts[i].unwrap_or_else(|| panic!("{name}: {} never started", job.id));
            let end = driver.ends[i].unwrap_or_else(|| panic!("{name}: {} never finished", job.id));
            JobOutcome::with_end(*job, start, end)
        })
        .collect();
    Schedule {
        scheduler: name,
        nodes: trace.nodes(),
        outcomes,
        run_segments: driver.segments,
        profile_stats: driver.scheduler.profile_stats(),
        events: driver.events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::collections::VecDeque;
    use std::rc::Rc;
    use workload::Job;

    fn job(id: u32, arrival: u64, runtime: u64, estimate: u64, width: u32) -> Job {
        Job {
            id: JobId(id),
            arrival: SimTime::new(arrival),
            runtime: SimSpan::new(runtime),
            estimate: SimSpan::new(estimate),
            width,
        }
    }

    fn tiny_trace() -> Trace {
        Trace::new(
            "tiny",
            8,
            vec![
                job(0, 0, 100, 100, 6),
                job(1, 10, 500, 500, 8),
                job(2, 20, 80, 80, 2),
                job(3, 30, 50, 50, 4),
            ],
        )
        .unwrap()
    }

    #[test]
    fn all_schedulers_complete_and_validate() {
        let trace = tiny_trace();
        for kind in [
            SchedulerKind::NoBackfill,
            SchedulerKind::Conservative,
            SchedulerKind::Easy,
            SchedulerKind::Selective { threshold: 2.0 },
        ] {
            for policy in Policy::PAPER {
                let s = simulate(&trace, kind, policy);
                assert_eq!(s.outcomes.len(), 4, "{}", s.scheduler);
                s.validate()
                    .unwrap_or_else(|e| panic!("{}: {e}", s.scheduler));
            }
        }
    }

    #[test]
    fn easy_backfills_where_fcfs_waits() {
        let trace = tiny_trace();
        let nobf = simulate(&trace, SchedulerKind::NoBackfill, Policy::Fcfs);
        let easy = simulate(&trace, SchedulerKind::Easy, Policy::Fcfs);
        // Job 2 (2 procs, 80 s, ends before job 0's 100 s) backfills under
        // EASY but waits behind job 1 under plain FCFS.
        assert_eq!(easy.outcomes[2].start, SimTime::new(20));
        assert!(nobf.outcomes[2].start > SimTime::new(100));
    }

    #[test]
    fn journal_records_full_causal_history() {
        let trace = tiny_trace();
        let recorder = obs::trace::shared(1 << 10);
        let (schedule, ()) = simulate_observed(
            &trace,
            SchedulerKind::Easy,
            Policy::Fcfs,
            SimOptions::with_recorder(recorder.clone()),
        );
        let rec = recorder.borrow();
        assert_eq!(rec.dropped(), 0);
        let events = rec.events();
        // Times are non-decreasing in processing order.
        for w in events.windows(2) {
            assert!(w[0].time <= w[1].time, "{:?} before {:?}", w[0], w[1]);
        }
        // Every job has exactly one Arrive, one Start and one Complete, in
        // causal order, and the traced start is the schedule's.
        for job in trace.jobs() {
            let mut times = [None::<u64>; 3];
            for ev in events.iter().filter(|e| e.job == u64::from(job.id.0)) {
                let slot = match ev.kind {
                    TraceKind::Arrive { .. } => 0,
                    TraceKind::Start => 1,
                    TraceKind::Complete { .. } => 2,
                    _ => continue,
                };
                assert!(
                    times[slot].is_none(),
                    "{}: second {}",
                    job.id,
                    ev.kind.name()
                );
                times[slot] = Some(ev.time);
            }
            let [Some(arrive), Some(start), Some(complete)] = times else {
                panic!("{}: lifecycle incomplete: {times:?}", job.id);
            };
            assert!(
                arrive <= start && start <= complete,
                "{}: {times:?}",
                job.id
            );
            assert_eq!(
                start,
                schedule.outcomes[job.id.0 as usize].start.as_secs(),
                "{}",
                job.id
            );
        }
    }

    #[test]
    fn exact_estimates_make_schedules_deterministic_and_repeatable() {
        let trace = tiny_trace();
        let a = simulate(&trace, SchedulerKind::Easy, Policy::Sjf);
        let b = simulate(&trace, SchedulerKind::Easy, Policy::Sjf);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.outcomes, b.outcomes);
    }

    #[test]
    fn conservative_priority_equivalence_on_tiny_trace() {
        // Section 4.1: with accurate estimates, conservative backfilling
        // produces the same schedule under every priority policy.
        let trace = tiny_trace();
        let fp: Vec<u64> = Policy::PAPER
            .iter()
            .map(|&p| simulate(&trace, SchedulerKind::Conservative, p).fingerprint())
            .collect();
        assert_eq!(fp[0], fp[1]);
        assert_eq!(fp[1], fp[2]);
    }

    #[test]
    fn early_completions_are_exploited() {
        // Job 0 estimated 1000 s but runs 100 s; conservative must compress
        // job 1 into the hole.
        let trace = Trace::new(
            "early",
            8,
            vec![job(0, 0, 100, 1000, 8), job(1, 10, 100, 100, 8)],
        )
        .unwrap();
        let s = simulate(&trace, SchedulerKind::Conservative, Policy::Fcfs);
        assert_eq!(s.outcomes[1].start, SimTime::new(100));
    }

    #[test]
    fn empty_trace_is_fine() {
        let trace = Trace::new("empty", 4, vec![]).unwrap();
        let s = simulate(&trace, SchedulerKind::Easy, Policy::Fcfs);
        assert!(s.outcomes.is_empty());
    }

    /// What the driver handed a [`Scripted`] scheduler: the requeued
    /// metas and the completion records, in order.
    type Handed = Rc<RefCell<(Vec<JobMeta>, Vec<Running>)>>;

    /// Starts whatever its script names on each arrival, and preempts and
    /// starts on cue, leaving every guard to the driver.
    struct Scripted {
        on_arrival: fn(JobId) -> Vec<JobId>,
        /// `(at, preempts, starts)` in time order: the first event at or
        /// after `at` applies the step, and a wake-up asks for the next.
        steps: VecDeque<(u64, Vec<u32>, Vec<u32>)>,
        handed: Handed,
    }

    impl Scripted {
        fn starting(on_arrival: fn(JobId) -> Vec<JobId>) -> Self {
            Scripted {
                on_arrival,
                steps: VecDeque::new(),
                handed: Handed::default(),
            }
        }

        fn play(&mut self, now: SimTime, out: &mut Decisions) {
            while self
                .steps
                .front()
                .is_some_and(|&(at, ..)| SimTime::new(at) <= now)
            {
                let (_, preempts, starts) = self.steps.pop_front().unwrap();
                out.preempts.extend(preempts.into_iter().map(JobId));
                out.starts.extend(starts.into_iter().map(JobId));
            }
            out.wakeup = self.steps.front().map(|&(at, ..)| SimTime::new(at));
        }
    }

    impl Scheduler for Scripted {
        fn name(&self) -> String {
            "Scripted".into()
        }
        fn on_arrival(&mut self, job: JobMeta, now: SimTime, out: &mut Decisions) {
            out.starts.extend((self.on_arrival)(job.id));
            self.play(now, out);
        }
        fn on_completion(&mut self, job: Running, now: SimTime, out: &mut Decisions) {
            self.handed.borrow_mut().1.push(job);
            self.play(now, out);
        }
        fn on_wake(&mut self, now: SimTime, out: &mut Decisions) {
            self.play(now, out);
        }
        fn on_preempted(&mut self, job: JobMeta) {
            self.handed.borrow_mut().0.push(job);
        }
        fn queue_len(&self) -> usize {
            0
        }
    }

    #[test]
    fn suspended_jobs_come_back_with_their_remaining_estimate() {
        // Job 0 (estimate 100, runtime 60) runs [0, 20) and [30, 55), is
        // suspended after each, and finishes its last 15 s from 90. Job 2
        // (estimate = runtime = 50) is suspended at 50, the instant its
        // run ends, behind job 1's completion: it ran its whole estimate,
        // so it comes back with the 1 s floor and completes on restart.
        let trace = Trace::new(
            "suspend",
            8,
            vec![
                job(0, 0, 60, 100, 4),
                job(1, 0, 50, 50, 2),
                job(2, 0, 50, 50, 2),
            ],
        )
        .unwrap();
        let mut scripted = Scripted::starting(|id| vec![id]);
        scripted.steps = VecDeque::from([
            (20, vec![0], vec![]),
            (30, vec![], vec![0]),
            (50, vec![2], vec![]),
            (55, vec![0], vec![]),
            (70, vec![], vec![2]),
            (90, vec![], vec![0]),
        ]);
        let handed = scripted.handed.clone();
        let schedule = simulate_with(&trace, Box::new(scripted), SimOptions::default());
        let meta = |id: u32, estimate: u64| JobMeta {
            id: JobId(id),
            arrival: SimTime::ZERO,
            estimate: SimSpan::new(estimate),
            width: trace.job(JobId(id)).width,
        };
        let record = |id, estimate, started_at| Running {
            meta: meta(id, estimate),
            started_at: SimTime::new(started_at),
        };
        let (requeued, completed) = &*handed.borrow();
        // 100 − 20, 50 − 50 floored to 1, 100 − (20 + 25).
        assert_eq!(requeued, &[meta(0, 80), meta(2, 1), meta(0, 55)]);
        // Each record carries the estimate last requeued and the start of
        // the final run.
        assert_eq!(
            completed,
            &[record(1, 50, 0), record(2, 1, 70), record(0, 55, 90)]
        );
        let ends: Vec<u64> = schedule
            .outcomes
            .iter()
            .map(|o| o.end().as_secs())
            .collect();
        assert_eq!(ends, [105, 50, 70]);
    }

    #[test]
    fn remaining_estimate_is_floored_at_one_second() {
        let rest = |estimate, ran| remaining_estimate(SimSpan::new(estimate), SimSpan::new(ran));
        assert_eq!(rest(100, 45), SimSpan::new(55));
        assert_eq!(rest(50, 50), SimSpan::SECOND);
        // A job that ran past its estimate, and a zero-estimate job.
        assert_eq!(rest(50, 70), SimSpan::SECOND);
        assert_eq!(rest(0, 0), SimSpan::SECOND);
        assert_eq!(rest(0, 10), SimSpan::SECOND);
    }

    #[test]
    #[should_panic(
        expected = "Scripted oversubscribed: job#1 requested 4 processors but only 2 are free"
    )]
    fn start_beyond_the_free_processors_panics() {
        // 6 + 4 processors on a machine of 8, both running from 10 s.
        let trace = Trace::new(
            "over",
            8,
            vec![job(0, 0, 100, 100, 6), job(1, 10, 100, 100, 4)],
        )
        .unwrap();
        simulate_with(
            &trace,
            Box::new(Scripted::starting(|id| vec![id])),
            SimOptions::default(),
        );
    }

    #[test]
    #[should_panic(expected = "job#0 started while already running")]
    fn second_start_of_a_running_job_panics() {
        let trace = Trace::new(
            "twice",
            8,
            vec![job(0, 0, 100, 100, 2), job(1, 10, 100, 100, 2)],
        )
        .unwrap();
        simulate_with(
            &trace,
            Box::new(Scripted::starting(|_| vec![JobId(0)])),
            SimOptions::default(),
        );
    }

    #[test]
    fn timed_loop_matches_the_untimed_loop_and_times_every_event() {
        let trace = tiny_trace();
        for kind in [
            SchedulerKind::Conservative,
            SchedulerKind::Easy,
            SchedulerKind::Preemptive { threshold: 1.5 },
        ] {
            let plain = simulate(&trace, kind, Policy::Fcfs);
            let phases = std::rc::Rc::new(std::cell::RefCell::new(obs::PhaseAcc::new()));
            let (timed, ()) = simulate_observed(
                &trace,
                kind,
                Policy::Fcfs,
                SimOptions::with_phases(phases.clone()),
            );
            assert_eq!(
                timed.fingerprint(),
                plain.fingerprint(),
                "{}",
                plain.scheduler
            );
            assert_eq!(timed.events, plain.events, "{}", plain.scheduler);
            let acc = phases.borrow();
            let count = |phase| acc.histogram(phase).count();
            // One pop per event plus the final pop that finds nothing;
            // one handler interval per event, under the event's phase.
            assert_eq!(count(obs::Phase::EventPop), plain.events + 1);
            assert_eq!(count(obs::Phase::Arrival), trace.len() as u64);
            assert_eq!(
                count(obs::Phase::Arrival)
                    + count(obs::Phase::Completion)
                    + count(obs::Phase::Wake),
                plain.events
            );
        }
    }

    #[test]
    fn profile_stats_flush_under_the_pinned_sim_names() {
        let registry = obs::Registry::new();
        flush_profile_stats(&registry, &ProfileStats::default());
        let snapshot = registry.snapshot();
        let mut names: Vec<&str> = snapshot.iter().map(|(n, _)| n.as_str()).collect();
        names.sort_unstable();
        assert_eq!(
            names,
            [
                "sim.profile.compress_passes",
                "sim.profile.find_anchor_calls",
                "sim.profile.fits_cache.hits",
                "sim.profile.fits_cache.misses",
                "sim.profile.peak_segments",
                "sim.profile.releases",
                "sim.profile.reserves",
                "sim.profile.segments_visited",
                "sim.profile.tree.descents",
                "sim.profile.tree.incremental_updates",
                "sim.profile.tree.nodes_visited",
                "sim.profile.tree.rebuilds",
                "sim.queue.inserts",
                "sim.queue.moves",
                "sim.queue.sorts",
                "sim.queue.sorts_avoided",
            ]
        );
        // Every name is a counter but the peak, which is a high-water gauge.
        for (name, value) in &snapshot {
            let gauge = matches!(value, obs::metrics::SnapshotValue::Gauge(_));
            assert_eq!(gauge, name == "sim.profile.peak_segments", "{name}");
        }
    }

    #[test]
    fn scheduler_kind_labels() {
        assert_eq!(SchedulerKind::Easy.label(), "EASY");
        assert_eq!(
            SchedulerKind::Selective { threshold: 2.0 }.label(),
            "Sel(2)"
        );
    }
}
