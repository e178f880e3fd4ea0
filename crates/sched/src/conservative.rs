//! Reservation-list backfilling: conservative, selective and slack-based.
//!
//! **Conservative backfilling** gives every job a **start-time reservation
//! the moment it arrives**, at the earliest anchor that delays no
//! previously existing reservation (Section 2 of the paper). Because
//! guarantees are handed out in arrival order, the schedule is completely
//! determined when estimates are exact — the paper's Section 4.1
//! equivalence result, which this implementation reproduces mechanically.
//!
//! The priority policy only matters when a job **completes earlier than its
//! estimate**: the hole it leaves lets queued jobs be *re-anchored*
//! ("compressed") to earlier start times. Jobs are re-anchored in priority
//! order, and each job's new anchor is provably never later than its old
//! guarantee (its old rectangle remains feasible throughout the pass), so
//! guarantees only improve — asserted in code.
//!
//! The same reservation list also runs the two other members of the
//! family, each built by its own constructor:
//!
//! * **Selective backfilling** ([`ConservativeScheduler::selective`]) — the
//!   middle ground Section 6 of the paper proposes (the authors' follow-up
//!   "Selective Reservation Strategies for Backfill Job Scheduling"). A job
//!   is reserved only once its expansion factor `(wait + estimate) /
//!   estimate` — the XFactor priority — reaches a threshold τ, and keeps
//!   that reservation. Until then it waits unreserved and backfills freely
//!   around the reservations at every event. `τ = 2` protects a job once
//!   its wait equals its estimate; `τ = 1` reserves on arrival; `τ = ∞`
//!   never reserves. Holes are compressed by full re-anchoring.
//! * **Slack-based backfilling** ([`ConservativeScheduler::slack`]; Talby &
//!   Feitelson, the paper's reference \[13\]) — every job is reserved on
//!   arrival, but its rectangle is parked at a *promise*: the first anchor
//!   at or after its earliest anchor plus `σ = factor × estimate`. The span
//!   in between stays open to later jobs, which may delay a queued job but
//!   never past its promise. Each event offers the machine to the queue in
//!   priority order: a job starts at once if it fits now, and each start
//!   ahead of a promise rescans from the head, since the rectangle it
//!   vacated may unblock a job already passed over. `σ = 0` equals
//!   conservative backfilling on exact estimates.

use crate::policy::Policy;
use crate::profile::{Profile, ProfileStats};
use crate::queue::{Queued, SchedQueue};
use crate::scheduler::{Decisions, JobMeta, Running, Scheduler};
use obs::trace::{SharedRecorder, TraceKind};
use serde::{Deserialize, Serialize};
use simcore::{JobId, SimTime};

/// What happens to queued jobs' reservations when a hole opens (a running
/// job completed earlier than its estimate).
///
/// The paper's wording — queued jobs are "considered for backfill in the
/// priority order" — is [`Compression::Backfill`]: a job moves only if it
/// can start *immediately* in the hole; otherwise it keeps its original
/// guarantee. [`Compression::Reanchor`] is the stronger variant that
/// re-anchors every queued reservation to its earliest feasible time,
/// whether or not that is now. Both preserve all guarantees (a job never
/// moves later); the ablation bench compares them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Compression {
    /// Move a queued job only if it can start now (paper semantics).
    #[default]
    Backfill,
    /// Re-anchor every queued job as early as possible.
    Reanchor,
    /// Move jobs into the hole in priority order, stopping at the first
    /// that cannot start now — the head may start early but nothing jumps
    /// a blocked higher-priority job (backfilling happens at arrival only).
    HeadStart,
    /// Never move queued jobs; holes benefit only later arrivals
    /// (ablation: isolates arrival-time backfilling).
    None,
}

/// Which member of the reservation-list family a scheduler is. Private:
/// the constructors are the only way to pick one, so no other mix of
/// admission rule, promise offset and compression can be built.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Family {
    /// Reserve on arrival at the earliest anchor.
    Conservative,
    /// Reserve once the expansion factor reaches `threshold` (≥ 1);
    /// compression mode `Reanchor`.
    Selective { threshold: f64 },
    /// Reserve on arrival at the promise (anchor + `factor` × estimate);
    /// compression mode `Backfill`, run on every event with a rescan after
    /// each early start.
    Slack { factor: f64 },
}

#[derive(Debug, Clone, Copy)]
struct Reservation {
    meta: JobMeta,
    start: SimTime,
}

impl Queued for Reservation {
    fn job(&self) -> &JobMeta {
        &self.meta
    }
}

/// The reservation-list scheduler: conservative, selective or slack-based
/// backfilling, depending on the constructor.
#[derive(Debug, Clone)]
pub struct ConservativeScheduler {
    policy: Policy,
    family: Family,
    profile: Profile,
    /// The reservation list. Only compression passes order it
    /// ([`Self::compress_pass`]); between them the due-start scan reads it
    /// in stored order — the last pass's order, less the started jobs,
    /// plus the reservations made since.
    queue: SchedQueue<Reservation>,
    /// The earliest reservation start in `queue` (`None` when it is
    /// empty). Starts only fall between scans — a new reservation, a
    /// compression move — so both lower it with `min`; the scans that
    /// remove jobs recompute it. While it lies after `now`, nothing is due
    /// and `collect()` skips the due-job scan.
    next_start: Option<SimTime>,
    /// Selective only: jobs whose expansion factor has not yet reached the
    /// threshold. They hold no reservation and backfill freely.
    unreserved: SchedQueue,
    /// Processors actually free *right now*. The profile alone is not
    /// enough: at an instant with several simultaneous completions, the
    /// profile already shows all of them done while the driver is still
    /// delivering the completion events one by one. A due reservation only
    /// starts once the processors are physically free; until then it is
    /// deferred to a same-instant wake-up.
    free: u32,
    mode: Compression,
    /// Opt-in decision-trace recorder (strictly observational).
    recorder: Option<SharedRecorder>,
    /// Opt-in per-phase profiling accumulator (strictly observational).
    phases: Option<obs::SharedPhases>,
    /// Scratch for [`Self::start_due`]: the queue indices of the due jobs
    /// it starts. Reused across events.
    due: Vec<usize>,
    /// Pass counters not kept by the profile itself.
    stats: ProfileStats,
}

impl ConservativeScheduler {
    /// Conservative backfilling for a machine with `capacity` processors,
    /// with the paper's hole-backfilling compression.
    pub fn new(capacity: u32, policy: Policy) -> Self {
        Self::with_compression(capacity, policy, Compression::Backfill)
    }

    /// Conservative backfilling with an explicit compression mode.
    pub fn with_compression(capacity: u32, policy: Policy, mode: Compression) -> Self {
        Self::build(capacity, policy, mode, Family::Conservative)
    }

    /// Selective backfilling: a job is reserved once its expansion factor
    /// reaches `threshold` (≥ 1; `f64::INFINITY` never reserves).
    pub fn selective(capacity: u32, policy: Policy, threshold: f64) -> Self {
        assert!(
            threshold >= 1.0,
            "xfactor threshold must be >= 1, got {threshold}"
        );
        Self::build(
            capacity,
            policy,
            Compression::Reanchor,
            Family::Selective { threshold },
        )
    }

    /// Slack-based backfilling: every job is promised its earliest anchor
    /// plus `factor × estimate` (finite, ≥ 0).
    pub fn slack(capacity: u32, policy: Policy, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "slack factor must be finite and non-negative, got {factor}"
        );
        Self::build(
            capacity,
            policy,
            Compression::Backfill,
            Family::Slack { factor },
        )
    }

    fn build(capacity: u32, policy: Policy, mode: Compression, family: Family) -> Self {
        ConservativeScheduler {
            policy,
            family,
            profile: Profile::new(capacity),
            queue: SchedQueue::new(policy),
            next_start: None,
            unreserved: SchedQueue::new(policy),
            free: capacity,
            mode,
            recorder: None,
            phases: None,
            due: Vec::new(),
            stats: ProfileStats::default(),
        }
    }

    /// Record one decision event, if a recorder is attached.
    fn record(&self, now: SimTime, id: JobId, kind: TraceKind) {
        if let Some(rec) = &self.recorder {
            rec.borrow_mut().record(now.as_secs(), id.0 as u64, kind);
        }
    }

    /// The currently guaranteed (for slack: promised) start time of a
    /// reserved job (tests/metrics).
    pub fn guarantee(&self, id: JobId) -> Option<SimTime> {
        self.queue.iter().find(|r| r.meta.id == id).map(|r| r.start)
    }

    /// The expansion factor at which a job is reserved: τ for selective, 1
    /// for conservative and slack (a fresh job's expansion factor is
    /// exactly 1, so they reserve on arrival).
    fn threshold(&self) -> f64 {
        match self.family {
            Family::Selective { threshold } => threshold,
            _ => 1.0,
        }
    }

    /// True once `job` deserves a reservation.
    fn admitted(&self, job: &JobMeta, now: SimTime) -> bool {
        Policy::xfactor(job, now) >= self.threshold()
    }

    /// Reserve `job` at its earliest anchor — for slack, at the first
    /// anchor at or after that plus its slack.
    fn reserve(&mut self, job: JobMeta, now: SimTime) {
        let mut anchor = self.profile.find_anchor(now, job.estimate, job.width);
        if let Family::Slack { factor } = self.family {
            let slack = job.estimate.scale(factor);
            if !slack.is_zero() {
                anchor = self
                    .profile
                    .find_anchor(anchor + slack, job.estimate, job.width);
            }
        }
        self.profile.reserve(anchor, job.estimate, job.width);
        self.next_start = earliest(self.next_start, anchor);
        self.record(
            now,
            job.id,
            TraceKind::Reserve {
                anchor: anchor.as_secs(),
            },
        );
        let t0 = obs::span::start_nested(&self.phases, obs::Phase::QueueOps);
        self.queue.push(Reservation {
            meta: job,
            start: anchor,
        });
        obs::span::finish_nested(&self.phases, obs::Phase::QueueOps, t0);
    }

    fn start_job(&mut self, job: JobMeta, starts: &mut Vec<JobId>) {
        self.free -= job.width;
        starts.push(job.id);
        // A reserved job's rectangle simply becomes the running occupancy;
        // the profile needs no update. This relies on the job starting at
        // its reserved instant: on valid traces (runtime <= estimate) a due
        // job is deferred only by same-instant sibling completions, so it
        // starts with `now == res.start` and consumes exactly the rectangle
        // the profile carries. If a job overruns its estimate (`res.start <
        // now`), the `free` gate still prevents any capacity violation —
        // tests cover both cases.
    }

    /// Run one event's scheduling: slack's start-now pass, selective's
    /// promotions, the due reservations, selective's free backfill — and
    /// report the next wake-up. A due job that does not fit yet is waiting
    /// on a sibling completion at this same instant; with
    /// `retry_same_instant` set, the returned same-instant wake-up retries
    /// it after the remaining events are delivered.
    ///
    /// `on_wake` passes `retry_same_instant = false`: wake-ups are the
    /// *last* event class at an instant, so everything that could free
    /// processors at `now` has already been delivered, and re-requesting
    /// `now` would spin forever (reachable when a job runs past its
    /// estimate). The deferred job instead waits for the next completion, a
    /// strictly later reservation or a threshold crossing.
    ///
    /// When `next_start` lies after `now`, no reservation is due: the scan
    /// would start nothing and defer nothing, and the reservations' wake-up
    /// is `next_start` itself, so the scan is skipped.
    fn collect(&mut self, now: SimTime, retry_same_instant: bool, out: &mut Decisions) {
        if matches!(self.family, Family::Slack { .. }) && !self.queue.is_empty() {
            self.compress_pass(now, &mut out.starts);
        }
        if !self.unreserved.is_empty() {
            self.promote(now);
        }
        debug_assert_eq!(
            self.next_start,
            self.queue.iter().map(|r| r.start).min(),
            "next_start out of step with the queue"
        );
        let mut wakeup = match self.next_start {
            Some(next) if next <= now => self.start_due(now, retry_same_instant, &mut out.starts),
            // Nothing due: every reservation starts after `now`.
            next => next,
        };
        if !self.unreserved.is_empty() {
            let t0 = obs::span::start_nested(&self.phases, obs::Phase::Backfill);
            let crossing = self.backfill(now, &mut out.starts);
            obs::span::finish_nested(&self.phases, obs::Phase::Backfill, t0);
            if wakeup != Some(now) {
                wakeup = wakeup.into_iter().chain(crossing).min();
            }
        }
        self.profile.trim_before(now);
        out.wakeup = wakeup;
    }

    /// `collect()`'s scan: start the due jobs that fit, recompute
    /// `next_start` from the rest, and return the wake-up.
    ///
    /// A single ascending pass suffices: starting a job only *consumes*
    /// processors, so a job skipped earlier in the pass can never become
    /// startable later in the same pass — rescanning from the front would
    /// find exactly the same starts in the same order. The pass reads the
    /// contiguous queue, collecting the due jobs that fit, and then
    /// removes only those.
    fn start_due(
        &mut self,
        now: SimTime,
        retry_same_instant: bool,
        starts: &mut Vec<JobId>,
    ) -> Option<SimTime> {
        let mut deferred = false;
        let mut next_start: Option<SimTime> = None;
        let mut next_future: Option<SimTime> = None;
        let mut free = self.free;
        let mut due = std::mem::take(&mut self.due);
        for (k, res) in self.queue.make_contiguous().iter().enumerate() {
            if res.start <= now {
                if res.meta.width <= free {
                    free -= res.meta.width;
                    due.push(k);
                    continue;
                }
                deferred = true;
            } else {
                next_future = earliest(next_future, res.start);
            }
            next_start = earliest(next_start, res.start);
        }
        for &k in &due {
            self.start_job(self.queue[k].meta, starts);
        }
        // From the back, so each index still names its entry.
        for &k in due.iter().rev() {
            self.queue.remove(k);
        }
        due.clear();
        self.due = due;
        self.next_start = next_start;
        if deferred && retry_same_instant {
            Some(now)
        } else {
            // Not deferred: every due job started, so all remaining
            // reservations are strictly in the future. Deferred at a
            // wake-up: nothing else frees processors at `now`, so fall
            // back to the next strictly future reservation; completions
            // and arrivals re-trigger collection on their own.
            next_future
        }
    }

    /// Selective: reserve every unreserved job whose expansion factor has
    /// reached the threshold, in priority order (simultaneous crossers are
    /// anchored best-first).
    fn promote(&mut self, now: SimTime) {
        let t0 = obs::span::start_nested(&self.phases, obs::Phase::QueueOps);
        self.unreserved.prepare(now);
        obs::span::finish_nested(&self.phases, obs::Phase::QueueOps, t0);
        let mut i = 0;
        while i < self.unreserved.len() {
            if self.admitted(&self.unreserved[i], now) {
                let job = self.unreserved.remove(i);
                self.reserve(job, now);
            } else {
                i += 1;
            }
        }
    }

    /// Selective: start every unreserved job that fits now around the
    /// reservations, in priority order, and return the earliest future
    /// threshold crossing among those left waiting. A read-only scan over
    /// the contiguous queue rejects a job wider than the free processors,
    /// or whose window ends past the profile's zero horizon, before any
    /// `fits` probe; the horizon is recomputed after each start.
    fn backfill(&mut self, now: SimTime, starts: &mut Vec<JobId>) -> Option<SimTime> {
        let threshold = self.threshold();
        let mut crossing = None;
        let mut horizon = None;
        let mut i = 0;
        'scan: loop {
            let items = self.unreserved.make_contiguous();
            let job = loop {
                let Some(&job) = items.get(i) else {
                    break 'scan;
                };
                if job.width <= self.free
                    && now + job.estimate
                        <= *horizon.get_or_insert_with(|| self.profile.zero_horizon(now))
                    && self.profile.fits(now, job.estimate, job.width)
                {
                    break job;
                }
                let t = Policy::crossing_time(threshold, &job);
                if t > now && t < SimTime::FAR_FUTURE {
                    crossing = earliest(crossing, t);
                }
                i += 1;
            };
            self.profile.reserve(now, job.estimate, job.width);
            horizon = None;
            self.unreserved.remove(i);
            // The hole runs from `now` to the earliest reservation.
            let hole = self.next_start.unwrap_or(SimTime::FAR_FUTURE).since(now);
            self.record(
                now,
                job.id,
                TraceKind::Backfill {
                    filled_hole: hole.as_secs(),
                },
            );
            self.start_job(job, starts);
        }
        crossing
    }

    /// Order the reservation list, then compress it, each under its phase.
    fn compress_pass(&mut self, now: SimTime, starts: &mut Vec<JobId>) {
        let t0 = obs::span::start_nested(&self.phases, obs::Phase::QueueOps);
        self.queue.prepare(now);
        obs::span::finish_nested(&self.phases, obs::Phase::QueueOps, t0);
        let t0 = obs::span::start_nested(&self.phases, obs::Phase::Compress);
        self.compress(now, starts);
        obs::span::finish_nested(&self.phases, obs::Phase::Compress, t0);
    }

    /// Move reservation `i`, which lies after `now`, to `now`.
    fn move_to_now(&mut self, i: usize, now: SimTime) {
        let res = self.queue[i];
        self.profile
            .release(res.start, res.meta.estimate, res.meta.width);
        self.profile.reserve(now, res.meta.estimate, res.meta.width);
        self.queue[i].start = now;
        self.next_start = earliest(self.next_start, now);
        self.record(
            now,
            res.meta.id,
            TraceKind::Compress {
                moved: res.start.since(now).as_secs(),
            },
        );
    }

    /// Consider queued jobs for the hole that just opened, in priority
    /// order. A job may only ever move *earlier*: its old rectangle stays
    /// feasible throughout the pass (each mover's new position was chosen
    /// against a profile still containing everyone else's guarantee), so
    /// restoring it is always possible — asserted below.
    ///
    /// The queue is in priority order on entry ([`Self::compress_pass`]).
    /// A read-only scan over the contiguous queue settles every job that
    /// cannot start now, cheapest test first, and stops at the first job
    /// that needs a mutation. Every probe window opens at `now`, where the
    /// job's own rectangle (starting after `now`) is not, so:
    ///
    /// * a job wider than `cap`, the free level at `now`, fails on that
    ///   level alone;
    /// * a window ending past the profile's zero horizon covers a level of
    ///   0 and fails too (`Profile::zero_horizon`; computed on the first
    ///   job no wider than `cap`);
    /// * only a job passing both is probed with `fits`.
    ///
    /// Both bounds are refreshed after each move, the only edit that
    /// changes the profile's silhouette: a `Reanchor` release and
    /// re-reserve at the same anchor restores it exactly.
    ///
    /// Slack runs this pass on every event and starts jobs in it: a due
    /// job, or one that moves to `now`, starts at once if its processors
    /// are physically free, and each move rescans from the head — the
    /// rectangle it vacated may now let a job already passed over start.
    fn compress(&mut self, now: SimTime, starts: &mut Vec<JobId>) {
        self.stats.compress_passes += 1;
        let eager = matches!(self.family, Family::Slack { .. });
        let mode = self.mode;
        // compress() is only reached when compression is enabled.
        debug_assert!(mode != Compression::None, "compress called in None mode");
        let mut cap = self.profile.free_at(now);
        let mut horizon = None;
        let mut i = 0;
        'pass: loop {
            let items = self.queue.make_contiguous();
            // The next job that needs a mutation, and whether it can
            // start (or, already due, be started) now.
            let (res, fits) = loop {
                let Some(&res) = items.get(i) else {
                    break 'pass;
                };
                let width = res.meta.width;
                if res.start <= now {
                    // Already due: collect() starts it, or slack starts it here.
                    if eager && width <= self.free {
                        break (res, true);
                    }
                    i += 1;
                    continue;
                }
                // "Can it start at `now`?" without mutating anything.
                // `Reanchor` asks it of the whole rectangle: fitting at
                // `now` with the job's own rectangle still in place
                // proves the post-release anchor is `now` (release only
                // adds capacity and the anchor can't move before `now`).
                // The start-now modes ask the narrower question the
                // release → find_anchor → reserve round-trip answers:
                //
                // * rectangle disjoint from the candidate window
                //   (`res.start >= now + estimate`) — releasing it cannot
                //   change the answer, so probe the full window as-is;
                // * rectangle overlapping the window — after the release,
                //   the overlap `[res.start, now + estimate)` holds the
                //   job's own `width` back and is feasible by
                //   construction, so the post-release anchor is `now`
                //   exactly when `[now, res.start)` already has `width`
                //   free *with the reservation still in place*.
                //
                // Each is decision-for-decision identical to the
                // round-trip (the differential and compression property
                // tests check this).
                let window = if mode != Compression::Reanchor && res.start < now + res.meta.estimate
                {
                    res.start.since(now)
                } else {
                    res.meta.estimate
                };
                // A zero-length window always fits, whatever `cap`.
                let fits = (!eager || width <= self.free)
                    && (window.is_zero()
                        || (width <= cap
                            && now + window
                                <= *horizon.get_or_insert_with(|| self.profile.zero_horizon(now))
                            && self.profile.fits(now, window, width)));
                match mode {
                    _ if fits => break (res, true),
                    Compression::Reanchor => break (res, false),
                    // Strict priority: nothing may start ahead of a
                    // blocked higher-priority job.
                    Compression::HeadStart => break 'pass,
                    _ => i += 1,
                }
            };
            if res.start <= now {
                self.queue.remove(i);
                self.start_job(res.meta, starts);
                continue;
            }
            if fits {
                self.move_to_now(i, now);
                cap = self.profile.free_at(now);
                horizon = None;
                if eager {
                    self.queue.remove(i);
                    self.start_job(res.meta, starts);
                    i = 0;
                    continue;
                }
            } else {
                self.profile
                    .release(res.start, res.meta.estimate, res.meta.width);
                let anchor = self
                    .profile
                    .find_anchor(now, res.meta.estimate, res.meta.width);
                assert!(
                    anchor <= res.start,
                    "compression pushed {} from {} to {}",
                    res.meta.id,
                    res.start,
                    anchor
                );
                self.profile
                    .reserve(anchor, res.meta.estimate, res.meta.width);
                if anchor < res.start {
                    self.queue[i].start = anchor;
                    self.next_start = earliest(self.next_start, anchor);
                    cap = self.profile.free_at(now);
                    horizon = None;
                    self.record(
                        now,
                        res.meta.id,
                        TraceKind::Compress {
                            moved: res.start.since(anchor).as_secs(),
                        },
                    );
                }
            }
            i += 1;
        }
        if eager {
            // Starts removed jobs, possibly the earliest.
            self.next_start = self.queue.iter().map(|r| r.start).min();
        }
    }
}

/// `current` lowered to `start` (the earliest of the two).
fn earliest(current: Option<SimTime>, start: SimTime) -> Option<SimTime> {
    Some(current.map_or(start, |t| t.min(start)))
}

impl Scheduler for ConservativeScheduler {
    fn name(&self) -> String {
        match self.family {
            Family::Conservative => format!("Conservative/{}", self.policy),
            Family::Selective { threshold } if threshold.is_infinite() => {
                format!("Selective(∞)/{}", self.policy)
            }
            Family::Selective { threshold } => format!("Selective({threshold})/{}", self.policy),
            Family::Slack { factor } => format!("Slack({factor}×est)/{}", self.policy),
        }
    }

    fn on_arrival(&mut self, job: JobMeta, now: SimTime, out: &mut Decisions) {
        assert!(
            job.width <= self.profile.capacity(),
            "{} wider than machine",
            job.id
        );
        if self.admitted(&job, now) {
            self.reserve(job, now);
        } else {
            let t0 = obs::span::start_nested(&self.phases, obs::Phase::QueueOps);
            self.unreserved.push(job);
            obs::span::finish_nested(&self.phases, obs::Phase::QueueOps, t0);
        }
        self.collect(now, true, out);
    }

    fn on_completion(&mut self, job: Running, now: SimTime, out: &mut Decisions) {
        let width = job.meta.width;
        self.free += width;
        let est_end = job.est_end();
        if now < est_end {
            // Early completion: return the unused tail of the rectangle and
            // let queued jobs compress into the hole (slack's collect runs
            // its pass on every event anyway).
            self.profile.release(now, est_end.since(now), width);
            if self.mode != Compression::None && !matches!(self.family, Family::Slack { .. }) {
                self.compress_pass(now, &mut out.starts);
            }
        }
        self.collect(now, true, out);
    }

    fn on_wake(&mut self, now: SimTime, out: &mut Decisions) {
        // Wakes fire after all same-instant completions and arrivals:
        // a deferral observed here cannot resolve at this instant.
        self.collect(now, false, out);
    }

    fn queue_len(&self) -> usize {
        self.queue.len() + self.unreserved.len()
    }

    fn profile_stats(&self) -> Option<ProfileStats> {
        let mut stats = self.stats;
        stats.absorb(&self.profile.stats());
        self.queue.counters().merge_into(&mut stats);
        self.unreserved.counters().merge_into(&mut stats);
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
mod tests {
    use super::*;
    use crate::scheduler::testing::Harness;
    use simcore::SimSpan;

    fn meta(id: u32, arrival: u64, estimate: u64, width: u32) -> JobMeta {
        JobMeta {
            id: JobId(id),
            arrival: SimTime::new(arrival),
            estimate: SimSpan::new(estimate),
            width,
        }
    }

    #[test]
    fn immediate_start_on_idle_machine() {
        let mut s = Harness::new(ConservativeScheduler::new(8, Policy::Fcfs));
        let d = s.arrive(meta(0, 0, 100, 8), SimTime::ZERO);
        assert_eq!(d.starts, vec![JobId(0)]);
    }

    #[test]
    fn narrow_job_backfills_past_blocked_wide_job() {
        let mut s = Harness::new(ConservativeScheduler::new(8, Policy::Fcfs));
        s.arrive(meta(0, 0, 100, 6), SimTime::ZERO); // runs [0,100) on 6
                                                     // Wide job 1 can't fit until 100: reserved at 100.
        let d = s.arrive(meta(1, 1, 50, 8), SimTime::new(1));
        assert!(d.starts.is_empty());
        assert_eq!(s.guarantee(JobId(1)), Some(SimTime::new(100)));
        // Narrow short job 2 fits in the 2-proc sliver before 100: backfills.
        let d = s.arrive(meta(2, 2, 50, 2), SimTime::new(2));
        assert_eq!(d.starts, vec![JobId(2)]);
    }

    #[test]
    fn backfill_may_not_delay_existing_guarantee() {
        let mut s = Harness::new(ConservativeScheduler::new(8, Policy::Fcfs));
        s.arrive(meta(0, 0, 100, 6), SimTime::ZERO);
        s.arrive(meta(1, 1, 50, 8), SimTime::new(1)); // reserved [100,150)
                                                      // Job 2 (2 procs, 200 s) would overlap job 1's reservation if
                                                      // started now: must be anchored after 1's rectangle instead.
        let d = s.arrive(meta(2, 2, 200, 2), SimTime::new(2));
        assert!(d.starts.is_empty());
        let g2 = s.guarantee(JobId(2)).unwrap();
        assert!(
            g2 >= SimTime::new(150),
            "job 2 anchored at {g2}, delaying job 1"
        );
        assert_eq!(s.guarantee(JobId(1)), Some(SimTime::new(100)));
    }

    #[test]
    fn reservation_fires_via_wakeup() {
        let mut s = Harness::new(ConservativeScheduler::new(8, Policy::Fcfs));
        s.arrive(meta(0, 0, 100, 8), SimTime::ZERO);
        let d = s.arrive(meta(1, 1, 10, 8), SimTime::new(1));
        assert_eq!(d.wakeup, Some(SimTime::new(100)));
        // Exact completion at the estimate: the queued job starts.
        let d = s.complete(JobId(0), SimTime::new(100));
        assert_eq!(d.starts, vec![JobId(1)]);
    }

    #[test]
    fn early_completion_compresses_guarantees() {
        let mut s = Harness::new(ConservativeScheduler::new(8, Policy::Fcfs));
        s.arrive(meta(0, 0, 1000, 8), SimTime::ZERO);
        s.arrive(meta(1, 1, 10, 8), SimTime::new(1));
        assert_eq!(s.guarantee(JobId(1)), Some(SimTime::new(1000)));
        // Job 0 finishes at 400, far before its estimate.
        let d = s.complete(JobId(0), SimTime::new(400));
        assert_eq!(
            d.starts,
            vec![JobId(1)],
            "compressed job must start in the hole"
        );
    }

    #[test]
    fn compression_respects_priority_order() {
        let mut s = Harness::new(ConservativeScheduler::new(8, Policy::Sjf));
        s.arrive(meta(0, 0, 1000, 8), SimTime::ZERO);
        // Arrival order: long job 1 first, short job 2 second.
        s.arrive(meta(1, 1, 500, 8), SimTime::new(1)); // reserved [1000,1500)
        s.arrive(meta(2, 2, 100, 8), SimTime::new(2)); // reserved [1500,1600)
        assert_eq!(s.guarantee(JobId(1)), Some(SimTime::new(1000)));
        assert_eq!(s.guarantee(JobId(2)), Some(SimTime::new(1500)));
        // Early completion at 100: SJF considers the *short* job first, and
        // it starts in the hole.
        let d = s.complete(JobId(0), SimTime::new(100));
        assert_eq!(d.starts, vec![JobId(2)]);
        // Paper semantics (Backfill): the long job cannot start now (the
        // short job holds the machine), so it keeps its original guarantee.
        assert_eq!(s.guarantee(JobId(1)), Some(SimTime::new(1000)));
    }

    #[test]
    fn reanchor_mode_also_improves_future_guarantees() {
        let mut s = Harness::new(ConservativeScheduler::with_compression(
            8,
            Policy::Sjf,
            Compression::Reanchor,
        ));
        s.arrive(meta(0, 0, 1000, 8), SimTime::ZERO);
        s.arrive(meta(1, 1, 500, 8), SimTime::new(1)); // reserved [1000,1500)
        s.arrive(meta(2, 2, 100, 8), SimTime::new(2)); // reserved [1500,1600)
        let d = s.complete(JobId(0), SimTime::new(100));
        assert_eq!(d.starts, vec![JobId(2)]);
        // Full re-anchoring: the long job's guarantee moves up to follow the
        // short job, even though it cannot start yet.
        assert_eq!(s.guarantee(JobId(1)), Some(SimTime::new(200)));
    }

    #[test]
    fn compression_under_fcfs_keeps_arrival_order() {
        let mut s = Harness::new(ConservativeScheduler::new(8, Policy::Fcfs));
        s.arrive(meta(0, 0, 1000, 8), SimTime::ZERO);
        s.arrive(meta(1, 1, 500, 8), SimTime::new(1));
        s.arrive(meta(2, 2, 100, 8), SimTime::new(2));
        let d = s.complete(JobId(0), SimTime::new(100));
        assert_eq!(
            d.starts,
            vec![JobId(1)],
            "FCFS compresses the earlier arrival first"
        );
    }

    #[test]
    fn accurate_estimates_never_compress() {
        // With exact completions there are no holes; guarantees are final.
        let mut s = Harness::new(ConservativeScheduler::new(4, Policy::XFactor));
        s.arrive(meta(0, 0, 100, 4), SimTime::ZERO);
        s.arrive(meta(1, 0, 100, 4), SimTime::ZERO);
        s.arrive(meta(2, 0, 100, 4), SimTime::ZERO);
        assert_eq!(s.guarantee(JobId(1)), Some(SimTime::new(100)));
        assert_eq!(s.guarantee(JobId(2)), Some(SimTime::new(200)));
        let d = s.complete(JobId(0), SimTime::new(100));
        assert_eq!(d.starts, vec![JobId(1)]);
        assert_eq!(s.guarantee(JobId(2)), Some(SimTime::new(200)));
    }

    #[test]
    fn queue_len_tracks_waiting_jobs() {
        let mut s = Harness::new(ConservativeScheduler::new(4, Policy::Fcfs));
        s.arrive(meta(0, 0, 100, 4), SimTime::ZERO);
        assert_eq!(s.queue_len(), 0);
        s.arrive(meta(1, 1, 100, 4), SimTime::new(1));
        assert_eq!(s.queue_len(), 1);
    }

    #[test]
    fn name_includes_policy() {
        assert_eq!(
            ConservativeScheduler::new(4, Policy::Sjf).name(),
            "Conservative/SJF"
        );
    }

    #[test]
    fn due_but_unstartable_job_does_not_spin_same_instant_wakeups() {
        // Regression: a job that overruns its estimate (possible when the
        // scheduler is driven directly; the driver's traces forbid it)
        // leaves a due-but-unstartable reservation behind. A wake-up is the
        // last event class at its instant, so answering it with
        // `wakeup = Some(now)` can never make progress — it used to spin
        // the event loop at that instant forever.
        let mut s = Harness::new(ConservativeScheduler::new(8, Policy::Fcfs));
        s.arrive(meta(0, 0, 100, 8), SimTime::ZERO); // starts; est_end 100
        let d = s.arrive(meta(1, 1, 50, 8), SimTime::new(1));
        assert_eq!(d.wakeup, Some(SimTime::new(100)));
        // Job 0 never completes by 150: job 1 is due but the machine is
        // still occupied when the (stale) wake fires.
        let d = s.wake(SimTime::new(150));
        assert!(d.starts.is_empty());
        assert_ne!(
            d.wakeup,
            Some(SimTime::new(150)),
            "same-instant wake-up after a wake-up would spin forever"
        );
        // Repeated wakes stay stable (no wake-up churn)...
        let d = s.wake(SimTime::new(151));
        assert!(d.starts.is_empty());
        assert_ne!(d.wakeup, Some(SimTime::new(151)));
        // ...and the eventual completion still starts the deferred job.
        let d = s.complete(JobId(0), SimTime::new(200));
        assert_eq!(d.starts, vec![JobId(1)]);
        assert_eq!(s.queue_len(), 0);
    }

    #[test]
    fn deferred_job_starts_exactly_at_reservation_instant() {
        // start_job() assumes the profile needs no update when a job
        // starts: on a valid trace a due job is deferred only by sibling
        // completions at the *same* instant, so it starts at exactly
        // `res.start` and consumes precisely the rectangle the profile
        // already carries.
        let mut s = Harness::new(ConservativeScheduler::new(8, Policy::Fcfs));
        s.arrive(meta(0, 0, 100, 4), SimTime::ZERO);
        s.arrive(meta(1, 0, 100, 4), SimTime::ZERO);
        let d = s.arrive(meta(2, 1, 50, 8), SimTime::new(1));
        assert_eq!(d.wakeup, Some(SimTime::new(100)));
        // First of two simultaneous completions: only 4 procs free, so the
        // due reservation defers with a same-instant retry.
        let d = s.complete(JobId(0), SimTime::new(100));
        assert!(d.starts.is_empty(), "only half the processors are free");
        assert_eq!(
            d.wakeup,
            Some(SimTime::new(100)),
            "retry once siblings complete"
        );
        // Second completion at the same instant: the job starts at exactly
        // its reserved time.
        let d = s.complete(JobId(1), SimTime::new(100));
        assert_eq!(d.starts, vec![JobId(2)]);
        // The profile still shows job 2's rectangle [100, 150) — full, then
        // free — with no post-start fixup.
        assert_eq!(s.profile.free_at(SimTime::new(125)), 0);
        assert_eq!(s.profile.free_at(SimTime::new(150)), 8);
        assert!(s.profile.invariants_ok());
    }

    #[test]
    fn late_start_past_reservation_never_overcommits() {
        // The other half of the start_job assumption: when a job *does*
        // start later than its reservation (overrun scenario), the `free`
        // gate — not the profile — is what prevents overcommitting the
        // machine.
        let mut s = Harness::new(ConservativeScheduler::new(8, Policy::Fcfs));
        s.arrive(meta(0, 0, 100, 8), SimTime::ZERO);
        s.arrive(meta(1, 1, 50, 8), SimTime::new(1)); // reserved [100,150)
                                                      // Job 0 overruns; its completion arrives at 120.
        let d = s.complete(JobId(0), SimTime::new(120));
        assert_eq!(
            d.starts,
            vec![JobId(1)],
            "starts late, at 120 > reserved 100"
        );
        // A new arrival while job 1 runs [120, 170): must defer to the free
        // gate even though the stale profile shows capacity from 150.
        let d = s.arrive(meta(2, 121, 10, 8), SimTime::new(121));
        assert!(d.starts.is_empty(), "no processors are physically free");
        let d = s.complete(JobId(1), SimTime::new(170));
        assert_eq!(d.starts, vec![JobId(2)]);
    }

    #[test]
    fn recorder_sees_reserves_and_compressions() {
        let mut s = Harness::new(ConservativeScheduler::new(8, Policy::Fcfs));
        let rec = obs::trace::shared(64);
        s.set_recorder(rec.clone());
        s.arrive(meta(0, 0, 1000, 8), SimTime::ZERO);
        s.arrive(meta(1, 1, 10, 8), SimTime::new(1)); // anchored at 1000
        s.complete(JobId(0), SimTime::new(400)); // hole: job 1 moves to 400
        let events = rec.borrow().events();
        let kinds: Vec<(u64, &TraceKind)> = events.iter().map(|e| (e.job, &e.kind)).collect();
        assert_eq!(kinds[0], (0, &TraceKind::Reserve { anchor: 0 }));
        assert_eq!(kinds[1], (1, &TraceKind::Reserve { anchor: 1000 }));
        assert_eq!(kinds[2], (1, &TraceKind::Compress { moved: 600 }));
        assert_eq!(events.len(), 3);
    }

    #[test]
    fn profile_stats_are_exposed_and_grow() {
        let mut s = Harness::new(ConservativeScheduler::new(8, Policy::Fcfs));
        s.arrive(meta(0, 0, 1000, 8), SimTime::ZERO);
        s.arrive(meta(1, 1, 10, 8), SimTime::new(1));
        let before = s.profile_stats().expect("conservative keeps a profile");
        assert!(before.find_anchor_calls >= 2);
        assert!(before.reserves >= 2);
        assert_eq!(before.compress_passes, 0);
        s.complete(JobId(0), SimTime::new(400)); // early → compress
        let after = s.profile_stats().unwrap();
        assert_eq!(after.compress_passes, 1);
        assert!(after.releases > before.releases);
    }

    #[test]
    fn overdue_reservation_starts_when_processors_free() {
        // Job 0 overruns its estimate, so job 1's reservation at 100 is
        // overdue by the time job 9 completes early at 150. Compression must
        // leave an overdue reservation alone (re-anchoring it from `now`
        // would move it later), and the due job starts in the freed room.
        let schedulers = [
            ConservativeScheduler::new(8, Policy::Fcfs),
            ConservativeScheduler::with_compression(8, Policy::Fcfs, Compression::Reanchor),
            ConservativeScheduler::selective(8, Policy::Fcfs, 1.0),
            ConservativeScheduler::slack(8, Policy::Fcfs, 0.0),
            ConservativeScheduler::slack(8, Policy::Fcfs, 0.5),
        ];
        for s in schedulers {
            let mut s = Harness::new(s);
            let name = s.name();
            s.arrive(meta(0, 0, 100, 4), SimTime::ZERO);
            s.arrive(meta(9, 0, 1000, 4), SimTime::ZERO);
            s.arrive(meta(1, 1, 10, 4), SimTime::new(1));
            let reserved = s.guarantee(JobId(1)).expect("job 1 is reserved");
            assert!(
                reserved >= SimTime::new(100),
                "{name}: reserved at {reserved}"
            );
            let d = s.wake(reserved);
            assert!(
                d.starts.is_empty(),
                "{name}: job 0 still holds its processors"
            );
            let d = s.complete(JobId(9), SimTime::new(150));
            assert_eq!(d.starts, vec![JobId(1)], "{name}");
            assert_eq!(s.queue_len(), 0, "{name}");
        }
    }

    /// `ConservativeScheduler::selective`.
    mod selective {
        use super::*;

        #[test]
        fn idle_machine_starts_immediately() {
            let mut s = Harness::new(ConservativeScheduler::selective(8, Policy::Fcfs, 2.0));
            let d = s.arrive(meta(0, 0, 100, 8), SimTime::ZERO);
            assert_eq!(d.starts, vec![JobId(0)]);
        }

        #[test]
        fn unprotected_jobs_backfill_freely() {
            let mut s = Harness::new(ConservativeScheduler::selective(8, Policy::Fcfs, 100.0));
            s.arrive(meta(0, 0, 100, 6), SimTime::ZERO);
            s.arrive(meta(1, 1, 500, 8), SimTime::new(1)); // waits, unreserved
                                                           // A long 2-wide job backfills at once — EASY would refuse it
                                                           // (it would delay job 1's reservation); selective has none to
                                                           // delay.
            let d = s.arrive(meta(2, 2, 9_000, 2), SimTime::new(2));
            assert_eq!(d.starts, vec![JobId(2)]);
            assert_eq!(s.guarantee(JobId(1)), None);
        }

        #[test]
        fn crossing_time_formula() {
            let j = meta(1, 1000, 200, 1);
            // wait needed = (3-1)*200 = 400 -> crossing at 1400.
            assert_eq!(Policy::crossing_time(3.0, &j), SimTime::new(1400));
            assert_eq!(
                Policy::crossing_time(f64::INFINITY, &j),
                SimTime::FAR_FUTURE
            );
        }

        #[test]
        fn job_gets_reservation_once_threshold_crossed() {
            let mut s = Harness::new(ConservativeScheduler::selective(8, Policy::Fcfs, 2.0));
            let rec = obs::trace::shared(64);
            s.set_recorder(rec.clone());
            s.arrive(meta(0, 0, 1_000, 8), SimTime::ZERO);
            // Job 1 (est 100): crosses at t = 1 + 100 = 101.
            let d = s.arrive(meta(1, 1, 100, 8), SimTime::new(1));
            assert_eq!(d.wakeup, Some(SimTime::new(101)), "wake at the crossing");
            let d = s.wake(SimTime::new(101));
            assert!(d.starts.is_empty());
            assert_eq!(s.guarantee(JobId(1)), Some(SimTime::new(1_000)));
            // Now protected: a new job that would delay it must not backfill.
            let d = s.arrive(meta(2, 102, 2_000, 8), SimTime::new(102));
            assert!(d.starts.is_empty());
            // At job 0's (exact) completion, the protected job starts first.
            let d = s.complete(JobId(0), SimTime::new(1_000));
            assert_eq!(d.starts, vec![JobId(1)]);
            let events = rec.borrow().events();
            let kinds: Vec<(u64, &TraceKind)> = events.iter().map(|e| (e.job, &e.kind)).collect();
            assert_eq!(
                kinds,
                vec![
                    (
                        0,
                        &TraceKind::Backfill {
                            filled_hole: SimTime::FAR_FUTURE.as_secs()
                        }
                    ),
                    (1, &TraceKind::Reserve { anchor: 1_000 }),
                ]
            );
        }

        #[test]
        fn threshold_one_reserves_on_arrival() {
            let mut s = Harness::new(ConservativeScheduler::selective(8, Policy::Fcfs, 1.0));
            s.arrive(meta(0, 0, 100, 6), SimTime::ZERO);
            s.arrive(meta(1, 1, 500, 8), SimTime::new(1));
            // Like conservative: job 2 anchored after job 1's rectangle, so
            // a conflicting backfill is refused.
            let d = s.arrive(meta(2, 2, 200, 2), SimTime::new(2));
            assert!(d.starts.is_empty());
            assert_eq!(s.queue_len(), 2);
        }

        #[test]
        fn early_completion_compresses_protected_jobs() {
            let mut s = Harness::new(ConservativeScheduler::selective(8, Policy::Fcfs, 1.0));
            s.arrive(meta(0, 0, 1_000, 8), SimTime::ZERO);
            s.arrive(meta(1, 1, 100, 8), SimTime::new(1));
            let d = s.complete(JobId(0), SimTime::new(300));
            assert_eq!(d.starts, vec![JobId(1)]);
        }

        #[test]
        fn infinite_threshold_never_reserves() {
            let mut s = Harness::new(ConservativeScheduler::selective(
                8,
                Policy::Fcfs,
                f64::INFINITY,
            ));
            s.arrive(meta(0, 0, 1_000, 8), SimTime::ZERO);
            let d = s.arrive(meta(1, 1, 100, 8), SimTime::new(1));
            assert_eq!(d.wakeup, None, "no reservations, no crossings, no wake-ups");
            assert_eq!(s.name(), "Selective(∞)/FCFS");
            assert_eq!(
                ConservativeScheduler::selective(8, Policy::Fcfs, 2.0).name(),
                "Selective(2)/FCFS"
            );
        }

        #[test]
        #[should_panic(expected = "must be >= 1")]
        fn rejects_sub_one_threshold() {
            ConservativeScheduler::selective(8, Policy::Fcfs, 0.5);
        }

        #[test]
        #[should_panic(expected = "must be >= 1")]
        fn rejects_nan_threshold() {
            ConservativeScheduler::selective(8, Policy::Fcfs, f64::NAN);
        }

        #[test]
        fn due_protected_job_does_not_spin_same_instant_wakeups() {
            // A protected job whose reservation is due but whose processors
            // are held by an overrunning job must not answer a wake-up with
            // another same-instant wake-up (nothing else can happen then).
            let mut s = Harness::new(ConservativeScheduler::selective(8, Policy::Fcfs, 1.0));
            s.arrive(meta(0, 0, 100, 8), SimTime::ZERO); // starts; est_end 100
            let d = s.arrive(meta(1, 1, 50, 8), SimTime::new(1)); // protected at 100
            assert_eq!(d.wakeup, Some(SimTime::new(100)));
            // Job 0 overruns its estimate; the wake at 150 finds the machine
            // busy.
            let d = s.wake(SimTime::new(150));
            assert!(d.starts.is_empty());
            assert_ne!(
                d.wakeup,
                Some(SimTime::new(150)),
                "would spin the event loop"
            );
            let d = s.complete(JobId(0), SimTime::new(200));
            assert_eq!(d.starts, vec![JobId(1)]);
        }

        #[test]
        fn exposes_profile_stats() {
            let mut s = Harness::new(ConservativeScheduler::selective(8, Policy::Fcfs, 1.0));
            s.arrive(meta(0, 0, 1_000, 8), SimTime::ZERO);
            s.arrive(meta(1, 1, 100, 8), SimTime::new(1));
            s.complete(JobId(0), SimTime::new(300)); // early → compress
            let stats = s.profile_stats().expect("selective keeps a profile");
            assert!(stats.find_anchor_calls > 0);
            assert_eq!(stats.compress_passes, 1);
        }
    }

    /// `ConservativeScheduler::slack`.
    mod slack {
        use super::*;

        fn sched(factor: f64) -> Harness<ConservativeScheduler> {
            Harness::new(ConservativeScheduler::slack(8, Policy::Fcfs, factor))
        }

        #[test]
        fn idle_machine_starts_immediately_regardless_of_slack() {
            let mut s = sched(10.0);
            let d = s.arrive(meta(0, 0, 100, 8), SimTime::ZERO);
            assert_eq!(d.starts, vec![JobId(0)]);
        }

        #[test]
        fn promise_is_anchor_plus_slack() {
            let mut s = sched(10.0);
            s.arrive(meta(0, 0, 100, 8), SimTime::ZERO); // runs [0,100)
            let d = s.arrive(meta(1, 1, 50, 8), SimTime::new(1));
            assert!(d.starts.is_empty());
            // Earliest anchor 100, slack 10 × 50 = 500 -> promise at 600.
            assert_eq!(s.guarantee(JobId(1)), Some(SimTime::new(600)));
        }

        #[test]
        fn job_starts_at_earliest_opportunity_not_at_promise() {
            let mut s = sched(10.0);
            s.arrive(meta(0, 0, 100, 8), SimTime::ZERO);
            s.arrive(meta(1, 1, 50, 8), SimTime::new(1)); // promised 600
                                                          // Machine frees at 100: job 1 starts right away, well before 600.
            let d = s.complete(JobId(0), SimTime::new(100));
            assert_eq!(d.starts, vec![JobId(1)]);
        }

        #[test]
        fn slack_window_admits_backfill_that_conservative_refuses() {
            // Conservative: job 1 reserved at 100 blocks a 200-second 2-wide
            // job (it would overlap the reservation). With slack 10 × 50,
            // job 1's rectangle sits at 600, so the long narrow job
            // backfills at once.
            let mut s = sched(10.0);
            s.arrive(meta(0, 0, 100, 6), SimTime::ZERO);
            s.arrive(meta(1, 1, 50, 8), SimTime::new(1));
            let d = s.arrive(meta(2, 2, 200, 2), SimTime::new(2));
            assert_eq!(
                d.starts,
                vec![JobId(2)],
                "slack window should admit the backfill"
            );
        }

        #[test]
        fn promise_is_never_exceeded() {
            // Even when backfills consume the slack window, the job starts
            // by its promise: the rectangle at the promise was never given
            // away.
            let mut s = sched(1.0);
            s.arrive(meta(0, 0, 1_000, 8), SimTime::ZERO);
            s.arrive(meta(1, 1, 100, 8), SimTime::new(1)); // promise 1100
            assert_eq!(s.guarantee(JobId(1)), Some(SimTime::new(1_100)));
            // Exact completion at 1000; job 1 starts at 1000 (early) or by
            // its promise at the latest.
            let d = s.complete(JobId(0), SimTime::new(1_000));
            assert_eq!(d.starts, vec![JobId(1)]);
        }

        #[test]
        fn zero_slack_promise_equals_conservative_anchor() {
            let mut s = sched(0.0);
            s.arrive(meta(0, 0, 100, 8), SimTime::ZERO);
            s.arrive(meta(1, 1, 50, 8), SimTime::new(1));
            assert_eq!(s.guarantee(JobId(1)), Some(SimTime::new(100)));
        }

        #[test]
        fn proportional_slack_scales_with_estimate() {
            let mut s = sched(2.0);
            s.arrive(meta(0, 0, 100, 8), SimTime::ZERO);
            s.arrive(meta(1, 1, 50, 8), SimTime::new(1));
            // anchor 100 + 2*50 = 200.
            assert_eq!(s.guarantee(JobId(1)), Some(SimTime::new(200)));
        }

        #[test]
        fn early_start_rescans_from_the_head() {
            // Jobs 2 and 3 share [150, 200), which blocks job 1's window.
            // Once job 2 starts ahead of its promise, half of that span
            // frees up, so job 1 — ranked first, passed over once — starts
            // in the same pass, ahead of job 3.
            let mut s = sched(1.0);
            s.arrive(meta(0, 0, 100, 8), SimTime::ZERO); // runs [0, 100)
            s.arrive(meta(1, 1, 150, 4), SimTime::new(1)); // promise 250
            s.arrive(meta(2, 2, 50, 4), SimTime::new(2)); // promise 150
            s.arrive(meta(3, 3, 50, 4), SimTime::new(3)); // promise 150
            assert_eq!(s.guarantee(JobId(1)), Some(SimTime::new(250)));
            assert_eq!(s.guarantee(JobId(2)), Some(SimTime::new(150)));
            assert_eq!(s.guarantee(JobId(3)), Some(SimTime::new(150)));
            let d = s.complete(JobId(0), SimTime::new(40));
            assert_eq!(d.starts, vec![JobId(2), JobId(1)]);
            assert_eq!(s.guarantee(JobId(3)), Some(SimTime::new(150)));
        }

        #[test]
        fn name_reports_slack_policy() {
            assert_eq!(sched(2.0).name(), "Slack(2×est)/FCFS");
            assert_eq!(
                ConservativeScheduler::slack(8, Policy::Sjf, 0.5).name(),
                "Slack(0.5×est)/SJF"
            );
        }

        #[test]
        fn rejects_negative_nan_and_infinite_factors() {
            for bad in [-1.0, f64::NAN, f64::INFINITY] {
                let built = std::panic::catch_unwind(|| sched(bad));
                assert!(built.is_err(), "slack factor {bad} accepted");
            }
        }

        #[test]
        fn due_promise_does_not_spin_same_instant_wakeups() {
            let mut s = sched(0.0);
            s.arrive(meta(0, 0, 100, 8), SimTime::ZERO); // starts; est_end 100
            let d = s.arrive(meta(1, 1, 50, 8), SimTime::new(1)); // promised 100
            assert_eq!(d.wakeup, Some(SimTime::new(100)));
            // Job 0 overruns; the wake at 150 finds the machine still busy.
            let d = s.wake(SimTime::new(150));
            assert!(d.starts.is_empty());
            assert_ne!(
                d.wakeup,
                Some(SimTime::new(150)),
                "would spin the event loop"
            );
        }

        #[test]
        fn exposes_profile_stats() {
            let mut s = sched(10.0);
            s.arrive(meta(0, 0, 100, 8), SimTime::ZERO);
            s.arrive(meta(1, 1, 50, 8), SimTime::new(1));
            let stats = s.profile_stats().expect("slack keeps a profile");
            assert!(stats.find_anchor_calls >= 2);
            assert!(stats.reserves >= 2);
        }
    }
}
