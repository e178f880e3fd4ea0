//! Conservative backfilling.
//!
//! Every job receives a **start-time reservation the moment it arrives**,
//! at the earliest anchor that delays no previously existing reservation
//! (Section 2 of the paper). Because guarantees are handed out in arrival
//! order, the schedule is completely determined when estimates are exact —
//! the paper's Section 4.1 equivalence result, which this implementation
//! reproduces mechanically.
//!
//! The priority policy only matters when a job **completes earlier than its
//! estimate**: the hole it leaves lets queued jobs be *re-anchored*
//! ("compressed") to earlier start times. Jobs are re-anchored in priority
//! order, and each job's new anchor is provably never later than its old
//! guarantee (its old rectangle remains feasible throughout the pass), so
//! guarantees only improve — asserted in code.

use crate::policy::Policy;
use crate::profile::{Profile, ProfileStats};
use crate::queue::{repair_order, OrderScratch};
use crate::scheduler::{Decisions, JobMeta, Scheduler};
use obs::trace::{SharedRecorder, TraceKind};
use serde::{Deserialize, Serialize};
use simcore::{JobId, SimTime};
use std::collections::HashMap;

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

/// Conservative backfilling scheduler.
#[derive(Debug, Clone)]
pub struct ConservativeScheduler {
    policy: Policy,
    profile: Profile,
    queue: Vec<Reservation>,
    /// The earliest reservation start in `queue` (`None` when it is
    /// empty). Starts only fall between scans — an arrival's anchor, a
    /// compression move — so both lower it with `min`; `collect()`
    /// recomputes it in the scan that removes jobs. While it lies after
    /// `now`, nothing is due and `collect()` skips that scan.
    next_start: Option<SimTime>,
    running: HashMap<JobId, Running>,
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
    /// Recycled `starts` buffer from the previous event's [`Decisions`]
    /// (handed back by the driver via [`Scheduler::recycle`]); its capacity
    /// serves the next collect pass.
    starts_scratch: Vec<JobId>,
    /// Reusable buffers for the compression pass's order repair.
    order_scratch: OrderScratch<Reservation>,
}

impl ConservativeScheduler {
    /// Create for a machine with `capacity` processors, with the paper's
    /// hole-backfilling compression.
    pub fn new(capacity: u32, policy: Policy) -> Self {
        Self::with_compression(capacity, policy, Compression::Backfill)
    }

    /// Create with an explicit compression mode.
    pub fn with_compression(capacity: u32, policy: Policy, mode: Compression) -> Self {
        ConservativeScheduler {
            policy,
            profile: Profile::new(capacity),
            queue: Vec::new(),
            next_start: None,
            running: HashMap::new(),
            free: capacity,
            mode,
            recorder: None,
            phases: None,
            starts_scratch: Vec::new(),
            order_scratch: OrderScratch::default(),
        }
    }

    /// Record one decision event, if a recorder is attached.
    fn record(&self, now: SimTime, id: JobId, kind: TraceKind) {
        if let Some(rec) = &self.recorder {
            rec.borrow_mut().record(now.as_secs(), id.0 as u64, kind);
        }
    }

    /// The currently guaranteed start time of a queued job (tests/metrics).
    pub fn guarantee(&self, id: JobId) -> Option<SimTime> {
        self.queue.iter().find(|r| r.meta.id == id).map(|r| r.start)
    }

    fn start_job(&mut self, res: Reservation, now: SimTime) {
        debug_assert!(res.start <= now, "started before its reservation");
        self.free -= res.meta.width;
        self.running.insert(
            res.meta.id,
            Running {
                width: res.meta.width,
                est_end: now + res.meta.estimate,
            },
        );
        // The reservation rectangle simply becomes the running occupancy;
        // the profile needs no update. This relies on the job starting at
        // its reserved instant: on valid traces (runtime <= estimate) a due
        // job is deferred only by same-instant sibling completions, so it
        // starts with `now == res.start` and consumes exactly the rectangle
        // the profile carries. If a job overruns its estimate (`res.start <
        // now`), the `free` gate in collect() still prevents any capacity
        // violation — tests cover both cases.
    }

    /// Start every queued job whose reservation is due *and* whose
    /// processors are physically free, then report the next wake-up. A due
    /// job that does not fit yet is waiting on a sibling completion at this
    /// same instant; with `retry_same_instant` set, the returned
    /// same-instant wake-up retries it after the remaining events are
    /// delivered.
    ///
    /// `on_wake` passes `retry_same_instant = false`: wake-ups are the
    /// *last* event class at an instant, so everything that could free
    /// processors at `now` has already been delivered, and re-requesting
    /// `now` would spin forever (reachable when a job runs past its
    /// estimate). The deferred job instead waits for the next completion or
    /// a strictly later reservation.
    ///
    /// A single ascending pass suffices: starting a job only *consumes*
    /// processors, so a job skipped earlier in the pass can never become
    /// startable later in the same pass — rescanning from the front would
    /// find exactly the same starts in the same order.
    ///
    /// When `next_start` lies after `now`, no reservation is due: the pass
    /// would start nothing and defer nothing, and the wake-up is
    /// `next_start` itself, so the scan is skipped.
    fn collect(&mut self, now: SimTime, retry_same_instant: bool) -> Decisions {
        let mut starts = std::mem::take(&mut self.starts_scratch);
        debug_assert!(starts.is_empty());
        if starts.capacity() > 0 {
            self.profile.note_scratch_reuse();
        }
        debug_assert_eq!(
            self.next_start,
            self.queue.iter().map(|r| r.start).min(),
            "next_start out of step with the queue"
        );
        let wakeup = match self.next_start {
            Some(next) if next <= now => self.start_due(now, retry_same_instant, &mut starts),
            // Nothing due: every reservation starts after `now`.
            next => next,
        };
        self.profile.trim_before(now);
        Decisions {
            preempts: Vec::new(),
            starts,
            wakeup,
        }
    }

    /// `collect()`'s scan: start the due jobs that fit, recompute
    /// `next_start` from the rest, and return the wake-up.
    fn start_due(
        &mut self,
        now: SimTime,
        retry_same_instant: bool,
        starts: &mut Vec<JobId>,
    ) -> Option<SimTime> {
        let mut deferred = false;
        let mut next_start: Option<SimTime> = None;
        let mut next_future: Option<SimTime> = None;
        let mut i = 0;
        while i < self.queue.len() {
            let res = self.queue[i];
            if res.start <= now {
                if res.meta.width <= self.free {
                    self.queue.remove(i);
                    starts.push(res.meta.id);
                    self.start_job(res, now);
                    // `remove` shifted the next candidate into slot `i`.
                    continue;
                }
                deferred = true;
            } else {
                next_future = earliest(next_future, res.start);
            }
            next_start = earliest(next_start, res.start);
            i += 1;
        }
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

    /// Consider queued jobs for the hole that just opened, in priority
    /// order. A job may only ever move *earlier*: its old rectangle stays
    /// feasible throughout the pass (each mover's new position was chosen
    /// against a profile still containing everyone else's guarantee), so
    /// restoring it is always possible — asserted below.
    ///
    /// For the start-now modes (`Backfill`/`HeadStart`) the decision per
    /// job is a yes/no — "can it start at `now`?" — and the full
    /// release → find_anchor → reserve round-trip is needed only when the
    /// job's own rectangle could influence the answer:
    ///
    /// * if the rectangle `[now, now + estimate)` already fits with the
    ///   job's own reservation still in place, releasing that reservation
    ///   only adds capacity, so the re-anchor would land at `now` — move
    ///   directly, one release + one reserve;
    /// * if it does not fit and the job's own rectangle is disjoint from
    ///   the candidate window (`start >= now + estimate`), releasing it
    ///   cannot change the answer — skip the round-trip entirely, zero
    ///   profile mutations;
    /// * only when the job's own rectangle overlaps the window is the full
    ///   round-trip performed.
    ///
    /// Each branch is decision-for-decision identical to the round-trip
    /// (the differential and compression property tests check this).
    ///
    /// Two things keep a pass proportional to the jobs that can move
    /// rather than to the queue:
    ///
    /// * the queue is brought into priority order by [`repair_order`],
    ///   one linear pass when it is nearly in order already — between
    ///   passes it changes only by order-keeping removals, appended
    ///   arrivals and (XFactor) the few ranks that cross as jobs age;
    /// * in the start-now modes, a job wider than `cap` — the free level
    ///   at `now` — is rejected in O(1): every probe window opens at
    ///   `now`, where the job's own rectangle (starting after `now`) is
    ///   not, so `fits` would fail on the level at `now` alone. `cap` only
    ///   falls during the pass, as moved jobs take their rectangles.
    fn compress(&mut self, now: SimTime) {
        self.profile.note_compress_pass();
        if self.order_scratch.is_warm() {
            self.profile.note_scratch_reuse();
        }
        let reordered = repair_order(
            &mut self.queue,
            self.policy,
            now,
            &mut self.order_scratch,
            |r| r.meta,
        );
        self.profile
            .note_queue_ops(0, u64::from(reordered), u64::from(!reordered));
        let mut cap = self.profile.free_at(now);
        for i in 0..self.queue.len() {
            let res = self.queue[i];
            if res.start <= now {
                continue; // already due; collect() will start it
            }
            match self.mode {
                Compression::Backfill | Compression::HeadStart => {
                    // "Can it start at `now`?" without mutating anything.
                    // The release → find_anchor → reserve round-trip is
                    // equivalent to a single read-only probe:
                    //
                    // * rectangle disjoint from the candidate window
                    //   (`res.start >= now + estimate`) — releasing it
                    //   cannot change the answer, so probe the full
                    //   window as-is;
                    // * rectangle overlapping the window — after the
                    //   release, the overlap `[res.start, now + estimate)`
                    //   holds the job's own `width` back and is feasible
                    //   by construction, so the post-release anchor is
                    //   `now` exactly when `[now, res.start)` already has
                    //   `width` free *with the reservation still in
                    //   place* (the rectangle starts strictly after `now`
                    //   and cannot cover that prefix).
                    //
                    // Either way a failed probe mutates nothing: no
                    // release/re-reserve pair, no fits-memo invalidation
                    // — in a saturated system that is almost every probe
                    // of the pass. Each branch is decision-for-decision
                    // identical to the round-trip (the differential and
                    // compression property tests check this).
                    let window = if res.start < now + res.meta.estimate {
                        res.start.since(now)
                    } else {
                        res.meta.estimate
                    };
                    // A zero-length window always fits, whatever `cap`.
                    let moved = (res.meta.width <= cap || window.is_zero())
                        && self.profile.fits(now, window, res.meta.width);
                    if moved {
                        self.profile
                            .release(res.start, res.meta.estimate, res.meta.width);
                        self.profile.reserve(now, res.meta.estimate, res.meta.width);
                        self.queue[i].start = now;
                        self.next_start = earliest(self.next_start, now);
                        cap = self.profile.free_at(now);
                        self.record(
                            now,
                            res.meta.id,
                            TraceKind::Compress {
                                moved: res.start.since(now).as_secs(),
                            },
                        );
                    }
                    if self.mode == Compression::HeadStart && !moved {
                        // Strict priority: nothing may start ahead of a
                        // blocked higher-priority job.
                        break;
                    }
                }
                Compression::Reanchor => {
                    // Same shortcut as above: fitting at `now` with the
                    // job's own rectangle still in place proves the
                    // post-release anchor is `now` (release only adds
                    // capacity and the anchor can't move before `now`),
                    // so the probe is one fits descent, not a round-trip.
                    if self.profile.fits(now, res.meta.estimate, res.meta.width) {
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
                        continue;
                    }
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
                    self.queue[i].start = anchor;
                    self.next_start = earliest(self.next_start, anchor);
                    if anchor < res.start {
                        self.record(
                            now,
                            res.meta.id,
                            TraceKind::Compress {
                                moved: res.start.since(anchor).as_secs(),
                            },
                        );
                    }
                }
                // compress() is only reached when compression is enabled.
                Compression::None => unreachable!("compress called in None mode"),
            }
        }
    }
}

/// `current` lowered to `start` (the earliest of the two).
fn earliest(current: Option<SimTime>, start: SimTime) -> Option<SimTime> {
    Some(current.map_or(start, |t| t.min(start)))
}

impl Scheduler for ConservativeScheduler {
    fn name(&self) -> String {
        format!("Conservative/{}", self.policy)
    }

    fn on_arrival(&mut self, job: JobMeta, now: SimTime) -> Decisions {
        assert!(
            job.width <= self.profile.capacity(),
            "{} wider than machine",
            job.id
        );
        let anchor = self.profile.find_anchor(now, job.estimate, job.width);
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
        self.collect(now, true)
    }

    fn on_completion(&mut self, id: JobId, now: SimTime) -> Decisions {
        let run = self
            .running
            .remove(&id)
            .expect("completion for unknown job");
        self.free += run.width;
        if now < run.est_end {
            // Early completion: return the unused tail of the rectangle and
            // let queued jobs compress into the hole.
            self.profile.release(now, run.est_end.since(now), run.width);
            if self.mode != Compression::None {
                let t0 = obs::span::start_nested(&self.phases, obs::Phase::Compress);
                self.compress(now);
                obs::span::finish_nested(&self.phases, obs::Phase::Compress, t0);
            }
        }
        self.collect(now, true)
    }

    fn on_wake(&mut self, now: SimTime) -> Decisions {
        // Wakes fire after all same-instant completions and arrivals:
        // a deferral observed here cannot resolve at this instant.
        self.collect(now, false)
    }

    fn queue_len(&self) -> usize {
        self.queue.len()
    }

    fn profile_stats(&self) -> Option<ProfileStats> {
        Some(self.profile.stats())
    }

    fn set_recorder(&mut self, recorder: SharedRecorder) {
        self.recorder = Some(recorder);
    }

    fn set_phases(&mut self, phases: obs::SharedPhases) {
        self.phases = Some(phases);
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
        let mut s = ConservativeScheduler::new(8, Policy::Fcfs);
        let d = s.on_arrival(meta(0, 0, 100, 8), SimTime::ZERO);
        assert_eq!(d.starts, vec![JobId(0)]);
    }

    #[test]
    fn narrow_job_backfills_past_blocked_wide_job() {
        let mut s = ConservativeScheduler::new(8, Policy::Fcfs);
        s.on_arrival(meta(0, 0, 100, 6), SimTime::ZERO); // runs [0,100) on 6
                                                         // Wide job 1 can't fit until 100: reserved at 100.
        let d = s.on_arrival(meta(1, 1, 50, 8), SimTime::new(1));
        assert!(d.starts.is_empty());
        assert_eq!(s.guarantee(JobId(1)), Some(SimTime::new(100)));
        // Narrow short job 2 fits in the 2-proc sliver before 100: backfills.
        let d = s.on_arrival(meta(2, 2, 50, 2), SimTime::new(2));
        assert_eq!(d.starts, vec![JobId(2)]);
    }

    #[test]
    fn backfill_may_not_delay_existing_guarantee() {
        let mut s = ConservativeScheduler::new(8, Policy::Fcfs);
        s.on_arrival(meta(0, 0, 100, 6), SimTime::ZERO);
        s.on_arrival(meta(1, 1, 50, 8), SimTime::new(1)); // reserved [100,150)
                                                          // Job 2 (2 procs, 200 s) would overlap job 1's reservation if
                                                          // started now: must be anchored after 1's rectangle instead.
        let d = s.on_arrival(meta(2, 2, 200, 2), SimTime::new(2));
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
        let mut s = ConservativeScheduler::new(8, Policy::Fcfs);
        s.on_arrival(meta(0, 0, 100, 8), SimTime::ZERO);
        let d = s.on_arrival(meta(1, 1, 10, 8), SimTime::new(1));
        assert_eq!(d.wakeup, Some(SimTime::new(100)));
        // Exact completion at the estimate: the queued job starts.
        let d = s.on_completion(JobId(0), SimTime::new(100));
        assert_eq!(d.starts, vec![JobId(1)]);
    }

    #[test]
    fn early_completion_compresses_guarantees() {
        let mut s = ConservativeScheduler::new(8, Policy::Fcfs);
        s.on_arrival(meta(0, 0, 1000, 8), SimTime::ZERO);
        s.on_arrival(meta(1, 1, 10, 8), SimTime::new(1));
        assert_eq!(s.guarantee(JobId(1)), Some(SimTime::new(1000)));
        // Job 0 finishes at 400, far before its estimate.
        let d = s.on_completion(JobId(0), SimTime::new(400));
        assert_eq!(
            d.starts,
            vec![JobId(1)],
            "compressed job must start in the hole"
        );
    }

    #[test]
    fn compression_respects_priority_order() {
        let mut s = ConservativeScheduler::new(8, Policy::Sjf);
        s.on_arrival(meta(0, 0, 1000, 8), SimTime::ZERO);
        // Arrival order: long job 1 first, short job 2 second.
        s.on_arrival(meta(1, 1, 500, 8), SimTime::new(1)); // reserved [1000,1500)
        s.on_arrival(meta(2, 2, 100, 8), SimTime::new(2)); // reserved [1500,1600)
        assert_eq!(s.guarantee(JobId(1)), Some(SimTime::new(1000)));
        assert_eq!(s.guarantee(JobId(2)), Some(SimTime::new(1500)));
        // Early completion at 100: SJF considers the *short* job first, and
        // it starts in the hole.
        let d = s.on_completion(JobId(0), SimTime::new(100));
        assert_eq!(d.starts, vec![JobId(2)]);
        // Paper semantics (Backfill): the long job cannot start now (the
        // short job holds the machine), so it keeps its original guarantee.
        assert_eq!(s.guarantee(JobId(1)), Some(SimTime::new(1000)));
    }

    #[test]
    fn reanchor_mode_also_improves_future_guarantees() {
        let mut s = ConservativeScheduler::with_compression(8, Policy::Sjf, Compression::Reanchor);
        s.on_arrival(meta(0, 0, 1000, 8), SimTime::ZERO);
        s.on_arrival(meta(1, 1, 500, 8), SimTime::new(1)); // reserved [1000,1500)
        s.on_arrival(meta(2, 2, 100, 8), SimTime::new(2)); // reserved [1500,1600)
        let d = s.on_completion(JobId(0), SimTime::new(100));
        assert_eq!(d.starts, vec![JobId(2)]);
        // Full re-anchoring: the long job's guarantee moves up to follow the
        // short job, even though it cannot start yet.
        assert_eq!(s.guarantee(JobId(1)), Some(SimTime::new(200)));
    }

    #[test]
    fn compression_under_fcfs_keeps_arrival_order() {
        let mut s = ConservativeScheduler::new(8, Policy::Fcfs);
        s.on_arrival(meta(0, 0, 1000, 8), SimTime::ZERO);
        s.on_arrival(meta(1, 1, 500, 8), SimTime::new(1));
        s.on_arrival(meta(2, 2, 100, 8), SimTime::new(2));
        let d = s.on_completion(JobId(0), SimTime::new(100));
        assert_eq!(
            d.starts,
            vec![JobId(1)],
            "FCFS compresses the earlier arrival first"
        );
    }

    #[test]
    fn accurate_estimates_never_compress() {
        // With exact completions there are no holes; guarantees are final.
        let mut s = ConservativeScheduler::new(4, Policy::XFactor);
        s.on_arrival(meta(0, 0, 100, 4), SimTime::ZERO);
        s.on_arrival(meta(1, 0, 100, 4), SimTime::ZERO);
        s.on_arrival(meta(2, 0, 100, 4), SimTime::ZERO);
        assert_eq!(s.guarantee(JobId(1)), Some(SimTime::new(100)));
        assert_eq!(s.guarantee(JobId(2)), Some(SimTime::new(200)));
        let d = s.on_completion(JobId(0), SimTime::new(100));
        assert_eq!(d.starts, vec![JobId(1)]);
        assert_eq!(s.guarantee(JobId(2)), Some(SimTime::new(200)));
    }

    #[test]
    fn queue_len_tracks_waiting_jobs() {
        let mut s = ConservativeScheduler::new(4, Policy::Fcfs);
        s.on_arrival(meta(0, 0, 100, 4), SimTime::ZERO);
        assert_eq!(s.queue_len(), 0);
        s.on_arrival(meta(1, 1, 100, 4), SimTime::new(1));
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
        let mut s = ConservativeScheduler::new(8, Policy::Fcfs);
        s.on_arrival(meta(0, 0, 100, 8), SimTime::ZERO); // starts; est_end 100
        let d = s.on_arrival(meta(1, 1, 50, 8), SimTime::new(1));
        assert_eq!(d.wakeup, Some(SimTime::new(100)));
        // Job 0 never completes by 150: job 1 is due but the machine is
        // still occupied when the (stale) wake fires.
        let d = s.on_wake(SimTime::new(150));
        assert!(d.starts.is_empty());
        assert_ne!(
            d.wakeup,
            Some(SimTime::new(150)),
            "same-instant wake-up after a wake-up would spin forever"
        );
        // Repeated wakes stay stable (no wake-up churn)...
        let d = s.on_wake(SimTime::new(151));
        assert!(d.starts.is_empty());
        assert_ne!(d.wakeup, Some(SimTime::new(151)));
        // ...and the eventual completion still starts the deferred job.
        let d = s.on_completion(JobId(0), SimTime::new(200));
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
        let mut s = ConservativeScheduler::new(8, Policy::Fcfs);
        s.on_arrival(meta(0, 0, 100, 4), SimTime::ZERO);
        s.on_arrival(meta(1, 0, 100, 4), SimTime::ZERO);
        let d = s.on_arrival(meta(2, 1, 50, 8), SimTime::new(1));
        assert_eq!(d.wakeup, Some(SimTime::new(100)));
        // First of two simultaneous completions: only 4 procs free, so the
        // due reservation defers with a same-instant retry.
        let d = s.on_completion(JobId(0), SimTime::new(100));
        assert!(d.starts.is_empty(), "only half the processors are free");
        assert_eq!(
            d.wakeup,
            Some(SimTime::new(100)),
            "retry once siblings complete"
        );
        // Second completion at the same instant: the job starts at exactly
        // its reserved time.
        let d = s.on_completion(JobId(1), SimTime::new(100));
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
        let mut s = ConservativeScheduler::new(8, Policy::Fcfs);
        s.on_arrival(meta(0, 0, 100, 8), SimTime::ZERO);
        s.on_arrival(meta(1, 1, 50, 8), SimTime::new(1)); // reserved [100,150)
                                                          // Job 0 overruns; its completion arrives at 120.
        let d = s.on_completion(JobId(0), SimTime::new(120));
        assert_eq!(
            d.starts,
            vec![JobId(1)],
            "starts late, at 120 > reserved 100"
        );
        // A new arrival while job 1 runs [120, 170): must defer to the free
        // gate even though the stale profile shows capacity from 150.
        let d = s.on_arrival(meta(2, 121, 10, 8), SimTime::new(121));
        assert!(d.starts.is_empty(), "no processors are physically free");
        let d = s.on_completion(JobId(1), SimTime::new(170));
        assert_eq!(d.starts, vec![JobId(2)]);
    }

    #[test]
    fn recorder_sees_reserves_and_compressions() {
        let mut s = ConservativeScheduler::new(8, Policy::Fcfs);
        let rec = obs::trace::shared(64);
        s.set_recorder(rec.clone());
        s.on_arrival(meta(0, 0, 1000, 8), SimTime::ZERO);
        s.on_arrival(meta(1, 1, 10, 8), SimTime::new(1)); // anchored at 1000
        s.on_completion(JobId(0), SimTime::new(400)); // hole: job 1 moves to 400
        let events = rec.borrow().events();
        let kinds: Vec<(u64, &TraceKind)> = events.iter().map(|e| (e.job, &e.kind)).collect();
        assert_eq!(kinds[0], (0, &TraceKind::Reserve { anchor: 0 }));
        assert_eq!(kinds[1], (1, &TraceKind::Reserve { anchor: 1000 }));
        assert_eq!(kinds[2], (1, &TraceKind::Compress { moved: 600 }));
        assert_eq!(events.len(), 3);
    }

    #[test]
    fn profile_stats_are_exposed_and_grow() {
        let mut s = ConservativeScheduler::new(8, Policy::Fcfs);
        s.on_arrival(meta(0, 0, 1000, 8), SimTime::ZERO);
        s.on_arrival(meta(1, 1, 10, 8), SimTime::new(1));
        let before = s.profile_stats().expect("conservative keeps a profile");
        assert!(before.find_anchor_calls >= 2);
        assert!(before.reserves >= 2);
        assert_eq!(before.compress_passes, 0);
        s.on_completion(JobId(0), SimTime::new(400)); // early → compress
        let after = s.profile_stats().unwrap();
        assert_eq!(after.compress_passes, 1);
        assert!(after.releases > before.releases);
    }
}
