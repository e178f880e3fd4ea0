//! The policy-ordered job lists of the schedulers' hot paths.
//!
//! Every scheduler keeps its waiting jobs in priority order, and the
//! original implementations re-established that order with a full
//! `Policy::sort` at **every** event. [`SchedQueue`] is the one structure
//! that keeps the order now — the EASY/Depth/Preempt and no-backfill
//! queues, selective backfilling's unreserved queue and the conservative
//! scheduler's reservation list all use it — with work proportional to
//! what changed, not to the queue's length:
//!
//! * **Appends.** [`SchedQueue::push`] appends. The next
//!   [`SchedQueue::prepare`] places each entry appended since the last
//!   pass by a galloping search from the back of the ordered prefix; a
//!   dirty-from index starts the pass at the first appended entry. A
//!   fresh arrival is usually in place already (FCFS always; under
//!   XFactor its expansion factor is the minimum, 1), which costs one
//!   comparison.
//! * **Certificates.** Under XFactor the order changes as jobs age. An
//!   expansion factor `1 + wait / estimate` is linear in time, so two
//!   jobs swap at most once: the one with the shorter estimate overtakes.
//!   A flat `u64` array beside the items holds, for each adjacent pair, a
//!   lower bound on the first whole second at which it flips
//!   ([`Policy::flip_time`], exact integer division; "never" for every
//!   pair under the static-key policies, whose comparator ignores time).
//!   An append writes "check now". A removal joins two pairs into one and
//!   writes the smaller of their two bounds: the joined pair stays in
//!   order while both halves do. A pass at `now` visits only the pairs
//!   whose bound is due: a pair still in order gets its exact
//!   certificate, an out-of-order entry walks left to its place, items
//!   and certificates rotate together, and at most three pairs are
//!   re-certified. With nothing appended and no bound due — a lower bound
//!   on all of them is kept — the pass returns at once.
//!
//! This is the kinetic sorted list of Basch, Guibas & Hershberger ("Data
//! structures for mobile data", J. Algorithms 1999), except that the
//! certificates sit in a flat array scanned once per pass instead of in a
//! heap: a deep XFactor cell crosses about a million pairs, and a heap
//! pop plus re-pushes per crossing, with positions tracked across the
//! deque's shifts, costs about what it would save.
//!
//! Between passes a list changes only by removals, which keep the order
//! of the rest, and appends, which wait at the back. The reservation list
//! is read in that stored order between its passes, and only its
//! compression passes call `prepare`.
//!
//! The order is total (ties break by arrival, then id), so the maintained
//! sequence is the unique one `Policy::sort` produces at `now`. Debug
//! builds assert it after every pass, together with every certificate
//! lying after `now`; the unit tests below and `tests/queue_order.rs` in
//! the core crate check it under churn.
//!
//! Dequeues come off a `VecDeque`: the schedulers' phase-1 "start from the
//! head while it fits" loop pops in O(1), and mid-queue removals cost
//! O(min(i, n − i)).

use crate::policy::Policy;
use crate::profile::ProfileStats;
use crate::scheduler::JobMeta;
use simcore::SimTime;
use std::cmp::Ordering;
use std::collections::VecDeque;

/// The certificate of a pair whose order never flips.
const NEVER: u64 = u64::MAX;

/// The certificate an append writes: due at any pass.
const CHECK_NOW: u64 = 0;

/// Queue-maintenance counters, the scheduler-level counterpart of
/// [`ProfileStats`]' profile-operation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueCounters {
    /// Entries appended.
    pub inserts: u64,
    /// [`SchedQueue::prepare`] passes that moved at least one entry.
    pub sorts: u64,
    /// [`SchedQueue::prepare`] passes that moved nothing.
    pub sorts_avoided: u64,
    /// Entries re-placed by passes: appended entries that did not belong
    /// at the back, and jobs an XFactor crossing moved.
    pub moves: u64,
}

impl QueueCounters {
    /// Fold these counters into a [`ProfileStats`] snapshot, the single
    /// aggregate the driver threads into reports and benches.
    pub fn merge_into(&self, stats: &mut ProfileStats) {
        stats.queue_inserts += self.inserts;
        stats.queue_sorts += self.sorts;
        stats.queue_sorts_avoided += self.sorts_avoided;
        stats.queue_moves += self.moves;
    }
}

/// An entry a [`SchedQueue`] can order: anything that carries the job it
/// queues.
pub trait Queued: Copy {
    /// The queued job, whose priority places the entry.
    fn job(&self) -> &JobMeta;
}

impl Queued for JobMeta {
    fn job(&self) -> &JobMeta {
        self
    }
}

/// A policy-ordered list of waiting jobs (see the module docs for the
/// maintenance contract).
///
/// The order observed through [`front`](SchedQueue::front)/indexing is
/// only guaranteed to match `Policy::sort` **after**
/// [`prepare`](SchedQueue::prepare) has been called for the current
/// instant; removals ([`pop_front`](SchedQueue::pop_front),
/// [`remove`](SchedQueue::remove)) keep the order of the rest, appends
/// wait at the back until the next `prepare`.
#[derive(Debug, Clone)]
pub struct SchedQueue<T = JobMeta> {
    policy: Policy,
    items: VecDeque<T>,
    /// `certs[i]` is a lower bound on the first whole second at which
    /// `items[i]` orders before `items[i − 1]`; `certs[0]` is [`NEVER`].
    certs: VecDeque<u64>,
    /// Entries from this index on were appended since the last pass.
    dirty_from: usize,
    /// A lower bound on `certs[1..dirty_from]`: while it lies after `now`,
    /// no placed pair is due.
    next_due: u64,
    /// The instant of the last pass; passes never go back in time.
    at: SimTime,
    counters: QueueCounters,
}

impl<T: Queued> SchedQueue<T> {
    /// An empty queue ordered by `policy`.
    pub fn new(policy: Policy) -> Self {
        SchedQueue {
            policy,
            items: VecDeque::new(),
            certs: VecDeque::new(),
            dirty_from: 0,
            next_due: NEVER,
            at: SimTime::ZERO,
            counters: QueueCounters::default(),
        }
    }

    /// The ordering policy.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// Number of queued entries.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Iterate the queue in its current order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }

    /// The queue in its current order as one contiguous slice, for scans
    /// that read many entries between two edits. Rotates the ring buffer
    /// when it wraps; the order is unchanged.
    pub(crate) fn make_contiguous(&mut self) -> &[T] {
        self.items.make_contiguous()
    }

    /// Operation counters since creation.
    pub fn counters(&self) -> QueueCounters {
        self.counters
    }

    /// Append an entry; the next [`prepare`](SchedQueue::prepare) places
    /// it.
    pub fn push(&mut self, entry: T) {
        self.counters.inserts += 1;
        let cert = if self.items.is_empty() {
            NEVER
        } else {
            CHECK_NOW
        };
        self.items.push_back(entry);
        self.certs.push_back(cert);
    }

    /// Bring the queue into priority order for the instant `now`: place
    /// the appended entries and re-place the jobs whose certificates are
    /// due. A pass with neither returns at once.
    pub fn prepare(&mut self, now: SimTime) {
        debug_assert!(
            now >= self.at,
            "queue pass at {now} after one at {}",
            self.at
        );
        self.at = now;
        let t = now.as_secs();
        let n = self.items.len();
        if self.dirty_from >= n && self.next_due > t {
            self.counters.sorts_avoided += 1;
            debug_assert!(self.certified(now), "maintained queue order diverged");
            return;
        }
        // A due placed pair can sit anywhere; otherwise only the appended
        // tail needs a look, and the prefix keeps its bound.
        let (start, mut next_due) = if self.next_due <= t {
            (1, NEVER)
        } else {
            (self.dirty_from.max(1), self.next_due)
        };
        let policy = self.policy;
        let items = self.items.make_contiguous();
        let certs = self.certs.make_contiguous();
        let mut moves = 0;
        // Insertion sort driven by the certificates: on entry to step `i`,
        // `items[..i]` is in order at `now`.
        for i in start..n {
            let due = certs[i];
            if due > t {
                next_due = next_due.min(due);
                continue;
            }
            let job = *items[i].job();
            if policy.compare(items[i - 1].job(), &job, now) == Ordering::Less {
                certs[i] = policy.flip_time(items[i - 1].job(), &job, now);
                next_due = next_due.min(certs[i]);
                continue;
            }
            let j = place(policy, items, i, now);
            items[j..=i].rotate_right(1);
            certs[j..=i].rotate_right(1);
            certs[j] = match j {
                0 => NEVER,
                _ => policy.flip_time(items[j - 1].job(), &job, now),
            };
            certs[j + 1] = policy.flip_time(&job, items[j + 1].job(), now);
            next_due = next_due.min(certs[j]).min(certs[j + 1]);
            // The entry's old neighbours are now adjacent: due at once,
            // so the next step checks them.
            if let Some(cert) = certs.get_mut(i + 1) {
                *cert = (*cert).min(due);
            }
            moves += 1;
        }
        self.dirty_from = n;
        self.next_due = next_due;
        self.counters.moves += moves;
        if moves > 0 {
            self.counters.sorts += 1;
        } else {
            self.counters.sorts_avoided += 1;
        }
        debug_assert!(self.certified(now), "maintained queue order diverged");
    }

    /// The highest-priority entry, if any (order as of the last
    /// `prepare`).
    pub fn front(&self) -> Option<&T> {
        self.items.front()
    }

    /// Dequeue the highest-priority entry in O(1).
    pub fn pop_front(&mut self) -> Option<T> {
        let entry = self.items.pop_front()?;
        self.certs.pop_front();
        if let Some(cert) = self.certs.front_mut() {
            *cert = NEVER;
        }
        self.dirty_from = self.dirty_from.saturating_sub(1);
        Some(entry)
    }

    /// Remove and return the entry at `index`, keeping the order of the
    /// rest (a backfill pick or a due start from the middle of the queue).
    pub fn remove(&mut self, index: usize) -> T {
        if index == 0 {
            return self.pop_front().expect("queue index out of bounds");
        }
        let entry = self.items.remove(index).expect("queue index out of bounds");
        let joined = self.certs.remove(index).expect("certificates track items");
        if let Some(cert) = self.certs.get_mut(index) {
            *cert = (*cert).min(joined);
        }
        if index < self.dirty_from {
            self.dirty_from -= 1;
        }
        entry
    }

    /// The queue as a plain vector in its current order (tests and
    /// differential references).
    pub fn to_vec(&self) -> Vec<T> {
        self.items.iter().copied().collect()
    }

    /// True when the whole queue is in order at `now` and every
    /// certificate lies after it.
    fn certified(&self, now: SimTime) -> bool {
        let t = now.as_secs();
        self.certs.front().is_none_or(|&c| c == NEVER)
            && self.certs.iter().skip(1).all(|&c| c > t)
            && self
                .items
                .iter()
                .zip(self.items.iter().skip(1))
                .all(|(a, b)| self.policy.compare(a.job(), b.job(), now) == Ordering::Less)
    }
}

/// Where `items[i]` belongs in `items[..i]`, which is in order at `now`
/// and whose last entry orders after it: the first index whose entry
/// orders after it. A galloping search from the back — 1, 2, 4, …
/// entries, then a binary search of the last stride — so a short move
/// costs about as many comparisons as it moves, and a long one
/// O(log distance).
fn place<T: Queued>(policy: Policy, items: &[T], i: usize, now: SimTime) -> usize {
    let job = items[i].job();
    let after = |k: usize| policy.compare(items[k].job(), job, now) == Ordering::Greater;
    let mut hi = i - 1;
    let mut lo = 0;
    let mut stride = 1;
    while stride <= hi {
        let k = hi - stride;
        if !after(k) {
            lo = k + 1;
            break;
        }
        hi = k;
        stride *= 2;
    }
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if after(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    hi
}

impl<T> std::ops::Index<usize> for SchedQueue<T> {
    type Output = T;

    fn index(&self, index: usize) -> &T {
        &self.items[index]
    }
}

/// Mutable access to an entry's payload. The entry's job must not change:
/// the order and the certificates rest on it.
impl<T> std::ops::IndexMut<usize> for SchedQueue<T> {
    fn index_mut(&mut self, index: usize) -> &mut T {
        &mut self.items[index]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::{JobId, SimSpan};

    const ALL: [Policy; 5] = [
        Policy::Fcfs,
        Policy::Sjf,
        Policy::XFactor,
        Policy::Ljf,
        Policy::WidestFirst,
    ];

    fn meta(id: u32, arrival: u64, estimate: u64, width: u32) -> JobMeta {
        JobMeta {
            id: JobId(id),
            arrival: SimTime::new(arrival),
            estimate: SimSpan::new(estimate),
            width,
        }
    }

    fn jobs() -> Vec<JobMeta> {
        vec![
            meta(0, 0, 500, 8),
            meta(1, 5, 100, 2),
            meta(2, 5, 100, 2), // id tie-break with 1
            meta(3, 9, 7_000, 64),
            meta(4, 12, 1, 1),
            meta(5, 40, 100, 16),
        ]
    }

    #[test]
    fn maintained_order_matches_policy_sort_under_churn() {
        for policy in ALL {
            let mut q = SchedQueue::new(policy);
            let mut reference: Vec<JobMeta> = Vec::new();
            let mut now = SimTime::ZERO;
            for (step, job) in jobs().into_iter().enumerate() {
                now = job.arrival;
                q.push(job);
                reference.push(job);
                q.prepare(now);
                policy.sort(&mut reference, now);
                assert_eq!(q.to_vec(), reference, "{policy} diverged at step {step}");
                // Churn: pop the head every other step, like phase-1 starts.
                if step % 2 == 1 {
                    let popped = q.pop_front().unwrap();
                    assert_eq!(popped, reference.remove(0), "{policy} popped wrong head");
                }
            }
            // Later instant: re-prepare must match a fresh sort.
            now += SimSpan::new(10_000);
            q.prepare(now);
            policy.sort(&mut reference, now);
            assert_eq!(q.to_vec(), reference, "{policy} diverged after aging");
        }
    }

    #[test]
    fn mid_queue_removal_preserves_order() {
        for policy in ALL {
            let mut q = SchedQueue::new(policy);
            for job in jobs() {
                q.push(job);
            }
            let now = SimTime::new(100);
            q.prepare(now);
            let mut reference = q.to_vec();
            let removed = q.remove(2);
            assert_eq!(removed, reference.remove(2));
            assert_eq!(q.to_vec(), reference, "{policy} reordered on removal");
            assert_eq!(q.len(), 5);
            assert_eq!(q.front(), reference.first());
        }
    }

    #[test]
    fn sorts_count_only_passes_that_move_entries() {
        // SJF: an arrival that lands ahead of the back is one move.
        let mut q = SchedQueue::new(Policy::Sjf);
        for job in jobs() {
            q.push(job);
            q.prepare(SimTime::new(50));
        }
        let c = q.counters();
        assert_eq!(c.inserts, 6);
        // Estimates 500, 100, 100, 7000, 1, 100: only job 3 lands at the
        // back, and job 0 has nothing to pass.
        assert_eq!((c.sorts, c.sorts_avoided, c.moves), (4, 2, 4));

        let mut q = SchedQueue::new(Policy::XFactor);
        for job in jobs() {
            q.push(job);
        }
        q.prepare(SimTime::new(50)); // places the appended six
        let placed = q.counters();
        assert_eq!(placed.sorts, 1);
        q.pop_front(); // removals keep the order valid...
        q.prepare(SimTime::new(50)); // ...so the same instant moves nothing
        q.push(meta(9, 50, 10_000, 1)); // a fresh arrival (xf 1) joins at the back
        q.prepare(SimTime::new(50));
        let c = q.counters();
        assert_eq!(c.sorts, 1);
        assert_eq!(c.sorts_avoided, 2);
        assert_eq!(c.moves, placed.moves);
    }

    #[test]
    fn appended_entries_merge_into_policy_order_from_any_start() {
        // Many jobs appended in reverse priority order take long gallops;
        // the rotated ones mix short and long moves.
        let many: Vec<JobMeta> = (0..40u32)
            .map(|i| {
                meta(
                    i,
                    (i as u64 * 7) % 23,
                    (i as u64 * 131) % 900 + 1,
                    i % 9 + 1,
                )
            })
            .collect();
        for policy in ALL {
            for now_s in [23u64, 40, 5_000] {
                let now = SimTime::new(now_s);
                for (base, rotate) in [(jobs(), 0), (jobs(), 3), (many.clone(), 0)] {
                    let mut reference = base.clone();
                    policy.sort(&mut reference, now);
                    let mut start = base;
                    start.rotate_left(rotate);
                    for start in [start, reference.iter().rev().copied().collect()] {
                        let mut q = SchedQueue::new(policy);
                        for &job in &start {
                            q.push(job);
                        }
                        q.prepare(now);
                        assert_eq!(q.to_vec(), reference, "{policy} diverged at now={now_s}");
                        let moved = q.counters().moves > 0;
                        assert_eq!(moved, start != reference, "{policy}: moves miscounted");
                        // Already in order: a second pass moves nothing.
                        q.prepare(now);
                        assert_eq!(q.counters().sorts, u64::from(moved));
                    }
                }
            }
        }
    }

    #[test]
    fn crossings_are_replayed_at_their_certificates() {
        // Long job 0 leads at first; the short jobs overtake it as they
        // age (xf = 1 + wait / estimate): job 1 at t = 102, jobs 2 and 3
        // at t = 104. Jobs 2 and 3 are equal and never swap.
        let setup = || {
            let mut q = SchedQueue::new(Policy::XFactor);
            q.push(meta(0, 0, 10_000, 1));
            q.push(meta(1, 100, 100, 1));
            q.push(meta(2, 100, 300, 1));
            q.push(meta(3, 100, 300, 1));
            q.prepare(SimTime::new(100));
            q
        };
        let ids = |q: &SchedQueue| q.iter().map(|j| j.id.0).collect::<Vec<_>>();

        let mut q = setup();
        assert_eq!(ids(&q), vec![0, 1, 2, 3]);
        let mut reference = q.to_vec();
        for t in 101..=110 {
            let now = SimTime::new(t);
            q.prepare(now);
            Policy::XFactor.sort(&mut reference, now);
            assert_eq!(q.to_vec(), reference, "diverged at {now}");
        }
        assert_eq!(ids(&q), vec![1, 2, 3, 0]);
        let c = q.counters();
        assert_eq!(
            (c.moves, c.sorts),
            (3, 2),
            "one crossing at 102, two at 104"
        );

        // One coarse step: all three crossings fall due in one pass.
        let mut q = setup();
        let before = q.counters();
        q.prepare(SimTime::new(10_000));
        assert_eq!(ids(&q), vec![1, 2, 3, 0]);
        let c = q.counters();
        assert_eq!((c.moves - before.moves, c.sorts - before.sorts), (3, 1));
    }

    #[test]
    fn removal_joins_certificates_into_a_lower_bound() {
        // Job 2 overtakes job 0 at t = 51; jobs 2 and 1 have equal
        // estimates and never swap. Removing job 2 joins the pairs (0, 2)
        // and (2, 1): the crossing of 1 past 0 (t = 63) must stay visible.
        let mut q = SchedQueue::new(Policy::XFactor);
        q.push(meta(0, 0, 5_000, 1));
        q.push(meta(2, 40, 1_000, 1));
        q.push(meta(1, 50, 1_000, 1));
        q.prepare(SimTime::new(50));
        let ids: Vec<u32> = q.iter().map(|j| j.id.0).collect();
        assert_eq!(ids, vec![0, 2, 1], "0 and 2 tie at t = 50; 0 arrived first");
        q.remove(1);
        let now = SimTime::new(100_000);
        q.prepare(now);
        let ids: Vec<u32> = q.iter().map(|j| j.id.0).collect();
        assert_eq!(ids, vec![1, 0]);
    }

    #[test]
    fn counters_fold_into_profile_stats() {
        let mut stats = ProfileStats {
            queue_inserts: 5,
            ..Default::default()
        };
        QueueCounters {
            inserts: 2,
            sorts: 3,
            sorts_avoided: 4,
            moves: 6,
        }
        .merge_into(&mut stats);
        assert_eq!(stats.queue_inserts, 7);
        assert_eq!(stats.queue_sorts, 3);
        assert_eq!(stats.queue_sorts_avoided, 4);
        assert_eq!(stats.queue_moves, 6);
    }

    #[test]
    fn empty_queue_is_well_behaved() {
        let mut q: SchedQueue = SchedQueue::new(Policy::XFactor);
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert_eq!(q.front(), None);
        assert_eq!(q.pop_front(), None);
        q.prepare(SimTime::ZERO);
        assert_eq!(q.to_vec(), Vec::new());
    }
}
