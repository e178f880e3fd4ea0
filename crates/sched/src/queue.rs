//! Incrementally maintained priority queues for the event-loop hot path.
//!
//! Every scheduler keeps its waiting jobs in priority order, and the
//! original implementations re-established that order with a full
//! `Policy::sort` at **every** event — O(n log n) comparisons per arrival,
//! completion and wake-up, with `Policy::xfactor` recomputed inside every
//! single comparison. [`SchedQueue`] replaces that with work proportional
//! to what actually changed:
//!
//! * **Static-key policies** (FCFS, SJF, LJF, WidestFirst): the comparator
//!   ignores `now`, so a job's relative priority never changes while it
//!   waits. The queue stays permanently sorted — each arrival is placed by
//!   binary search ([`SchedQueue::push`]) and [`SchedQueue::prepare`]
//!   becomes a counted no-op. Because the order is *total* (ties break by
//!   arrival then id), the sorted sequence of any job set is unique, so
//!   the incrementally maintained order is exactly what `Policy::sort`
//!   would produce.
//! * **XFactor** is time-dependent (jobs age at different rates), so a
//!   sort per distinct event instant is unavoidable — but the key is a
//!   pure function of `(job, now)`, so it is computed **once per job**
//!   into a cache and [`repair_order`] restores the order in place over
//!   the cached keys (the total order makes any correct sort safe). Repeat
//!   events at the same instant reuse the existing order when nothing was
//!   inserted in between.
//!
//! [`repair_order`] is also how the conservative and selective schedulers
//! re-order their reservation lists on each compression pass.
//!
//! Dequeues come off a `VecDeque`: the schedulers' phase-1 "start from the
//! head while it fits" loop pops in O(1) where `Vec::remove(0)` shifted
//! the whole queue, and mid-queue backfill removals cost
//! O(min(i, n − i)).
//!
//! The maintained order is asserted against `Policy::sort` in debug
//! builds, by the unit tests below, and by the cross-policy property test
//! (`tests/queue_order.rs` in the core crate) that drives arrivals,
//! starts and completions through both representations in lockstep.

use crate::policy::Policy;
use crate::profile::ProfileStats;
use crate::scheduler::JobMeta;
use simcore::SimTime;
use std::cmp::Ordering;
use std::collections::VecDeque;

/// Queue-maintenance counters, the scheduler-level counterpart of
/// [`ProfileStats`]' profile-operation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueCounters {
    /// Jobs enqueued (binary-search insertions for static-key policies).
    pub inserts: u64,
    /// Full sorts actually performed (XFactor re-keys once per instant).
    pub sorts: u64,
    /// [`SchedQueue::prepare`] calls that reused the maintained order.
    pub sorts_avoided: u64,
}

impl QueueCounters {
    /// Fold these counters into a [`ProfileStats`] snapshot, the single
    /// aggregate the driver threads into reports and benches.
    pub fn merge_into(&self, stats: &mut ProfileStats) {
        stats.queue_inserts += self.inserts;
        stats.queue_sorts += self.sorts;
        stats.queue_sorts_avoided += self.sorts_avoided;
    }
}

/// A policy-ordered queue of waiting jobs (see the module docs for the
/// incremental-maintenance contract).
///
/// The order observed through [`front`](SchedQueue::front)/indexing is
/// only guaranteed to match `Policy::sort` **after**
/// [`prepare`](SchedQueue::prepare) has been called for the current
/// instant; removals ([`pop_front`](SchedQueue::pop_front),
/// [`remove`](SchedQueue::remove)) preserve it, insertions under XFactor
/// invalidate it until the next `prepare`.
#[derive(Debug, Clone)]
pub struct SchedQueue {
    policy: Policy,
    items: VecDeque<JobMeta>,
    /// Key and fallback-sort buffers for [`repair_order`], reused across
    /// events so the per-event allocation disappears once the queue stops
    /// growing.
    scratch: OrderScratch<JobMeta>,
    /// The instant the queue was last sorted for (XFactor only): a repeat
    /// `prepare` at the same instant with no interleaved insertion reuses
    /// the order (keys are a pure function of `(job, now)`).
    sorted_at: Option<SimTime>,
    counters: QueueCounters,
}

impl SchedQueue {
    /// An empty queue ordered by `policy`.
    pub fn new(policy: Policy) -> Self {
        SchedQueue {
            policy,
            items: VecDeque::new(),
            scratch: OrderScratch::default(),
            sorted_at: None,
            counters: QueueCounters::default(),
        }
    }

    /// The ordering policy.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// Number of queued jobs.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Iterate the queue in its current order.
    pub fn iter(&self) -> impl Iterator<Item = &JobMeta> {
        self.items.iter()
    }

    /// Operation counters since creation.
    pub fn counters(&self) -> QueueCounters {
        self.counters
    }

    /// Enqueue a job. Static-key policies place it directly at its sorted
    /// position (binary search + shift); XFactor appends and defers
    /// ordering to the next [`prepare`](SchedQueue::prepare).
    pub fn push(&mut self, job: JobMeta) {
        self.counters.inserts += 1;
        if self.policy == Policy::XFactor {
            self.items.push_back(job);
            self.sorted_at = None;
        } else {
            // First index whose job orders strictly after the newcomer;
            // `compare` ignores `now` for static-key policies, and the
            // total order (arrival/id tie-breaks) makes the position — and
            // hence the whole sequence — identical to a full sort.
            let idx = self.items.partition_point(|q| {
                self.policy.compare(q, &job, SimTime::ZERO) != Ordering::Greater
            });
            self.items.insert(idx, job);
        }
    }

    /// Establish priority order for the instant `now`. No-op for
    /// static-key policies (the order is maintained by `push`) and for
    /// repeat calls at an unchanged instant; otherwise one cached-key sort.
    pub fn prepare(&mut self, now: SimTime) {
        if self.policy != Policy::XFactor || self.sorted_at == Some(now) {
            self.counters.sorts_avoided += 1;
            debug_assert!(self.is_sorted(now), "maintained queue order diverged");
            return;
        }
        // A pair of waiting jobs swaps XFactor rank at most once (their
        // keys are lines in `now`, crossing at one instant), and a fresh
        // arrival's key is the global minimum 1.0, so it is appended
        // already in place: the order from the previous event is almost
        // sorted, which is the case `repair_order` is built for.
        repair_order(
            self.items.make_contiguous(),
            self.policy,
            now,
            &mut self.scratch,
            |j| *j,
        );
        self.sorted_at = Some(now);
        self.counters.sorts += 1;
    }

    /// The highest-priority job, if any (order as of the last `prepare`).
    pub fn front(&self) -> Option<&JobMeta> {
        self.items.front()
    }

    /// Dequeue the highest-priority job in O(1).
    pub fn pop_front(&mut self) -> Option<JobMeta> {
        self.items.pop_front()
    }

    /// Remove and return the job at `index`, preserving the order of the
    /// rest (a backfill pick from the middle of the queue).
    pub fn remove(&mut self, index: usize) -> JobMeta {
        self.items.remove(index).expect("queue index out of bounds")
    }

    /// The queue as a plain vector in its current order (tests and
    /// differential references).
    pub fn to_vec(&self) -> Vec<JobMeta> {
        self.items.iter().copied().collect()
    }

    fn is_sorted(&self, now: SimTime) -> bool {
        self.items
            .iter()
            .zip(self.items.iter().skip(1))
            .all(|(a, b)| self.policy.compare(a, b, now) != Ordering::Greater)
    }
}

impl std::ops::Index<usize> for SchedQueue {
    type Output = JobMeta;

    fn index(&self, index: usize) -> &JobMeta {
        &self.items[index]
    }
}

/// Reusable buffers for [`repair_order`]: the per-entry keys and the
/// fallback sort's keyed copy. Their contents never affect the order.
#[derive(Debug, Clone)]
pub struct OrderScratch<T> {
    keys: Vec<f64>,
    sorted: Vec<(f64, T)>,
}

impl<T> Default for OrderScratch<T> {
    fn default() -> Self {
        OrderScratch {
            keys: Vec::new(),
            sorted: Vec::new(),
        }
    }
}

impl<T> OrderScratch<T> {
    /// True once a call has sized the buffers, so the next call reuses
    /// them instead of allocating.
    pub fn is_warm(&self) -> bool {
        self.keys.capacity() > 0
    }
}

/// Bring `items` into `policy` order at `now`, in place, and report
/// whether any entry moved.
///
/// Each entry's [`Policy::key`] is computed once into `scratch`, so the
/// XFactor order costs one expansion factor per entry, not two per
/// comparison. An insertion sort over the cached keys then repairs the
/// order in O(n + inversions): the callers' sequences are almost sorted
/// already (a few appended arrivals, or XFactor ranks that cross between
/// two instants), so this is usually one linear pass with no copy. Past a
/// swap budget of `8n + 64` — heavy churn — it falls back to one
/// `sort_unstable_by` over a keyed copy. The order is total (ties break by
/// arrival, then id), so either path yields the unique sequence
/// `sort_by(Policy::compare)` would.
pub fn repair_order<T: Copy>(
    items: &mut [T],
    policy: Policy,
    now: SimTime,
    scratch: &mut OrderScratch<T>,
    meta: impl Fn(&T) -> JobMeta,
) -> bool {
    let keys = &mut scratch.keys;
    keys.clear();
    keys.extend(items.iter().map(|t| policy.key(&meta(t), now)));
    let n = items.len();
    let budget = 8 * n + 64;
    let mut swaps = 0usize;
    for i in 1..n {
        let mut j = i;
        while j > 0
            && policy.compare_keyed(&meta(&items[j]), keys[j], &meta(&items[j - 1]), keys[j - 1])
                == Ordering::Less
        {
            items.swap(j - 1, j);
            keys.swap(j - 1, j);
            swaps += 1;
            if swaps > budget {
                // `keys` stayed aligned with `items` through the partial
                // repair, so the fallback sorts the same (key, entry) pairs.
                let sorted = &mut scratch.sorted;
                sorted.clear();
                sorted.extend(keys.iter().copied().zip(items.iter().copied()));
                sorted.sort_unstable_by(|a, b| {
                    policy.compare_keyed(&meta(&a.1), a.0, &meta(&b.1), b.0)
                });
                for (slot, &(_, t)) in items.iter_mut().zip(sorted.iter()) {
                    *slot = t;
                }
                return true;
            }
            j -= 1;
        }
    }
    swaps > 0
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
    fn static_policies_never_sort_and_xfactor_reuses_same_instant_order() {
        let mut q = SchedQueue::new(Policy::Sjf);
        for job in jobs() {
            q.push(job);
            q.prepare(SimTime::new(50));
        }
        let c = q.counters();
        assert_eq!(c.inserts, 6);
        assert_eq!(c.sorts, 0, "static-key policies must never sort");
        assert_eq!(c.sorts_avoided, 6);

        let mut q = SchedQueue::new(Policy::XFactor);
        for job in jobs() {
            q.push(job);
        }
        q.prepare(SimTime::new(50));
        q.pop_front(); // removals keep the order valid...
        q.prepare(SimTime::new(50)); // ...so the same instant re-sorts nothing
        q.prepare(SimTime::new(60)); // a new instant re-keys
        q.push(meta(9, 60, 10, 1)); // an insertion invalidates even the same instant
        q.prepare(SimTime::new(60));
        let c = q.counters();
        assert_eq!(c.sorts, 3);
        assert_eq!(c.sorts_avoided, 1);
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
        }
        .merge_into(&mut stats);
        assert_eq!(stats.queue_inserts, 7);
        assert_eq!(stats.queue_sorts, 3);
        assert_eq!(stats.queue_sorts_avoided, 4);
    }

    #[test]
    fn repair_order_matches_policy_compare_sort() {
        #[derive(Debug, Clone, Copy, PartialEq)]
        struct Entry {
            meta: JobMeta,
            payload: u64,
        }
        // Many jobs, so the reversed start overruns the swap budget and
        // takes the fallback sort; the others stay within the repair.
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
            for now_s in [0u64, 40, 5_000] {
                let now = SimTime::new(now_s);
                for (base, rotate) in [(jobs(), 0), (jobs(), 3), (many.clone(), 0)] {
                    let mut entries: Vec<Entry> = base
                        .into_iter()
                        .map(|m| Entry {
                            meta: m,
                            payload: m.id.0 as u64 * 31,
                        })
                        .collect();
                    entries.rotate_left(rotate);
                    let mut reference = entries.clone();
                    reference.sort_by(|a, b| policy.compare(&a.meta, &b.meta, now));
                    for start in [entries.clone(), reference.iter().rev().copied().collect()] {
                        let mut got = start.clone();
                        let mut scratch = OrderScratch::default();
                        let moved = repair_order(&mut got, policy, now, &mut scratch, |e| e.meta);
                        assert_eq!(got, reference, "{policy} diverged at now={now_s}");
                        assert_eq!(moved, start != reference, "{policy}: moved flag wrong");
                        // Already in order: a second repair moves nothing.
                        assert!(!repair_order(&mut got, policy, now, &mut scratch, |e| e.meta));
                        assert!(scratch.is_warm() || got.is_empty());
                    }
                }
            }
        }
    }

    #[test]
    fn empty_queue_is_well_behaved() {
        let mut q = SchedQueue::new(Policy::XFactor);
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert_eq!(q.front(), None);
        assert_eq!(q.pop_front(), None);
        q.prepare(SimTime::ZERO);
        assert_eq!(q.to_vec(), Vec::new());
    }
}
