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
//!   count of the appended tail starts the pass at the first of them. A
//!   fresh arrival is usually in place already (FCFS always; under
//!   XFactor its expansion factor is the minimum, 1), which costs one
//!   comparison.
//! * **Certificates.** Under XFactor the order changes as jobs age. An
//!   expansion factor `1 + wait / estimate` is linear in time, so two
//!   jobs swap at most once: the one with the shorter estimate overtakes.
//!   Each entry carries a lower bound on the first whole second at which
//!   it and its predecessor flip ([`Policy::flip_time`], exact integer
//!   division; "never" for every pair under the static-key policies, whose
//!   comparator ignores time). An append writes "check now". A removal
//!   joins two pairs into one and writes the smaller of their two bounds:
//!   the joined pair stays in order while both halves do. A pass at `now`
//!   visits only the pairs whose bound is due: a pair still in order gets
//!   its exact certificate, an out-of-order entry moves left to its place
//!   with its certificate, and at most three pairs are re-certified. With
//!   nothing appended and no bound due — a lower bound on all of them is
//!   kept — the pass returns at once.
//!
//! This is the kinetic sorted list of Basch, Guibas & Hershberger ("Data
//! structures for mobile data", J. Algorithms 1999), except that the
//! certificates are read in list order instead of popped from a heap.
//!
//! **Blocks.** The entries sit in one `Vec` of blocks of at most 64, in
//! order. An append fills the last block or opens a new one, an insertion
//! into a full block splits it in two, a removal that leaves a block and
//! the next with 48 entries or fewer merges them, and a block a removal
//! empties is dropped; the blocks' storage is reused, so a queue
//! allocates it about once, at its deepest. A removal shifts the shorter
//! side of its block, so a dequeue only advances the head block's start.
//! Most paper-sized queues fit one block, where each operation is the
//! flat array's. Each block summarises its entries with lower bounds: the
//! earliest [`Queued::due`] instant, the narrowest width and the shortest
//! estimate among the entries with a positive estimate, whether any
//! estimate is zero, and the smallest certificate. Appends, merges and
//! due-instant writes lower them; a removal of an entry that may hold one
//! of the minima only marks the block stale, and a stale summary is still
//! a lower bound. Each scan of the schedulers reads a block's entries
//! only when its summary cannot prove that none of them passes the scan's
//! first O(1) tests: `prepare` passes over blocks whose certificates all
//! lie after `now`, and the due-start, compression and backfill scans
//! over blocks with nothing due, nothing narrow enough or nothing short
//! enough (DESIGN.md §11.1). A summary is made exact only where that pays:
//! the due-start scan before it folds a passed-over block's earliest start
//! into the wake-up, the one walker every other scan uses on its second
//! full read of a stale block, and a pass as it leaves a block. A scan
//! walks the queue with [`Pos`] cursors; a removal leaves the positions
//! before it valid and the removed one naming its successor.
//!
//! Between passes a list changes only by removals, which keep the order
//! of the rest, and appends, which wait at the back. The reservation list
//! is read in that stored order between its passes, and only its
//! compression passes call `prepare`.
//!
//! The order is total (ties break by arrival, then id), so the maintained
//! sequence is the unique one `Policy::sort` produces at `now`. Debug
//! builds assert it after every pass, together with every certificate
//! lying after `now`, and check each block a mutation touches against its
//! entries; the unit tests below and `tests/queue_order.rs` in the core
//! crate check it under churn.

use crate::policy::Policy;
use crate::profile::ProfileStats;
use crate::scheduler::JobMeta;
use simcore::{SimSpan, SimTime};
use std::cmp::Ordering;

/// The certificate of a pair whose order never flips.
const NEVER: u64 = u64::MAX;

/// The certificate an append writes: due at any pass.
const CHECK_NOW: u64 = 0;

/// Entries a block holds at most.
const BLOCK: usize = 64;

/// A removal merges a block with the next when the two hold this many
/// entries or fewer: well short of [`BLOCK`], so the two halves of a
/// split lose a quarter of a block before they join again.
const MERGE: usize = BLOCK * 3 / 4;

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

    /// The instant the entry falls due: a reservation's start. Each block
    /// keeps a lower bound on the minimum, so a scan can pass over a block
    /// whose entries all fall due after `now` without reading them.
    /// Default: never.
    fn due(&self) -> SimTime {
        SimTime::FAR_FUTURE
    }
}

impl Queued for JobMeta {
    fn job(&self) -> &JobMeta {
        self
    }
}

/// What every entry of a block satisfies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Summary {
    /// At most the earliest [`Queued::due`] instant, and
    /// [`SimTime::FAR_FUTURE`] (never) at the latest.
    min_due: SimTime,
    /// At most the narrowest width among the entries with a positive
    /// estimate.
    min_width: u32,
    /// At most the shortest positive estimate.
    min_estimate: SimSpan,
    /// Set when some entry may have a zero estimate.
    zero_estimate: bool,
}

impl Summary {
    /// The summary of no entries.
    const NONE: Summary = Summary {
        min_due: SimTime::FAR_FUTURE,
        min_width: u32::MAX,
        min_estimate: SimSpan::new(u64::MAX),
        zero_estimate: false,
    };

    fn add<T: Queued>(&mut self, entry: &T) {
        self.min_due = self.min_due.min(due_of(entry));
        let job = entry.job();
        if job.estimate.is_zero() {
            self.zero_estimate = true;
        } else {
            self.min_width = self.min_width.min(job.width);
            self.min_estimate = self.min_estimate.min(job.estimate);
        }
    }

    /// True when `entry` may hold one of the minima: once it leaves,
    /// they are only lower bounds.
    fn rests_on<T: Queued>(&self, entry: &T) -> bool {
        let (due, job) = (due_of(entry), entry.job());
        (due == self.min_due && due < SimTime::FAR_FUTURE)
            || job.estimate.is_zero()
            || job.width == self.min_width
            || job.estimate == self.min_estimate
    }

    /// The summary of two blocks' entries together.
    fn join(&self, other: &Summary) -> Summary {
        Summary {
            min_due: self.min_due.min(other.min_due),
            min_width: self.min_width.min(other.min_width),
            min_estimate: self.min_estimate.min(other.min_estimate),
            zero_estimate: self.zero_estimate || other.zero_estimate,
        }
    }

    fn of<T: Queued>(entries: &[T]) -> Summary {
        let mut sum = Summary::NONE;
        for entry in entries {
            sum.add(entry);
        }
        sum
    }

    /// True when no entry passes a start-now scan's O(1) tests at `now`:
    /// every entry is wider than `cap`, or every window — from `now` to
    /// the earlier of the entry's due instant after `now` and `now` plus
    /// its estimate — ends past the zero `horizon`, once known. A zero
    /// estimate passes both, so a block holding one is always read.
    pub(crate) fn rules_out(&self, now: SimTime, cap: u32, horizon: Option<SimTime>) -> bool {
        if self.zero_estimate {
            return false;
        }
        let earliest_end = (self.min_due.max(now + SimSpan::SECOND)).min(now + self.min_estimate);
        self.min_width > cap || horizon.is_some_and(|h| earliest_end > h)
    }
}

/// How far a block's summary may lie below its entries' minima.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Freshness {
    /// The summary is exact.
    Exact,
    /// An entry that may have held one of the minima left, or a due
    /// instant rose, since the summary was computed: the minima are lower
    /// bounds (and the zero flag may be set in vain), still good for
    /// passing the block over.
    Stale,
    /// Stale, and a scan has since read the block to its end without
    /// accepting an entry. The next such read summarises the block
    /// afresh: a block that stays unchanged between two scans is likely
    /// to be passed over by later ones, while one that changes at every
    /// event (the head of a shallow queue) would cost a summary per read.
    Read,
}

/// A block's bookkeeping; its entries and certificates live in a
/// [`Slab`].
#[derive(Debug, Clone, Copy)]
struct Block {
    sum: Summary,
    /// How far the summary may lie from the entries'.
    fresh: Freshness,
    /// A lower bound on the block's certificates: while it lies after
    /// `now`, no pair ending in the block is due.
    min_cert: u64,
    /// The first slot in use: removing the block's first entry only
    /// advances it.
    start: usize,
    /// Entries in use, 1..=[`BLOCK`], from `start` on.
    len: usize,
    /// Index of the block's storage in `SchedQueue::slabs`.
    slab: usize,
}

impl Block {
    /// The slots in use.
    #[inline]
    fn live(&self) -> std::ops::Range<usize> {
        self.start..self.start + self.len
    }
}

/// A block's storage: the block's `live()` slots of each array are in use.
/// `certs[k]` is a lower bound on the first whole second at which
/// `items[k]` orders before the entry ahead of it in the queue; the
/// queue's head carries [`NEVER`].
#[derive(Debug, Clone)]
struct Slab<T> {
    items: [T; BLOCK],
    certs: [u64; BLOCK],
}

/// A place in a [`SchedQueue`]: a block and a slot in it. A slot one past
/// a block's last entry stands for the next block's first
/// ([`SchedQueue::seek`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Pos {
    pub(crate) block: usize,
    pub(crate) slot: usize,
}

impl Pos {
    /// The head of the queue.
    pub(crate) const HEAD: Pos = Pos { block: 0, slot: 0 };

    /// The place after this one.
    pub(crate) fn next(self) -> Pos {
        Pos {
            block: self.block,
            slot: self.slot + 1,
        }
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
    /// The blocks in queue order; none is empty.
    blocks: Vec<Block>,
    /// Every block's storage, in use or not.
    slabs: Vec<Slab<T>>,
    /// Indices of the slabs no block uses.
    spare: Vec<usize>,
    len: usize,
    /// The last `pending` entries were appended since the last pass.
    pending: usize,
    /// A lower bound on the certificates of the entries before the
    /// appended tail: while it lies after `now`, no placed pair is due.
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
            blocks: Vec::new(),
            slabs: Vec::new(),
            spare: Vec::new(),
            len: 0,
            pending: 0,
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
        self.len
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterate the queue in its current order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.blocks.iter().flat_map(|b| self.items(b))
    }

    /// Operation counters since creation.
    pub fn counters(&self) -> QueueCounters {
        self.counters
    }

    /// Append an entry; the next [`prepare`](SchedQueue::prepare) places
    /// it.
    #[inline]
    pub fn push(&mut self, entry: T) {
        self.counters.inserts += 1;
        self.pending += 1;
        let cert = if self.len == 0 { NEVER } else { CHECK_NOW };
        if let Some(block) = self.blocks.last_mut() {
            let k = block.start + block.len;
            if k < BLOCK {
                // Room after the last entry.
                let slab = &mut self.slabs[block.slab];
                slab.items[k] = entry;
                slab.certs[k] = cert;
                block.len += 1;
                block.sum.add(&entry);
                block.min_cert = block.min_cert.min(cert);
                self.len += 1;
                return;
            }
        }
        if self.blocks.last().is_none_or(|b| b.len == BLOCK) {
            let block = self.new_block(entry);
            self.blocks.push(block);
        }
        let last = self.blocks.len() - 1;
        self.insert_into(last, self.blocks[last].len, entry, cert);
    }

    /// Bring the queue into priority order for the instant `now`: place
    /// the appended entries and re-place the jobs whose certificates are
    /// due. A pass with neither returns at once; a pass reads only the
    /// blocks holding a due certificate.
    pub fn prepare(&mut self, now: SimTime) {
        debug_assert!(
            now >= self.at,
            "queue pass at {now} after one at {}",
            self.at
        );
        self.at = now;
        let t = now.as_secs();
        if self.next_due > t {
            self.certify_appended(now);
            if self.pending == 0 {
                self.counters.sorts_avoided += 1;
                debug_assert!(self.certified(now), "maintained queue order diverged");
                return;
            }
        }
        // A due placed pair can sit anywhere; otherwise only the appended
        // tail needs a look, and the prefix keeps its bound.
        let (mut at, mut next_due) = if self.next_due <= t {
            (Pos::HEAD, NEVER)
        } else {
            (self.pending_tail(), self.next_due)
        };
        let mut moves = 0;
        // A lower bound on the certificates ahead of `at` in its block.
        let mut prefix = next_due;
        // Insertion sort driven by the certificates: every entry ahead of
        // `at` is in order at `now`.
        while let Some(block) = self.blocks.get(at.block) {
            if at.slot == 0 {
                if block.min_cert > t {
                    next_due = next_due.min(block.min_cert);
                    at.block += 1;
                    continue;
                }
                prefix = NEVER;
            }
            at = match self.pass_block(at, prefix, now, &mut moves) {
                Ok(bound) => {
                    next_due = next_due.min(bound);
                    Pos {
                        block: at.block + 1,
                        slot: 0,
                    }
                }
                Err((from, due, bound)) => {
                    moves += 1;
                    prefix = bound;
                    next_due = next_due.min(bound);
                    self.relocate(from, due, now, &mut next_due)
                }
            };
        }
        self.pending = 0;
        self.next_due = next_due;
        self.counters.moves += moves;
        if moves > 0 {
            self.counters.sorts += 1;
        } else {
            self.counters.sorts_avoided += 1;
        }
        debug_assert!(self.certified(now), "maintained queue order diverged");
    }

    /// `prepare`'s common case, when no placed pair is due: certify the
    /// appended entries that already order behind the entry ahead of them,
    /// from the first on, while they share the last block with a placed
    /// entry. Stops at the first that needs a move, and leaves it and the
    /// rest appended.
    fn certify_appended(&mut self, now: SimTime) {
        let Some(block) = self.blocks.last_mut() else {
            return;
        };
        if self.pending == 0 || self.pending >= block.len {
            return;
        }
        let policy = self.policy;
        let slab = &mut self.slabs[block.slab];
        let (items, certs) = (&slab.items[block.live()], &mut slab.certs[block.live()]);
        // Every placed certificate lies at or after `next_due`.
        let mut bound = self.next_due;
        let mut k = block.len - self.pending;
        while let Some(entry) = items.get(k) {
            let (prev, job) = (items[k - 1].job(), entry.job());
            if policy.compare(prev, job, now) != Ordering::Less {
                break;
            }
            certs[k] = policy.flip_time(prev, job, now);
            bound = bound.min(certs[k]);
            k += 1;
        }
        self.pending = block.len - k;
        self.next_due = bound;
        if self.pending == 0 {
            // Each of the block's certificates is placed now.
            block.min_cert = bound;
        }
    }

    /// `prepare`'s steps over one block, from `from` to its end: certify
    /// each due pair still in order, and move each out-of-order entry whose
    /// place lies in the block, counting it in `moves`. `prefix` bounds the
    /// certificates of the block's entries ahead of `from` from below. Stops
    /// at the first entry whose place lies in an earlier block, returning
    /// it with its certificate, for [`relocate`](Self::relocate), and a
    /// lower bound on the certificates ahead of it. Otherwise returns the
    /// block's new certificate bound: the lowest certificate read or
    /// written, all of them after `now`.
    #[allow(clippy::type_complexity)]
    fn pass_block(
        &mut self,
        from: Pos,
        prefix: u64,
        now: SimTime,
        moves: &mut u64,
    ) -> Result<u64, (Pos, u64, u64)> {
        let t = now.as_secs();
        let policy = self.policy;
        let b = from.block;
        // The entry ahead of the block's first.
        let ahead = b.checked_sub(1).map(|p| {
            let block = &self.blocks[p];
            *self.slabs[block.slab].items[block.start + block.len - 1].job()
        });
        let block = &mut self.blocks[b];
        let slab = &mut self.slabs[block.slab];
        let (items, certs) = (&mut slab.items[block.live()], &mut slab.certs[block.live()]);
        // The lowest certificate ahead of `k`, read or written.
        let mut lowest = prefix;
        let mut carry = None;
        for k in from.slot..items.len() {
            let due = certs[k];
            if due > t {
                lowest = lowest.min(due);
                continue;
            }
            let entry = items[k];
            let job = *entry.job();
            let prev_job = match k {
                0 => ahead.expect("the head is never due"),
                _ => *items[k - 1].job(),
            };
            if policy.compare(&prev_job, &job, now) == Ordering::Less {
                certs[k] = policy.flip_time(&prev_job, &job, now);
                lowest = lowest.min(certs[k]);
                continue;
            }
            let after = |other: &JobMeta| policy.compare(other, &job, now) == Ordering::Greater;
            // The place of the first entry ahead in the block that orders
            // after it, unless that is the block's first and the entry
            // ahead of the block orders after it too.
            let to = match k {
                0 => 0,
                _ => first_after(k - 1, |s| after(items[s].job())),
            };
            if to == 0 && (k == 0 || ahead.as_ref().is_some_and(after)) {
                block.min_cert = block.min_cert.min(lowest);
                return Err((Pos { block: b, slot: k }, due, lowest));
            }
            let first = match to {
                0 => ahead.map_or(NEVER, |a| policy.flip_time(&a, &job, now)),
                _ => policy.flip_time(items[to - 1].job(), &job, now),
            };
            let second = policy.flip_time(&job, items[to].job(), now);
            items.copy_within(to..k, to + 1);
            certs.copy_within(to..k, to + 1);
            items[to] = entry;
            certs[to] = first;
            certs[to + 1] = second;
            lowest = lowest.min(first).min(second);
            // The entry's old neighbours are now adjacent: due at once,
            // so the next step checks them.
            match certs.get_mut(k + 1) {
                Some(cert) => *cert = (*cert).min(due),
                None => carry = Some(due),
            }
            *moves += 1;
        }
        block.min_cert = lowest;
        if let Some(due) = carry.filter(|_| b + 1 < self.blocks.len()) {
            let next = Pos {
                block: b + 1,
                slot: 0,
            };
            let joined = self.cert(next).min(due);
            self.set_cert(next, joined);
        }
        Ok(lowest)
    }

    /// Move the entry at `from`, which orders ahead of the entry before
    /// its block, to its place in an earlier block; certify its two new
    /// pairs and make the pair its old neighbours now form due at once,
    /// so the pass checks it next. Returns where the pass goes on: the
    /// entry that followed the moved one.
    fn relocate(&mut self, from: Pos, due: u64, now: SimTime, next_due: &mut u64) -> Pos {
        let policy = self.policy;
        let to = self.place(from, now);
        let entry = *self.get(from);
        let job = *entry.job();
        let ahead = match self.before(to) {
            None => NEVER,
            Some(p) => policy.flip_time(self.get(p).job(), &job, now),
        };
        let behind = policy.flip_time(&job, self.get(to).job(), now);
        *next_due = (*next_due).min(ahead).min(behind);
        let (_, dropped) = self.take(from);
        let mut next = if dropped {
            Pos {
                block: from.block,
                slot: 0,
            }
        } else {
            from
        };
        let (placed, split) = self.insert_at(to, entry, ahead);
        if split {
            next.block += 1;
        }
        let after = self
            .seek(placed.next())
            .expect("the moved entry passed one");
        self.set_cert(after, behind);
        if let Some(next) = self.seek(next) {
            let joined = self.cert(next).min(due);
            self.set_cert(next, joined);
        }
        next
    }

    /// Where the entry at `from` belongs, given that the entry before its
    /// block orders after it: the place of the first entry that orders
    /// after it. Galloping searches from the back — over the blocks' first
    /// entries, then within the block found — cost O(log distance)
    /// comparisons.
    fn place(&self, from: Pos, now: SimTime) -> Pos {
        let job = self.get(from).job();
        let after = |entry: &T| self.policy.compare(entry.job(), job, now) == Ordering::Greater;
        let block = first_after(from.block, |b| after(&self.items(&self.blocks[b])[0]));
        if block == 0 {
            return Pos::HEAD;
        }
        let items = self.items(&self.blocks[block - 1]);
        match first_after(items.len(), |k| after(&items[k])) {
            slot if slot < items.len() => Pos {
                block: block - 1,
                slot,
            },
            _ => Pos { block, slot: 0 },
        }
    }

    /// The highest-priority entry, if any (order as of the last
    /// `prepare`).
    #[inline]
    pub fn front(&self) -> Option<&T> {
        self.blocks
            .first()
            .map(|b| &self.slabs[b.slab].items[b.start])
    }

    /// Dequeue the highest-priority entry.
    #[inline]
    pub fn pop_front(&mut self) -> Option<T> {
        let block = self.blocks.first_mut()?;
        if block.len == 1 || self.pending == self.len {
            // The block empties, or the head is an appended entry.
            return Some(self.remove_at(Pos::HEAD));
        }
        // The head block keeps entries: advance its start, and the next
        // entry heads the queue.
        let slab = &mut self.slabs[block.slab];
        let entry = slab.items[block.start];
        block.start += 1;
        block.len -= 1;
        slab.certs[block.start] = NEVER;
        if block.sum.rests_on(&entry) {
            block.fresh = Freshness::Stale;
        }
        self.len -= 1;
        self.debug_check(0);
        Some(entry)
    }

    /// Remove and return the entry at `index`, keeping the order of the
    /// rest.
    pub fn remove(&mut self, index: usize) -> T {
        assert!(index < self.len, "queue index out of bounds");
        self.remove_at(self.pos_of(index))
    }

    /// Apply `edit` to the entry at `index`. The entry's job must not
    /// change: the order and the certificates rest on it.
    pub fn update(&mut self, index: usize, edit: impl FnOnce(&mut T)) {
        assert!(index < self.len, "queue index out of bounds");
        self.update_at(self.pos_of(index), edit);
    }

    /// The number of entries in each block, in queue order (tests).
    pub fn block_lens(&self) -> impl Iterator<Item = usize> + '_ {
        self.blocks.iter().map(|b| b.len)
    }

    /// The queue as a plain vector in its current order (tests and
    /// differential references).
    pub fn to_vec(&self) -> Vec<T> {
        self.iter().copied().collect()
    }

    /// The entry at `at`, which must name one.
    #[inline]
    pub(crate) fn get(&self, at: Pos) -> &T {
        let block = &self.blocks[at.block];
        debug_assert!(at.slot < block.len, "no entry at {at:?}");
        &self.slabs[block.slab].items[block.start + at.slot]
    }

    /// The place of the entry at `index` (one past the last block's end
    /// when `index` is the length).
    pub(crate) fn pos_of(&self, mut index: usize) -> Pos {
        for (b, block) in self.blocks.iter().enumerate() {
            if index < block.len {
                return Pos {
                    block: b,
                    slot: index,
                };
            }
            index -= block.len;
        }
        Pos {
            block: self.blocks.len(),
            slot: 0,
        }
    }

    /// The entry place `at` stands for, or `None` past the end.
    #[inline]
    fn seek(&self, at: Pos) -> Option<Pos> {
        let block = self.blocks.get(at.block)?;
        if at.slot < block.len {
            Some(at)
        } else {
            (at.block + 1 < self.blocks.len()).then_some(Pos {
                block: at.block + 1,
                slot: 0,
            })
        }
    }

    /// The first entry at or after `at`, in order, that `hit` accepts,
    /// passing over unread each whole block whose summary `idle` rules
    /// out (`|_| false` reads every entry). A stale summary is a lower
    /// bound and rules out no more than the exact one: a stale block it
    /// leaves in is read, and summarised afresh on its second read to its
    /// end with no entry accepted.
    pub(crate) fn find(
        &mut self,
        mut at: Pos,
        mut idle: impl FnMut(&Summary) -> bool,
        mut hit: impl FnMut(&T) -> bool,
    ) -> Option<Pos> {
        loop {
            if at.slot == 0 {
                let blocks = self.blocks.get(at.block..)?;
                at.block += blocks.iter().position(|b| !idle(&b.sum))?;
            }
            let block = self.blocks.get(at.block)?;
            if let Some(k) = self.items(block)[at.slot..].iter().position(&mut hit) {
                return Some(Pos {
                    block: at.block,
                    slot: at.slot + k,
                });
            }
            match block.fresh {
                Freshness::Exact => {}
                Freshness::Stale => self.blocks[at.block].fresh = Freshness::Read,
                Freshness::Read => self.resummarize(at.block),
            }
            at = Pos {
                block: at.block + 1,
                slot: 0,
            };
        }
    }

    /// The number of blocks.
    pub(crate) fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Block `b`'s entries, in order.
    pub(crate) fn entries(&self, b: usize) -> &[T] {
        self.items(&self.blocks[b])
    }

    /// The earliest due instant of block `b`'s entries, if it lies after
    /// `now`; `None` when some entry may be due. A stale summary is made
    /// exact before its instant is returned.
    pub(crate) fn due_after(&mut self, b: usize, now: SimTime) -> Option<SimTime> {
        if self.blocks[b].sum.min_due <= now {
            return None;
        }
        if self.blocks[b].fresh != Freshness::Exact {
            self.resummarize(b);
        }
        Some(self.blocks[b].sum.min_due)
    }

    /// Remove and return the entry at `at`, keeping the order of the
    /// rest. Places ahead of `at` stay valid, and `at` names the entry
    /// that followed the removed one.
    #[inline]
    pub(crate) fn remove_at(&mut self, at: Pos) -> T {
        if self.in_pending_tail(at) {
            self.pending -= 1;
        }
        let ((entry, cert), dropped) = self.take(at);
        let next = if dropped {
            Pos {
                block: at.block,
                slot: 0,
            }
        } else {
            at
        };
        if let Some(next) = self.seek(next) {
            let joined = if at == Pos::HEAD {
                NEVER
            } else {
                self.cert(next).min(cert)
            };
            self.set_cert(next, joined);
        }
        entry
    }

    /// Apply `edit` to the entry at `at`, which must keep its job; the
    /// block's summary follows its due instant (stale if it rose).
    pub(crate) fn update_at(&mut self, at: Pos, edit: impl FnOnce(&mut T)) {
        let block = &mut self.blocks[at.block];
        let items = &mut self.slabs[block.slab].items[block.live()];
        let entry = &mut items[at.slot];
        let (job, was) = (*entry.job(), due_of(entry));
        edit(entry);
        debug_assert_eq!(*entry.job(), job, "an update changed the queued job");
        let due = due_of(entry);
        if due < block.sum.min_due {
            block.sum.min_due = due;
        } else if was == block.sum.min_due && due > was {
            block.fresh = Freshness::Stale;
        }
        self.debug_check(at.block);
    }

    #[inline]
    fn items(&self, block: &Block) -> &[T] {
        &self.slabs[block.slab].items[block.live()]
    }

    #[inline]
    fn cert(&self, at: Pos) -> u64 {
        let block = &self.blocks[at.block];
        self.slabs[block.slab].certs[block.start + at.slot]
    }

    /// Write the certificate of the entry at `at`, lowering its block's
    /// bound to it.
    #[inline]
    fn set_cert(&mut self, at: Pos, cert: u64) {
        let block = &mut self.blocks[at.block];
        self.slabs[block.slab].certs[block.start + at.slot] = cert;
        block.min_cert = block.min_cert.min(cert);
    }

    /// The place of the entry ahead of `at`, if any.
    fn before(&self, at: Pos) -> Option<Pos> {
        if at.slot > 0 {
            Some(Pos {
                block: at.block,
                slot: at.slot - 1,
            })
        } else {
            let block = at.block.checked_sub(1)?;
            Some(Pos {
                block,
                slot: self.blocks[block].len - 1,
            })
        }
    }

    /// The place of the first entry of the appended tail, found from the
    /// back.
    #[inline]
    fn pending_tail(&self) -> Pos {
        let mut behind = self.pending;
        for (b, block) in self.blocks.iter().enumerate().rev() {
            if behind <= block.len {
                return Pos {
                    block: b,
                    slot: block.len - behind,
                };
            }
            behind -= block.len;
        }
        Pos::HEAD
    }

    /// True when the entry at `at` is one of the appended tail.
    #[inline]
    fn in_pending_tail(&self, at: Pos) -> bool {
        if self.pending == 0 {
            return false;
        }
        let mut behind = self.blocks[at.block].len - at.slot - 1;
        for block in &self.blocks[at.block + 1..] {
            if behind >= self.pending {
                return false;
            }
            behind += block.len;
        }
        behind < self.pending
    }

    /// An empty block on a free slab, which `filler` initialises when a
    /// new one is needed.
    fn new_block(&mut self, filler: T) -> Block {
        let slab = self.spare.pop().unwrap_or_else(|| {
            self.slabs.push(Slab {
                items: [filler; BLOCK],
                certs: [NEVER; BLOCK],
            });
            self.slabs.len() - 1
        });
        Block {
            sum: Summary::NONE,
            fresh: Freshness::Exact,
            min_cert: NEVER,
            start: 0,
            len: 0,
            slab,
        }
    }

    /// Put `entry` with certificate `cert` into block `b` at `slot`,
    /// which has room, lowering the block's summaries to it.
    #[inline]
    fn insert_into(&mut self, b: usize, slot: usize, entry: T, cert: u64) {
        let block = &mut self.blocks[b];
        let slab = &mut self.slabs[block.slab];
        if block.start + block.len == BLOCK {
            // No room after the entries: move them to the front.
            slab.items.copy_within(block.live(), 0);
            slab.certs.copy_within(block.live(), 0);
            block.start = 0;
        }
        // Shift the shorter side that has room (empty copies skipped: each
        // is a call).
        if block.start > 0 && slot < block.len / 2 {
            if slot > 0 {
                let head = block.start..block.start + slot;
                slab.items.copy_within(head.clone(), block.start - 1);
                slab.certs.copy_within(head, block.start - 1);
            }
            block.start -= 1;
        } else if slot < block.len {
            let tail = block.start + slot..block.start + block.len;
            slab.items.copy_within(tail.clone(), block.start + slot + 1);
            slab.certs.copy_within(tail, block.start + slot + 1);
        }
        slab.items[block.start + slot] = entry;
        slab.certs[block.start + slot] = cert;
        block.len += 1;
        block.sum.add(&entry);
        block.min_cert = block.min_cert.min(cert);
        self.len += 1;
        self.debug_check(b);
    }

    /// Insert `entry` ahead of the entry at `at`: at the end of the block
    /// before when `at` opens its block and that one has room, else into
    /// `at`'s block, splitting it when full. Returns the entry's place and
    /// whether a split shifted the blocks after `at`'s.
    fn insert_at(&mut self, mut at: Pos, entry: T, cert: u64) -> (Pos, bool) {
        if at.slot == 0 && at.block > 0 && self.blocks[at.block - 1].len < BLOCK {
            at = Pos {
                block: at.block - 1,
                slot: self.blocks[at.block - 1].len,
            };
        }
        let split = self.blocks[at.block].len == BLOCK;
        if split {
            self.split(at.block);
            if at.slot > BLOCK / 2 {
                at = Pos {
                    block: at.block + 1,
                    slot: at.slot - BLOCK / 2,
                };
            }
        }
        self.insert_into(at.block, at.slot, entry, cert);
        (at, split)
    }

    /// Split the full block `b`: its upper half becomes block `b + 1`.
    fn split(&mut self, b: usize) {
        let filler = *self.get(Pos { block: b, slot: 0 });
        let mut upper = self.new_block(filler);
        debug_assert_eq!(
            self.blocks[b].start, 0,
            "a full block starts at its first slot"
        );
        let (from, to) = two_slabs_mut(&mut self.slabs, self.blocks[b].slab, upper.slab);
        to.items[..BLOCK / 2].copy_from_slice(&from.items[BLOCK / 2..]);
        to.certs[..BLOCK / 2].copy_from_slice(&from.certs[BLOCK / 2..]);
        upper.len = BLOCK / 2;
        self.blocks[b].len = BLOCK / 2;
        upper.min_cert = self.blocks[b].min_cert;
        self.blocks.insert(b + 1, upper);
        self.resummarize(b);
        self.resummarize(b + 1);
    }

    /// Recompute block `b`'s summary from its entries.
    fn resummarize(&mut self, b: usize) {
        let block = &mut self.blocks[b];
        block.sum = Summary::of(&self.slabs[block.slab].items[block.live()]);
        block.fresh = Freshness::Exact;
        self.debug_check(b);
    }

    /// Take the entry at `at` and its certificate out of its block,
    /// dropping the block if that empties it (reported as the second
    /// value) and merging the next block into it if the two then hold
    /// [`MERGE`] entries or fewer. Either way `at` names the entry that
    /// followed the taken one, and every place ahead of it stays valid.
    /// The successor's certificate is the caller's to join.
    #[inline]
    fn take(&mut self, at: Pos) -> ((T, u64), bool) {
        let block = &mut self.blocks[at.block];
        let slab = &mut self.slabs[block.slab];
        let k = block.start + at.slot;
        let taken = (slab.items[k], slab.certs[k]);
        // Close the gap from the shorter side (empty copies skipped: each
        // is a call).
        if at.slot < block.len / 2 {
            if at.slot > 0 {
                slab.items.copy_within(block.start..k, block.start + 1);
                slab.certs.copy_within(block.start..k, block.start + 1);
            }
            block.start += 1;
        } else if at.slot + 1 < block.len {
            let tail = k + 1..block.start + block.len;
            slab.items.copy_within(tail.clone(), k);
            slab.certs.copy_within(tail, k);
        }
        block.len -= 1;
        self.len -= 1;
        if block.len == 0 {
            self.spare.push(block.slab);
            self.blocks.remove(at.block);
            return (taken, true);
        }
        if block.sum.rests_on(&taken.0) {
            block.fresh = Freshness::Stale;
        }
        let len = self.blocks[at.block].len;
        if self
            .blocks
            .get(at.block + 1)
            .is_some_and(|next| len + next.len <= MERGE)
        {
            self.merge_next(at.block);
        }
        (taken, false)
    }

    /// Append block `b + 1`'s entries to block `b` and drop it.
    fn merge_next(&mut self, b: usize) {
        let next = self.blocks.remove(b + 1);
        let block = &mut self.blocks[b];
        let (from, to) = two_slabs_mut(&mut self.slabs, next.slab, block.slab);
        if block.start + block.len + next.len > BLOCK {
            to.items.copy_within(block.live(), 0);
            to.certs.copy_within(block.live(), 0);
            block.start = 0;
        }
        let end = block.start + block.len;
        to.items[end..end + next.len].copy_from_slice(&from.items[next.live()]);
        to.certs[end..end + next.len].copy_from_slice(&from.certs[next.live()]);
        block.len += next.len;
        block.sum = block.sum.join(&next.sum);
        if next.fresh != Freshness::Exact {
            block.fresh = Freshness::Stale;
        }
        block.min_cert = block.min_cert.min(next.min_cert);
        self.spare.push(next.slab);
        self.debug_check(b);
    }

    /// Debug builds: block `b` holds 1..=BLOCK entries, its summary is
    /// theirs (a bound, where stale) and its certificate bound lies at or
    /// below each of theirs.
    fn debug_check(&self, b: usize) {
        if cfg!(debug_assertions) {
            let block = &self.blocks[b];
            assert!(
                (1..=BLOCK).contains(&block.len),
                "block {b} holds {}",
                block.len
            );
            let slab = &self.slabs[block.slab];
            let exact = Summary::of(&slab.items[block.live()]);
            let (sum, bounds) = (block.sum, |s: &Summary| {
                s.min_due <= exact.min_due
                    && s.min_width <= exact.min_width
                    && s.min_estimate <= exact.min_estimate
                    && (s.zero_estimate || !exact.zero_estimate)
            });
            assert!(
                if block.fresh != Freshness::Exact {
                    bounds(&sum)
                } else {
                    sum == exact
                },
                "block {b}'s summary {sum:?} does not bound its entries' {exact:?}"
            );
            assert!(
                slab.certs[block.live()]
                    .iter()
                    .all(|&c| c >= block.min_cert),
                "block {b}'s certificate bound lies above a certificate"
            );
        }
    }

    /// True when the whole queue is in order at `now`, every certificate
    /// lies after it and every block's summaries hold.
    fn certified(&self, now: SimTime) -> bool {
        let t = now.as_secs();
        for b in 0..self.blocks.len() {
            self.debug_check(b);
        }
        let mut certs = self
            .blocks
            .iter()
            .flat_map(|b| &self.slabs[b.slab].certs[b.live()]);
        self.blocks.iter().map(|b| b.len).sum::<usize>() == self.len
            && certs.next().is_none_or(|&c| c == NEVER)
            && certs.all(|&c| c > t)
            && self
                .iter()
                .zip(self.iter().skip(1))
                .all(|(a, b)| self.policy.compare(a.job(), b.job(), now) == Ordering::Less)
    }
}

/// The clamped due instant of `entry`: instants at or past
/// [`SimTime::FAR_FUTURE`] all mean never.
fn due_of<T: Queued>(entry: &T) -> SimTime {
    entry.due().min(SimTime::FAR_FUTURE)
}

/// Slabs `a` and `b`, two distinct slabs, to write.
fn two_slabs_mut<T>(slabs: &mut [Slab<T>], a: usize, b: usize) -> (&mut Slab<T>, &mut Slab<T>) {
    if a < b {
        let (head, tail) = slabs.split_at_mut(b);
        (&mut head[a], &mut tail[0])
    } else {
        let (head, tail) = slabs.split_at_mut(a);
        (&mut tail[0], &mut head[b])
    }
}

/// The first index `s <= n` from which `after` holds up to `n`, for an
/// `after` that, over `0..n`, holds on a suffix. A galloping search from
/// the back — 1, 2, 4, … indices, then a binary search of the last
/// stride — so a short suffix costs about as many probes as it is long,
/// and a long one O(log length).
fn first_after(n: usize, after: impl Fn(usize) -> bool) -> usize {
    let mut hi = n;
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

impl<T: Queued> std::ops::Index<usize> for SchedQueue<T> {
    type Output = T;

    fn index(&self, index: usize) -> &T {
        assert!(index < self.len, "queue index out of bounds");
        self.get(self.pos_of(index))
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
