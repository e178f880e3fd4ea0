//! The availability profile — the scheduler's "2D chart".
//!
//! The paper describes scheduling as a chart with time on one axis and
//! processors on the other; each job or reservation is a rectangle.
//! [`Profile`] is that chart's free-capacity silhouette: a stepwise
//! function from time to the number of free processors, represented as a
//! sorted list of segments. The final segment extends to infinity.
//!
//! Everything the backfilling schedulers do reduces to three operations:
//!
//! * [`Profile::find_anchor`] — the earliest instant at or after a given
//!   time where a `width × duration` rectangle fits ("where can this job's
//!   reservation go?");
//! * [`Profile::reserve`] — carve the rectangle out;
//! * [`Profile::release`] — put capacity back (cancelled reservation, or
//!   the unused tail of an over-estimated job that finished early).
//!
//! # The chunked layout
//!
//! Segments are stored by value, in time order, in fixed-capacity
//! **chunks** of [`Profile::CHUNK_SEGMENTS`] segments held in one flat
//! `Vec<Chunk>`. Each chunk also carries the minimum and maximum free
//! level of its segments; these summaries are the profile's only index. A
//! profile is therefore two levels: a handful of chunks, each a short
//! sorted run of segments.
//!
//! The anchor search needs two primitives, both "scan the rest of this
//! chunk, then leap":
//!
//! * *next feasible* — the first segment at or after a position with
//!   `free >= width`: after the current chunk, chunks whose `max < width`
//!   are skipped whole;
//! * *next blocker* — the first segment at or after a position with
//!   `free < width` that opens before a window's end: chunks whose
//!   `min >= width` are skipped whole, and the search stops as soon as a
//!   chunk opens at or past the window's end.
//!
//! A leap walks the chunk summaries forward, reading no segment, until a
//! chunk can match. (A min/max segment tree over the summaries once made
//! each leap a descent; leaps were rare and short, and the descents read
//! more than the walk does — DESIGN.md §14.) `find_anchor` alternates the
//! two primitives (establish a candidate, look for the blocker inside its
//! window, restart past the blocker), and `free_at` is a binary search
//! over chunk starts plus one inside the chunk.
//!
//! `fits` asks a narrower question — does a window opening at `from`
//! stay at or above `width`? — and answers it from a memo of the prefix
//! minimum from `from`, a staircase of a few drops that is read lazily,
//! segment by segment, only as far as the queries against it reach (see
//! `FitsCache`). A mutation or a new left edge resets the memo with one
//! `locate`; nothing is rebuilt eagerly. `zero_horizon` runs the blocker
//! search at width 1 to find the first instant with no free processor:
//! no window of positive length that ends past it can `fit`, which lets
//! the schedulers' start-now scans reject most jobs without a probe.
//!
//! A mutation edits at most a few chunks in place: a boundary insert or
//! a coalescing removal shifts the segments of one chunk (≤ one chunk's
//! worth of 16-byte moves), a reserve/release rewrites the levels of the
//! chunks it spans, and `trim_before` shifts the surviving segments of
//! its first chunk down. Each edited chunk refreshes its own summary;
//! nothing else is derived from them. A full chunk splits in two, and a
//! chunk emptied by coalescing or trimming is dropped. Chunks are plain
//! `Copy` arrays, so cloning a profile is a memcpy of the chunk vector.
//!
//! The plain segment-by-segment scan lives in test support
//! (`tests/support/mod.rs`, over [`Profile::segments`]); differential
//! property tests (`tests/profile_differential.rs`) assert it and
//! [`Profile::find_anchor`] agree decision-for-decision (against a naive
//! quadratic reference as well).
//!
//! # Instrumentation
//!
//! Every profile keeps cheap operation counters ([`ProfileStats`]): anchor
//! probes, segments visited by in-chunk scans and by the `fits` memo's
//! reads, chunk leaps and the summaries they read, mutations that changed
//! a summary or the chunk count, reserve/release counts, fits-memo hits
//! and resets, and the peak segment count. Schedulers expose them
//! via [`crate::Scheduler::profile_stats`] and the driver threads them into
//! the final [`Schedule`](../core) for reports and benches.
//!
//! Invariants (checked by `debug_assert` internally and by property tests):
//! segments are strictly ordered in time, free counts stay within
//! `[0, capacity]`, adjacent segments always differ (coalesced), no chunk
//! is empty, and every chunk summary equals a from-scratch refresh.

use serde::{Deserialize, Serialize};
use simcore::{SimSpan, SimTime};
use std::cell::{Cell, OnceCell, RefCell};

/// One step of the free-capacity silhouette: `free` processors are
/// available from `start` until the next segment's start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// When this level of availability begins.
    pub start: SimTime,
    /// Free processors over the segment.
    pub free: u32,
}

/// Segments per chunk (see [`Profile::CHUNK_SEGMENTS`]).
const CHUNK: usize = 32;

/// A run of up to [`CHUNK`] consecutive segments, stored by value, plus
/// the minimum and maximum free level over them.
#[derive(Debug, Clone, Copy)]
struct Chunk {
    /// Live segments: `segs[..len]`; the rest is unused padding.
    len: u32,
    min: u32,
    max: u32,
    segs: [Segment; CHUNK],
}

impl Chunk {
    const EMPTY: Chunk = Chunk {
        len: 0,
        min: u32::MAX,
        max: 0,
        segs: [Segment {
            start: SimTime::ZERO,
            free: 0,
        }; CHUNK],
    };

    #[inline]
    fn len(&self) -> usize {
        self.len as usize
    }

    #[inline]
    fn live(&self) -> &[Segment] {
        &self.segs[..self.len()]
    }

    #[inline]
    fn first_start(&self) -> SimTime {
        self.segs[0].start
    }

    /// Recompute the summary from the live segments; true if it changed.
    fn refresh(&mut self) -> bool {
        let (min, max) = self.live().iter().fold((u32::MAX, 0), |(lo, hi), s| {
            (lo.min(s.free), hi.max(s.free))
        });
        let changed = (min, max) != (self.min, self.max);
        self.min = min;
        self.max = max;
        changed
    }

    /// Insert `seg` at `i` (room required); true if the summary changed.
    fn insert(&mut self, i: usize, seg: Segment) -> bool {
        let len = self.len();
        debug_assert!(len < CHUNK && i <= len);
        self.segs.copy_within(i..len, i + 1);
        self.segs[i] = seg;
        self.len += 1;
        let changed = seg.free < self.min || seg.free > self.max;
        self.min = self.min.min(seg.free);
        self.max = self.max.max(seg.free);
        changed
    }

    /// Remove the segment at `i`; true if the summary changed.
    fn remove(&mut self, i: usize) -> bool {
        let (gone, len) = (self.segs[i].free, self.len());
        self.segs.copy_within(i + 1..len, i);
        self.len -= 1;
        (gone == self.min || gone == self.max) && self.refresh()
    }
}

/// A segment's place in the chunked layout: chunk `c`, slot `i`. A
/// position one past the final segment has `c == chunks.len()`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Pos {
    c: usize,
    i: usize,
}

const ORIGIN: Pos = Pos { c: 0, i: 0 };

/// Where the position one past the final segment "opens": later than any
/// window end (`SimTime` addition saturates at `u64::MAX`), so a fully
/// read `FitsCache` never reads on.
const READ_ALL: SimTime = SimTime::new(u64::MAX);

/// What a mutation did to the chunk layout: changed some chunk's summary,
/// or changed the chunk count (a split, or an emptied chunk dropped).
#[derive(Default)]
struct Touched {
    summary: bool,
    structural: bool,
}

/// Work done by one query, flushed into the `Cell` counters once per call
/// so the interior-mutability bookkeeping stays off the scan loops.
#[derive(Default)]
struct Work {
    visited: u64,
    leaps: u64,
    leap_reads: u64,
}

/// The prefix-minimum staircase of one left edge, read lazily: the memo
/// behind [`Profile::fits`].
///
/// Backfill and compression passes ask `fits` the same-shaped question
/// hundreds of times per event — "does a rectangle starting at `now`
/// fit?" — and the answer is "is the minimum free level over
/// `[from, from + duration)` at least `width`?". That prefix minimum only
/// falls as the window grows, so it is a staircase: a handful of *drops*
/// (the segments that set a new minimum), each recorded here as the
/// segment itself. In a saturated system it reaches level 0 within a
/// few dozen segments of `from`, however long the profile is.
///
/// The memo reads segments only as far as a query needs. It keeps its
/// read position `next` (the first unread segment), the `horizon` where
/// that segment opens ([`READ_ALL`] once every segment is read), and the
/// minimum `min` over `[from, horizon)` — the level of the last drop. A
/// query ending at or before the horizon is a lookup among the drops; a
/// query no wider than `min` there is `true` in O(1). A query ending past
/// the horizon reads on, and stops at its end or at the first level below
/// its width. A reset (after a mutation, or at a new left edge) costs one
/// `locate`.
///
/// The memo lives inside its profile, and every mutation clears it
/// ([`Profile::after_mutation`]): an empty memo holds no drops, and every
/// reset records at least one. That also guards the read position: `next`
/// indexes the chunks, so it is only meaningful against the silhouette it
/// was read from. A memo carried along by [`Profile::clone`] describes the
/// clone's identical silhouette, and either copy's mutation clears only
/// its own.
#[derive(Debug, Clone, Default)]
struct FitsCache {
    /// Query left edge the staircase is anchored at.
    from: SimTime,
    /// The drops, in time order with strictly falling levels. The first
    /// is the level at `from` (its `start` is `from` itself); each later
    /// one is the segment that set a new minimum. Empty when the memo is
    /// clear.
    drops: Vec<Segment>,
    /// First unread segment.
    next: Pos,
    /// Where `next` opens: everything before it is read.
    horizon: SimTime,
    /// Minimum free level over `[from, horizon)`: the last drop's level.
    min: u32,
}

impl FitsCache {
    /// Re-anchor the staircase at `from` against `profile`'s current
    /// silhouette, with nothing past the host segment read yet.
    fn reset(&mut self, profile: &Profile, from: SimTime) {
        self.from = from;
        // The window opens in the segment hosting `from`, or in the
        // implicit fully-free prefix before the first boundary.
        let (level, next) = match profile.locate(from) {
            None => (profile.capacity, ORIGIN),
            Some(host) => (profile.at(host).free, profile.succ(host)),
        };
        self.drops.clear();
        self.drops.push(Segment {
            start: from,
            free: level,
        });
        self.min = level;
        self.next = next;
        self.horizon = profile.start_of(next);
    }

    /// Whether a `width`-wide rectangle over `[from, end)` fits, reading
    /// segments past the horizon only while the answer is still open.
    /// Segments read are added to `visited`.
    fn admits(&mut self, profile: &Profile, end: SimTime, width: u32, visited: &mut u64) -> bool {
        if self.min < width {
            // A drop below `width` has been read: the window fits iff it
            // closes by the first such drop.
            let k = self.drops.partition_point(|d| d.free >= width);
            return end <= self.drops[k].start;
        }
        // Everything read so far admits `width`; read on to `end`.
        while end > self.horizon {
            let chunk = &profile.chunks[self.next.c];
            let live = &chunk.live()[self.next.i..];
            let mut read = live.len();
            for (k, seg) in live.iter().enumerate() {
                if seg.start >= end {
                    read = k;
                    break;
                }
                if seg.free < self.min {
                    self.min = seg.free;
                    self.drops.push(*seg);
                    if seg.free < width {
                        read = k + 1;
                        break;
                    }
                }
            }
            *visited += read as u64;
            self.next = if self.next.i + read < chunk.len() {
                Pos {
                    c: self.next.c,
                    i: self.next.i + read,
                }
            } else {
                Pos {
                    c: self.next.c + 1,
                    i: 0,
                }
            };
            self.horizon = profile.start_of(self.next);
            if self.min < width {
                return false;
            }
        }
        true
    }
}

/// Operation counters of one [`Profile`], plus the pass counters its
/// owning scheduler keeps beside it and merges in with
/// [`ProfileStats::absorb`] (which also aggregates several runs). All
/// counts are cumulative since creation.
///
/// `serde(default)` keeps old serialized reports (e.g. `--baseline`
/// files written before a counter existed) readable: missing counters
/// deserialize as zero, and counters a report carries that this struct
/// no longer has are ignored.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
#[serde(default)]
pub struct ProfileStats {
    /// Calls to [`Profile::find_anchor`] and [`Profile::fits`]. The
    /// schedulers' start-now scans ask `fits` only of candidates their
    /// O(1) tests leave open (no wider than the free level, a window
    /// ending by [`Profile::zero_horizon`]), so this counts the probes
    /// made after those rejections.
    pub find_anchor_calls: u64,
    /// Segments examined one by one: by the in-chunk scans of
    /// `find_anchor` and `zero_horizon`, and by the `fits` memo as it reads
    /// past its horizon.
    /// (Before the memo read lazily it rebuilt its whole prefix table,
    /// every segment from the left edge to the end of the profile, on each
    /// reset without counting any of them; the two figures are not
    /// comparable across that change.)
    pub segments_visited: u64,
    /// Chunk leaps: anchor-search (and `zero_horizon`) steps past the
    /// current chunk whose very next chunk holds no feasible segment (or
    /// no blocking one), so the search walked the chunk summaries beyond
    /// it. (The `tree_*` names stay from the min/max tree that once
    /// indexed the summaries: reports and the benchmark read them.)
    pub tree_descents: u64,
    /// Chunk summaries read by those leaps, the chunk they stop at
    /// included; divided by `tree_descents` this is the realized leap
    /// length.
    pub tree_nodes_visited: u64,
    /// Mutations that changed some chunk summary and left the chunk count
    /// alone.
    pub tree_incremental_updates: u64,
    /// Mutations that changed the chunk count: a full chunk split in two,
    /// or an emptied chunk dropped.
    pub tree_rebuilds: u64,
    /// Calls to [`Profile::reserve`] that changed the profile.
    pub reserves: u64,
    /// Calls to [`Profile::release`] that changed the profile.
    pub releases: u64,
    /// Passes over the queue by the owning scheduler: compression passes
    /// of the reservation-list schedulers, backfill passes of the
    /// reservation-depth ones. Never counted by the profile itself.
    pub compress_passes: u64,
    /// Largest segment count the profile ever reached.
    pub peak_segments: u64,
    /// Entries appended to the schedulers' ordered job lists
    /// ([`crate::SchedQueue`]: wait queues and the reservation list).
    pub queue_inserts: u64,
    /// Ordering passes over those lists that moved at least one entry.
    /// (The name stays: reports and the benchmark read it.)
    pub queue_sorts: u64,
    /// Ordering passes that moved nothing.
    pub queue_sorts_avoided: u64,
    /// Entries re-placed by ordering passes: appended entries that did not
    /// belong at the back, and jobs an XFactor crossing moved.
    pub queue_moves: u64,
    /// `fits` queries that found the memo valid for their silhouette and
    /// left edge (answered by a lookup, or by reading on from where the
    /// memo stopped).
    pub fits_cache_hits: u64,
    /// Memo resets: `fits` queries that found the profile mutated or the
    /// left edge moved, and re-anchored the memo before answering.
    pub fits_cache_misses: u64,
}

impl ProfileStats {
    /// Merge another profile's counters into this one: counts add, the
    /// peak takes the maximum.
    pub fn absorb(&mut self, other: &ProfileStats) {
        self.find_anchor_calls += other.find_anchor_calls;
        self.segments_visited += other.segments_visited;
        self.tree_descents += other.tree_descents;
        self.tree_nodes_visited += other.tree_nodes_visited;
        self.tree_incremental_updates += other.tree_incremental_updates;
        self.tree_rebuilds += other.tree_rebuilds;
        self.reserves += other.reserves;
        self.releases += other.releases;
        self.compress_passes += other.compress_passes;
        self.peak_segments = self.peak_segments.max(other.peak_segments);
        self.queue_inserts += other.queue_inserts;
        self.queue_sorts += other.queue_sorts;
        self.queue_sorts_avoided += other.queue_sorts_avoided;
        self.queue_moves += other.queue_moves;
        self.fits_cache_hits += other.fits_cache_hits;
        self.fits_cache_misses += other.fits_cache_misses;
    }

    /// Mean segments examined per anchor search (0 if none ran): the
    /// in-chunk scan work; chunk leaps are tracked by
    /// [`ProfileStats::chunks_per_leap`].
    pub fn segments_per_anchor(&self) -> f64 {
        if self.find_anchor_calls == 0 {
            0.0
        } else {
            self.segments_visited as f64 / self.find_anchor_calls as f64
        }
    }

    /// Mean chunk summaries read per leap (0 if none ran).
    pub fn chunks_per_leap(&self) -> f64 {
        if self.tree_descents == 0 {
            0.0
        } else {
            self.tree_nodes_visited as f64 / self.tree_descents as f64
        }
    }
}

/// Interior-mutable counters: `find_anchor` takes `&self`, so the probe
/// counters live in `Cell`s. Excluded from `PartialEq` — two profiles with
/// the same silhouette are equal regardless of how they were probed.
#[derive(Debug, Clone, Default)]
struct Counters {
    find_anchor_calls: Cell<u64>,
    segments_visited: Cell<u64>,
    tree_descents: Cell<u64>,
    tree_nodes_visited: Cell<u64>,
    tree_incremental_updates: Cell<u64>,
    tree_rebuilds: Cell<u64>,
    reserves: Cell<u64>,
    releases: Cell<u64>,
    peak_segments: Cell<u64>,
    fits_cache_hits: Cell<u64>,
    fits_cache_misses: Cell<u64>,
}

fn bump(cell: &Cell<u64>, by: u64) {
    cell.set(cell.get() + by);
}

/// The free-capacity timeline of a machine, including running jobs and any
/// future reservations the scheduler maintains.
///
/// ```
/// use sched::Profile;
/// use simcore::{SimSpan, SimTime};
///
/// let mut p = Profile::new(8);
/// // A 6-wide job runs for 100 s starting now.
/// p.reserve(SimTime::ZERO, SimSpan::new(100), 6);
/// // Earliest slot for an 8-wide, 50 s job: after the running job.
/// assert_eq!(p.find_anchor(SimTime::ZERO, SimSpan::new(50), 8), SimTime::new(100));
/// // A 2-wide job backfills immediately alongside it.
/// assert_eq!(p.find_anchor(SimTime::ZERO, SimSpan::new(50), 2), SimTime::ZERO);
/// ```
#[derive(Debug, Clone)]
pub struct Profile {
    capacity: u32,
    /// The segments in time order, strictly increasing, values coalesced,
    /// split into non-empty chunks. Never empty: the last segment extends
    /// to infinity.
    chunks: Vec<Chunk>,
    /// Total live segments over all chunks.
    len: usize,
    /// The `fits` memo, cleared by every mutation.
    fits_cache: RefCell<FitsCache>,
    stats: Counters,
}

impl PartialEq for Profile {
    fn eq(&self, other: &Self) -> bool {
        // The counters, the chunk summaries and how the segments happen
        // to fall into chunks are representation: the silhouette alone
        // defines identity.
        self.capacity == other.capacity
            && self.len == other.len
            && self.segs_from(ORIGIN).eq(other.segs_from(ORIGIN))
    }
}

impl Eq for Profile {}

impl Profile {
    /// Segments per chunk: the only size parameter of the layout. Queries
    /// scan at most this many segments per chunk they enter, and a
    /// boundary insert or removal moves at most this many.
    pub const CHUNK_SEGMENTS: usize = CHUNK;

    /// A fully free machine with `capacity` processors. Panics if zero.
    pub fn new(capacity: u32) -> Self {
        assert!(capacity > 0, "profile needs positive capacity");
        let mut chunk = Chunk::EMPTY;
        chunk.insert(
            0,
            Segment {
                start: SimTime::ZERO,
                free: capacity,
            },
        );
        let p = Profile {
            capacity,
            chunks: vec![chunk],
            len: 1,
            fits_cache: RefCell::new(FitsCache::default()),
            stats: Counters::default(),
        };
        p.stats.peak_segments.set(1);
        p
    }

    /// The machine's total processor count.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// The segments in time order (for inspection and tests; assembled
    /// from the chunks on each call — the hot paths never build this).
    pub fn segments(&self) -> Vec<Segment> {
        self.segs_from(ORIGIN).copied().collect()
    }

    /// The segment at `p`.
    #[inline]
    fn at(&self, p: Pos) -> Segment {
        self.chunks[p.c].segs[p.i]
    }

    /// The position after `p` in time order (one past the final segment
    /// is `Pos { c: chunks.len(), i: 0 }`).
    #[inline]
    fn succ(&self, p: Pos) -> Pos {
        if p.i + 1 < self.chunks[p.c].len() {
            Pos { c: p.c, i: p.i + 1 }
        } else {
            Pos { c: p.c + 1, i: 0 }
        }
    }

    /// The position before `p`, if any.
    #[inline]
    fn pred(&self, p: Pos) -> Option<Pos> {
        if p.i > 0 {
            Some(Pos { c: p.c, i: p.i - 1 })
        } else if p.c > 0 {
            Some(Pos {
                c: p.c - 1,
                i: self.chunks[p.c - 1].len() - 1,
            })
        } else {
            None
        }
    }

    /// Where the segment at `p` opens; [`READ_ALL`] one past the final
    /// segment.
    #[inline]
    fn start_of(&self, p: Pos) -> SimTime {
        self.chunks
            .get(p.c)
            .map_or(READ_ALL, |ch| ch.segs[p.i].start)
    }

    /// The segments from `p` on, in time order.
    fn segs_from(&self, p: Pos) -> impl Iterator<Item = &Segment> + '_ {
        let (head, tail) = match self.chunks.get(p.c..) {
            Some([first, rest @ ..]) => (&first.live()[p.i..], rest),
            _ => (&[][..], &[][..]),
        };
        head.iter().chain(tail.iter().flat_map(Chunk::live))
    }

    /// Position of the last segment with `start <= t`: a binary search
    /// over chunk starts, then one inside the chunk. `None` when `t`
    /// precedes the whole profile (the implicit fully-free prefix).
    #[inline]
    fn locate(&self, t: SimTime) -> Option<Pos> {
        let c = self.chunks.partition_point(|ch| ch.first_start() <= t);
        let chunk = self.chunks.get(c.checked_sub(1)?)?;
        let i = chunk.live().partition_point(|s| s.start <= t);
        Some(Pos { c: c - 1, i: i - 1 })
    }

    /// The first segment at or after `from` with `free < width` that
    /// opens before `until`. Scans the rest of `from`'s chunk, then leaps
    /// chunks whose minimum admits `width` (a walk over their summaries
    /// unless the very next chunk may hold a blocker), stopping at the
    /// first chunk that opens at or past `until` without reading inside it.
    fn next_below(&self, from: Pos, width: u32, until: SimTime, w: &mut Work) -> Option<Pos> {
        let Pos { mut c, mut i } = from;
        loop {
            let chunk = self.chunks.get(c)?;
            // A chunk whose minimum admits `width` holds no blocker.
            if chunk.min < width {
                let live = &chunk.live()[i..];
                match live.iter().position(|s| s.start >= until || s.free < width) {
                    Some(k) => {
                        w.visited += k as u64 + 1;
                        return (live[k].start < until).then_some(Pos { c, i: i + k });
                    }
                    None => w.visited += live.len() as u64,
                }
            }
            let next = self.chunks.get(c + 1)?;
            if next.first_start() >= until {
                return None;
            }
            c = if next.min < width {
                c + 1
            } else {
                w.leaps += 1;
                let skipped = self.chunks[c + 2..].iter().position(|ch| {
                    w.leap_reads += 1;
                    ch.min < width || ch.first_start() >= until
                })?;
                let k = c + 2 + skipped;
                if self.chunks[k].first_start() >= until {
                    return None;
                }
                k
            };
            i = 0;
        }
    }

    /// The first segment at or after `from` with `free >= width`: the rest
    /// of `from`'s chunk, then a leap over the summaries of chunks whose
    /// maximum is below `width` unless the very next chunk may hold one.
    /// The final segment is asserted wide enough, so one always exists.
    fn next_at_least(&self, from: Pos, width: u32, w: &mut Work) -> Pos {
        let Pos { mut c, mut i } = from;
        loop {
            let chunk = &self.chunks[c];
            // A chunk whose maximum is below `width` holds no candidate.
            if chunk.max >= width {
                let live = &chunk.live()[i..];
                if let Some(k) = live.iter().position(|s| s.free >= width) {
                    w.visited += k as u64 + 1;
                    return Pos { c, i: i + k };
                }
                w.visited += live.len() as u64;
            }
            c = if self.chunks[c + 1].max >= width {
                c + 1
            } else {
                w.leaps += 1;
                let skipped = self.chunks[c + 2..].iter().position(|ch| {
                    w.leap_reads += 1;
                    ch.max >= width
                });
                c + 2 + skipped.expect("final segment narrower than asserted")
            };
            i = 0;
        }
    }

    /// Flush one query's work into the counters.
    fn charge(&self, w: &Work) {
        bump(&self.stats.segments_visited, w.visited);
        bump(&self.stats.tree_descents, w.leaps);
        bump(&self.stats.tree_nodes_visited, w.leap_reads);
    }

    /// Snapshot of the operation counters.
    pub fn stats(&self) -> ProfileStats {
        ProfileStats {
            find_anchor_calls: self.stats.find_anchor_calls.get(),
            segments_visited: self.stats.segments_visited.get(),
            tree_descents: self.stats.tree_descents.get(),
            tree_nodes_visited: self.stats.tree_nodes_visited.get(),
            tree_incremental_updates: self.stats.tree_incremental_updates.get(),
            tree_rebuilds: self.stats.tree_rebuilds.get(),
            reserves: self.stats.reserves.get(),
            releases: self.stats.releases.get(),
            peak_segments: self.stats.peak_segments.get(),
            fits_cache_hits: self.stats.fits_cache_hits.get(),
            fits_cache_misses: self.stats.fits_cache_misses.get(),
            ..ProfileStats::default()
        }
    }

    /// Free processors at instant `t`.
    pub fn free_at(&self, t: SimTime) -> u32 {
        // Before all segments the profile began fully free.
        self.locate(t).map_or(self.capacity, |p| self.at(p).free)
    }

    /// True if a `width × duration` rectangle fits with its left edge
    /// exactly at `start` — equivalently, whether the minimum free
    /// capacity over `[start, start + duration)` is at least `width`.
    ///
    /// Every answer comes from the `FitsCache` staircase for `start`,
    /// reset when a mutation cleared it or the left edge moved. A reset
    /// reads nothing past the segment hosting `start`; each query reads
    /// on only as far as its own window needs, so a compression pass that
    /// mutates between probes pays for the few segments each probe reads,
    /// and a backfill scan over a frozen profile mostly pays a lookup.
    pub fn fits(&self, start: SimTime, duration: SimSpan, width: u32) -> bool {
        self.assert_possible(width);
        if duration.is_zero() || width == 0 {
            return true;
        }
        bump(&self.stats.find_anchor_calls, 1);
        let mut cache = self.fits_cache.borrow_mut();
        if !cache.drops.is_empty() && cache.from == start {
            bump(&self.stats.fits_cache_hits, 1);
        } else {
            bump(&self.stats.fits_cache_misses, 1);
            cache.reset(self, start);
        }
        let mut visited = 0;
        let ok = cache.admits(self, start + duration, width, &mut visited);
        bump(&self.stats.segments_visited, visited);
        ok
    }

    /// The first instant at or after `from` with no free processor — where
    /// the `fits` staircase at `from` drops to 0 — or `SimTime::new(u64::MAX)`
    /// if the free level never reaches 0 there.
    ///
    /// Every window `[from, from + d)` with `d > 0` that ends past it
    /// covers a zero level, so `fits(from, d, width)` is false for every
    /// `width >= 1`: a scan that asks "can it start now?" of many jobs
    /// against one profile rejects each such window in O(1) without a
    /// probe. Found with the blocker search's chunk leaps (`next_below` at
    /// width 1); its reads are charged to `segments_visited`,
    /// `tree_descents` and `tree_nodes_visited` like a probe's.
    pub fn zero_horizon(&self, from: SimTime) -> SimTime {
        let mut w = Work::default();
        let next = match self.locate(from) {
            // The implicit fully-free prefix before the first boundary.
            None => ORIGIN,
            Some(host) if self.at(host).free == 0 => return from,
            Some(host) => self.succ(host),
        };
        let horizon = self
            .next_below(next, 1, READ_ALL, &mut w)
            .map_or(READ_ALL, |p| self.at(p).start);
        self.charge(&w);
        horizon
    }

    fn assert_possible(&self, width: u32) {
        assert!(
            width <= self.capacity,
            "width {width} exceeds capacity {}",
            self.capacity
        );
        let last = self.chunks.last().expect("profile is never empty");
        let last_free = last.segs[last.len() - 1].free;
        assert!(
            width <= last_free,
            "width {width} never fits: final free level is {last_free}"
        );
    }

    /// The earliest instant `t >= earliest` where a `width × duration`
    /// rectangle fits. Always terminates because the profile eventually
    /// returns to an (infinitely long) final segment.
    ///
    /// Invariant maintained throughout: `anchor` is feasible up to (not
    /// including) position `check` — the host segment holding `anchor`
    /// has `free >= width`, as does everything between it and `check`.
    /// Each iteration asks "which segment blocks the window first?" with
    /// one blocker probe; a blockage moves the anchor to the start of the
    /// first feasible segment past the whole infeasible run, which is
    /// exactly where the linear scan would next settle.
    ///
    /// Panics if `width > capacity` or the final segment has fewer than
    /// `width` free processors (a rectangle that could never fit).
    pub fn find_anchor(&self, earliest: SimTime, duration: SimSpan, width: u32) -> SimTime {
        self.assert_possible(width);
        if duration.is_zero() || width == 0 {
            return earliest;
        }
        bump(&self.stats.find_anchor_calls, 1);
        let mut w = Work::default();
        let mut anchor = earliest;
        let mut check = match self.locate(anchor) {
            // The region before the first boundary is implicitly fully
            // free (it only exists after trim_before); a rectangle fitting
            // entirely inside it anchors immediately. One that spills into
            // the first segment starts its verification there: the
            // implicit region itself never blocks.
            None if anchor + duration <= self.chunks[0].first_start() => return anchor,
            None => ORIGIN,
            Some(host) if self.at(host).free >= width => self.succ(host),
            // The requested instant is blocked: the earliest possible
            // anchor is the next feasible segment's start.
            Some(host) => {
                let p = self.next_at_least(self.succ(host), width, &mut w);
                anchor = self.at(p).start;
                self.succ(p)
            }
        };
        // A blocker opening inside the candidate window kills every
        // instant in [anchor, end-of-blockage): restart at the first
        // feasible segment past the infeasible run.
        while let Some(k) = self.next_below(check, width, anchor + duration, &mut w) {
            let p = self.next_at_least(self.succ(k), width, &mut w);
            anchor = self.at(p).start;
            check = self.succ(p);
        }
        self.charge(&w);
        anchor
    }

    /// Insert `seg` at `p` (`p.i` may equal the chunk's length: append),
    /// first splitting a full chunk into two halves. Returns where the
    /// segment landed.
    fn insert_at(&mut self, p: Pos, seg: Segment, touched: &mut Touched) -> Pos {
        let mut p = p;
        if self.chunks[p.c].len() == CHUNK {
            let half = CHUNK / 2;
            let lower = &mut self.chunks[p.c];
            let mut upper = Chunk::EMPTY;
            upper.segs[..CHUNK - half].copy_from_slice(&lower.segs[half..]);
            upper.len = (CHUNK - half) as u32;
            lower.len = half as u32;
            lower.refresh();
            upper.refresh();
            self.chunks.insert(p.c + 1, upper);
            touched.structural = true;
            if p.i > half {
                p = Pos {
                    c: p.c + 1,
                    i: p.i - half,
                };
            }
        }
        touched.summary |= self.chunks[p.c].insert(p.i, seg);
        self.len += 1;
        p
    }

    /// Remove the segment at `p`, dropping its chunk if that empties it.
    fn remove_at(&mut self, p: Pos, touched: &mut Touched) {
        touched.summary |= self.chunks[p.c].remove(p.i);
        self.len -= 1;
        if self.chunks[p.c].len == 0 {
            self.chunks.remove(p.c);
            touched.structural = true;
        }
    }

    /// Position of the segment starting exactly at `t`, splitting the
    /// segment containing `t` if needed so such a boundary exists.
    fn split_at(&mut self, t: SimTime, touched: &mut Touched) -> Pos {
        match self.locate(t) {
            // t precedes the whole profile (possible after trim_before):
            // the region before the first segment is implicitly fully free.
            None => {
                let first = &mut self.chunks[0].segs[0];
                if first.free == self.capacity {
                    // A fully-free segment already opens the profile:
                    // moving its boundary left to `t` is the same
                    // silhouette, and inserting instead would create an
                    // adjacent-equal pair in the middle of the mutation
                    // range, where boundary coalescing would never look.
                    first.start = t;
                    return ORIGIN;
                }
                let seg = Segment {
                    start: t,
                    free: self.capacity,
                };
                self.insert_at(ORIGIN, seg, touched)
            }
            Some(p) if self.at(p).start == t => p,
            Some(p) => {
                let seg = Segment {
                    start: t,
                    free: self.at(p).free,
                };
                self.insert_at(Pos { c: p.c, i: p.i + 1 }, seg, touched)
            }
        }
    }

    /// Apply `f` to every segment in `[first, last)` and refresh the
    /// summaries of the chunks that span.
    fn update_span(
        &mut self,
        first: Pos,
        last: Pos,
        touched: &mut Touched,
        mut f: impl FnMut(&mut Segment),
    ) {
        for c in first.c..=last.c {
            let chunk = &mut self.chunks[c];
            let lo = if c == first.c { first.i } else { 0 };
            let hi = if c == last.c { last.i } else { chunk.len() };
            if lo < hi {
                chunk.segs[lo..hi].iter_mut().for_each(&mut f);
                touched.summary |= chunk.refresh();
            }
        }
    }

    /// Re-coalesce after a range update. Segments inside the range all
    /// moved by the same delta, so previously distinct neighbours stay
    /// distinct: only the two boundary pairs — `(first - 1, first)` and
    /// `(last - 1, last)` — can newly coincide. Checks exactly those,
    /// removing the later segment of an equal pair (keeping the earlier
    /// start, as a full `dedup` would). `last` goes first: removing it
    /// never moves `first`, which lies in an earlier slot.
    fn coalesce_boundaries(&mut self, first: Pos, last: Pos, touched: &mut Touched) {
        for p in [last, first] {
            if let Some(q) = self.pred(p) {
                if self.at(q).free == self.at(p).free {
                    self.remove_at(p, touched);
                }
            }
        }
    }

    /// Post-mutation bookkeeping: clear the fits memo, count the layout
    /// change and update the peak gauge. The chunk summaries are already
    /// current: each edit refreshed its own.
    fn after_mutation(&mut self, touched: Touched) {
        self.fits_cache.get_mut().drops.clear();
        if touched.structural {
            bump(&self.stats.tree_rebuilds, 1);
        } else if touched.summary {
            bump(&self.stats.tree_incremental_updates, 1);
        }
        let peak = self.stats.peak_segments.get().max(self.len as u64);
        self.stats.peak_segments.set(peak);
        debug_assert!(self.invariants_ok());
    }

    /// Apply `f` to the level of every segment over `[start, end)`: split
    /// both boundaries, rewrite the levels between them, re-coalesce.
    fn apply(&mut self, start: SimTime, end: SimTime, f: impl FnMut(&mut Segment)) {
        let mut touched = Touched::default();
        let first = self.split_at(start, &mut touched);
        let last = self.split_at(end, &mut touched); // affected: first..last
                                                     // A split of `first`'s chunk may have moved it; nothing else can
                                                     // (the second boundary lies after it).
        let first = if touched.structural {
            self.locate(start).expect("boundary just inserted")
        } else {
            first
        };
        self.update_span(first, last, &mut touched, f);
        self.coalesce_boundaries(first, last, &mut touched);
        self.after_mutation(touched);
    }

    /// Subtract `width` processors over `[start, start + duration)`.
    ///
    /// Panics if that would drive any segment negative — callers must place
    /// rectangles with [`find_anchor`]/[`fits`] first (a violation is a
    /// scheduler bug, not an operational condition).
    ///
    /// [`find_anchor`]: Profile::find_anchor
    /// [`fits`]: Profile::fits
    pub fn reserve(&mut self, start: SimTime, duration: SimSpan, width: u32) {
        if duration.is_zero() || width == 0 {
            return;
        }
        bump(&self.stats.reserves, 1);
        self.apply(start, start + duration, |seg| {
            assert!(
                seg.free >= width,
                "reservation of {width} at {} underflows segment at {} (free {})",
                start,
                seg.start,
                seg.free
            );
            seg.free -= width;
        });
    }

    /// Add `width` processors back over `[start, start + duration)` —
    /// the inverse of [`reserve`](Profile::reserve).
    ///
    /// Panics if that would push any segment above capacity (releasing
    /// something that was never reserved).
    pub fn release(&mut self, start: SimTime, duration: SimSpan, width: u32) {
        if duration.is_zero() || width == 0 {
            return;
        }
        bump(&self.stats.releases, 1);
        let capacity = self.capacity;
        self.apply(start, start + duration, |seg| {
            assert!(
                seg.free + width <= capacity,
                "release of {width} at {} overflows segment at {} (free {}, capacity {})",
                start,
                seg.start,
                seg.free,
                capacity
            );
            seg.free += width;
        });
    }

    /// Drop segment boundaries strictly before `now` (they can never matter
    /// again), keeping the level at `now` intact — the segment hosting
    /// `now` keeps its own start, which may lie before `now`. Whole chunks
    /// before the host are dropped; the host's chunk shifts its survivors
    /// down. Bounds memory on long runs.
    pub fn trim_before(&mut self, now: SimTime) {
        match self.locate(now) {
            Some(host) if host != ORIGIN => {
                let mut touched = Touched::default();
                if host.c > 0 {
                    self.len -= self.chunks[..host.c].iter().map(Chunk::len).sum::<usize>();
                    self.chunks.drain(..host.c);
                    touched.structural = true;
                }
                let chunk = &mut self.chunks[0];
                if host.i > 0 {
                    let len = chunk.len();
                    chunk.segs.copy_within(host.i..len, 0);
                    chunk.len -= host.i as u32;
                    self.len -= host.i;
                    touched.summary |= chunk.refresh();
                }
                self.after_mutation(touched);
            }
            _ => debug_assert!(self.invariants_ok()),
        }
    }

    /// Check structural invariants (used by tests; internal operations
    /// `debug_assert` it): segment ordering/coalescing/bounds, non-empty
    /// chunks, and every chunk summary against a from-scratch build.
    pub fn invariants_ok(&self) -> bool {
        if self.chunks.is_empty()
            || self.chunks.iter().any(|ch| ch.len == 0 || ch.len() > CHUNK)
            || self.chunks.iter().map(Chunk::len).sum::<usize>() != self.len
        {
            return false;
        }
        let segs = self.segments();
        if segs
            .windows(2)
            .any(|w| w[0].start >= w[1].start || w[0].free == w[1].free)
            || segs.iter().any(|s| s.free > self.capacity)
        {
            return false;
        }
        // Every summary must equal what a refresh would compute — the
        // incremental edits may take no shortcuts.
        let mut chunks = self.chunks.clone();
        !chunks.iter_mut().any(|ch| ch.refresh())
    }
}

/// The start-now probe of a scan at `now`: a window ending past
/// [`Profile::zero_horizon`] fails without a `fits` probe. The horizon is
/// found on first use and kept until the scan edits the profile.
pub(crate) struct Horizon {
    now: SimTime,
    zero: OnceCell<SimTime>,
}

impl Horizon {
    pub(crate) fn new(now: SimTime) -> Self {
        let zero = OnceCell::new();
        Horizon { now, zero }
    }

    /// The horizon, once found.
    pub(crate) fn known(&self) -> Option<SimTime> {
        self.zero.get().copied()
    }

    /// Drop the horizon after an edit of the profile.
    pub(crate) fn forget(&mut self) {
        self.zero.take();
    }

    /// True if `width` processors are free in `profile` over `[now, now +
    /// span)`.
    pub(crate) fn fits(&self, profile: &Profile, span: SimSpan, width: u32) -> bool {
        let zero = *self.zero.get_or_init(|| profile.zero_horizon(self.now));
        self.now + span <= zero && profile.fits(self.now, span, width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::new(s)
    }
    fn d(s: u64) -> SimSpan {
        SimSpan::new(s)
    }

    /// Zero `p`'s operation counters (the peak resets to the current
    /// size), so a test can count one stretch of work.
    fn reset_stats(p: &mut Profile) {
        p.stats = Counters::default();
        p.stats.peak_segments.set(p.len as u64);
    }

    #[test]
    fn fresh_profile_is_fully_free() {
        let p = Profile::new(16);
        assert_eq!(p.free_at(t(0)), 16);
        assert_eq!(p.free_at(t(1_000_000)), 16);
        assert!(p.invariants_ok());
        assert_eq!(p.segments().len(), 1);
    }

    #[test]
    fn reserve_carves_a_rectangle() {
        let mut p = Profile::new(10);
        p.reserve(t(100), d(50), 4);
        assert_eq!(p.free_at(t(99)), 10);
        assert_eq!(p.free_at(t(100)), 6);
        assert_eq!(p.free_at(t(149)), 6);
        assert_eq!(p.free_at(t(150)), 10);
        assert!(p.invariants_ok());
    }

    #[test]
    fn overlapping_reservations_stack() {
        let mut p = Profile::new(10);
        p.reserve(t(0), d(100), 4);
        p.reserve(t(50), d(100), 4);
        assert_eq!(p.free_at(t(25)), 6);
        assert_eq!(p.free_at(t(75)), 2);
        assert_eq!(p.free_at(t(125)), 6);
        assert_eq!(p.free_at(t(150)), 10);
    }

    #[test]
    fn release_undoes_reserve() {
        let mut p = Profile::new(8);
        let snapshot = p.clone();
        p.reserve(t(10), d(30), 5);
        p.release(t(10), d(30), 5);
        assert_eq!(p, snapshot);
    }

    #[test]
    fn partial_release_models_early_completion() {
        let mut p = Profile::new(8);
        // Job estimated to run [0, 100) with 4 procs...
        p.reserve(t(0), d(100), 4);
        // ...actually completes at 60: give back [60, 100).
        p.release(t(60), d(40), 4);
        assert_eq!(p.free_at(t(59)), 4);
        assert_eq!(p.free_at(t(60)), 8);
    }

    #[test]
    fn partial_release_coalesces_adjacent_equal_segments() {
        // Regression: releasing the elapsed-tail of a rectangle must merge
        // the restored span with its equal neighbours and never push any
        // segment above capacity.
        let mut p = Profile::new(8);
        p.reserve(t(0), d(100), 4); // [0,100) at 4 free
        p.reserve(t(0), d(60), 4); // [0,60) at 0 free
                                   // The [0,60) job "ends" at 60 having consumed its whole rectangle;
                                   // the [0,100) job completes early at 60: give back [60,100).
        p.release(t(60), d(40), 4);
        // [60,100) returns to 8 free — the same level as [100,∞), so the
        // boundary at 100 must vanish.
        assert_eq!(
            p.segments(),
            &[
                Segment {
                    start: t(0),
                    free: 0
                },
                Segment {
                    start: t(60),
                    free: 8
                }
            ],
            "adjacent equal segments must coalesce across the released span"
        );
        assert!(p.segments().iter().all(|s| s.free <= p.capacity()));
        assert!(p.invariants_ok());
    }

    #[test]
    #[should_panic(expected = "underflows")]
    fn reserve_panics_on_overcommit() {
        let mut p = Profile::new(4);
        p.reserve(t(0), d(10), 3);
        p.reserve(t(5), d(10), 2);
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn release_panics_on_phantom_capacity() {
        let mut p = Profile::new(4);
        p.release(t(0), d(10), 1);
    }

    #[test]
    fn zero_duration_or_width_are_noops() {
        let mut p = Profile::new(4);
        let snapshot = p.clone();
        p.reserve(t(5), d(0), 4);
        p.reserve(t(5), d(10), 0);
        p.release(t(5), d(0), 4);
        assert_eq!(p, snapshot);
    }

    #[test]
    fn find_anchor_on_empty_profile_is_immediate() {
        let p = Profile::new(8);
        assert_eq!(p.find_anchor(t(42), d(1000), 8), t(42));
    }

    #[test]
    fn find_anchor_skips_blocked_interval() {
        let mut p = Profile::new(8);
        p.reserve(t(0), d(100), 6); // only 2 free until 100
        assert_eq!(p.find_anchor(t(0), d(10), 2), t(0));
        assert_eq!(p.find_anchor(t(0), d(10), 3), t(100));
    }

    #[test]
    fn find_anchor_needs_contiguous_fit() {
        let mut p = Profile::new(8);
        // Free window [0, 50) of 8, then blocked [50, 100), then free.
        p.reserve(t(50), d(50), 8);
        // A 60-second job cannot use the [0, 50) hole.
        assert_eq!(p.find_anchor(t(0), d(60), 1), t(100));
        // A 50-second job fits exactly in the hole.
        assert_eq!(p.find_anchor(t(0), d(50), 1), t(0));
    }

    #[test]
    fn find_anchor_spans_multiple_segments() {
        let mut p = Profile::new(8);
        p.reserve(t(0), d(100), 2); // 6 free on [0, 100)
        p.reserve(t(100), d(100), 4); // 4 free on [100, 200)
                                      // Width 4 for 150 s fits at 0: covered by both segments.
        assert_eq!(p.find_anchor(t(0), d(150), 4), t(0));
        // Width 5 for 150 s: blocked on [100, 200), so anchor is 200.
        assert_eq!(p.find_anchor(t(0), d(150), 5), t(200));
    }

    #[test]
    fn find_anchor_respects_earliest_bound() {
        let p = Profile::new(8);
        assert_eq!(p.find_anchor(t(500), d(10), 1), t(500));
    }

    #[test]
    fn find_anchor_mid_segment_start() {
        let mut p = Profile::new(8);
        p.reserve(t(0), d(100), 6);
        // Asking from t=30 for width 2 (fits alongside): anchor 30.
        assert_eq!(p.find_anchor(t(30), d(10), 2), t(30));
        // Width 3 must wait for the reservation to end.
        assert_eq!(p.find_anchor(t(30), d(10), 3), t(100));
    }

    #[test]
    #[should_panic(expected = "exceeds capacity")]
    fn find_anchor_rejects_impossible_width() {
        Profile::new(4).find_anchor(t(0), d(1), 5);
    }

    #[test]
    fn fits_matches_find_anchor() {
        let mut p = Profile::new(8);
        p.reserve(t(10), d(80), 5);
        for &(start, dur, width) in &[
            (0u64, 10u64, 8u32),
            (0, 11, 4),
            (0, 11, 3),
            (10, 80, 3),
            (90, 5, 8),
            (5, 100, 3),
        ] {
            let fits = p.fits(t(start), d(dur), width);
            let anchor = p.find_anchor(t(start), d(dur), width);
            assert_eq!(
                fits,
                anchor == t(start),
                "fits({start},{dur},{width}) = {fits} but anchor = {anchor}"
            );
        }
    }

    #[test]
    fn fits_cache_matches_anchor_scan_on_large_profiles() {
        // On a many-chunk profile `fits` answers come from the lazily
        // read prefix-minimum memo; every answer must equal the
        // anchor-scan definition, for shifting left edges and across
        // mutations.
        let mut p = Profile::new(64);
        for i in 0..(8 * CHUNK as u64) {
            let width = 1 + ((i * 7 + 3) % 60) as u32;
            p.reserve(
                t(i * 10),
                d(10 + (i % 13) * 5),
                width.min(p.free_at(t(i * 10))),
            );
        }
        assert!(p.chunks.len() > 4);
        let check = |p: &Profile| {
            for start in (0..8 * CHUNK as u64 * 10).step_by(97) {
                for &width in &[1u32, 7, 23, 40, 64] {
                    for &dur in &[1u64, 50, 400, 5_000, 200_000] {
                        let expect = p.find_anchor(t(start), d(dur), width) == t(start);
                        assert_eq!(
                            p.fits(t(start), d(dur), width),
                            expect,
                            "diverged at start={start} dur={dur} width={width}"
                        );
                        // The memoized repeat must agree with the first read.
                        assert_eq!(p.fits(t(start), d(dur), width), expect);
                    }
                }
            }
        };
        check(&p);
        // Mutations must invalidate the cache, not leave stale answers.
        let anchor = p.find_anchor(t(35), d(400), 1);
        p.reserve(anchor, d(400), 1);
        p.release(t(1_000), d(200), 1);
        check(&p);
    }

    #[test]
    fn cloned_profiles_never_share_stale_fits_answers() {
        // The memo travels with `clone`; a mutation of either copy clears
        // that copy's memo, so neither can ever accept the other's (or its
        // own pre-mutation) cached minima.
        let mut p = Profile::new(8);
        p.reserve(t(0), d(100), 4);
        assert!(p.fits(t(0), d(50), 4)); // warm the memo (4 free on [0,100))
        assert!(p.fits(t(0), d(500), 4)); // and read it to the end
        let mut q = p.clone();
        q.reserve(t(0), d(50), 4); // q: 0 free on [0,50)
        assert!(!q.fits(t(0), d(50), 1), "stale clone cache accepted");
        assert!(!q.fits(t(0), d(50), 1));
        assert!(p.fits(t(0), d(50), 4), "p's own memo must stay valid");
        p.reserve(t(0), d(50), 4);
        assert!(!p.fits(t(0), d(50), 1), "post-mutation memo accepted");
    }

    #[test]
    fn fits_memo_reads_only_up_to_the_first_zero_level() {
        // A long profile (well over 40 chunks) whose free level falls to 0
        // three segments after the query's left edge: 6, 4, 2, 0, then
        // levels alternating 7/6 for ~1,400 segments. The prefix minimum
        // is final once it reaches 0, so no query at this edge needs
        // anything past that segment.
        let mut p = Profile::new(8);
        for (i, width) in [2u32, 4, 6, 8].into_iter().enumerate() {
            p.reserve(t(i as u64 * 10), d(10), width);
        }
        for i in 4..1_400u64 {
            p.reserve(t(i * 10), d(10), 1 + (i % 2) as u32);
        }
        assert!(p.segments().len() > 40 * CHUNK);
        let before = p.stats().segments_visited;
        // Cold: a window spanning the whole profile reads segments 1–3 and
        // stops at the 0 level.
        assert!(!p.fits(t(0), d(1_000_000), 1));
        let cold = p.stats().segments_visited - before;
        assert!(cold <= 4, "cold fits read {cold} segments");
        // Warm: every query at this edge is a lookup among the drops.
        for (dur, width, expect) in [
            (5u64, 6u32, true),
            (10, 6, true),
            (11, 6, false),
            (20, 4, true),
            (25, 4, false),
            (30, 2, true),
            (31, 1, false),
            (1_000_000, 8, false),
            (3, 7, false),
        ] {
            assert_eq!(
                p.fits(t(0), d(dur), width),
                expect,
                "dur={dur} width={width}"
            );
        }
        let s = p.stats();
        assert_eq!(
            s.segments_visited - before,
            cold,
            "repeat queries read nothing"
        );
        assert_eq!((s.fits_cache_misses, s.fits_cache_hits), (1, 9));
    }

    #[test]
    fn incremental_updates_and_rebuilds_are_both_exercised() {
        let mut p = Profile::new(16);
        // Disjoint 1-wide rectangles: two boundaries each, past one chunk.
        for i in 0..CHUNK as u64 {
            p.reserve(t(i * 100), d(50), 1);
        }
        assert!(p.chunks.len() > 1);
        reset_stats(&mut p);
        // Both boundaries exist and the level drops below the first
        // chunk's minimum: a summary change, chunk count unchanged.
        p.reserve(t(0), d(50), 4);
        let s = p.stats();
        assert_eq!(s.tree_rebuilds, 0);
        assert_eq!(s.tree_incremental_updates, 1);
        // Releasing it restores the old minimum: another summary change.
        p.release(t(0), d(50), 4);
        assert_eq!(p.stats().tree_incremental_updates, 2);
        // A new boundary inside a chunk with room, at a level the chunk
        // already holds, changes no summary and is not counted.
        p.reserve(t(60), d(10), 1);
        let s = p.stats();
        assert_eq!((s.tree_rebuilds, s.tree_incremental_updates), (0, 2));
        assert!(p.invariants_ok());
        // New boundaries in one chunk eventually split it: a chunk-count
        // change.
        let chunks = p.chunks.len();
        let mut i = 0;
        while p.chunks.len() == chunks {
            p.reserve(t(2 + 4 * i), d(2), 1);
            i += 1;
            assert!(i <= CHUNK as u64, "a full chunk must split");
        }
        assert!(p.stats().tree_rebuilds >= 1);
        assert!(p.invariants_ok());
    }

    #[test]
    fn single_chunk_profile_does_no_tree_work() {
        // Reserve/release/trim churn and queries that never grow the
        // profile past one chunk: the in-chunk scan answers everything,
        // no search leaps and the chunk count never changes.
        let mut p = Profile::new(64);
        for i in 0..500u64 {
            let w = 1 + (i % 5) as u32;
            p.reserve(t(i * 10), d(30), w);
            p.release(t(i * 10 + 20), d(10), w);
            p.trim_before(t(i * 10));
            p.find_anchor(t(i * 10), d(100), 64);
            p.fits(t(i * 10), d(5), 60);
            p.fits(t(i * 10), d(5), 60);
            assert_eq!(p.chunks.len(), 1);
        }
        let s = p.stats();
        assert!(s.peak_segments <= CHUNK as u64);
        assert!(s.segments_visited > 0, "the in-chunk scan did the work");
        assert_eq!(
            (s.tree_rebuilds, s.tree_descents, s.tree_nodes_visited),
            (0, 0, 0),
            "a one-chunk profile must neither leap nor split"
        );
        assert!(s.tree_incremental_updates > 0, "its summary still moves");
    }

    #[test]
    fn stats_count_operations() {
        let mut p = Profile::new(8);
        p.reserve(t(0), d(100), 4);
        p.reserve(t(200), d(100), 4);
        p.release(t(50), d(50), 4);
        p.find_anchor(t(0), d(10), 8);
        p.find_anchor(t(0), d(10), 2);
        let s = p.stats();
        assert_eq!(s.reserves, 2);
        assert_eq!(s.releases, 1);
        assert_eq!(s.find_anchor_calls, 2);
        assert_eq!(s.compress_passes, 0, "the scheduler counts its passes");
        assert!(s.segments_visited >= 2, "anchor scans examine segments");
        assert!(s.peak_segments >= 3);
        assert!(s.segments_per_anchor() > 0.0);
        // Only the first reserve moves the chunk's minimum; one chunk
        // never splits.
        assert_eq!((s.tree_incremental_updates, s.tree_rebuilds), (1, 0));
        reset_stats(&mut p);
        let s = p.stats();
        assert_eq!(s.find_anchor_calls, 0);
        assert_eq!(s.reserves, 0);
        assert_eq!(s.tree_rebuilds, 0);
        assert_eq!(s.peak_segments, p.segments().len() as u64);
    }

    #[test]
    fn tree_descents_are_counted_past_the_cutoff() {
        // Contiguous rectangles leaving 1 or 2 processors free, then a
        // free tail: every chunk of the congested stretch blocks a 3-wide
        // request and admits a 1-wide one, so both searches leap whole
        // chunks by their summaries once the profile is past one chunk.
        let mut p = Profile::new(8);
        for i in 0..(8 * CHUNK as u64) {
            p.reserve(t(i * 100), d(100), 6 + (i % 2) as u32);
        }
        assert!(p.chunks.len() > 4);
        reset_stats(&mut p);
        let end = t(8 * CHUNK as u64 * 100);
        assert_eq!(p.find_anchor(t(0), d(10), 3), end);
        assert_eq!(p.find_anchor(t(0), d(1_000_000), 1), t(0));
        let s = p.stats();
        assert!(s.tree_descents >= 2, "both searches must leap chunks");
        assert!(s.tree_nodes_visited >= s.tree_descents);
        assert!(s.chunks_per_leap() > 0.0);
        assert!(
            s.segments_visited < 4 * CHUNK as u64,
            "leaps, not a scan of every chunk: {s:?}"
        );
    }

    #[test]
    fn stats_ignore_noop_calls_and_equality_ignores_stats() {
        let mut p = Profile::new(8);
        p.reserve(t(0), d(0), 4); // no-op
        p.release(t(0), d(10), 0); // no-op
        assert_eq!(p.stats().reserves, 0);
        assert_eq!(p.stats().releases, 0);
        let q = Profile::new(8);
        q.find_anchor(t(0), d(5), 1); // probe only q
        assert_eq!(p, q, "probe counters must not affect equality");
    }

    #[test]
    fn stats_absorb_sums_counts_and_maxes_peak() {
        let mut a = ProfileStats {
            find_anchor_calls: 2,
            peak_segments: 5,
            tree_descents: 1,
            ..Default::default()
        };
        let b = ProfileStats {
            find_anchor_calls: 3,
            reserves: 1,
            peak_segments: 9,
            tree_descents: 4,
            tree_nodes_visited: 12,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.find_anchor_calls, 5);
        assert_eq!(a.reserves, 1);
        assert_eq!(a.peak_segments, 9);
        assert_eq!(a.tree_descents, 5);
        assert_eq!(a.tree_nodes_visited, 12);
    }

    #[test]
    fn coalescing_keeps_profile_minimal() {
        let mut p = Profile::new(8);
        p.reserve(t(0), d(100), 4);
        p.reserve(t(100), d(100), 4);
        // Same level on both sides of t=100: must be one segment.
        assert_eq!(p.free_at(t(50)), 4);
        assert_eq!(p.free_at(t(150)), 4);
        assert_eq!(
            p.segments().iter().filter(|s| s.free == 4).count(),
            1,
            "adjacent equal segments not coalesced: {:?}",
            p.segments()
        );
    }

    #[test]
    fn trim_before_preserves_future_shape() {
        let mut p = Profile::new(8);
        p.reserve(t(0), d(10), 1);
        p.reserve(t(20), d(10), 2);
        p.reserve(t(40), d(10), 3);
        let f50 = p.free_at(t(50));
        let f45 = p.free_at(t(45));
        p.trim_before(t(45));
        assert_eq!(p.free_at(t(45)), f45);
        assert_eq!(p.free_at(t(50)), f50);
        assert!(p.invariants_ok());
        assert!(p.segments().len() <= 3);
    }

    #[test]
    fn reserve_before_profile_origin_works() {
        // Anchoring earlier than any existing boundary (possible after
        // trim) must still work.
        let mut p = Profile::new(8);
        p.reserve(t(100), d(10), 2);
        p.trim_before(t(100));
        p.reserve(t(50), d(10), 3);
        assert_eq!(p.free_at(t(55)), 5);
        assert!(p.invariants_ok());
    }
}
