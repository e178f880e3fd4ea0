//! Differential tests of the chunk-indexed anchor search.
//!
//! `Profile::find_anchor` scans inside a chunk of segments and leaps
//! whole chunks through a min/max tree over the chunk summaries;
//! `support::linear_anchor` is the plain segment-by-segment scan over
//! `Profile::segments()`. These properties drive both — plus a third,
//! deliberately naive reference implemented here over the same segments
//! — through random reserve/partial-release/trim histories and assert
//! all three agree on every query: the chunked layout must be a pure
//! accelerator, never a decision change. The chunk-boundary tests at the
//! bottom force every change to the chunk layout — splits, chunks emptied
//! by coalescing, reservations spanning three or more chunks, trims that
//! drop whole chunks — and check anchors, `fits` and `free_at` after every
//! single operation.

mod support;

use proptest::prelude::*;
use sched::{Profile, Segment};
use simcore::{SimSpan, SimTime};
use support::linear_anchor;

/// Naive reference anchor: try `earliest` and every later segment start in
/// order, checking feasibility point-by-point against the raw segments.
/// (Any blocked anchor re-starts at a segment boundary, so these are the
/// only candidates.) Quadratic and proud of it.
fn reference_anchor(
    segs: &[Segment],
    cap: u32,
    earliest: SimTime,
    dur: SimSpan,
    width: u32,
) -> SimTime {
    assert!(
        width > 0 && !dur.is_zero(),
        "reference expects real rectangles"
    );
    let free_at = |t: SimTime| -> u32 {
        let mut free = cap; // before the first boundary the profile is free
        for s in segs {
            if s.start <= t {
                free = s.free;
            } else {
                break;
            }
        }
        free
    };
    let fits_at = |t: SimTime| -> bool {
        if free_at(t) < width {
            return false;
        }
        let end = t + dur;
        segs.iter()
            .all(|s| !(s.start > t && s.start < end && s.free < width))
    };
    if fits_at(earliest) {
        return earliest;
    }
    for s in segs {
        if s.start > earliest && fits_at(s.start) {
            return s.start;
        }
    }
    unreachable!("final segment is asserted wide enough");
}

/// A scripted history of profile mutations that can never panic:
/// reservations are placed at anchors, releases give back tails of
/// still-live reservations, trims move the origin forward.
#[derive(Debug, Clone, Copy)]
struct Op {
    kind: u8,
    a: u64,
    b: u64,
    w: u32,
}

fn op() -> impl Strategy<Value = Op> {
    (0u8..8, 0u64..20_000, 1u64..3_000, 1u32..=24).prop_map(|(kind, a, b, w)| Op { kind, a, b, w })
}

/// A profile and the reservations still live in it, so a history can be
/// extended one [`Op`] at a time.
struct History {
    p: Profile,
    live: Vec<(SimTime, SimSpan, u32)>,
}

impl History {
    fn new(cap: u32) -> Self {
        History {
            p: Profile::new(cap),
            live: Vec::new(),
        }
    }

    fn apply(&mut self, op: &Op) {
        let (p, live) = (&mut self.p, &mut self.live);
        let width = op.w.min(p.capacity());
        match op.kind {
            // Mostly reservations: they are what grows the segment list.
            0..=4 => {
                let dur = SimSpan::new(op.b);
                let anchor = p.find_anchor(SimTime::new(op.a), dur, width);
                p.reserve(anchor, dur, width);
                live.push((anchor, dur, width));
            }
            // Release the tail of a live reservation (early completion).
            5 | 6 => {
                if live.is_empty() {
                    return;
                }
                let (start, dur, w) = live.remove((op.a as usize) % live.len());
                let keep = SimSpan::new(op.b % dur.as_secs().max(1));
                p.release(start + keep, dur - keep, w);
                if !keep.is_zero() {
                    live.push((start, keep, w));
                }
            }
            // Trim the past away (creates the implicit free region). Never
            // trim beyond a live reservation's start: its tail may still be
            // released, and releasing into the trimmed-away (implicitly
            // fully free) region would overflow capacity.
            _ => {
                let horizon = live
                    .iter()
                    .map(|&(start, _, _)| start)
                    .min()
                    .unwrap_or(SimTime::new(u64::MAX));
                p.trim_before(SimTime::new(op.a % 10_000).min(horizon));
            }
        }
    }
}

fn apply_ops(cap: u32, ops: &[Op]) -> Profile {
    let mut h = History::new(cap);
    for op in ops {
        h.apply(op);
    }
    h.p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The indexed search, the linear scan, and the naive reference agree
    /// on every anchor over arbitrary mutation histories — the indexed
    /// profile is decision-for-decision identical to the old one.
    #[test]
    fn indexed_linear_and_reference_anchors_agree(
        cap in 1u32..=24,
        ops in proptest::collection::vec(op(), 0..140),
        queries in proptest::collection::vec((0u64..25_000, 1u64..4_000, 1u32..=24), 1..25),
    ) {
        let p = apply_ops(cap, &ops);
        prop_assert!(p.invariants_ok(), "bad profile: {:?}", p.segments());
        for (earliest, dur, width) in queries {
            let width = width.min(cap);
            let earliest = SimTime::new(earliest);
            let dur = SimSpan::new(dur);
            let indexed = p.find_anchor(earliest, dur, width);
            let linear = linear_anchor(&p, earliest, dur, width);
            prop_assert_eq!(
                indexed,
                linear,
                "indexed vs linear diverged at ({}, {}, {}) over {:?}",
                earliest, dur, width, p.segments()
            );
            let reference = reference_anchor(&p.segments(), cap, earliest, dur, width);
            prop_assert_eq!(
                indexed,
                reference,
                "indexed vs reference diverged at ({}, {}, {}) over {:?}",
                earliest, dur, width, p.segments()
            );
        }
    }

    /// Probing never mutates: any sequence of find_anchor calls (either
    /// implementation) leaves the profile silhouette untouched.
    #[test]
    fn anchor_searches_are_pure(
        ops in proptest::collection::vec(op(), 0..100),
        queries in proptest::collection::vec((0u64..25_000, 1u64..4_000, 1u32..=16), 1..15),
    ) {
        let cap = 16;
        let p = apply_ops(cap, &ops);
        let snapshot = p.clone();
        for (earliest, dur, width) in queries {
            p.find_anchor(SimTime::new(earliest), SimSpan::new(dur), width.min(cap));
            linear_anchor(&p, SimTime::new(earliest), SimSpan::new(dur), width.min(cap));
        }
        prop_assert_eq!(p, snapshot);
    }
}

proptest! {
    // Few cases: each one builds a ~1000-reservation profile.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The same agreement on profiles of many chunks, so chunk leaps
    /// through the tree and in-chunk scans are both the code under test.
    /// (The naive reference is quadratic, so these big cases check indexed
    /// against linear, which the cases above tie to the reference.)
    #[test]
    fn indexed_agrees_with_linear_across_many_chunks(
        seed_ops in proptest::collection::vec(op(), 900..1_000),
        queries in proptest::collection::vec((0u64..40_000, 1u64..6_000, 1u32..=24), 1..40),
    ) {
        // Reserves only: every op grows the segment list, to well over
        // sixteen chunks.
        let cap = 24;
        let mut p = Profile::new(cap);
        for op in &seed_ops {
            let dur = SimSpan::new(op.b);
            let anchor = p.find_anchor(SimTime::new(op.a * 3), dur, op.w);
            p.reserve(anchor, dur, op.w);
        }
        prop_assert!(p.invariants_ok(), "bad profile");
        prop_assert!(
            p.segments().len() > 16 * Profile::CHUNK_SEGMENTS,
            "profile too small to span many chunks"
        );
        for (earliest, dur, width) in queries {
            let earliest = SimTime::new(earliest);
            let dur = SimSpan::new(dur);
            prop_assert_eq!(
                p.find_anchor(earliest, dur, width),
                linear_anchor(&p, earliest, dur, width),
                "indexed vs linear diverged at ({}, {}, {})",
                earliest, dur, width
            );
        }
    }
}

#[test]
fn indexed_and_linear_anchors_agree_on_dense_profile() {
    // A profile spanning many chunks, so the search leaps between
    // chunks as well as scanning inside them: mixed widths force both
    // the first-feasible establishment and the first-blocker window
    // verification over many candidates.
    let chunk = Profile::CHUNK_SEGMENTS as u64;
    let mut p = Profile::new(64);
    for i in 0..8 * chunk {
        let at = SimTime::new(i * 10);
        let width = 1 + ((i * 7 + 3) % 60) as u32;
        p.reserve(
            at,
            SimSpan::new(10 + (i % 13) * 5),
            width.min(p.free_at(at)),
        );
    }
    assert!(
        p.segments().len() > 4 * Profile::CHUNK_SEGMENTS,
        "want a profile spanning many chunks"
    );
    for earliest in (0..8 * chunk * 10).step_by(53) {
        for &width in &[1u32, 7, 23, 40, 64] {
            for &dur in &[1u64, 50, 400, 5_000] {
                let (e, dur) = (SimTime::new(earliest), SimSpan::new(dur));
                assert_eq!(
                    p.find_anchor(e, dur, width),
                    linear_anchor(&p, e, dur, width),
                    "diverged at earliest={e} dur={dur} width={width}"
                );
            }
        }
    }
}

// ---- the lazily read fits memo --------------------------------------------

/// A query left edge: on, just before or just after a segment boundary
/// (picked by `a`), or the raw instant `a`.
fn edge() -> impl Strategy<Value = (u64, u8)> {
    (0u64..30_000, 0u8..4)
}

fn edge_at(segs: &[Segment], (a, kind): (u64, u8)) -> SimTime {
    let at = segs[a as usize % segs.len()].start.as_secs();
    SimTime::new(match kind {
        0 => at.saturating_sub(1),
        1 => at,
        2 => at + 1,
        _ => a,
    })
}

/// One `fits` query of a run: a duration selector and a width (see
/// [`duration`]). Zero widths are included.
fn fits_query() -> impl Strategy<Value = (u8, u64, u32)> {
    (0u8..6, 0u64..40_000, 0u32..=24)
}

/// A query's duration from the left edge `e`: zero, windows ending
/// inside the profile, windows closing exactly on a segment boundary,
/// and ones ending past the last boundary (or saturating at the end of
/// time). Drawn in no particular order, so a run's queries land both
/// inside and beyond the part of the memo already read.
fn duration(segs: &[Segment], e: SimTime, kind: u8, x: u64) -> SimSpan {
    let boundary = segs[x as usize % segs.len()].start;
    SimSpan::new(match kind {
        0 => 0,
        1 => 1 + x % 300,
        2 => 1 + x % 6_000,
        3 if boundary > e => boundary.since(e).as_secs(),
        3 => 1 + x % 300,
        4 => 20_000 + x,
        _ => u64::MAX,
    })
}

/// `fits` by definition: the naive reference anchors at `e` itself.
fn reference_fits(segs: &[Segment], cap: u32, e: SimTime, dur: SimSpan, width: u32) -> bool {
    dur.is_zero() || width == 0 || reference_anchor(segs, cap, e, dur, width) == e
}

proptest! {
    #![proptest_config(chunk_cases(192))]

    /// Between mutations of one profile, runs of `fits` queries at one
    /// left edge (then a few at a second edge, then the first run again)
    /// agree with the naive reference on every answer: the memo is reset
    /// by every mutation and every change of edge, reads on past its
    /// horizon only as far as a query needs, and answers from what it
    /// has read otherwise.
    #[test]
    fn fits_memo_agrees_with_reference_over_query_runs(
        cap in 1u32..=24,
        ops in proptest::collection::vec(op(), 0..140),
        rounds in proptest::collection::vec(
            (
                op(),
                edge(),
                edge(),
                proptest::collection::vec(fits_query(), 3..10),
                proptest::collection::vec(fits_query(), 0..4),
            ),
            1..8,
        ),
    ) {
        let mut h = History::new(cap);
        for op in &ops {
            h.apply(op);
        }
        for (mutation, first, second, run, others) in &rounds {
            h.apply(mutation);
            let segs = h.p.segments();
            let last_free = segs[segs.len() - 1].free;
            let (e1, e2) = (edge_at(&segs, *first), edge_at(&segs, *second));
            let queries = run
                .iter()
                .map(|&q| (e1, q))
                .chain(others.iter().map(|&q| (e2, q)))
                .chain(run.iter().map(|&q| (e1, q)));
            for (e, (kind, x, width)) in queries {
                let (dur, width) = (duration(&segs, e, kind, x), width.min(last_free));
                prop_assert_eq!(
                    h.p.fits(e, dur, width),
                    reference_fits(&segs, cap, e, dur, width),
                    "fits({}, {}, {}) over {:?}",
                    e, dur, width, segs
                );
            }
        }
    }
}

// ---- chunk boundaries -----------------------------------------------------

/// Segments per chunk.
const B: usize = Profile::CHUNK_SEGMENTS;

/// Free processors at `t` by a walk over the raw segments.
fn reference_free_at(segs: &[Segment], cap: u32, t: SimTime) -> u32 {
    segs.iter()
        .take_while(|s| s.start <= t)
        .last()
        .map_or(cap, |s| s.free)
}

/// Case count for the chunk-boundary properties: `PROPTEST_CASES` can
/// raise it (CI runs this file in release with more cases), never lower it.
fn chunk_cases(default: u32) -> ProptestConfig {
    let raised = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    ProptestConfig::with_cases(default.max(raised))
}

/// Check `p` against the references after one operation: its invariants
/// (every chunk summary and the chunk tree against a from-scratch build),
/// then anchors, `fits` and `free_at` at instants on, just before and
/// just after a spread of segment boundaries — wherever the chunk edges
/// fall — with narrow to full widths and short to horizon-long windows.
fn check(p: &Profile, step: usize) -> Result<(), TestCaseError> {
    prop_assert!(
        p.invariants_ok(),
        "step {}: bad profile {:?}",
        step,
        p.segments()
    );
    let cap = p.capacity();
    let segs = p.segments();
    let widths = [1, cap.div_ceil(2), cap];
    let durs = [1u64, 90, 2_000, 60_000];
    let stride = (segs.len() / 10).max(1);
    for (n, j) in (step % stride..segs.len()).step_by(stride).enumerate() {
        let at = segs[j].start.as_secs();
        for (m, e) in [at.saturating_sub(1), at, at + 1].into_iter().enumerate() {
            let e = SimTime::new(e);
            let width = widths[(n + m) % widths.len()];
            let dur = SimSpan::new(durs[(n + 2 * m + step) % durs.len()]);
            prop_assert_eq!(
                p.free_at(e),
                reference_free_at(&segs, cap, e),
                "step {}: free_at({})",
                step,
                e
            );
            if width > segs[segs.len() - 1].free {
                continue; // could never fit: the searches assert on it
            }
            let indexed = p.find_anchor(e, dur, width);
            let reference = reference_anchor(&segs, cap, e, dur, width);
            prop_assert_eq!(
                indexed,
                linear_anchor(p, e, dur, width),
                "step {}: indexed vs linear at ({}, {}, {})",
                step,
                e,
                dur,
                width
            );
            prop_assert_eq!(
                indexed,
                reference,
                "step {}: indexed vs reference at ({}, {}, {})",
                step,
                e,
                dur,
                width
            );
            // Twice: the first probe resets the fits memo and reads it, the
            // repeat is a lookup in what was read.
            for _ in 0..2 {
                prop_assert_eq!(p.fits(e, dur, width), reference == e, "step {}: fits", step);
            }
        }
    }
    Ok(())
}

/// Panic with the failing check's message (for the scripted tests).
fn check_or_panic(p: &Profile, step: usize) {
    if let Err(e) = check(p, step) {
        panic!("{e}");
    }
}

/// `k` disjoint one-wide rectangles, 100 s apart from `origin`, each
/// 50 s long: `2k` segments on a fresh profile.
fn comb(cap: u32, k: u64) -> Profile {
    let mut p = Profile::new(cap);
    for i in 0..k {
        p.reserve(SimTime::new(i * 100), SimSpan::new(50), 1);
    }
    p
}

#[test]
fn exactly_one_full_chunk_and_one_more_segment() {
    // B segments fill one chunk exactly: no split yet, no tree.
    let mut p = comb(8, B as u64 / 2);
    assert_eq!(p.segments().len(), B);
    assert_eq!(p.stats().tree_rebuilds, 0, "B segments must fit one chunk");
    check_or_panic(&p, 0);
    // One more boundary (a rectangle ending inside an existing segment)
    // makes B + 1 segments: the full chunk splits once.
    p.reserve(SimTime::new(0), SimSpan::new(20), 1);
    assert_eq!(p.segments().len(), B + 1);
    assert_eq!(p.stats().tree_rebuilds, 1, "B + 1 segments split the chunk");
    check_or_panic(&p, 1);
    // Removing that boundary again leaves B segments in two chunks.
    p.release(SimTime::new(0), SimSpan::new(20), 1);
    assert_eq!(p.segments().len(), B);
    check_or_panic(&p, 2);
}

#[test]
fn scripted_splits_spans_coalescing_and_whole_chunk_trims() {
    let cap = 8;
    let mut p = Profile::new(cap);
    let mut step = 0;
    let mut checked = |p: &Profile| {
        step += 1;
        check_or_panic(p, step);
    };

    // Splits: 2 boundaries per rectangle, to 4B segments.
    for i in 0..2 * B as u64 {
        p.reserve(SimTime::new(i * 100), SimSpan::new(50), 1 + (i % 3) as u32);
        checked(&p);
    }
    assert_eq!(p.segments().len(), 4 * B);
    let splits = p.stats().tree_rebuilds;
    assert!(splits >= 3, "{splits} chunk splits, want at least 3");

    // A one-wide reservation spanning more than 2B segments, hence at
    // least three chunks; then released again.
    let horizon = SimSpan::new(2 * B as u64 * 100);
    let span = p.segments()[1..]
        .iter()
        .filter(|s| s.start.as_secs() < 10 + horizon.as_secs())
        .count();
    assert!(span > 2 * B, "the span covers {span} segments");
    assert!(p.fits(SimTime::new(10), horizon, 1));
    p.reserve(SimTime::new(10), horizon, 1);
    checked(&p);
    p.release(SimTime::new(10), horizon, 1);
    checked(&p);

    // Trims that drop whole chunks: past B segments at a time.
    let before = p.segments().len();
    let rebuilds = p.stats().tree_rebuilds;
    p.trim_before(SimTime::new(B as u64 / 2 * 100 + 25));
    checked(&p);
    assert!(p.segments().len() < before - B + 2);
    assert!(
        p.stats().tree_rebuilds > rebuilds,
        "a whole chunk was dropped"
    );

    // Chunks emptied by coalescing: release every remaining rectangle
    // but the last, newest first; each release merges its rectangle into
    // the free level around it, until one chunk is left.
    let first = B as u64 / 2;
    for i in (first..2 * B as u64 - 1).rev() {
        p.release(SimTime::new(i * 100), SimSpan::new(50), 1 + (i % 3) as u32);
        checked(&p);
    }
    assert!(p.segments().len() <= 4, "{:?}", p.segments());
    let s = p.stats();
    assert!(
        s.tree_rebuilds > rebuilds + 1,
        "emptied chunks were dropped"
    );
}

/// A mutation history biased toward chunk-layout changes. The first half
/// of a history grows the profile: short, dense rectangles fill chunks
/// until they split, and long thin reservations span many of them. The
/// second half shrinks it: releasing whole rectangles (the earliest
/// first, so trims can cut deep) coalesces chunks empty, and trims drop
/// whole chunks.
#[derive(Debug, Clone, Copy)]
struct ChunkOp {
    kind: u8,
    a: u64,
    b: u64,
    w: u32,
}

fn chunk_op() -> impl Strategy<Value = ChunkOp> {
    (0u8..10, 0u64..3_000, 1u64..120, 1u32..=6).prop_map(|(kind, a, b, w)| ChunkOp {
        kind,
        a,
        b,
        w,
    })
}

proptest! {
    #![proptest_config(chunk_cases(48))]

    /// Anchors, `fits` and `free_at` agree with the linear scan and the
    /// naive reference after every operation of histories that split,
    /// empty and trim chunks and reserve across many of them.
    #[test]
    fn chunk_boundary_histories_agree_after_every_op(
        cap in 2u32..=6,
        ops in proptest::collection::vec(chunk_op(), 80..300),
    ) {
        let mut p = Profile::new(cap);
        let mut live: Vec<(SimTime, SimSpan, u32)> = Vec::new();
        for (step, op) in ops.iter().enumerate() {
            let growing = step < ops.len() / 2;
            let width = op.w.min(cap);
            match (growing, op.kind) {
                // Short dense rectangles: the segment count climbs.
                (true, 0..=5) => {
                    let dur = SimSpan::new(op.b);
                    let anchor = p.find_anchor(SimTime::new(op.a), dur, width);
                    p.reserve(anchor, dur, width);
                    live.push((anchor, dur, width));
                }
                // A long one-wide reservation across many segments.
                (true, 6) => {
                    let dur = SimSpan::new(op.b * 40);
                    let anchor = p.find_anchor(SimTime::new(op.a), dur, 1);
                    p.reserve(anchor, dur, 1);
                    live.push((anchor, dur, 1));
                }
                // Release a tail (early completion).
                (_, 7) => {
                    if live.is_empty() {
                        continue;
                    }
                    let (start, dur, w) = live.remove(op.a as usize % live.len());
                    let keep = SimSpan::new(op.b % dur.as_secs().max(1));
                    p.release(start + keep, dur - keep, w);
                    if !keep.is_zero() {
                        live.push((start, keep, w));
                    }
                }
                // Trim up to (never past) the earliest live reservation.
                (_, 9) => {
                    let horizon = live
                        .iter()
                        .map(|&(start, _, _)| start)
                        .min()
                        .unwrap_or(SimTime::new(u64::MAX));
                    p.trim_before(SimTime::new(op.a).min(horizon));
                }
                // Release a whole rectangle, its boundaries coalescing
                // away: a random one, or while shrinking mostly the
                // earliest.
                (_, kind) => {
                    if live.is_empty() {
                        continue;
                    }
                    let ix = if !growing && kind <= 4 {
                        (0..live.len()).min_by_key(|&i| live[i].0).expect("non-empty")
                    } else {
                        op.a as usize % live.len()
                    };
                    let (start, dur, w) = live.remove(ix);
                    p.release(start, dur, w);
                }
            }
            check(&p, step)?;
        }
    }
}
