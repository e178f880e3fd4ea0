//! Property-based tests of the availability profile — the data structure
//! every backfilling decision rests on.

use proptest::prelude::*;
use sched::Profile;
use simcore::{SimSpan, SimTime};

/// One step of a random history: reserve at an anchor, release the tail
/// of a live reservation, or trim the past away.
fn history_op() -> impl Strategy<Value = (u8, u64, u64, u32)> {
    (0u8..6, 0u64..6_000, 1u64..400, 1u32..=8)
}

/// Apply `ops` to a fresh profile of `cap` processors. Releases give back
/// tails of still-live reservations; trims never pass a live
/// reservation's start, whose tail may still be released.
fn build_history(cap: u32, ops: &[(u8, u64, u64, u32)]) -> Profile {
    let mut p = Profile::new(cap);
    let mut live: Vec<(SimTime, SimSpan, u32)> = Vec::new();
    for &(kind, a, b, w) in ops {
        let width = w.min(cap);
        match kind {
            0..=2 => {
                let dur = SimSpan::new(b);
                let anchor = p.find_anchor(SimTime::new(a), dur, width);
                p.reserve(anchor, dur, width);
                live.push((anchor, dur, width));
            }
            3 | 4 if !live.is_empty() => {
                let (start, dur, w) = live.remove(a as usize % live.len());
                let keep = SimSpan::new(b % dur.as_secs());
                p.release(start + keep, dur - keep, w);
                if !keep.is_zero() {
                    live.push((start, keep, w));
                }
            }
            _ => {
                let first_live = live.iter().map(|&(start, _, _)| start).min();
                let cut = SimTime::new(a % 3_000);
                p.trim_before(first_live.map_or(cut, |t| t.min(cut)));
            }
        }
    }
    p
}

/// The first instant at or after `t` with no free processor, by a plain
/// walk of the segments (`u64::MAX` if there is none).
fn naive_zero_horizon(p: &Profile, t: SimTime) -> SimTime {
    if p.free_at(t) == 0 {
        return t;
    }
    p.segments()
        .into_iter()
        .find(|s| s.start > t && s.free == 0)
        .map_or(SimTime::new(u64::MAX), |s| s.start)
}

/// A random rectangle that always fits an empty machine of `cap`.
fn rect(cap: u32) -> impl Strategy<Value = (u64, u64, u32)> {
    (0u64..5_000, 1u64..2_000, 1u32..=cap.max(1))
        .prop_map(move |(start, dur, width)| (start, dur, width.min(cap)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Reserving rectangles found by find_anchor never panics and keeps
    /// the structural invariants.
    #[test]
    fn anchored_reservations_always_fit(
        cap in 1u32..64,
        rects in proptest::collection::vec(rect(64), 0..40),
    ) {
        let mut p = Profile::new(cap);
        for (earliest, dur, width) in rects {
            let width = width.min(cap);
            let dur = SimSpan::new(dur);
            let anchor = p.find_anchor(SimTime::new(earliest), dur, width);
            prop_assert!(anchor >= SimTime::new(earliest));
            p.reserve(anchor, dur, width);
            prop_assert!(p.invariants_ok(), "invariants broken: {:?}", p.segments());
        }
    }

    /// find_anchor returns the *earliest* feasible anchor: the rectangle
    /// does not fit at any profile breakpoint in [earliest, anchor).
    #[test]
    fn anchor_is_earliest_breakpoint(
        pre in proptest::collection::vec(rect(16), 0..12),
        earliest in 0u64..4_000,
        dur in 1u64..1_500,
        width in 1u32..=16,
    ) {
        let cap = 16;
        let mut p = Profile::new(cap);
        for (e, d, w) in pre {
            let a = p.find_anchor(SimTime::new(e), SimSpan::new(d), w);
            p.reserve(a, SimSpan::new(d), w);
        }
        let dur = SimSpan::new(dur);
        let anchor = p.find_anchor(SimTime::new(earliest), dur, width);
        // The anchor itself must fit.
        prop_assert!(p.fits(anchor, dur, width));
        // No earlier candidate fits: checking `earliest` and every segment
        // start in (earliest, anchor) covers all distinct profile shapes.
        if anchor > SimTime::new(earliest) {
            prop_assert!(!p.fits(SimTime::new(earliest), dur, width));
            for seg in p.segments() {
                if seg.start > SimTime::new(earliest) && seg.start < anchor {
                    prop_assert!(
                        !p.fits(seg.start, dur, width),
                        "anchor {anchor} not earliest: fits at {}",
                        seg.start
                    );
                }
            }
        }
    }

    /// reserve followed by the exact inverse release restores the profile.
    #[test]
    fn reserve_release_roundtrip(
        pre in proptest::collection::vec(rect(32), 0..10),
        extra in rect(32),
    ) {
        let cap = 32;
        let mut p = Profile::new(cap);
        for (e, d, w) in pre {
            let a = p.find_anchor(SimTime::new(e), SimSpan::new(d), w);
            p.reserve(a, SimSpan::new(d), w);
        }
        let snapshot = p.clone();
        let (e, d, w) = extra;
        let a = p.find_anchor(SimTime::new(e), SimSpan::new(d), w);
        p.reserve(a, SimSpan::new(d), w);
        p.release(a, SimSpan::new(d), w);
        prop_assert_eq!(p, snapshot);
    }

    /// free_at is consistent with the segment representation and never
    /// exceeds capacity.
    #[test]
    fn free_levels_bounded(
        rects in proptest::collection::vec(rect(16), 0..20),
        probes in proptest::collection::vec(0u64..10_000, 0..30),
    ) {
        let cap = 16;
        let mut p = Profile::new(cap);
        for (e, d, w) in rects {
            let a = p.find_anchor(SimTime::new(e), SimSpan::new(d), w);
            p.reserve(a, SimSpan::new(d), w);
        }
        for t in probes {
            let f = p.free_at(SimTime::new(t));
            prop_assert!(f <= cap);
        }
        // Far future: everything released (all rectangles are finite).
        prop_assert_eq!(p.free_at(SimTime::new(u64::MAX / 4)), cap);
    }

    /// trim_before never changes the future of the profile.
    #[test]
    fn trim_preserves_future(
        rects in proptest::collection::vec(rect(16), 0..15),
        cut in 0u64..8_000,
        probes in proptest::collection::vec(0u64..10_000, 1..20),
    ) {
        let cap = 16;
        let mut p = Profile::new(cap);
        for (e, d, w) in rects {
            let a = p.find_anchor(SimTime::new(e), SimSpan::new(d), w);
            p.reserve(a, SimSpan::new(d), w);
        }
        let before = p.clone();
        p.trim_before(SimTime::new(cut));
        prop_assert!(p.invariants_ok());
        for t in probes {
            let t = t.max(cut);
            prop_assert_eq!(p.free_at(SimTime::new(t)), before.free_at(SimTime::new(t)));
        }
    }

    /// Two disjoint-in-time reservations never interact.
    #[test]
    fn disjoint_reservations_commute(
        d1 in 1u64..500, w1 in 1u32..=8,
        d2 in 1u64..500, w2 in 1u32..=8,
        gap in 0u64..100,
    ) {
        let cap = 8;
        let s1 = 0u64;
        let s2 = s1 + d1 + gap;
        let mut a = Profile::new(cap);
        a.reserve(SimTime::new(s1), SimSpan::new(d1), w1);
        a.reserve(SimTime::new(s2), SimSpan::new(d2), w2);
        let mut b = Profile::new(cap);
        b.reserve(SimTime::new(s2), SimSpan::new(d2), w2);
        b.reserve(SimTime::new(s1), SimSpan::new(d1), w1);
        prop_assert_eq!(a, b);
    }

    /// `zero_horizon` equals a plain walk of the segments, and the lemma
    /// the start-now scans rest on holds: a window of positive length
    /// that ends past the horizon never fits, at any width. Histories on
    /// narrow machines reach level 0 often, horizons fall at the query
    /// instant itself (every segment start is queried), and the machine
    /// with no history never reaches 0. Long histories span several
    /// chunks, so the horizon search leaps chunk summaries.
    #[test]
    fn zero_horizon_matches_a_segment_walk_and_bounds_fits(
        cap in 1u32..=8,
        ops in proptest::collection::vec(history_op(), 0..160),
        queries in proptest::collection::vec((0u64..8_000, 1u64..1_500, 1u32..=8), 1..24),
    ) {
        let p = build_history(cap, &ops);
        let instants: Vec<SimTime> = queries
            .iter()
            .map(|&(t, _, _)| SimTime::new(t))
            .chain(p.segments().iter().map(|s| s.start))
            .collect();
        for (k, &now) in instants.iter().enumerate() {
            let horizon = p.zero_horizon(now);
            prop_assert_eq!(horizon, naive_zero_horizon(&p, now), "at {}", now);
            prop_assert!(horizon >= now);
            let (_, d, w) = queries[k % queries.len()];
            let width = w.min(cap);
            // Durations that end just past the horizon, and the query's own.
            let past = horizon.since(now).as_secs().saturating_add(1);
            for dur in [d, past, past.saturating_add(d)] {
                let dur = SimSpan::new(dur);
                if now + dur > horizon {
                    prop_assert!(
                        !p.fits(now, dur, width),
                        "fits({}, {:?}, {}) past the horizon {}",
                        now,
                        dur,
                        width,
                        horizon
                    );
                }
            }
        }
    }
}
