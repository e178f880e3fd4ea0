//! Pinned edge cases of the anchor search and the fits memo.
//!
//! Each unit test nails one boundary the many-chunk path (chunk leaps
//! over the chunk summaries), the one-chunk scan, and the linear oracle
//! (`support::linear_anchor`) must agree on: zero-width requests, zero-duration rectangles, and anchors exactly at the
//! past-cutoff boundary `trim_before` leaves behind (the implicit
//! fully-free region before the first segment). The property test at the
//! bottom hammers the fits memo specifically *across* mutations: every
//! `fits` answer — first probe after a mutation (memo reset), repeat
//! probe (memoized), repeat after another mutation — must equal the
//! linear oracle's verdict.

mod support;

use proptest::prelude::*;
use sched::Profile;
use simcore::{SimSpan, SimTime};
use support::linear_anchor;

fn t(s: u64) -> SimTime {
    SimTime::new(s)
}
fn d(s: u64) -> SimSpan {
    SimSpan::new(s)
}

/// A congested profile of many chunks (so `find_anchor` leaps chunks
/// by their summaries) and a trimmed past, leaving the
/// implicit fully-free region before the first real segment.
fn large_trimmed() -> Profile {
    let mut p = Profile::new(16);
    for i in 0..600u64 {
        p.reserve(t(1_000 + i * 20), d(15), 1 + (i % 11) as u32);
    }
    assert!(
        p.segments().len() > 4 * Profile::CHUNK_SEGMENTS,
        "profile must span many chunks"
    );
    p.trim_before(t(1_000));
    assert!(
        p.segments()[0].start == t(1_000),
        "trim must leave a boundary at the cutoff"
    );
    p
}

/// A small profile (one chunk, nothing to leap) with the same trimmed shape.
fn small_trimmed() -> Profile {
    let mut p = Profile::new(16);
    p.reserve(t(1_000), d(500), 12);
    p.reserve(t(2_000), d(500), 7);
    p.trim_before(t(1_000));
    p
}

#[test]
fn zero_width_anchors_at_earliest_on_all_paths() {
    for p in [small_trimmed(), large_trimmed()] {
        for e in [0, 500, 1_000, 1_234, 100_000] {
            assert_eq!(p.find_anchor(t(e), d(100), 0), t(e));
            assert_eq!(linear_anchor(&p, t(e), d(100), 0), t(e));
            assert!(p.fits(t(e), d(100), 0));
        }
    }
}

#[test]
fn zero_duration_anchors_at_earliest_on_all_paths() {
    for p in [small_trimmed(), large_trimmed()] {
        for e in [0, 500, 1_000, 1_234, 100_000] {
            assert_eq!(p.find_anchor(t(e), d(0), 16), t(e));
            assert_eq!(linear_anchor(&p, t(e), d(0), 16), t(e));
            assert!(p.fits(t(e), d(0), 16));
        }
    }
}

#[test]
fn zero_duration_reservation_is_a_noop_even_before_the_cutoff() {
    let mut p = large_trimmed();
    let snapshot = p.clone();
    // In the implicit free region, at the boundary, and past it.
    p.reserve(t(10), d(0), 5);
    p.reserve(t(1_000), d(0), 5);
    p.reserve(t(5_000), d(0), 5);
    assert_eq!(p, snapshot);
}

#[test]
fn window_ending_exactly_at_the_cutoff_boundary_fits() {
    // [earliest, earliest + dur) closing exactly at segs[0].start lies
    // wholly in the implicit fully-free region: must anchor immediately,
    // on every path, regardless of how blocked the first segment is.
    for p in [small_trimmed(), large_trimmed()] {
        let first = p.segments()[0].start;
        let e = t(first.as_secs() - 100);
        assert_eq!(p.find_anchor(e, d(100), 16), e);
        assert_eq!(linear_anchor(&p, e, d(100), 16), e);
        assert!(p.fits(e, d(100), 16));
    }
}

#[test]
fn window_crossing_the_cutoff_boundary_sees_the_first_segment() {
    for p in [small_trimmed(), large_trimmed()] {
        let first = p.segments()[0].start;
        let free0 = p.segments()[0].free;
        let e = t(first.as_secs() - 100);
        // One second longer than the free prefix: the window now overlaps
        // the (partially blocked) first segment.
        let width = free0 + 1; // more than the first segment offers
        let a_chunked = p.find_anchor(e, d(101), width);
        let a_lin = linear_anchor(&p, e, d(101), width);
        assert_eq!(a_chunked, a_lin);
        assert!(
            a_chunked > e,
            "crossing window must not anchor in the prefix"
        );
        assert!(!p.fits(e, d(101), width));
        // At a width the first segment can host, the crossing window
        // anchors at `e` on both paths.
        if free0 > 0 {
            assert_eq!(p.find_anchor(e, d(101), free0), e);
            assert_eq!(linear_anchor(&p, e, d(101), free0), e);
            assert!(p.fits(e, d(101), free0));
        }
    }
}

#[test]
fn anchor_exactly_at_the_cutoff_boundary() {
    for p in [small_trimmed(), large_trimmed()] {
        let first = p.segments()[0].start;
        // Probing from exactly the boundary: both paths start at the
        // first real segment, never the implicit region behind it.
        for &width in &[1u32, 8, 16] {
            for &dur in &[1u64, 250, 10_000] {
                assert_eq!(
                    p.find_anchor(first, d(dur), width),
                    linear_anchor(&p, first, d(dur), width),
                    "diverged at boundary for dur={dur} width={width}"
                );
            }
        }
    }
}

#[test]
fn anchor_in_implicit_region_agrees_between_paths() {
    for p in [small_trimmed(), large_trimmed()] {
        for offset in [1u64, 50, 99, 100, 500] {
            let e = t(p.segments()[0].start.as_secs().saturating_sub(offset));
            for &width in &[1u32, 8, 16] {
                for &dur in &[1u64, 99, 100, 101, 2_000] {
                    assert_eq!(
                        p.find_anchor(e, d(dur), width),
                        linear_anchor(&p, e, d(dur), width),
                        "diverged at e={e} dur={dur} width={width}"
                    );
                }
            }
        }
    }
}

/// Compression-shaped mutation + probe interleavings for the fits memo.
///
/// The generation-token scheme has three observable states per (profile,
/// left edge): first miss (memo reset), memoized repeat, invalidated by
/// mutation. The script below forces all the transitions a compression
/// pass produces — probe, mutate, re-probe same edge, probe other edge,
/// trim, probe again — and checks every single answer against the linear
/// oracle (`fits(from, dur, w)` ⟺ the linear anchor stays at `from`).
#[derive(Debug, Clone, Copy)]
enum Step {
    /// find_anchor + reserve at the anchor (grows the profile).
    Reserve { earliest: u64, dur: u64, width: u32 },
    /// Probe `fits` at a pinned left edge, repeatedly (miss + memo paths).
    Probe { from: u64, dur: u64, width: u32 },
    /// Compression-style move: release the most recent live reservation
    /// and re-reserve it at its own re-anchor (mutates between probes).
    Compress,
    /// Trim the past up to the earliest live reservation.
    Trim { cut: u64 },
}

fn step() -> impl Strategy<Value = Step> {
    (0u8..8, 0u64..10_000, 1u64..2_000, 1u32..=12).prop_map(|(kind, a, b, w)| match kind {
        0..=2 => Step::Reserve {
            earliest: a,
            dur: b.min(1_500),
            width: w,
        },
        3..=5 => Step::Probe {
            from: a,
            dur: b,
            width: w,
        },
        6 => Step::Compress,
        _ => Step::Trim { cut: a % 6_000 },
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn fits_memo_agrees_with_linear_oracle_across_mutations(
        steps in proptest::collection::vec(step(), 1..60),
    ) {
        let cap = 12u32;
        let mut p = Profile::new(cap);
        let mut live: Vec<(SimTime, SimSpan, u32)> = Vec::new();
        let check = |p: &Profile, from: SimTime, dur: SimSpan, width: u32| {
            let expect = linear_anchor(p, from, dur, width) == from;
            // First call may be the memo-resetting miss, the second the
            // memoizing rebuild, the third the memo hit: all must agree.
            for round in 0..3 {
                prop_assert_eq!(
                    p.fits(from, dur, width),
                    expect,
                    "fits({:?},{:?},{}) diverged from oracle on round {}",
                    from, dur, width, round
                );
            }
            Ok(())
        };
        for s in steps {
            match s {
                Step::Reserve { earliest, dur, width } => {
                    let dur = SimSpan::new(dur);
                    let width = width.min(cap);
                    let a = p.find_anchor(SimTime::new(earliest), dur, width);
                    p.reserve(a, dur, width);
                    live.push((a, dur, width));
                    // Re-probe the edge the reservation just landed on:
                    // the memo for this edge (if any) is now stale.
                    check(&p, a, dur, width)?;
                }
                Step::Probe { from, dur, width } => {
                    check(&p, SimTime::new(from), SimSpan::new(dur), width.min(cap))?;
                }
                Step::Compress => {
                    let Some((start, dur, width)) = live.pop() else { continue };
                    // Probe, mutate, re-probe the same left edge: the
                    // classic stale-cache hazard.
                    check(&p, start, dur, width)?;
                    p.release(start, dur, width);
                    let a = p.find_anchor(SimTime::ZERO, dur, width);
                    p.reserve(a, dur, width);
                    live.push((a, dur, width));
                    check(&p, start, dur, width)?;
                }
                Step::Trim { cut } => {
                    let horizon = live
                        .iter()
                        .map(|&(start, _, _)| start)
                        .min()
                        .unwrap_or(SimTime::new(u64::MAX));
                    let cut = SimTime::new(cut).min(horizon);
                    p.trim_before(cut);
                    check(&p, cut, SimSpan::new(100), 1)?;
                }
            }
            prop_assert!(p.invariants_ok());
        }
    }
}
