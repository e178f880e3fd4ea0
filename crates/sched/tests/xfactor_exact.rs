//! The exact XFactor comparator against the `f64` expansion factor, and
//! `Policy::flip_time` against the comparator it certifies.
//!
//! `Policy::compare` orders XFactor by cross-multiplying integers; the
//! `f64` `Policy::xfactor` is `(wait + e) / e` correctly rounded, and
//! rounding is monotone. So the two orders can differ only where the `f64`
//! values tie while the exact ratios do not, and the arrival/id tie-break
//! then picks the other job. Two distinct ratios `wait / e` differ by at
//! least `1 / (e_a · e_b)`, and one `f64` ulp of an expansion factor `y`
//! is at most `y · 2⁻⁵²`, so such a tie needs `max(e) · max(wait + e) >
//! 2⁵²` — about 4.5 · 10¹⁵ s². The paper's workloads cap estimates at 18 h
//! (64,800 s) and wait far less than 10⁷ s, a product under 10¹², so the
//! two orders agree on every one of their cells.

use proptest::prelude::*;
use sched::{JobMeta, Policy};
use simcore::{JobId, SimSpan, SimTime};
use std::cmp::Ordering;

fn job(id: u32, arrival: u64, estimate: u64) -> JobMeta {
    JobMeta {
        id: JobId(id),
        arrival: SimTime::new(arrival),
        estimate: SimSpan::new(estimate),
        width: 1,
    }
}

/// The order the `f64` expansion factor gives, with the shared tie-break.
fn f64_order(a: &JobMeta, b: &JobMeta, now: SimTime) -> Ordering {
    Policy::xfactor(b, now)
        .total_cmp(&Policy::xfactor(a, now))
        .then(a.arrival.cmp(&b.arrival))
        .then(a.id.cmp(&b.id))
}

/// `max(e) · max(wait + e)` of a pair, the product a rounding tie needs
/// above 2⁵².
fn tie_scale(a: &JobMeta, b: &JobMeta, now: SimTime) -> u128 {
    let terms = |j: &JobMeta| {
        let e = j.estimate.as_secs().max(1);
        (e, now.since(j.arrival).as_secs() + e)
    };
    let ((ea, sa), (eb, sb)) = (terms(a), terms(b));
    u128::from(ea.max(eb)) * u128::from(sa.max(sb))
}

/// A pair drawn to stress the `f64` rounding: estimates of 0 and 1, waits
/// near 10⁸ s, and near-equal ratios on large estimates (about 2% of
/// those tie in `f64` while their exact ratios differ).
fn arb_pair() -> impl Strategy<Value = (JobMeta, JobMeta, SimTime)> {
    (0u8..5, 0u64..1 << 40, 0u64..1 << 40, 0u64..3, 0u32..2).prop_map(|(kind, x, y, delta, ids)| {
        let now = 1u64 << 45;
        let (wa, ea, wb, eb) = match kind {
            // Zero and one-second estimates (both count as 1 s).
            0 => (x % 1_000, x % 2, y % 1_000, y % 2),
            // Waits near 10⁸ s on short estimates.
            1 => (
                100_000_000 + x % 1_000,
                1 + x % 3,
                100_000_000 + y % 1_000,
                1 + y % 3,
            ),
            // Near-equal ratios on large estimates: equal short
            // waits on estimates a few seconds apart put the two
            // ratios a few 2⁻⁶⁰ apart, under one ulp of 1.
            2 | 3 => {
                let ea = (1 << 30) + x % (1 << 20);
                let wa = 1 + x % 1_024;
                (wa, ea, wa + delta, ea + 1 + y % 4)
            }
            // Anything in range.
            _ => (x, 1 + y, y, 1 + x),
        };
        let (ia, ib) = if ids == 0 { (0, 1) } else { (1, 0) };
        let a = job(ia, now - wa, ea);
        let b = job(ib, now - wb, eb);
        (a, b, SimTime::new(now))
    })
}

/// Case count: `PROPTEST_CASES` can raise it, never lower it.
fn cases(default: u32) -> ProptestConfig {
    let raised = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    ProptestConfig::with_cases(default.max(raised))
}

proptest! {
    #![proptest_config(cases(512))]

    /// Wherever the `f64` factors differ, the exact order agrees with
    /// them; where they tie, it may differ only beyond the 2⁵² scale.
    #[test]
    fn exact_order_refines_the_f64_order(pair in arb_pair()) {
        let (a, b, now) = pair;
        let exact = Policy::XFactor.compare(&a, &b, now);
        let rounded = f64_order(&a, &b, now);
        prop_assert_eq!(exact, Policy::XFactor.compare(&b, &a, now).reverse());
        if Policy::xfactor(&a, now) != Policy::xfactor(&b, now) {
            prop_assert_eq!(exact, rounded, "{:?} vs {:?} at {}", a, b, now);
        } else if exact != rounded {
            prop_assert!(
                tie_scale(&a, &b, now) > 1 << 52,
                "rounding tie below the 2^52 scale: {:?} vs {:?}",
                a,
                b
            );
        }
    }

    /// `flip_time` is the first instant the pair swaps: still in order one
    /// second before, out of order at it, and in order forever when it
    /// says "never". Small and huge values both, so the 64-bit and the
    /// 128-bit division and the clamp past `u64::MAX` are all exercised.
    #[test]
    fn flip_time_is_the_first_swap(
        draw in (0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
        shape in (0u32..4, 0u32..2),
    ) {
        let ((wa, ea, wb, eb), (scale, ids)) = (draw, shape);
        // Scale each draw down to 8, 24, 40 or 63 bits.
        let bits = [8, 24, 40, 63][scale as usize];
        let cut = |v: u64| v >> (64 - bits);
        let now = 1u64 << 63;
        let (ia, ib) = if ids == 0 { (0, 1) } else { (1, 0) };
        let mut a = job(ia, now - cut(wa), cut(ea));
        let mut b = job(ib, now - cut(wb), cut(eb));
        let now = SimTime::new(now);
        if Policy::XFactor.compare(&a, &b, now) == Ordering::Greater {
            std::mem::swap(&mut a, &mut b);
        }
        let flip = Policy::XFactor.flip_time(&a, &b, now);
        prop_assert!(flip > now.as_secs());
        let at = |t: u64| Policy::XFactor.compare(&a, &b, SimTime::new(t));
        if flip == u64::MAX {
            prop_assert_eq!(at(u64::MAX), Ordering::Less, "{:?} {:?} never flips", a, b);
        } else {
            prop_assert_eq!(at(flip - 1), Ordering::Less, "{:?} {:?} flips early", a, b);
            prop_assert_eq!(at(flip), Ordering::Greater, "{:?} {:?} flips late", a, b);
        }
    }

    /// Brute force on small values: the first swap found by stepping
    /// second by second is `flip_time`.
    #[test]
    fn flip_time_matches_a_second_by_second_scan(
        draw in (0u64..200, 0u64..30, 0u64..200, 0u64..30, 0u32..2),
    ) {
        let (aa, ea, ab, eb, ids) = draw;
        let now = 200;
        let (ia, ib) = if ids == 0 { (0, 1) } else { (1, 0) };
        let mut a = job(ia, aa, ea);
        let mut b = job(ib, ab, eb);
        if Policy::XFactor.compare(&a, &b, SimTime::new(now)) == Ordering::Greater {
            std::mem::swap(&mut a, &mut b);
        }
        let scanned = (now + 1..now + 20_000)
            .find(|&t| Policy::XFactor.compare(&a, &b, SimTime::new(t)) == Ordering::Greater);
        let flip = Policy::XFactor.flip_time(&a, &b, SimTime::new(now));
        prop_assert_eq!(scanned.unwrap_or(u64::MAX), flip, "{:?} {:?}", a, b);
    }
}

/// A rounding tie the exact comparator resolves the other way: two jobs
/// that waited 1 s with estimates of 10⁹ and 10⁹ + 1 s have expansion
/// factors 1 + 10⁻⁹ and 1 + 1/(10⁹ + 1), one `f64` value. The `f64`
/// order falls back to the id; the exact order puts the larger ratio
/// first.
#[test]
fn a_rounding_tie_resolves_by_the_exact_ratio() {
    let now = SimTime::new(1);
    let a = job(1, 0, 1_000_000_000);
    let b = job(0, 0, 1_000_000_001);
    assert_eq!(Policy::xfactor(&a, now), Policy::xfactor(&b, now));
    assert_eq!(f64_order(&a, &b, now), Ordering::Greater, "id 0 first");
    assert_eq!(Policy::XFactor.compare(&a, &b, now), Ordering::Less);
    assert!(tie_scale(&a, &b, now) > 1 << 52);
}

/// Estimates of 0 and 1 s both count as 1 s, exactly as in `xfactor`.
#[test]
fn zero_and_one_second_estimates_age_alike() {
    let now = SimTime::new(500);
    let zero = job(1, 100, 0);
    let one = job(0, 100, 1);
    assert_eq!(Policy::xfactor(&zero, now), Policy::xfactor(&one, now));
    assert_eq!(Policy::XFactor.compare(&one, &zero, now), Ordering::Less);
    assert_eq!(Policy::XFactor.flip_time(&one, &zero, now), u64::MAX);
}
