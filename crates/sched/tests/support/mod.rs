//! Test support shared by the profile test files.

use sched::Profile;
use simcore::{SimSpan, SimTime};

/// The plain segment-by-segment anchor scan over `Profile::segments()`:
/// the earliest instant at or after `earliest` from which `width`
/// processors stay free for `duration`. Before the first segment the
/// profile is fully free. Same panic as `Profile::find_anchor` on a width
/// above capacity; a zero duration or width anchors at `earliest`.
pub fn linear_anchor(p: &Profile, earliest: SimTime, duration: SimSpan, width: u32) -> SimTime {
    assert!(
        width <= p.capacity(),
        "width {width} exceeds capacity {}",
        p.capacity()
    );
    if duration.is_zero() || width == 0 {
        return earliest;
    }
    let segs = p.segments();
    let mut anchor = earliest;
    if anchor + duration <= segs[0].start {
        return anchor;
    }
    // Invariant: free >= width over [anchor, seg.start) — empty, the
    // fully free region before the first segment, or segments already
    // passed.
    for (i, seg) in segs.iter().enumerate() {
        let end = segs.get(i + 1).map(|next| next.start);
        if end.is_some_and(|end| end <= anchor) {
            continue; // wholly before the anchor
        }
        if seg.free < width {
            // Blocked: restart at the end of this segment. The final
            // segment is fully free, so it never blocks.
            anchor = end.expect("final segment is fully free");
        } else if end.is_none_or(|end| end >= anchor + duration) {
            return anchor;
        }
    }
    unreachable!("the final segment always hosts the anchor")
}
