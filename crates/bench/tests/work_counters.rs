//! Deterministic work-counter gates for conservative backfilling.
//!
//! Wall time on a shared host drifts by tens of percent; the profile's
//! operation counters do not. These tests pin two of them on one
//! deep-queue cell, each with a bound between the old and the new code's
//! value, so a regression fails here in any build with no timing
//! involved:
//!
//! * `find_anchor_calls` counts every `fits`/`find_anchor` probe. A
//!   compression pass that probed every queued job on every early
//!   completion made ~43 probes per event on this cell; rejecting jobs
//!   wider than the free capacity without a probe brought it to ~10, and
//!   also rejecting windows that end past the profile's zero horizon (its
//!   first instant with no free processor) brings it to ~3. The bound
//!   lies between the last two, so dropping either rejection fails it.
//! * `tree_rebuilds` counts changes of the profile's chunk count (a full
//!   chunk split, or an emptied one dropped). A per-segment tree once
//!   re-derived its suffix on every boundary insert or removal and on
//!   every trim: ~1.0 per reserve/release on this cell. The chunked
//!   profile's layout changes far more rarely. The same test pins
//!   `(tree_descents, tree_rebuilds)` exactly: `tree_descents` counts the
//!   chunk leaps of the anchor searches (530, 393 and 438 of them, exactly
//!   where the min/max tree they replaced descended) and of the
//!   compression passes' zero-horizon searches.
//!
//! A third gate pins the XFactor queue work exactly, on the same cell
//! under EASY and Conservative: `queue_moves` counts the entries the
//! certificate-ordered job lists re-place, one per crossing pair or
//! misplaced append, and `queue_sorts` the ordering passes that moved
//! anything. Both are functions of the schedule alone, so any change to
//! either list's maintenance — or to the decisions — moves them.
//!
//! A fourth pins that the counters do not depend on the build profile:
//! the reservation-depth schedulers' backfill passes, probes, reserves
//! and releases are literals that debug and release builds must both
//! reproduce, although debug builds also check each pass's running
//! profile and held reservations against a rebuild. The reserves and
//! releases also pin how much reservation work the passes save by
//! keeping the reservations whose inputs did not change.

use backfill_sim::prelude::*;

/// Most `find_anchor_calls` per delivered event.
const PROBES_PER_EVENT: f64 = 5.0;

/// Most `tree_rebuilds` (chunk-count changes) per profile mutation
/// (reserve or release).
const REBUILDS_PER_MUTATION: f64 = 0.1;

/// `(tree_descents, tree_rebuilds)` — chunk leaps (anchor and
/// zero-horizon searches) and chunk-count changes — of the deep
/// Conservative cell, per policy in [`Policy::PAPER`] order.
const CONS_LEAPS_AND_SPLITS: [(u64, u64); 3] = [(2_139, 56), (1_752, 52), (1_723, 54)];

/// The same cell as `alloc_budget.rs`: 3,000 CTC jobs at ρ = 2.2 with
/// user estimates, so hundreds of jobs queue behind each hole.
fn deep_queue_trace() -> Trace {
    let scenario = Scenario {
        source: TraceSource::Ctc {
            jobs: 3_000,
            seed: 7,
        },
        estimate: EstimateModel::User(UserModelParams::capped(SimSpan::from_hours(18))),
        estimate_seed: 7,
        load: Some(2.2),
    };
    scenario.materialize()
}

#[test]
fn deep_queue_conservative_probes_stay_proportional_to_the_hole() {
    let trace = deep_queue_trace();
    for policy in Policy::PAPER {
        let schedule = simulate(&trace, SchedulerKind::Conservative, policy);
        let stats = schedule
            .profile_stats
            .expect("conservative keeps a profile");
        let events = schedule.events.max(1);
        let per_event = stats.find_anchor_calls as f64 / events as f64;
        eprintln!(
            "work counters {policy}: {} find_anchor calls / {events} events = \
             {per_event:.1} per event, {} compress passes",
            stats.find_anchor_calls, stats.compress_passes
        );
        assert!(
            stats.compress_passes > 1_000,
            "{policy}: the cell no longer exercises compression"
        );
        assert!(
            per_event <= PROBES_PER_EVENT,
            "{policy}: {per_event:.1} find_anchor calls per event > {PROBES_PER_EVENT}"
        );
    }
}

#[test]
fn deep_queue_conservative_rebuilds_the_index_only_on_chunk_count_changes() {
    let trace = deep_queue_trace();
    for (policy, pinned) in Policy::PAPER.into_iter().zip(CONS_LEAPS_AND_SPLITS) {
        let schedule = simulate(&trace, SchedulerKind::Conservative, policy);
        let stats = schedule
            .profile_stats
            .expect("conservative keeps a profile");
        let mutations = stats.reserves + stats.releases;
        let per_mutation = stats.tree_rebuilds as f64 / mutations.max(1) as f64;
        eprintln!(
            "work counters {policy}: {} chunk-count changes / {mutations} reserves+releases = \
             {per_mutation:.4}, {} summary changes, {} chunk leaps, peak {} segments",
            stats.tree_rebuilds,
            stats.tree_incremental_updates,
            stats.tree_descents,
            stats.peak_segments
        );
        assert_eq!(
            (stats.tree_descents, stats.tree_rebuilds),
            pinned,
            "{policy}: chunk leaps or chunk-count changes moved"
        );
        assert!(
            stats.peak_segments > 4 * sched::Profile::CHUNK_SEGMENTS as u64,
            "{policy}: the profile no longer spans many chunks"
        );
        assert!(
            per_mutation <= REBUILDS_PER_MUTATION,
            "{policy}: {per_mutation:.3} chunk-count changes per reserve/release > \
             {REBUILDS_PER_MUTATION}"
        );
    }
}

/// `(queue_moves, queue_sorts)` of the seed-7 deep cell under XFactor.
const EASY_XF_QUEUE_WORK: (u64, u64) = (16_960, 4_133);
const CONS_XF_QUEUE_WORK: (u64, u64) = (12_556, 2_094);

#[test]
fn deep_queue_xfactor_moves_are_pinned() {
    let trace = deep_queue_trace();
    for (kind, pinned) in [
        (SchedulerKind::Easy, EASY_XF_QUEUE_WORK),
        (SchedulerKind::Conservative, CONS_XF_QUEUE_WORK),
    ] {
        let schedule = simulate(&trace, kind, Policy::XFactor);
        let stats = schedule.profile_stats.expect("both keep a profile");
        eprintln!(
            "work counters {kind:?}/XF: {} queue moves in {} moving passes \
             ({} passes moved nothing), {} events",
            stats.queue_moves, stats.queue_sorts, stats.queue_sorts_avoided, schedule.events
        );
        assert_eq!(
            (stats.queue_moves, stats.queue_sorts),
            pinned,
            "{kind:?}/XF queue work changed"
        );
    }
}

/// `(compress_passes, find_anchor_calls, reserves, releases)` of the
/// seed-7 500-job cell under FCFS, per reservation-depth kind. Passes
/// keep the reservations whose inputs did not change, so the anchor
/// searches, reserves and releases are those of the reservations that
/// moved, plus the starts and the returned tails.
const DEPTH_WORK: [(SchedulerKind, (u64, u64, u64, u64)); 3] = [
    (SchedulerKind::Easy, (944, 1_408, 927, 871)),
    (
        SchedulerKind::Depth { depth: 4 },
        (944, 5_707, 2_672, 2_616),
    ),
    (
        SchedulerKind::Preemptive { threshold: 5.0 },
        (951, 1_270, 1_037, 981),
    ),
];

/// The reservation-depth pass keeps its running profile and its held
/// reservations incrementally; debug builds also check both against a
/// rebuild, which must count nothing. EASY, Depth(k) and Preemptive
/// therefore report the same counters in every build, so a debug
/// daemon's reports equal a release daemon's.
#[test]
fn reservation_depth_counters_match_in_every_build() {
    let trace = Scenario {
        source: TraceSource::Ctc { jobs: 500, seed: 7 },
        estimate: EstimateModel::User(UserModelParams::capped(SimSpan::from_hours(18))),
        estimate_seed: 7,
        load: Some(1.5),
    }
    .materialize();
    let got = DEPTH_WORK.map(|(kind, _)| {
        let stats = simulate(&trace, kind, Policy::Fcfs)
            .profile_stats
            .expect("reservation-depth schedulers keep a profile");
        let work = (
            stats.compress_passes,
            stats.find_anchor_calls,
            stats.reserves,
            stats.releases,
        );
        eprintln!("work counters {kind:?}/FCFS: (passes, anchors, reserves, releases) = {work:?}");
        (kind, work)
    });
    assert_eq!(got, DEPTH_WORK, "reservation-depth work changed");
}
