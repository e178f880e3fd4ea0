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
//!   wider than the free capacity without a probe brings it to ~10.
//! * `tree_rebuilds` counts full re-derivations of the profile's index.
//!   A per-segment tree re-derived its suffix on every boundary insert or
//!   removal and on every trim: ~1.0 per reserve/release on this cell.
//!   The chunked profile rebuilds its chunk tree only when the chunk
//!   count changes.

use backfill_sim::prelude::*;

/// Most `find_anchor_calls` per delivered event.
const PROBES_PER_EVENT: f64 = 15.0;

/// Most `tree_rebuilds` per profile mutation (reserve or release).
const REBUILDS_PER_MUTATION: f64 = 0.1;

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
    for policy in Policy::PAPER {
        let schedule = simulate(&trace, SchedulerKind::Conservative, policy);
        let stats = schedule
            .profile_stats
            .expect("conservative keeps a profile");
        let mutations = stats.reserves + stats.releases;
        let per_mutation = stats.tree_rebuilds as f64 / mutations.max(1) as f64;
        eprintln!(
            "work counters {policy}: {} tree rebuilds / {mutations} reserves+releases = \
             {per_mutation:.4}, {} path updates, peak {} segments",
            stats.tree_rebuilds, stats.tree_incremental_updates, stats.peak_segments
        );
        assert!(
            stats.peak_segments > 4 * sched::Profile::CHUNK_SEGMENTS as u64,
            "{policy}: the profile no longer spans many chunks"
        );
        assert!(
            per_mutation <= REBUILDS_PER_MUTATION,
            "{policy}: {per_mutation:.3} tree rebuilds per reserve/release > \
             {REBUILDS_PER_MUTATION}"
        );
    }
}
