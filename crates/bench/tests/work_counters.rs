//! Deterministic work-counter gate for conservative compression.
//!
//! Wall time on a shared host drifts by tens of percent; the profile's
//! operation counters do not. This test pins the one that measures how
//! much of the queue a compression pass touches: `find_anchor_calls`
//! counts every `fits`/`find_anchor` probe, and a pass that probed every
//! queued job on every early completion made ~43 probes per event on this
//! cell. Rejecting jobs wider than the free capacity without a probe
//! brings it to ~10. The bound sits between the two, so a pass that goes
//! back to walking the whole queue fails here in any build, with no
//! timing involved.

use backfill_sim::prelude::*;

/// Most `find_anchor_calls` per delivered event.
const PROBES_PER_EVENT: f64 = 15.0;

#[test]
fn deep_queue_conservative_probes_stay_proportional_to_the_hole() {
    // The same cell as `alloc_budget.rs`: 3,000 CTC jobs at ρ = 2.2 with
    // user estimates, so hundreds of jobs queue behind each hole.
    let scenario = Scenario {
        source: TraceSource::Ctc {
            jobs: 3_000,
            seed: 7,
        },
        estimate: EstimateModel::User(UserModelParams::capped(SimSpan::from_hours(18))),
        estimate_seed: 7,
        load: Some(2.2),
    };
    let trace = scenario.materialize();
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
