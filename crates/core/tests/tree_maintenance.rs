//! Differential test of incremental chunk-index maintenance under full
//! simulations.
//!
//! The availability profile keeps its per-chunk min/max summaries and the
//! tree over them synchronized incrementally (ancestor-path updates when
//! summaries change, a rebuild when the chunk count does). In debug
//! builds every mutation ends in `debug_assert!(invariants_ok())`, and
//! `invariants_ok` compares **every chunk summary and tree node against a
//! from-scratch build** — so simply driving whole simulations here exercises that
//! comparison after every reserve/release/trim of every event, for every
//! scheduler kind and policy. The explicit `invariants_ok` spot-checks
//! below keep the test meaningful even if debug assertions are off.

use backfill_sim::prelude::*;
use proptest::prelude::*;
use sched::Profile;
use simcore::SimSpan;

/// A small random trace on an 8..32-processor machine: tiny enough to run
/// 10 kinds × 3 policies per case, busy enough that compression passes,
/// backfills, and early completions all fire.
fn arb_trace() -> impl Strategy<Value = Trace> {
    (8u32..=32).prop_flat_map(|nodes| {
        let job = (
            0u64..6_000,  // arrival
            1u64..2_000,  // runtime
            0u64..4_000,  // estimate slack (drives compression)
            1u32..=nodes, // width
        );
        proptest::collection::vec(job, 1..40).prop_map(move |raw| {
            let jobs: Vec<Job> = raw
                .into_iter()
                .map(|(arrival, runtime, slack, width)| Job {
                    id: JobId(0),
                    arrival: SimTime::new(arrival),
                    runtime: SimSpan::new(runtime),
                    estimate: SimSpan::new(runtime + slack),
                    width,
                })
                .collect();
            Trace::new("tree-maint", nodes, jobs).expect("constructed valid")
        })
    })
}

fn all_kinds() -> Vec<SchedulerKind> {
    vec![
        SchedulerKind::NoBackfill,
        SchedulerKind::Conservative,
        SchedulerKind::ConservativeReanchor,
        SchedulerKind::ConservativeHeadStart,
        SchedulerKind::ConservativeNoCompress,
        SchedulerKind::Easy,
        SchedulerKind::Selective { threshold: 2.0 },
        SchedulerKind::Slack { slack_factor: 1.0 },
        SchedulerKind::Depth { depth: 4 },
        SchedulerKind::Preemptive { threshold: 2.0 },
    ]
}

#[test]
fn debug_assertions_are_on_so_every_event_checks_the_tree() {
    // This suite's power comes from the per-mutation
    // `debug_assert!(invariants_ok())` inside the profile; make its
    // precondition explicit so a profile-config change that silently
    // disabled it would fail here instead of quietly weakening the test.
    let mut armed = false;
    debug_assert!({
        armed = true;
        true
    });
    assert!(armed, "tests must run with debug assertions enabled");
}

proptest! {
    // Each case runs 30 full simulations; keep the count moderate.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Full simulations across all scheduler kinds and paper policies:
    /// every profile mutation re-verifies the tree against a rebuild
    /// (debug asserts), the audit validates the schedule, and the run is
    /// deterministic.
    #[test]
    fn tree_stays_synchronized_through_full_simulations(trace in arb_trace()) {
        for kind in all_kinds() {
            for policy in [Policy::Fcfs, Policy::Sjf, Policy::XFactor] {
                let s = simulate(&trace, kind, policy);
                prop_assert_eq!(s.outcomes.len(), trace.len());
                if let Err(e) = s.validate() {
                    return Err(TestCaseError::fail(format!("{}: {e}", s.scheduler)));
                }
                let again = simulate(&trace, kind, policy);
                prop_assert_eq!(s.fingerprint(), again.fingerprint());
            }
        }
    }

    /// The same maintenance story at the profile level, across several
    /// chunks: replay a long anchored-reservation history and spot-check
    /// the tree-vs-rebuild comparison explicitly (not only via the
    /// per-mutation debug asserts).
    #[test]
    fn large_profile_tree_matches_rebuild_at_every_checkpoint(
        rects in proptest::collection::vec((0u64..50_000, 1u64..800, 1u32..=16), 80..160),
    ) {
        let mut p = Profile::new(16);
        for (i, (earliest, dur, width)) in rects.into_iter().enumerate() {
            let dur = SimSpan::new(dur);
            let a = p.find_anchor(SimTime::new(earliest), dur, width);
            p.reserve(a, dur, width);
            if i % 16 == 0 {
                prop_assert!(p.invariants_ok(), "tree desynced after {} reserves", i + 1);
            }
        }
        prop_assert!(p.invariants_ok());
    }
}
