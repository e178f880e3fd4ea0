//! Property-based tests of whole-simulation invariants: every scheduler,
//! fed arbitrary (valid) workloads, must produce schedules that pass the
//! independent capacity audit and basic sanity laws.

use backfill_sim::prelude::*;
use proptest::prelude::*;

/// Strategy: a small random trace on an 8..64-processor machine.
fn arb_trace() -> impl Strategy<Value = Trace> {
    (8u32..=64).prop_flat_map(|nodes| {
        let job = (
            0u64..20_000, // arrival
            1u64..5_000,  // runtime
            0u64..10_000, // estimate slack
            1u32..=nodes, // width
        );
        proptest::collection::vec(job, 1..60).prop_map(move |raw| {
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
            Trace::new("prop", nodes, jobs).expect("constructed valid")
        })
    })
}

const ALL_POLICIES: [Policy; 5] = [
    Policy::Fcfs,
    Policy::Sjf,
    Policy::XFactor,
    Policy::Ljf,
    Policy::WidestFirst,
];

fn all_kinds() -> Vec<SchedulerKind> {
    vec![
        SchedulerKind::NoBackfill,
        SchedulerKind::Conservative,
        SchedulerKind::ConservativeReanchor,
        SchedulerKind::ConservativeHeadStart,
        SchedulerKind::ConservativeNoCompress,
        SchedulerKind::Easy,
        SchedulerKind::Selective { threshold: 2.0 },
        SchedulerKind::Selective {
            threshold: f64::INFINITY,
        },
        SchedulerKind::Slack { slack_factor: 0.0 },
        SchedulerKind::Slack { slack_factor: 2.0 },
        SchedulerKind::Depth { depth: 1 },
        SchedulerKind::Depth { depth: 4 },
        SchedulerKind::Preemptive { threshold: 2.0 },
        SchedulerKind::Preemptive {
            threshold: f64::INFINITY,
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every scheduler schedules every job exactly once, within capacity,
    /// never before arrival — checked by the independent audit.
    #[test]
    fn schedules_always_validate(trace in arb_trace()) {
        for kind in all_kinds() {
            for policy in [Policy::Fcfs, Policy::Sjf, Policy::XFactor] {
                let s = simulate(&trace, kind, policy);
                prop_assert_eq!(s.outcomes.len(), trace.len());
                if let Err(e) = s.validate() {
                    return Err(TestCaseError::fail(format!("{}: {e}", s.scheduler)));
                }
            }
        }
    }

    /// Determinism: the same trace and config produce the same schedule.
    #[test]
    fn simulation_is_deterministic(trace in arb_trace()) {
        for kind in [SchedulerKind::Conservative, SchedulerKind::Easy] {
            let a = simulate(&trace, kind, Policy::XFactor);
            let b = simulate(&trace, kind, Policy::XFactor);
            prop_assert_eq!(a.fingerprint(), b.fingerprint());
        }
    }

    /// Section 4.1 as a law: with accurate estimates, conservative
    /// backfilling yields the identical schedule for every priority policy.
    #[test]
    fn conservative_priority_equivalence(trace in arb_trace()) {
        let exact = trace.map_estimates(|j| j.runtime).expect("estimates >= runtimes");
        let fps: Vec<u64> = [Policy::Fcfs, Policy::Sjf, Policy::XFactor, Policy::Ljf]
            .iter()
            .map(|&p| simulate(&exact, SchedulerKind::Conservative, p).fingerprint())
            .collect();
        for w in fps.windows(2) {
            prop_assert_eq!(w[0], w[1], "priority policies diverged under conservative");
        }
    }

    /// With accurate estimates the compression mode is irrelevant (no holes
    /// ever open): all conservative variants coincide.
    #[test]
    fn compression_modes_coincide_on_exact_estimates(trace in arb_trace()) {
        let exact = trace.map_estimates(|j| j.runtime).expect("estimates >= runtimes");
        let base = simulate(&exact, SchedulerKind::Conservative, Policy::Fcfs).fingerprint();
        for kind in [
            SchedulerKind::ConservativeReanchor,
            SchedulerKind::ConservativeHeadStart,
            SchedulerKind::ConservativeNoCompress,
        ] {
            prop_assert_eq!(simulate(&exact, kind, Policy::Fcfs).fingerprint(), base);
        }
    }

    /// On a single-processor machine with unit-width jobs and accurate
    /// estimates, there is nothing to backfill: conservative, EASY and the
    /// no-backfill baseline all agree.
    #[test]
    fn serial_machine_degenerates(
        raw in proptest::collection::vec((0u64..5_000, 1u64..500), 1..40),
    ) {
        let jobs: Vec<Job> = raw
            .into_iter()
            .map(|(arrival, runtime)| Job {
                id: JobId(0),
                arrival: SimTime::new(arrival),
                runtime: SimSpan::new(runtime),
                estimate: SimSpan::new(runtime),
                width: 1,
            })
            .collect();
        let trace = Trace::new("serial", 1, jobs).expect("valid");
        let fps: Vec<u64> = [
            SchedulerKind::NoBackfill,
            SchedulerKind::Conservative,
            SchedulerKind::Easy,
        ]
        .iter()
        .map(|&k| simulate(&trace, k, Policy::Fcfs).fingerprint())
        .collect();
        prop_assert_eq!(fps[0], fps[1]);
        prop_assert_eq!(fps[1], fps[2]);
    }

    /// With an infinite preemption threshold the preemptive scheduler is
    /// EASY exactly (preemption never triggers, the phases coincide).
    #[test]
    fn infinite_threshold_preemptive_equals_easy(trace in arb_trace()) {
        let easy = simulate(&trace, SchedulerKind::Easy, Policy::Fcfs);
        let pre = simulate(
            &trace,
            SchedulerKind::Preemptive { threshold: f64::INFINITY },
            Policy::Fcfs,
        );
        prop_assert_eq!(easy.fingerprint(), pre.fingerprint());
        prop_assert!(pre.outcomes.iter().all(|o| !o.was_preempted()));
    }

    /// Zero-slack slack-based backfilling degenerates to conservative
    /// backfilling exactly when estimates are accurate (promises equal
    /// anchors and no holes ever open), under every policy.
    #[test]
    fn zero_slack_equals_conservative_on_exact_estimates(trace in arb_trace()) {
        let exact = trace.map_estimates(|j| j.runtime).expect("estimates >= runtimes");
        for policy in ALL_POLICIES {
            let cons = simulate(&exact, SchedulerKind::Conservative, policy);
            let slack = simulate(&exact, SchedulerKind::Slack { slack_factor: 0.0 }, policy);
            prop_assert_eq!(cons.fingerprint(), slack.fingerprint(), "{}", policy);
        }
    }

    /// Selective backfilling at threshold 1 reserves every job on arrival
    /// and re-anchors on early completions: conservative backfilling with
    /// re-anchoring compression, under every policy and on inexact
    /// estimates.
    #[test]
    fn selective_one_equals_conservative_reanchor(trace in arb_trace()) {
        for policy in ALL_POLICIES {
            let reanchor = simulate(&trace, SchedulerKind::ConservativeReanchor, policy);
            let selective = simulate(&trace, SchedulerKind::Selective { threshold: 1.0 }, policy);
            prop_assert_eq!(reanchor.fingerprint(), selective.fingerprint(), "{}", policy);
        }
    }

    /// Metric identities on arbitrary schedules: slowdown >= 1,
    /// turnaround = wait + runtime, starts >= arrivals.
    #[test]
    fn metric_identities(trace in arb_trace()) {
        let s = simulate(&trace, SchedulerKind::Easy, Policy::Sjf);
        for o in &s.outcomes {
            prop_assert!(o.bounded_slowdown() >= 1.0);
            prop_assert!(o.slowdown() >= 1.0);
            prop_assert_eq!(
                o.turnaround().as_secs(),
                o.wait().as_secs() + o.job.runtime.as_secs()
            );
            prop_assert!(o.start >= o.job.arrival);
        }
    }

    /// Work conservation under no-backfill FCFS on an always-backlogged
    /// machine: the machine is never idle while the queue head fits.
    /// Weaker universal check: total busy proc-seconds equals total work.
    #[test]
    fn utilization_accounts_for_all_work(trace in arb_trace()) {
        let s = simulate(&trace, SchedulerKind::Conservative, Policy::Fcfs);
        let stats = s.stats(&CategoryCriteria::default());
        let span = stats.makespan.as_secs_f64();
        if span > 0.0 {
            let busy = stats.utilization * trace.nodes() as f64 * span;
            let work: u128 = trace.jobs().iter().map(|j| j.area()).sum();
            prop_assert!((busy - work as f64).abs() < 1.0, "busy {busy} vs work {work}");
        }
    }
}
