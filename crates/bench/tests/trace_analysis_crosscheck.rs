//! The trace analyzer and `metrics::aggregate` must tell one story.
//!
//! Run a deterministic scenario with the decision recorder attached,
//! round-trip the events through the JSONL wire format, reconstruct
//! timelines with `bench::trace_analysis`, and compare per-category mean
//! wait and mean bounded slowdown against `Schedule::stats` computed
//! from the same run's outcomes. The two pipelines share no code beyond
//! the τ = 10 s constant, so agreement here pins both.

use backfill_sim::prelude::*;
use bench::trace_analysis::{analyze, parse_jsonl};
use obs::trace::{Recorder, TraceCategory};
use std::cell::RefCell;
use std::rc::Rc;

fn assert_close(label: &str, a: f64, b: f64) {
    let tol = 1e-9 * a.abs().max(b.abs()).max(1.0);
    assert!(
        (a - b).abs() <= tol,
        "{label}: analyzer {a} vs aggregate {b}"
    );
}

fn crosscheck(kind: SchedulerKind, policy: Policy, scenario: Scenario) {
    let trace = scenario.materialize();
    let recorder = Rc::new(RefCell::new(Recorder::new(Vec::new())));
    let (schedule, _) = simulate_observed(
        &trace,
        kind,
        policy,
        SimOptions::with_recorder(recorder.clone()),
    );
    schedule.validate().expect("valid schedule");
    let stats = schedule.stats(&CategoryCriteria::default());

    // Read the wire format back, as a real consumer would.
    let events =
        parse_jsonl(std::str::from_utf8(recorder.borrow().sink()).unwrap()).expect("parse trace");
    let analysis = analyze(&events).expect("one whole run");

    assert_eq!(analysis.overall.count, trace.jobs().len() as u64);
    assert_close(
        "overall wait",
        analysis.overall.mean_wait(),
        stats.overall.avg_wait(),
    );
    assert_close(
        "overall slowdown",
        analysis.overall.mean_slowdown(),
        stats.overall.avg_slowdown(),
    );

    for (cat, trace_cat) in [
        (Category::SN, TraceCategory::SN),
        (Category::SW, TraceCategory::SW),
        (Category::LN, TraceCategory::LN),
        (Category::LW, TraceCategory::LW),
    ] {
        let expected = stats.category(cat);
        match analysis.category(trace_cat) {
            Some(summary) => {
                assert_eq!(summary.count, expected.count(), "{cat} count");
                assert_close(
                    &format!("{cat} wait"),
                    summary.mean_wait(),
                    expected.avg_wait(),
                );
                assert_close(
                    &format!("{cat} slowdown"),
                    summary.mean_slowdown(),
                    expected.avg_slowdown(),
                );
            }
            None => assert_eq!(expected.count(), 0, "{cat} missing from analysis"),
        }
    }
}

#[test]
fn analyzer_matches_aggregate_easy_exact() {
    crosscheck(
        SchedulerKind::Easy,
        Policy::Sjf,
        Scenario::high_load(TraceSource::Ctc {
            jobs: 200,
            seed: 11,
        }),
    );
}

#[test]
fn analyzer_matches_aggregate_conservative_noisy() {
    crosscheck(
        SchedulerKind::Conservative,
        Policy::XFactor,
        Scenario {
            source: TraceSource::Sdsc { jobs: 200, seed: 4 },
            estimate: EstimateModel::User(UserModelParams::capped(SimSpan::from_hours(18))),
            estimate_seed: 2,
            load: Some(1.05),
        },
    );
}

/// Depth(4) runs the same backfill pass as EASY with four reservations,
/// so its trace carries `Reserve`/`Backfill` events between the job
/// lifecycle events; the analyzer must read past them.
#[test]
fn analyzer_matches_aggregate_depth_noisy() {
    crosscheck(
        SchedulerKind::Depth { depth: 4 },
        Policy::Fcfs,
        Scenario {
            source: TraceSource::Ctc { jobs: 200, seed: 5 },
            estimate: EstimateModel::User(UserModelParams::capped(SimSpan::from_hours(18))),
            estimate_seed: 3,
            load: Some(1.05),
        },
    );
}

/// Preempt(5) adds `Preempt` events and resumed jobs to the EASY pass's
/// `Reserve`/`Backfill` events.
#[test]
fn analyzer_matches_aggregate_preemptive_exact() {
    crosscheck(
        SchedulerKind::Preemptive { threshold: 5.0 },
        Policy::XFactor,
        Scenario::high_load(TraceSource::Ctc {
            jobs: 200,
            seed: 11,
        }),
    );
}
