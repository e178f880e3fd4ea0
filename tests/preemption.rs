//! End-to-end tests of the preemption substrate: suspend/resume timelines,
//! work conservation, and the starvation-rescue behaviour of selective
//! preemption (the authors' companion ICPP 2002 strategy).

use backfill_sim::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

fn job(id: u32, arrival: u64, runtime: u64, estimate: u64, width: u32) -> Job {
    Job {
        id: JobId(id),
        arrival: SimTime::new(arrival),
        runtime: SimSpan::new(runtime),
        estimate: SimSpan::new(estimate),
        width,
    }
}

/// A hog holds the machine; a short wide job starves past the threshold
/// and must preempt the hog, which later resumes and still finishes with
/// exactly its runtime of execution.
#[test]
fn starving_job_preempts_and_hog_resumes() {
    let trace = Trace::new(
        "rescue",
        8,
        vec![
            job(0, 0, 50_000, 50_000, 8), // the hog
            job(1, 10, 1_000, 1_000, 8),  // starves; xf 2 at wait 1000
        ],
    )
    .unwrap();
    let schedule = simulate(
        &trace,
        SchedulerKind::Preemptive { threshold: 2.0 },
        Policy::Fcfs,
    );
    schedule
        .validate()
        .expect("audit incl. segment work conservation");

    let hog = &schedule.outcomes[0];
    let starved = &schedule.outcomes[1];
    // The starving job ran long before the hog's natural end at 50 000.
    assert!(
        starved.start.as_secs() < 5_000,
        "preemption should rescue the starving job (started {})",
        starved.start
    );
    assert!(hog.was_preempted(), "the hog must have been suspended");
    assert!(!starved.was_preempted());
    // Work conservation shows up as end - start > runtime for the hog.
    assert!(hog.end() > hog.start + hog.job.runtime);
    // Both runs of the hog, and only its, appear in the audit trail.
    let hog_runs = schedule.suspended_runs.iter().filter(|s| s.id == 0).count();
    assert_eq!(hog_runs, 2, "one run before and one after suspension");
    assert_eq!(
        schedule.suspended_runs.iter().count(),
        2,
        "the starving job ran once"
    );
}

/// With an infinite threshold nothing is ever suspended and the schedule
/// equals EASY's, job for job.
#[test]
fn infinite_threshold_is_easy() {
    let trace = Trace::new(
        "noop",
        8,
        vec![
            job(0, 0, 1_000, 1_000, 6),
            job(1, 5, 700, 900, 8),
            job(2, 9, 200, 300, 2),
            job(3, 20, 100, 100, 4),
        ],
    )
    .unwrap();
    let easy = simulate(&trace, SchedulerKind::Easy, Policy::Sjf);
    let pre = simulate(
        &trace,
        SchedulerKind::Preemptive {
            threshold: f64::INFINITY,
        },
        Policy::Sjf,
    );
    assert_eq!(easy.fingerprint(), pre.fingerprint());
    assert!(
        pre.suspended_runs.iter().next().is_none(),
        "no suspensions, so every job's one run is its outcome"
    );
}

/// The decision trace records preemption events in causal order.
#[test]
fn journal_shows_preempt_between_starts() {
    let trace = Trace::new(
        "journal",
        8,
        vec![job(0, 0, 50_000, 50_000, 8), job(1, 10, 1_000, 1_000, 8)],
    )
    .unwrap();
    let recorder = Rc::new(RefCell::new(obs::Recorder::new(Vec::new())));
    simulate_observed(
        &trace,
        SchedulerKind::Preemptive { threshold: 2.0 },
        Policy::Fcfs,
        SimOptions::with_recorder(recorder.clone()),
    );
    let text = String::from_utf8(recorder.borrow().sink().clone()).unwrap();
    let kinds: Vec<&str> = obs::trace::parse_jsonl(&text)
        .unwrap()
        .into_iter()
        .filter(|e| e.job == 0)
        .map(|e| e.kind.name())
        .filter(|k| ["Arrive", "Start", "Preempt", "Complete"].contains(k))
        .collect();
    assert_eq!(
        kinds,
        vec![
            "Arrive",   // submitted
            "Start",    // hog starts
            "Preempt",  // suspended for the starving job
            "Start",    // resumes
            "Complete", // finishes
        ]
    );
}

/// Preemption at scale: a noisy high-load workload runs to completion with
/// every audit passing and a sane number of suspensions.
#[test]
fn preemption_at_scale_is_sound() {
    let scenario = Scenario {
        source: TraceSource::Ctc {
            jobs: 3_000,
            seed: 11,
        },
        estimate: EstimateModel::User(UserModelParams::capped(SimSpan::from_hours(18))),
        estimate_seed: 3,
        load: Some(0.95),
    };
    let trace = scenario.materialize();
    let schedule = simulate(
        &trace,
        SchedulerKind::Preemptive { threshold: 2.0 },
        Policy::Fcfs,
    );
    schedule.validate().expect("audit");
    let suspended = schedule
        .outcomes
        .iter()
        .filter(|o| o.was_preempted())
        .count();
    assert!(
        suspended > 0,
        "high load + threshold 2 should suspend someone"
    );
    assert!(
        suspended < trace.len() / 2,
        "safeguards should keep suspensions bounded ({suspended})"
    );
    // Preemption must tame the worst case relative to plain EASY.
    let easy = simulate(&trace, SchedulerKind::Easy, Policy::Fcfs);
    let stats_pre = schedule.stats(&CategoryCriteria::default());
    let stats_easy = easy.stats(&CategoryCriteria::default());
    assert!(
        stats_pre.overall.worst_turnaround() <= stats_easy.overall.worst_turnaround() * 1.2,
        "preemption should not blow up the worst case: {} vs {}",
        stats_pre.overall.worst_turnaround(),
        stats_easy.overall.worst_turnaround()
    );
}
