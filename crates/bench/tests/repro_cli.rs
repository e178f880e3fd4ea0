//! The command lines of `repro` and `trace-summary`: their generated
//! `--help` against the golden file `bfsim`'s tests regenerate (see
//! `crates/coord/tests/cli_surface.rs`), a usage error that used to
//! panic, the exit code of a truncated trace, and a reader that closes
//! either binary's stdout early.

use backfill_sim::prelude::*;
use obs::trace::Recorder;
use std::cell::RefCell;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::rc::Rc;

const GOLDEN: &str = include_str!("../../coord/tests/golden/cli_help.txt");

/// The golden `--help` output of `title`.
fn golden(title: &str) -> &'static str {
    let header = format!("==> {title} --help <==\n");
    let start = GOLDEN
        .find(&header)
        .unwrap_or_else(|| panic!("golden/cli_help.txt has no {header:?}"));
    let rest = &GOLDEN[start + header.len()..];
    &rest[..rest.find("==> ").unwrap_or(rest.len())]
}

fn run(exe: &str, args: &[&str]) -> Output {
    Command::new(exe).args(args).output().expect("spawn")
}

#[test]
fn help_matches_the_golden_file() {
    for (title, exe) in [
        ("repro", env!("CARGO_BIN_EXE_repro")),
        ("trace-summary", env!("CARGO_BIN_EXE_trace-summary")),
    ] {
        let out = run(exe, &["--help"]);
        assert_eq!(out.status.code(), Some(0), "{title}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(stdout, golden(title), "{title} --help drifted");
    }
}

/// `--jobs 0` leaves no trace to scale to `--load`: exit 2 naming the
/// flag, where it used to panic inside the first experiment.
#[test]
fn repro_rejects_zero_jobs_with_exit_2() {
    let out = run(
        env!("CARGO_BIN_EXE_repro"),
        &["--quick", "--jobs", "0", "table4"],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("bad --jobs \"0\"") && !stderr.contains("panicked"),
        "stderr: {stderr}"
    );
}

/// A truncated trace is a bad data file: trace-summary reads a whole
/// trace with exit 0 and exits 6 on its first 1,000 lines.
#[test]
fn trace_summary_refuses_a_truncated_trace_with_exit_6() {
    let trace = Scenario::high_load(TraceSource::Ctc { jobs: 500, seed: 7 }).materialize();
    let rec = Rc::new(RefCell::new(Recorder::new(Vec::new())));
    simulate_observed(
        &trace,
        SchedulerKind::Easy,
        Policy::Fcfs,
        SimOptions::with_recorder(rec.clone()),
    );
    let text = String::from_utf8(rec.borrow().sink().clone()).expect("UTF-8 trace");
    assert!(
        text.lines().count() > 1_000,
        "the trace is too short to cut"
    );
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let (whole, head) = (dir.join("whole.jsonl"), dir.join("head.jsonl"));
    std::fs::write(&whole, &text).unwrap();
    let first_lines: String = text.lines().take(1_000).map(|l| format!("{l}\n")).collect();
    std::fs::write(&head, first_lines).unwrap();
    let summary = env!("CARGO_BIN_EXE_trace-summary");

    let out = run(summary, &[whole.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stdout: {stdout}");
    assert!(
        stdout.contains(" 500 completed jobs, 0 incomplete\n"),
        "stdout: {stdout}"
    );

    let out = run(summary, &[head.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(6), "stderr: {stderr}");
    assert!(
        stderr.contains("incomplete") && out.stdout.is_empty(),
        "stderr: {stderr}"
    );
}

/// A reader that leaves before the summary is written (`trace-summary F |
/// head -0`) ends the summary, not the process with a panic (exit 101).
#[test]
fn trace_summary_exits_0_when_its_reader_leaves() {
    let trace = Scenario::high_load(TraceSource::Ctc {
        jobs: 5_000,
        seed: 7,
    })
    .materialize();
    let rec = Rc::new(RefCell::new(Recorder::new(Vec::new())));
    simulate_observed(
        &trace,
        SchedulerKind::Easy,
        Policy::Fcfs,
        SimOptions::with_recorder(rec.clone()),
    );
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("closed_pipe.jsonl");
    std::fs::write(&path, rec.borrow().sink()).unwrap();
    let mut child = Command::new(env!("CARGO_BIN_EXE_trace-summary"))
        .arg(&path)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn");
    // Close the read end while the child still parses the trace.
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_ne!(out.status.code(), Some(101), "panicked: {stderr}");
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
}

/// A reader that leaves before anything is written (`repro | head -0`)
/// ends repro's output, not the process with a panic (exit 101).
#[test]
fn repro_exits_0_when_its_reader_leaves() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--quick", "table1"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_ne!(out.status.code(), Some(101), "panicked: {stderr}");
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
}
