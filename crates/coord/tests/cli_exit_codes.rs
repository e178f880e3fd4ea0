//! Exit-code taxonomy regressions for `bfsim sweep`: 8 = a shard was
//! unreachable at startup (nothing ran), 9 = the sweep completed but
//! degraded (a shard was dead at sweep end, its work redistributed), 6 =
//! a `--resume` journal that does not match the re-planned sweep, 130 =
//! interrupted by SIGINT/SIGTERM (journal flushed, resume hint printed),
//! and 0 for a clean fleet — including a crashed-then-resumed sweep,
//! whose `--canonical-out` projection must be byte-identical to an
//! undisturbed run's. Drives the real binary the way CI does, against
//! in-process daemons. Also pins exit 2 (usage) for scheduler parameters
//! the schedulers would reject, and exit 0 with the usage line for
//! `--help`/`-h` wherever it appears.

use backfill_sim::SchedulerKind;
use bench_lib::sweep::{SweepSpec, TraceModel};
use sched::Policy;
use service::{Client, FaultPlan, Server, ServiceConfig};
use std::path::PathBuf;
use std::process::{Command, Output};
use workload::EstimateModel;

fn bfsim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bfsim"))
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bfsim-sweep-exit-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// 12 fast cells (2 seeds × 2 kinds × 3 policies) on small traces.
fn spec_file(name: &str) -> PathBuf {
    spec_file_with(name, vec![7, 8])
}

fn spec_file_with(name: &str, seeds: Vec<u64>) -> PathBuf {
    let spec = SweepSpec {
        models: vec![TraceModel::Ctc],
        jobs: 80,
        seeds,
        estimates: vec![EstimateModel::Exact],
        estimate_seeds: vec![1],
        loads: vec![Some(0.9)],
        kinds: vec![SchedulerKind::Easy, SchedulerKind::Conservative],
        policies: Policy::PAPER.to_vec(),
    };
    let path = tmp(name);
    std::fs::write(
        &path,
        serde_json::to_string(&spec).expect("spec serializes"),
    )
    .expect("write spec");
    path
}

fn parse_report(path: &PathBuf) -> serde::Value {
    serde_json::from_str(&std::fs::read_to_string(path).expect("report written"))
        .expect("report parses")
}

fn cells_in(report: &serde::Value) -> usize {
    report
        .field("cells")
        .and_then(|c| c.as_array())
        .expect("cells")
        .len()
}

fn shutdown(handle: service::ServerHandle) {
    Client::connect(handle.addr())
        .and_then(|mut c| c.shutdown())
        .expect("shutdown");
    handle.join();
}

#[test]
fn unreachable_shard_at_startup_exits_8() {
    let good = Server::start("127.0.0.1:0", ServiceConfig::default()).expect("good shard");
    let vacant = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.local_addr().expect("addr").to_string()
    };
    let spec = spec_file("unreachable-spec.json");
    let out_path = tmp("unreachable-sweep.json");

    let out = bfsim()
        .args([
            "sweep",
            "--shards",
            &format!("{},{vacant}", good.addr()),
            "--spec",
            spec.to_str().unwrap(),
            "--retries",
            "0",
            "--timeout-ms",
            "500",
            "-o",
            out_path.to_str().unwrap(),
        ])
        .output()
        .expect("spawn bfsim");
    assert_eq!(out.status.code(), Some(8), "stderr: {}", stderr_of(&out));
    assert!(
        stderr_of(&out).contains(&vacant),
        "the diagnostic must name the dead shard: {}",
        stderr_of(&out)
    );
    assert!(
        !out_path.exists(),
        "a sweep that never started must not write a report"
    );

    shutdown(good);
}

#[test]
fn shard_death_mid_sweep_exits_9_with_a_complete_report() {
    let good = Server::start("127.0.0.1:0", ServiceConfig::default()).expect("good shard");
    let evil = Server::start(
        "127.0.0.1:0",
        ServiceConfig {
            fault_plan: Some(FaultPlan::parse("drop@0..100000").expect("plan parses")),
            ..ServiceConfig::default()
        },
    )
    .expect("evil shard");
    let spec = spec_file("degraded-spec.json");
    let out_path = tmp("degraded-sweep.json");

    // --reprobe-ms 0 pins the pre-recovery semantics: the fault-planned
    // daemon is still *listening* after it "dies" (only its submits
    // drop), so the default reprobe would re-handshake and readmit it.
    let out = bfsim()
        .args([
            "sweep",
            "--shards",
            &format!("{},{}", good.addr(), evil.addr()),
            "--spec",
            spec.to_str().unwrap(),
            "--retries",
            "0",
            "--reprobe-ms",
            "0",
            "-o",
            out_path.to_str().unwrap(),
        ])
        .output()
        .expect("spawn bfsim");
    assert_eq!(out.status.code(), Some(9), "stderr: {}", stderr_of(&out));

    // Degraded is not incomplete: the report is on disk with one result
    // for every cell in the spec.
    let report = parse_report(&out_path);
    assert_eq!(
        report.field("degraded").expect("degraded"),
        &serde::Value::Bool(true)
    );
    assert_eq!(cells_in(&report), 12);
    assert!(report
        .field("failed")
        .and_then(|f| f.as_array())
        .expect("failed")
        .is_empty());

    shutdown(good);
    shutdown(evil);
}

#[test]
fn resume_against_a_mismatched_plan_exits_6() {
    let shard = Server::start("127.0.0.1:0", ServiceConfig::default()).expect("shard");
    let spec_a = spec_file_with("resume-mismatch-a.json", vec![7, 8]);
    let spec_b = spec_file_with("resume-mismatch-b.json", vec![9, 10]);
    let journal = tmp("resume-mismatch.jsonl");

    let seeded = bfsim()
        .args([
            "sweep",
            "--shards",
            &shard.addr().to_string(),
            "--spec",
            spec_a.to_str().unwrap(),
            "--journal",
            journal.to_str().unwrap(),
            "-o",
            tmp("resume-mismatch-seed.json").to_str().unwrap(),
        ])
        .output()
        .expect("spawn bfsim");
    assert_eq!(
        seeded.status.code(),
        Some(0),
        "stderr: {}",
        stderr_of(&seeded)
    );

    // Same journal, different sweep: refuse before dispatching anything.
    let out_path = tmp("resume-mismatch-out.json");
    let out = bfsim()
        .args([
            "sweep",
            "--shards",
            &shard.addr().to_string(),
            "--spec",
            spec_b.to_str().unwrap(),
            "--resume",
            journal.to_str().unwrap(),
            "-o",
            out_path.to_str().unwrap(),
        ])
        .output()
        .expect("spawn bfsim");
    assert_eq!(out.status.code(), Some(6), "stderr: {}", stderr_of(&out));
    assert!(
        stderr_of(&out).contains("plan"),
        "the diagnostic must name the plan mismatch: {}",
        stderr_of(&out)
    );
    assert!(
        !out_path.exists(),
        "a refused resume must not write a report"
    );

    shutdown(shard);
}

#[test]
fn canonical_projection_survives_a_crash_and_resume_byte_for_byte() {
    let a = Server::start("127.0.0.1:0", ServiceConfig::default()).expect("shard a");
    let b = Server::start("127.0.0.1:0", ServiceConfig::default()).expect("shard b");
    let fleet = format!("{},{}", a.addr(), b.addr());
    let spec = spec_file("canonical-spec.json");
    let journal = tmp("canonical.jsonl");
    let canon_ref = tmp("canonical-ref.json");

    let reference = bfsim()
        .args([
            "sweep",
            "--shards",
            &fleet,
            "--spec",
            spec.to_str().unwrap(),
            "--journal",
            journal.to_str().unwrap(),
            "--canonical-out",
            canon_ref.to_str().unwrap(),
            "-o",
            tmp("canonical-ref-sweep.json").to_str().unwrap(),
        ])
        .output()
        .expect("spawn bfsim");
    assert_eq!(
        reference.status.code(),
        Some(0),
        "stderr: {}",
        stderr_of(&reference)
    );

    // Forge the crash: keep the plan header plus the first 4 cell
    // records, exactly what a coordinator SIGKILLed mid-sweep leaves.
    let text = std::fs::read_to_string(&journal).expect("read journal");
    let partial: String = text.lines().take(5).map(|l| format!("{l}\n")).collect();
    let cut = tmp("canonical-cut.jsonl");
    std::fs::write(&cut, partial).expect("write partial journal");

    let canon_resumed = tmp("canonical-resumed.json");
    let resumed = bfsim()
        .args([
            "sweep",
            "--shards",
            &fleet,
            "--spec",
            spec.to_str().unwrap(),
            "--resume",
            cut.to_str().unwrap(),
            "--canonical-out",
            canon_resumed.to_str().unwrap(),
            "-o",
            tmp("canonical-resumed-sweep.json").to_str().unwrap(),
        ])
        .output()
        .expect("spawn bfsim");
    assert_eq!(
        resumed.status.code(),
        Some(0),
        "stderr: {}",
        stderr_of(&resumed)
    );
    let stdout = String::from_utf8_lossy(&resumed.stdout).into_owned();
    assert!(
        stdout.contains("resume: 4/12"),
        "the resume must replay the 4 journaled cells: {stdout}"
    );

    let want = std::fs::read(&canon_ref).expect("reference canonical");
    let got = std::fs::read(&canon_resumed).expect("resumed canonical");
    assert_eq!(
        want, got,
        "the canonical projection must be byte-identical across crash+resume"
    );

    shutdown(a);
    shutdown(b);
}

/// SIGTERM mid-sweep: exit 130, journal flushed, resume hint printed —
/// and the printed resume actually finishes the sweep at exit 0.
#[cfg(unix)]
#[test]
fn sigterm_interrupts_with_exit_130_and_the_journal_resumes() {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    // A slow fleet (100 ms per submit, window 1) so the signal lands
    // mid-sweep: 12 cells never finish inside the kill window.
    let slow = Server::start(
        "127.0.0.1:0",
        ServiceConfig {
            fault_plan: Some(service::FaultPlan::parse("delay@0..100000=100ms").expect("plan")),
            ..ServiceConfig::default()
        },
    )
    .expect("slow shard");
    let spec = spec_file("sigterm-spec.json");
    let journal = tmp("sigterm.jsonl");
    let out_path = tmp("sigterm-sweep.json");

    let child = bfsim()
        .args([
            "sweep",
            "--shards",
            &slow.addr().to_string(),
            "--spec",
            spec.to_str().unwrap(),
            "--window",
            "1",
            "--journal",
            journal.to_str().unwrap(),
            "-o",
            out_path.to_str().unwrap(),
        ])
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn bfsim");

    // Wait until at least one cell record hit the journal: by then the
    // signal handler is installed and the sweep is mid-flight.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let lines = std::fs::read_to_string(&journal)
            .map(|t| t.lines().count())
            .unwrap_or(0);
        if lines >= 2 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "sweep never journaled a cell"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    unsafe {
        kill(child.id() as i32, 15);
    }
    let out = child.wait_with_output().expect("bfsim exits");
    assert_eq!(out.status.code(), Some(130), "stderr: {}", stderr_of(&out));
    assert!(
        stderr_of(&out).contains("--resume"),
        "the interrupt diagnostic must print the resume hint: {}",
        stderr_of(&out)
    );

    let resumed = bfsim()
        .args([
            "sweep",
            "--shards",
            &slow.addr().to_string(),
            "--spec",
            spec.to_str().unwrap(),
            "--window",
            "1",
            "--resume",
            journal.to_str().unwrap(),
            "-o",
            out_path.to_str().unwrap(),
        ])
        .output()
        .expect("spawn bfsim");
    assert_eq!(
        resumed.status.code(),
        Some(0),
        "stderr: {}",
        stderr_of(&resumed)
    );
    let report = parse_report(&out_path);
    assert_eq!(cells_in(&report), 12, "the resumed sweep covers the plan");

    shutdown(slow);
}

/// `bfsim shards` brings up a supervised fleet, answers handshakes, and
/// stops cleanly (exit 0) on SIGTERM.
#[cfg(unix)]
#[test]
fn shards_supervisor_serves_a_fleet_and_stops_on_sigterm() {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    let bfsimd = std::path::Path::new(env!("CARGO_BIN_EXE_bfsim"))
        .parent()
        .expect("bfsim has a parent dir")
        .join("bfsimd");
    if !bfsimd.exists() {
        // `cargo test -p coord` alone does not build the service crate's
        // daemon binary; the workspace test run does.
        eprintln!("skipping: {} not built", bfsimd.display());
        return;
    }
    let port = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.local_addr().expect("addr").port()
    };
    let child = bfsim()
        .args([
            "shards",
            "--count",
            "1",
            "--base-port",
            &port.to_string(),
            "--bfsimd",
            bfsimd.to_str().unwrap(),
        ])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn bfsim shards");

    // The fleet is up once the child daemon answers a handshake.
    let addr = format!("127.0.0.1:{port}");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        if Client::connect(&addr).and_then(|mut c| c.health()).is_ok() {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "supervised bfsimd never came up on {addr}"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }

    unsafe {
        kill(child.id() as i32, 15);
    }
    let out = child.wait_with_output().expect("bfsim shards exits");
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_of(&out));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        stdout.contains("--shards 127.0.0.1:"),
        "the supervisor must print the fleet flag for bfsim sweep: {stdout}"
    );
    assert!(
        stdout.contains("stopped"),
        "children are reported stopped after SIGTERM: {stdout}"
    );
}

#[test]
fn healthy_fleet_exits_0() {
    let a = Server::start("127.0.0.1:0", ServiceConfig::default()).expect("shard a");
    let b = Server::start("127.0.0.1:0", ServiceConfig::default()).expect("shard b");
    let spec = spec_file("healthy-spec.json");
    let out_path = tmp("healthy-sweep.json");

    let out = bfsim()
        .args([
            "sweep",
            "--shards",
            &format!("{},{}", a.addr(), b.addr()),
            "--spec",
            spec.to_str().unwrap(),
            "-o",
            out_path.to_str().unwrap(),
        ])
        .output()
        .expect("spawn bfsim");
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_of(&out));

    let report = parse_report(&out_path);
    assert_eq!(
        report.field("degraded").expect("degraded"),
        &serde::Value::Bool(false)
    );
    assert_eq!(cells_in(&report), 12);

    shutdown(a);
    shutdown(b);
}

/// Out-of-range scheduler parameters are usage errors (exit 2 with a
/// message), not panics: a slack factor must be finite and non-negative,
/// a selective threshold at least 1.
#[test]
fn bad_scheduler_parameters_exit_2() {
    for scheduler in ["slack:-1", "slack:NaN", "selective:0.5", "selective:NaN"] {
        let out = bfsim()
            .args(["simulate", "--jobs", "50", "--scheduler", scheduler])
            .output()
            .expect("spawn bfsim");
        let stderr = stderr_of(&out);
        assert_eq!(out.status.code(), Some(2), "{scheduler}: stderr: {stderr}");
        assert!(
            stderr.contains("bad --scheduler") && stderr.contains(scheduler),
            "{scheduler}: stderr: {stderr}"
        );
    }
}

/// `--help` or `-h` prints the usage and exits 0 before or after the
/// command, and after other flags; it never dies as an unknown flag.
#[test]
fn help_after_the_command_prints_usage_and_exits_0() {
    for args in [
        &["--help"][..],
        &["-h"],
        &["simulate", "--help"],
        &["sweep", "-h"],
        &["simulate", "--jobs", "50", "--help"],
    ] {
        let out = bfsim().args(args).output().expect("spawn bfsim");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{args:?}: stderr: {}",
            stderr_of(&out)
        );
        assert!(
            stdout.starts_with("usage: bfsim"),
            "{args:?}: stdout: {stdout}"
        );
    }
}
