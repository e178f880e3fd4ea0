//! The command-line surface of `bfsim`, driven through the real binary.
//!
//! `golden/cli_help.txt` holds the generated `--help` of all four
//! binaries and of every `bfsim` command, so an added, removed or
//! re-defaulted flag shows up in review as a diff of that file. This
//! file checks the `bfsim` sections; the `service` and `bench` packages
//! check their binaries' sections of the same file. After a deliberate
//! change to a flag table, rebuild and regenerate the file:
//!
//! ```text
//! cargo build && cd target/debug && {
//!   for c in "" simulate generate inspect compare submit stats metrics \
//!       health shutdown bench sweep shards timeline coord-status; do
//!     echo "==> bfsim${c:+ $c} --help <=="; ./bfsim $c --help; done
//!   for b in bfsimd repro trace-summary; do
//!     echo "==> $b --help <=="; ./$b --help; done
//! } > ../../crates/coord/tests/golden/cli_help.txt
//! ```

use std::path::PathBuf;
use std::process::{Command, Output};

const GOLDEN: &str = include_str!("golden/cli_help.txt");

fn bfsim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bfsim"))
}

fn run(args: &[&str]) -> Output {
    bfsim().args(args).output().expect("spawn bfsim")
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// The golden `--help` output of `title`, e.g. `bfsim simulate`.
fn golden(title: &str) -> &'static str {
    let header = format!("==> {title} --help <==\n");
    let start = GOLDEN
        .find(&header)
        .unwrap_or_else(|| panic!("golden/cli_help.txt has no {header:?}"));
    let rest = &GOLDEN[start + header.len()..];
    &rest[..rest.find("==> ").unwrap_or(rest.len())]
}

#[test]
fn help_of_bfsim_and_each_command_matches_the_golden_file() {
    let top = stdout_of(&run(&["--help"]));
    assert_eq!(top, golden("bfsim"), "bfsim --help drifted");
    let commands: Vec<&str> = top
        .lines()
        .skip_while(|l| *l != "commands:")
        .skip(1)
        .take_while(|l| !l.is_empty())
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert_eq!(commands.len(), 14, "{commands:?}");
    for command in commands {
        let out = run(&[command, "--help"]);
        assert_eq!(out.status.code(), Some(0), "{command}");
        let title = format!("bfsim {command}");
        assert_eq!(stdout_of(&out), golden(&title), "{title} --help drifted");
    }
}

/// `--trace-out` writes the decision trace, the one event log, without
/// changing a decision: the fingerprint equals a plain run's. The old
/// event-journal flag is gone, so `simulate --journal` is a usage error.
#[test]
fn simulate_writes_journal_and_trace_with_the_plain_fingerprint() {
    let dir = std::env::temp_dir().join(format!("bfsim-surface-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let trace: PathBuf = dir.join("t.jsonl");
    let base = ["simulate", "--jobs", "300", "--scheduler", "cons"];
    let plain = run(&base);
    let observed = run(&[&base[..], &["--trace-out", trace.to_str().unwrap()]].concat());
    let fingerprint = |out: &Output| {
        assert_eq!(out.status.code(), Some(0), "{out:?}");
        let stdout = stdout_of(out);
        let line = stdout.lines().find(|l| l.starts_with("fingerprint "));
        line.expect("simulate prints its fingerprint").to_string()
    };
    assert_eq!(fingerprint(&observed), fingerprint(&plain));
    let text = std::fs::read_to_string(&trace).expect("trace written");
    assert!(text.lines().count() >= 300, "{}", trace.display());
    assert!(text.contains("\"ev\":\"Arrive\""), "no Arrive record");

    let journal = dir.join("j.jsonl");
    let _ = std::fs::remove_file(&journal);
    let refused = run(&[&base[..], &["--journal", journal.to_str().unwrap()]].concat());
    assert_eq!(refused.status.code(), Some(2), "{refused:?}");
    assert!(
        !journal.exists(),
        "a refused run wrote {}",
        journal.display()
    );
}

/// `metrics --format prom` renders the daemon's `metrics` document on
/// the client side, so the `sim.*` counters the daemon wrote after a
/// fresh run show up under their Prometheus names.
#[test]
fn prometheus_metrics_show_the_daemons_sim_counters() {
    let handle = service::Server::start("127.0.0.1:0", service::ServiceConfig::default())
        .expect("start daemon");
    let addr = handle.addr().to_string();
    let config = backfill_sim::RunConfig {
        scenario: backfill_sim::Scenario::high_load(backfill_sim::TraceSource::Ctc {
            jobs: 50,
            seed: 3,
        }),
        kind: backfill_sim::SchedulerKind::Easy,
        policy: sched::Policy::Fcfs,
    };
    let mut client = service::Client::connect(handle.addr()).expect("connect");
    assert!(!client.submit(&config).expect("submit").cached);

    let out = run(&["metrics", "--addr", &addr, "--format", "prom"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = stdout_of(&out);
    assert!(text.contains("# TYPE sim_runs counter\n"), "{text}");
    assert!(text.lines().any(|l| l == "sim_runs 1"), "{text}");

    client.shutdown().expect("shutdown");
    handle.join();
}
