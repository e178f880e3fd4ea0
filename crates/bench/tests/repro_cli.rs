//! The command lines of `repro` and `trace-summary`: their generated
//! `--help` against the golden file `bfsim`'s tests regenerate (see
//! `crates/coord/tests/cli_surface.rs`), and a usage error that used to
//! panic.

use std::process::{Command, Output};

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
