//! `bfsimd --help` against the golden file `bfsim`'s tests regenerate
//! (see `crates/coord/tests/cli_surface.rs`), and a reader that closes
//! the daemon's stdout early.

use service::Client;
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const GOLDEN: &str = include_str!("../../coord/tests/golden/cli_help.txt");

#[test]
fn help_matches_the_golden_file() {
    let header = "==> bfsimd --help <==\n";
    let start = GOLDEN.find(header).expect("golden/cli_help.txt has bfsimd");
    let rest = &GOLDEN[start + header.len()..];
    let want = &rest[..rest.find("==> ").unwrap_or(rest.len())];
    let out = Command::new(env!("CARGO_BIN_EXE_bfsimd"))
        .arg("--help")
        .output()
        .expect("spawn bfsimd");
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        want,
        "bfsimd --help drifted"
    );
}

/// A reader that leaves after the listening line (`bfsimd | head -n 1`)
/// costs the daemon nothing: it drains on shutdown and exits 0, where
/// its last line used to panic on the closed pipe (exit 101).
#[test]
fn bfsimd_exits_0_when_its_reader_leaves() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_bfsimd"))
        .args(["--addr", "127.0.0.1:0", "--workers", "1"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn bfsimd");
    let mut line = String::new();
    {
        // The reader is dropped at the end of this block.
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        stdout.read_line(&mut line).expect("listening line");
    }
    let addr = line
        .strip_prefix("bfsimd listening on ")
        .and_then(|rest| rest.split(' ').next())
        .unwrap_or_else(|| panic!("no listening line: {line:?}"));
    Client::connect(addr)
        .and_then(|mut client| client.shutdown())
        .expect("shutdown");
    let deadline = Instant::now() + Duration::from_secs(60);
    while child.try_wait().expect("wait").is_none() {
        if Instant::now() > deadline {
            child.kill().ok();
            panic!("bfsimd did not stop after shutdown");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("wait");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_ne!(out.status.code(), Some(101), "panicked: {stderr}");
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
}
