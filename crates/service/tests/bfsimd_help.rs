//! `bfsimd --help` against the golden file `bfsim`'s tests regenerate
//! (see `crates/coord/tests/cli_surface.rs`).

const GOLDEN: &str = include_str!("../../coord/tests/golden/cli_help.txt");

#[test]
fn help_matches_the_golden_file() {
    let header = "==> bfsimd --help <==\n";
    let start = GOLDEN.find(header).expect("golden/cli_help.txt has bfsimd");
    let rest = &GOLDEN[start + header.len()..];
    let want = &rest[..rest.find("==> ").unwrap_or(rest.len())];
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_bfsimd"))
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
