//! `bfsimd` — the resident simulation daemon.
//!
//! ```text
//! bfsimd [--addr HOST:PORT] [--workers N] [--queue N] [--cache-cap N]
//!        [--cache-journal PATH] [--fault-plan SPEC]
//!        [--read-timeout-ms N] [--write-timeout-ms N] [--max-frame BYTES]
//!        [--log-level SPEC] [--log-json] [--log-elapsed]
//! ```
//!
//! Listens for JSON-lines requests (see `service::protocol`), runs them
//! on a bounded worker pool, and memoizes completed reports. Stop it
//! with `bfsim shutdown` (graceful drain) — the process exits once every
//! accepted request has been answered.
//!
//! `--cache-journal PATH` makes the result cache crash-recoverable: every
//! insert is appended to an append-only JSONL journal, replayed (with
//! per-record checksum validation and torn-tail truncation) on the next
//! start. `--fault-plan SPEC` (or env `BFSIM_FAULT_PLAN`) arms
//! deterministic fault injection — see `service::fault` for the grammar;
//! never use it on a daemon you care about.
//!
//! `--log-level` takes the `BFSIM_LOG` filter grammar (e.g. `info` or
//! `warn,service=debug`) and wins over the environment; `--log-json`
//! switches log records to JSON lines. Without either, only errors are
//! logged.

use service::{FaultPlan, Server, ServiceConfig};
use std::time::Duration;

fn die(msg: &str) -> ! {
    obs::error!(target: "bfsimd", "{msg}");
    std::process::exit(2);
}

fn main() {
    let args = obs::log::init_cli("bfsimd", std::env::args().skip(1).collect());
    let mut addr = "127.0.0.1:7411".to_string();
    let mut cfg = ServiceConfig::default();
    let mut it = args.iter().cloned();
    let next = |it: &mut dyn Iterator<Item = String>, flag: &str| -> String {
        it.next()
            .unwrap_or_else(|| die(&format!("{flag} needs a value")))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => addr = next(&mut it, "--addr"),
            "--workers" => {
                cfg.workers = next(&mut it, "--workers")
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| die("bad --workers (need an integer >= 1)"))
            }
            "--queue" => {
                cfg.queue_cap = next(&mut it, "--queue")
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| die("bad --queue (need an integer >= 1)"))
            }
            "--cache-cap" => {
                cfg.cache_cap = next(&mut it, "--cache-cap")
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| die("bad --cache-cap (need an integer >= 1)"))
            }
            "--cache-journal" => {
                cfg.journal = Some(next(&mut it, "--cache-journal").into());
            }
            "--fault-plan" => {
                let spec = next(&mut it, "--fault-plan");
                cfg.fault_plan = Some(
                    FaultPlan::parse(&spec)
                        .unwrap_or_else(|e| die(&format!("bad --fault-plan: {e}"))),
                );
            }
            "--read-timeout-ms" => {
                cfg.read_timeout = parse_timeout(&next(&mut it, "--read-timeout-ms"))
                    .unwrap_or_else(|| die("bad --read-timeout-ms (millis, 0 disables)"));
            }
            "--write-timeout-ms" => {
                cfg.write_timeout = parse_timeout(&next(&mut it, "--write-timeout-ms"))
                    .unwrap_or_else(|| die("bad --write-timeout-ms (millis, 0 disables)"));
            }
            "--max-frame" => {
                cfg.max_frame = next(&mut it, "--max-frame")
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1024)
                    .unwrap_or_else(|| die("bad --max-frame (need bytes >= 1024)"))
            }
            "--help" | "-h" => {
                println!(
                    "usage: bfsimd [--addr HOST:PORT] [--workers N] [--queue N] [--cache-cap N] \
                     [--cache-journal PATH] [--fault-plan SPEC] [--read-timeout-ms N] \
                     [--write-timeout-ms N] [--max-frame BYTES] [--log-level SPEC] [--log-json] \
                     [--log-elapsed]"
                );
                std::process::exit(0);
            }
            other => die(&format!("unknown flag {other:?}")),
        }
    }
    // The env var arms fault injection when the flag didn't (the flag
    // wins); an empty plan is the same as none.
    if cfg.fault_plan.is_none() {
        if let Ok(spec) = std::env::var("BFSIM_FAULT_PLAN") {
            if !spec.trim().is_empty() {
                cfg.fault_plan = Some(
                    FaultPlan::parse(&spec)
                        .unwrap_or_else(|e| die(&format!("bad BFSIM_FAULT_PLAN: {e}"))),
                );
            }
        }
    }
    let summary = format!(
        "{} workers, queue {}, cache cap {}{}{}",
        cfg.workers,
        cfg.queue_cap,
        cfg.cache_cap,
        match &cfg.journal {
            Some(path) => format!(", journal {}", path.display()),
            None => String::new(),
        },
        match &cfg.fault_plan {
            Some(plan) if !plan.is_empty() => format!(", FAULT PLAN {plan}"),
            _ => String::new(),
        }
    );
    // Calibrate the phase-timing fast clock before serving: the one-time
    // ~2 ms measurement then happens at startup instead of inside the
    // first traced cell a client submits.
    obs::span::calibrate_clock();
    let handle =
        Server::start(&addr, cfg).unwrap_or_else(|e| die(&format!("starting on {addr}: {e}")));
    obs::info!(target: "bfsimd", "listening on {} ({summary})", handle.addr());
    println!("bfsimd listening on {} ({summary})", handle.addr());
    handle.join();
    println!("bfsimd drained and stopped");
}

/// `"0"` disables a timeout; any other millisecond count sets it.
fn parse_timeout(raw: &str) -> Option<Option<Duration>> {
    let ms: u64 = raw.parse().ok()?;
    Some(if ms == 0 {
        None
    } else {
        Some(Duration::from_millis(ms))
    })
}
