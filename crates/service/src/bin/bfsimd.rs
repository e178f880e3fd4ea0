//! `bfsimd` — the resident simulation daemon.
//!
//! ```text
//! bfsimd [--addr HOST:PORT] [--workers N] [--queue N] [--cache-cap N]
//!        [--cache-journal PATH] [--fault-plan SPEC]
//!        [--read-timeout-ms N] [--write-timeout-ms N] [--max-frame BYTES]
//!        [--log-level SPEC] [--log-json] [--log-elapsed]
//! ```
//!
//! `bfsimd --help` prints the authoritative flag list, with defaults,
//! generated from the flag table below.
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

use service::{FaultPlan, Server, ServiceConfig};
use table::*;

/// The flag table; `obs::cli` generates `--help` from it. Flags without
/// a default keep `ServiceConfig::default()`'s value.
#[rustfmt::skip]
mod table {
    use obs::cli::{millis, number, positive, text, Command, Flag, Group, Program, LOG};
    use service::FaultPlan;
    use std::time::Duration;

    pub static ADDR: Flag<String> = Flag::new("--addr", "HOST:PORT", "127.0.0.1:7411", "address to listen on", text);
    pub static WORKERS: Flag<usize> = Flag::new("--workers", "N", "", "simulation threads (default: one per core, at least 2)", positive);
    pub static QUEUE: Flag<usize> = Flag::new("--queue", "N", "", "queued requests before Busy (default: twice the default workers)", positive);
    pub static CACHE_CAP: Flag<usize> = Flag::new("--cache-cap", "N", "", "cached reports (default 1024)", positive);
    pub static CACHE_JOURNAL: Flag<String> = Flag::new("--cache-journal", "PATH", "", "journal the cache to PATH, replaying it at start", text);
    pub static FAULT_PLAN: Flag<FaultPlan> = Flag::new("--fault-plan", "SPEC", "", "arm fault injection (else env BFSIM_FAULT_PLAN); see service::fault", FaultPlan::parse);
    pub static READ_TIMEOUT: Flag<Option<Duration>> = Flag::new("--read-timeout-ms", "N", "", "socket read deadline, 0 disables (default 300000)", millis);
    pub static WRITE_TIMEOUT: Flag<Option<Duration>> = Flag::new("--write-timeout-ms", "N", "", "socket write deadline, 0 disables (default 30000)", millis);
    pub static MAX_FRAME: Flag<usize> = Flag::new("--max-frame", "BYTES", "", "longest request line, at least 1024 (default 1048576)", |raw| {
        number(raw).and_then(|n| if n >= 1024 { Ok(n) } else { Err("need bytes >= 1024".to_string()) })
    });

    static DAEMON: Group = Group { title: "daemon", flags: &[&ADDR, &WORKERS, &QUEUE, &CACHE_CAP, &CACHE_JOURNAL, &FAULT_PLAN, &READ_TIMEOUT, &WRITE_TIMEOUT, &MAX_FRAME] };
    pub static BFSIMD: Program = Program {
        name: "bfsimd",
        about: "Serve simulations over JSON lines until `bfsim shutdown` drains it.",
        commands: &[Command { name: "", about: "", operands: "", groups: &[&DAEMON, &LOG] }],
    };
}

fn die(msg: &str) -> ! {
    obs::error!(target: "bfsimd", "{msg}");
    std::process::exit(2);
}

/// Print to stdout. Once its reader has left (`bfsimd | head -1`), the
/// rest is dropped and the daemon serves and drains as usual.
fn emit(args: std::fmt::Arguments) {
    if let Err(e) = obs::cli::write_stdout(args) {
        die(&format!("stdout: {e}"));
    }
}

fn main() {
    let a = obs::cli::parse(&BFSIMD, std::env::args().skip(1).collect());
    let addr = a.get(&ADDR);
    let mut cfg = ServiceConfig::default();
    cfg.workers = a.opt(&WORKERS).unwrap_or(cfg.workers);
    cfg.queue_cap = a.opt(&QUEUE).unwrap_or(cfg.queue_cap);
    cfg.cache_cap = a.opt(&CACHE_CAP).unwrap_or(cfg.cache_cap);
    cfg.journal = a.opt(&CACHE_JOURNAL).map(Into::into);
    cfg.fault_plan = a.opt(&FAULT_PLAN);
    cfg.read_timeout = a.opt(&READ_TIMEOUT).unwrap_or(cfg.read_timeout);
    cfg.write_timeout = a.opt(&WRITE_TIMEOUT).unwrap_or(cfg.write_timeout);
    cfg.max_frame = a.opt(&MAX_FRAME).unwrap_or(cfg.max_frame);
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
    emit(format_args!(
        "bfsimd listening on {} ({summary})\n",
        handle.addr()
    ));
    handle.join();
    emit(format_args!("bfsimd drained and stopped\n"));
}
