//! `bfsim` — the command-line front end of the simulator.
//!
//! ```text
//! bfsim simulate [WORKLOAD] [SCHED] [--gantt] [--series] [--fairness]
//!                [--trace-out OUT.jsonl]
//! bfsim generate [WORKLOAD] -o OUT.swf
//! bfsim inspect FILE.swf
//! bfsim compare [WORKLOAD] [--seeds a,b,c]
//! bfsim submit [WORKLOAD] [SCHED] [--addr HOST:PORT]    # via bfsimd
//! bfsim stats [--addr HOST:PORT]
//! bfsim metrics [--addr HOST:PORT]
//! bfsim health [--addr HOST:PORT]
//! bfsim shutdown [--addr HOST:PORT]
//! bfsim bench -o OUT.json [--baseline OLD.json] [--enforce-parity]
//!             [--tiny] [--reps N] [--trace-out OUT.jsonl]
//! bfsim sweep --shards H:P,H:P,... (--spec FILE.json | --tiny | --bench)
//!             [--window N] [--no-steal] [--max-requeues N] [--spans]
//!             [--journal J.jsonl | --resume J.jsonl] [--reprobe-ms N]
//!             [--canonical-out CANON.json] [-o OUT.json]
//! bfsim shards [--count N] [--base-port P] [--bfsimd PATH]
//!              [--cache-journal-dir DIR] [--fault-plan SPEC]
//!              [--restart-limit N] [--stable-ms N]
//! bfsim timeline [--in SWEEP.json] [-o TIMELINE.json]
//! bfsim coord-status [--shards H:P,H:P,...] [--journal J.jsonl]
//!                    [--in SWEEP.json]
//!
//! WORKLOAD: --model ctc|sdsc|lublin | --trace FILE.swf [--lenient]
//!           --jobs N --seed S --load RHO
//!           --estimate exact|systematic:R|user
//! SCHED:    --scheduler nobf|cons|cons-reanchor|cons-headstart|cons-none|
//!                       easy|selective:T|slack:F|depth:K|preemptive:T
//!           --policy fcfs|sjf|xf|ljf|widest
//! ```
//!
//! `bfsim --help` and `bfsim <command> --help` print the authoritative
//! flag list, with defaults, generated from the flag table below
//! (`obs::cli`). A flag the command does not read, an unknown flag, a
//! missing value or a value out of its range exits 2 with one logged
//! `bad --FLAG …` line.
//!
//! The local commands run in-process. `--trace-out` records the run's
//! scheduling decisions as JSONL (DESIGN.md §12); recording never
//! changes a decision, so the schedule fingerprint is identical with and
//! without it. `bench` times the pinned sweep (fixed traces, seeds,
//! loads, kinds) and writes per-cell wall time, events/sec, fingerprint
//! and operation counters; `--baseline` embeds an earlier report's cells
//! with per-cell speedups and fingerprint-parity flags, loaded and
//! checked before the sweep runs, and `--enforce-parity` turns a changed
//! fingerprint into exit 7 after the report is written.
//!
//! The daemon commands talk to a running `bfsimd` through the resilient
//! client (per-request deadline, seeded decorrelated-jitter retries).
//! `submit` sends a declarative `RunConfig`, so it takes the `ctc` and
//! `sdsc` models only, never a trace file.
//!
//! `sweep` fans one sweep out across `bfsimd` shards (DESIGN.md §15):
//! cells home by canonical config hash, idle shards steal from
//! stragglers, a dying shard's queue is redistributed, and the report
//! carries one result per unique cell, fingerprints byte-identical to a
//! serial run. `--journal` makes it crash-recoverable: after a
//! coordinator crash, `--resume` with the same spec and flags replays the
//! journal and runs only the rest, and `--canonical-out` writes the
//! deterministic projection, byte-identical between an undisturbed run
//! and a resumed one (DESIGN.md §18). Dead shards are re-handshaken and
//! readmitted every `--reprobe-ms`. `shards` runs a local fleet and
//! restarts crashed children under jittered backoff until a
//! crash-looping child's breaker opens; `timeline` merges a `--spans`
//! report into Chrome trace JSON after checking that each cell's spans
//! form one rooted tree; `coord-status` reports on a fleet, a sweep
//! journal or a finished report.
//!
//! Exit codes, as tabled in README.md: 0 success; 2 usage; 3 the daemon
//! is unreachable, or every shard died mid-sweep; 4 busy or draining; 5
//! a request or a sweep cell failed, or every supervised shard broke; 6
//! a bad data file (`--baseline`, `--spec`, a `--resume` journal a
//! different plan wrote, a report without a span forest); 7 fingerprint
//! parity violated; 8 a shard failed the sweep's startup handshake
//! (nothing ran); 9 the sweep completed degraded, a shard dead at its
//! end; 130 interrupted by SIGINT/SIGTERM, journal flushed and a resume
//! hint printed.

use backfill_sim::prelude::*;
use backfill_sim::{check_estimate, check_kind, check_load};
use bench_lib::sweep::{bench_cells, SweepSpec};
use coord::{run_sweep_recoverable, SweepError, SweepJournal, SweepOptions, SweepReplay};
use metrics::{fairness, queue_depth_series, utilization_series, viz};
use obs::cli::Args;
use obs::trace::Recorder;
use sched::ProfileStats;
use serde::{Deserialize, Serialize};
use service::{
    BreakerPolicy, ChildStatus, ClientError, ClientOptions, ResilientClient, RetryPolicy,
    SupervisorSpec,
};
use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use table::*;
use workload::models::LublinModel;
use workload::{load::scale_to_load, swf, TraceStats};

fn die(msg: &str) -> ! {
    obs::error!(target: "bfsim", "{msg}");
    std::process::exit(2);
}

/// One-line diagnostic + meaningful exit code for a failed daemon call:
/// 3 = could not reach the daemon (connect/timeout), 4 = the daemon is
/// there but refusing work (busy/draining), 5 = the request itself
/// failed (service error, protocol violation, corrupt frame).
fn die_client(context: &str, a: &Args, err: ClientError) -> ! {
    fn class(err: &ClientError) -> i32 {
        match err {
            ClientError::Io(_) | ClientError::Timeout(_) => 3,
            ClientError::Busy | ClientError::ShuttingDown => 4,
            // An exhausted retry budget takes its terminal error's class.
            ClientError::Exhausted { last, .. } => class(last),
            _ => 5,
        }
    }
    fn refused(err: &ClientError) -> bool {
        match err {
            ClientError::Io(e) => e.kind() == std::io::ErrorKind::ConnectionRefused,
            ClientError::Exhausted { last, .. } => refused(last),
            _ => false,
        }
    }
    let hint = if refused(&err) {
        format!(" (is bfsimd running at {}?)", a.get(&ADDR))
    } else {
        String::new()
    };
    obs::error!(target: "bfsim", "{context}: {err}{hint}");
    std::process::exit(class(&err));
}

/// One-line diagnostic + exit 6 for a bad data file handed to a local
/// command: a missing or corrupt `--baseline`, or a baseline whose cell
/// set has nothing in common with the current sweep. Distinct from usage
/// errors (2) and daemon failures (3/4/5) so CI can tell "you pointed me
/// at garbage" apart from "the invocation was malformed" — and raised
/// *before* the sweep runs, never mid-way through it.
fn die_data(msg: &str) -> ! {
    obs::error!(target: "bfsim", "{msg}");
    std::process::exit(6);
}

/// One-line diagnostic + exit 7 when `--enforce-parity` found a schedule
/// fingerprint that differs from the baseline: the code change altered a
/// scheduling decision. The report is still written first, so the
/// offending cells can be inspected.
fn die_parity(msg: &str) -> ! {
    obs::error!(target: "bfsim", "{msg}");
    std::process::exit(7);
}

/// One-line diagnostic + exit 8 when a shard failed the coordinator's
/// startup `capabilities` handshake: the sweep never began, no cell
/// ran, and no report was written. Distinct from 3 ("the one daemon I
/// talk to is gone") because a fleet-bringup failure needs a different
/// operator response than a single-daemon one.
fn die_shard(err: &SweepError) -> ! {
    obs::error!(target: "bfsim", "{err}");
    std::process::exit(8);
}

/// One-line diagnostic + exit 9 when the sweep **completed** — every
/// unique cell has exactly one result and the report is on disk — but
/// at least one shard died mid-sweep and its work was redistributed.
/// The results are trustworthy; the fleet is not.
fn die_degraded(msg: &str) -> ! {
    obs::error!(target: "bfsim", "{msg}");
    std::process::exit(9);
}

/// SIGINT/SIGTERM plumbing. Raw `signal(2)` FFI keeps this dependency-
/// free; the handler only flips an atomic (the one async-signal-safe
/// thing it may do) and a mirror thread copies it into the `Arc` flag
/// the sweep dispatcher and shard supervisor poll.
#[cfg(unix)]
mod signals {
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Set (only) by the signal handler.
    pub static INTERRUPTED: AtomicBool = AtomicBool::new(false);

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        INTERRUPTED.store(true, Ordering::SeqCst);
    }

    /// Install the handler for SIGINT (2) and SIGTERM (15).
    pub fn install() {
        unsafe {
            signal(2, on_signal as *const () as usize);
            signal(15, on_signal as *const () as usize);
        }
    }
}

/// A shared flag that trips when the process receives SIGINT/SIGTERM.
/// On non-unix targets the flag exists but never trips (the sweep then
/// simply runs to completion; ^C falls back to the OS default).
fn interrupt_flag() -> Arc<AtomicBool> {
    let flag = Arc::new(AtomicBool::new(false));
    #[cfg(unix)]
    {
        signals::install();
        let mirror = Arc::clone(&flag);
        std::thread::spawn(move || loop {
            if signals::INTERRUPTED.load(Ordering::SeqCst) {
                mirror.store(true, Ordering::SeqCst);
                return;
            }
            std::thread::sleep(Duration::from_millis(25));
        });
    }
    flag
}

/// The flag table: every flag `bfsim` reads, declared once, and the
/// commands that read them. `obs::cli` generates `--help` from it.
#[rustfmt::skip]
mod table {
    use super::*;
    use obs::cli::{list, millis, number, one_of, positive, text, Command, Flag, Group, Program, LOG};

    pub static MODEL: Flag<String> = Flag::new("--model", "ctc|sdsc|lublin", "ctc", "synthetic workload model", |raw| one_of(raw, &["ctc", "sdsc", "lublin"]));
    pub static JOBS: Flag<usize> = Flag::new("--jobs", "N", "5000", "jobs to generate", positive);
    pub static SEED: Flag<u64> = Flag::new("--seed", "S", "42", "workload and estimate seed", number);
    pub static LOAD: Flag<Option<f64>> = Flag::new("--load", "RHO|native", "0.9", "offered load to scale to (finite, > 0), or the trace's own", load);
    pub static ESTIMATE: Flag<EstimateModel> = Flag::new("--estimate", "EST", "exact", "user estimates: exact, systematic:R (R x runtime, finite R >= 1) or user", estimate);
    pub static TRACE: Flag<String> = Flag::new("--trace", "FILE.swf", "", "replay an SWF trace instead of a model", text);
    pub static LENIENT: Flag<bool> = Flag::switch("--lenient", "skip malformed trace lines, logging a per-field breakdown");
    pub static SCHEDULER: Flag<SchedulerKind> = Flag::new("--scheduler", "KIND", "easy", "nobf, cons[-reanchor|-headstart|-none], easy, selective:T, slack:F, depth:K, preemptive:T", scheduler);
    pub static POLICY: Flag<Policy> = Flag::new("--policy", "fcfs|sjf|xf|ljf|widest", "fcfs", "queue priority", policy);
    pub static GANTT: Flag<bool> = Flag::switch("--gantt", "print a Gantt chart");
    pub static SERIES: Flag<bool> = Flag::switch("--series", "print utilization and queue-depth sparklines");
    pub static FAIRNESS: Flag<bool> = Flag::switch("--fairness", "print fairness metrics");
    pub static TRACE_OUT: Flag<String> = Flag::new("--trace-out", "OUT.jsonl", "", "write the decision trace (decision-neutral)", text);
    pub static OUT: Flag<String> = Flag::new("-o, --out", "FILE", "", "output file", text);
    pub static SEEDS: Flag<Vec<u64>> = Flag::new("--seeds", "a,b,c", "42,1337,2002", "campaign seeds", list);
    pub static ADDR: Flag<String> = Flag::new("--addr", "HOST:PORT", "127.0.0.1:7411", "the bfsimd to talk to", text);
    pub static TIMEOUT: Flag<Option<Duration>> = Flag::new("--timeout-ms", "N", "30000", "per-request deadline (0 disables)", millis);
    pub static RETRIES: Flag<u32> = Flag::new("--retries", "N", "4", "retry budget per request", number);
    pub static RETRY_BASE: Flag<u64> = Flag::new("--retry-base-ms", "N", "25", "backoff base, decorrelated jitter", positive);
    pub static RETRY_SEED: Flag<u64> = Flag::new("--retry-seed", "S", "0", "backoff jitter seed", number);
    pub static FORMAT: Flag<String> = Flag::new("--format", "json|prom", "json", "canonical JSON or Prometheus text", |raw| one_of(raw, &["json", "prom"]));
    pub static BASELINE: Flag<String> = Flag::new("--baseline", "OLD.json", "", "compare against an earlier report (bad file: exit 6)", text);
    pub static ENFORCE_PARITY: Flag<bool> = Flag::switch("--enforce-parity", "exit 7 if a fingerprint differs from --baseline");
    pub static TINY: Flag<bool> = Flag::switch("--tiny", "the pinned six-cell grid");
    pub static REPS: Flag<u32> = Flag::new("--reps", "N", "", "timed runs per cell, best kept (default 2; 1 with --tiny)", positive);
    pub static SPANS: Flag<bool> = Flag::switch("--spans", "record phase and cell spans");
    pub static SHARDS: Flag<Vec<String>> = Flag::new("--shards", "H:P,H:P,...", "", "the bfsimd shards", list);
    pub static SPEC: Flag<String> = Flag::new("--spec", "FILE.json", "", "a serialized SweepSpec (bad file: exit 6)", text);
    pub static BENCH: Flag<bool> = Flag::switch("--bench", "the full pinned bench grid");
    pub static WINDOW: Flag<usize> = Flag::new("--window", "N", "", "in-flight cells per shard (default: its workers)", positive);
    pub static NO_STEAL: Flag<bool> = Flag::switch("--no-steal", "keep cells on their home shard");
    pub static MAX_REQUEUES: Flag<u32> = Flag::new("--max-requeues", "N", "3", "redispatches per cell before it fails", number);
    pub static SWEEP_JOURNAL: Flag<String> = Flag::new("--journal", "J.jsonl", "", "sweep journal: sweep starts one, coord-status summarizes it", text);
    pub static RESUME: Flag<String> = Flag::new("--resume", "J.jsonl", "", "replay a journal of the same sweep, run the rest", text);
    pub static REPROBE: Flag<Option<Duration>> = Flag::new("--reprobe-ms", "N", "1000", "re-handshake dead shards every N ms (0 disables)", millis);
    pub static CANONICAL_OUT: Flag<String> = Flag::new("--canonical-out", "CANON.json", "", "write the deterministic projection", text);
    pub static COUNT: Flag<usize> = Flag::new("--count", "N", "2", "children on consecutive ports", positive);
    pub static BASE_PORT: Flag<u16> = Flag::new("--base-port", "P", "7431", "first child's port", positive);
    pub static BFSIMD: Flag<String> = Flag::new("--bfsimd", "PATH", "", "daemon binary (default: next to bfsim, else $PATH)", text);
    pub static CACHE_JOURNAL_DIR: Flag<String> = Flag::new("--cache-journal-dir", "DIR", "", "give each child a cache journal in DIR", text);
    pub static FAULT_PLAN: Flag<String> = Flag::new("--fault-plan", "SPEC", "", "arm fault injection in every child", |raw| {
        service::FaultPlan::parse(raw).map(|_| raw.to_string())
    });
    pub static RESTART_LIMIT: Flag<u32> = Flag::new("--restart-limit", "N", "5", "short-lived restarts before a child's breaker opens", number);
    pub static STABLE_MS: Flag<u64> = Flag::new("--stable-ms", "N", "5000", "uptime that resets the restart count", number);
    pub static IN: Flag<String> = Flag::new("--in", "SWEEP.json", "", "a sweep report (timeline: default SWEEP.json)", text);

    static WORKLOAD: Group = Group { title: "workload", flags: &[&MODEL, &JOBS, &SEED, &LOAD, &ESTIMATE] };
    static TRACE_FILE: Group = Group { title: "trace file", flags: &[&TRACE, &LENIENT] };
    static SCHED: Group = Group { title: "scheduler", flags: &[&SCHEDULER, &POLICY] };
    static CLIENT: Group = Group { title: "daemon client", flags: &[&ADDR, &TIMEOUT, &RETRIES, &RETRY_BASE, &RETRY_SEED] };
    static SHARD_CLIENT: Group = Group { title: "shard client", flags: &[&TIMEOUT, &RETRIES, &RETRY_BASE, &RETRY_SEED] };
    static SIMULATE: Group = Group { title: "output", flags: &[&GANTT, &SERIES, &FAIRNESS, &TRACE_OUT] };
    static OUTPUT: Group = Group { title: "output", flags: &[&OUT] };
    static COMPARE: Group = Group { title: "campaign", flags: &[&SEEDS] };
    static METRICS: Group = Group { title: "output", flags: &[&FORMAT] };
    static BENCH_RUN: Group = Group { title: "bench", flags: &[&OUT, &BASELINE, &ENFORCE_PARITY, &TINY, &REPS, &TRACE_OUT] };
    static SWEEP: Group = Group { title: "sweep", flags: &[&SHARDS, &SPEC, &TINY, &BENCH, &WINDOW, &NO_STEAL, &MAX_REQUEUES, &SPANS, &SWEEP_JOURNAL, &RESUME, &REPROBE, &CANONICAL_OUT, &OUT] };
    static FLEET: Group = Group { title: "fleet", flags: &[&COUNT, &BASE_PORT, &BFSIMD, &CACHE_JOURNAL_DIR, &FAULT_PLAN, &RESTART_LIMIT, &STABLE_MS, &RETRY_BASE, &RETRY_SEED] };
    static TIMELINE: Group = Group { title: "files", flags: &[&IN, &OUT] };
    static STATUS: Group = Group { title: "sources", flags: &[&SHARDS, &SWEEP_JOURNAL, &IN] };

    const fn command(name: &'static str, about: &'static str, groups: &'static [&'static Group]) -> Command {
        Command { name, about, operands: "", groups }
    }

    pub static BFSIM: Program = Program {
        name: "bfsim",
        about: "Simulate backfilling schedulers, alone or through bfsimd shards.",
        commands: &[
            command("simulate", "Simulate one workload under one scheduler and print its metrics.", &[&WORKLOAD, &TRACE_FILE, &SCHED, &SIMULATE, &LOG]),
            command("generate", "Write the workload as an SWF trace to -o (required).", &[&WORKLOAD, &TRACE_FILE, &OUTPUT, &LOG]),
            Command { operands: "[FILE.swf]", ..command("inspect", "Print a trace's statistics and weekly arrival heatmap.", &[&WORKLOAD, &TRACE_FILE, &LOG]) },
            command("compare", "Run six scheduler cells over several seeds, with 95% intervals.", &[&WORKLOAD, &COMPARE, &LOG]),
            command("submit", "Simulate one cell on a bfsimd (ctc and sdsc models only).", &[&WORKLOAD, &SCHED, &CLIENT, &LOG]),
            command("stats", "Print a bfsimd's request, cache and pool counters.", &[&CLIENT, &LOG]),
            command("metrics", "Print a bfsimd's metrics registry.", &[&METRICS, &CLIENT, &LOG]),
            command("health", "Print a bfsimd's readiness, pool and journal state.", &[&CLIENT, &LOG]),
            command("shutdown", "Drain and stop a bfsimd.", &[&CLIENT, &LOG]),
            command("bench", "Time the pinned sweep and write its report to -o (required).", &[&BENCH_RUN, &LOG]),
            command("sweep", "Fan a sweep across bfsimd shards; report to -o (default SWEEP.json).", &[&SWEEP, &SHARD_CLIENT, &LOG]),
            command("shards", "Run and supervise local bfsimd shards until SIGINT/SIGTERM.", &[&FLEET, &LOG]),
            command("timeline", "Merge a --spans sweep report into Chrome trace JSON (-o, default stdout).", &[&TIMELINE, &LOG]),
            command("coord-status", "Print each shard's state, or summarize a sweep journal or report.", &[&STATUS, &SHARD_CLIENT, &LOG]),
        ],
    };

    fn load(raw: &str) -> Result<Option<f64>, String> {
        if raw == "native" {
            return Ok(None);
        }
        let rho = number(raw)?;
        check_load(rho).map(|()| Some(rho))
    }

    fn estimate(raw: &str) -> Result<EstimateModel, String> {
        let model = match (raw, raw.split_once(':')) {
            ("exact", _) => EstimateModel::Exact,
            ("user", _) => EstimateModel::User(UserModelParams::capped(SimSpan::from_hours(18))),
            (_, Some(("systematic", r))) => EstimateModel::SystematicOver { factor: number(r)? },
            _ => return Err("need exact, systematic:R or user".to_string()),
        };
        check_estimate(model).map(|()| model)
    }

    fn scheduler(raw: &str) -> Result<SchedulerKind, String> {
        use SchedulerKind::*;
        let kind = match (raw, raw.split_once(':')) {
            ("nobf", _) => NoBackfill,
            ("cons", _) => Conservative,
            ("cons-reanchor", _) => ConservativeReanchor,
            ("cons-headstart", _) => ConservativeHeadStart,
            ("cons-none", _) => ConservativeNoCompress,
            ("easy", _) => Easy,
            (_, Some(("selective", t))) => Selective { threshold: number(t)? },
            (_, Some(("slack", f))) => Slack { slack_factor: number(f)? },
            (_, Some(("depth", k))) => Depth { depth: number(k)? },
            (_, Some(("preemptive", t))) => Preemptive { threshold: number(t)? },
            _ => return Err("unknown scheduler (see --help)".to_string()),
        };
        check_kind(kind).map(|()| kind)
    }

    fn policy(raw: &str) -> Result<Policy, String> {
        let policies = [Policy::Fcfs, Policy::Sjf, Policy::XFactor, Policy::Ljf, Policy::WidestFirst];
        let found = policies.into_iter().find(|p| p.label().to_lowercase() == raw);
        found.ok_or_else(|| "need fcfs, sjf, xf, ljf or widest".to_string())
    }
}

fn build_trace(a: &Args) -> Trace {
    let (jobs, seed) = (a.get(&JOBS), a.get(&SEED));
    let base = match a.operands.last().cloned().or_else(|| a.opt(&TRACE)) {
        Some(path) => {
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| die(&format!("reading {path}: {e}")));
            let mode = if a.on(&LENIENT) {
                swf::ParseMode::Lenient
            } else {
                swf::ParseMode::Strict
            };
            let parsed = swf::parse_trace_with(&text, &path, None, mode)
                .unwrap_or_else(|e| die(&format!("parsing {path}: {e}")));
            if parsed.report.total() > 0 {
                obs::warn!(target: "bfsim",
                    "lenient parse of {path} skipped {} malformed lines ({})",
                    parsed.report.total(), parsed.report.summary());
            }
            parsed.trace
        }
        None => match a.get(&MODEL).as_str() {
            "ctc" => workload::models::ctc().generate(jobs, seed),
            "sdsc" => workload::models::sdsc().generate(jobs, seed),
            _ => LublinModel::default_for(256).generate(jobs, seed),
        },
    };
    let estimated = a.get(&ESTIMATE).apply(&base, seed ^ 0xE57);
    let Some(rho) = a.get(&LOAD) else {
        return estimated;
    };
    let own = estimated.offered_load();
    if !own.is_finite() || own <= 0.0 {
        die(&format!(
            "bad --load {rho}: the trace's own load is undefined ({own}); use --load native"
        ));
    }
    scale_to_load(&estimated, rho)
}

/// Drain `recorder` to `path` as JSONL, reporting drops.
fn write_trace_out(recorder: &Rc<RefCell<Recorder>>, path: &str) {
    let rec = recorder.borrow();
    let mut out = Vec::new();
    rec.write_jsonl(&mut out)
        .expect("writing JSONL to a Vec cannot fail");
    std::fs::write(path, out).unwrap_or_else(|e| die(&format!("writing {path}: {e}")));
    if rec.dropped() > 0 {
        obs::warn!(target: "bfsim",
            "trace ring dropped {} oldest events (raise the cap?)", rec.dropped());
    }
    println!("trace: {} events -> {path}", rec.len());
}

fn cmd_simulate(a: &Args) {
    let trace = build_trace(a);
    let trace_out = a.opt(&TRACE_OUT);
    let recorder = trace_out
        .as_ref()
        .map(|_| obs::trace::shared(obs::trace::DEFAULT_TRACE_CAP.max(trace.len() * 8)));
    let options = SimOptions {
        recorder: recorder.clone(),
        phases: None,
    };
    let (schedule, ()) = simulate_observed(&trace, a.get(&SCHEDULER), a.get(&POLICY), options);
    if let (Some(path), Some(recorder)) = (&trace_out, &recorder) {
        write_trace_out(recorder, path);
    }
    schedule
        .validate()
        .unwrap_or_else(|e| die(&format!("audit failed: {e}")));
    let stats = schedule.stats(&CategoryCriteria::default());
    println!("scheduler: {}", schedule.scheduler);
    println!("fingerprint {:#018x}", schedule.fingerprint());
    println!("{}", TraceStats::of(&trace).render());
    println!(
        "avg bounded slowdown {:.2} | avg wait {:.0} s | avg turnaround {:.0} s",
        stats.overall.avg_slowdown(),
        stats.overall.avg_wait(),
        stats.overall.avg_turnaround()
    );
    println!(
        "worst turnaround {:.1} h | utilization {:.3} | makespan {}",
        stats.overall.worst_turnaround() / 3600.0,
        stats.utilization,
        stats.makespan
    );
    for cat in Category::ALL {
        let m = stats.category(cat);
        println!(
            "  {cat}: {:6} jobs  slowdown {:8.2}",
            m.count(),
            m.avg_slowdown()
        );
    }
    if let Some(p) = schedule.profile_stats {
        println!(
            "profile ops: {} anchors ({:.1} segs/anchor, {} chunk leaps, \
             {:.1} chunks/leap) | {} reserves | {} releases | \
             {} compress passes | peak {} segments | {} queue moves",
            p.find_anchor_calls,
            p.segments_per_anchor(),
            p.tree_descents,
            p.chunks_per_leap(),
            p.reserves,
            p.releases,
            p.compress_passes,
            p.peak_segments,
            p.queue_moves
        );
    }
    if a.on(&FAIRNESS) {
        let f = fairness(&schedule.outcomes);
        println!(
            "fairness: slowdown gini {:.3} | max stretch {:.1} | overtake rate {:.3}",
            f.slowdown_gini, f.max_stretch, f.overtake_rate
        );
    }
    if a.on(&SERIES) {
        let bin = SimSpan::new((stats.makespan.as_secs() / 72).max(1));
        let util = utilization_series(&schedule.outcomes, trace.nodes(), bin);
        let depth = queue_depth_series(&schedule.outcomes, bin);
        println!("utilization  {}", viz::sparkline(&util));
        println!(
            "queue depth  {}  (peak {:.0})",
            viz::sparkline(&depth),
            depth.peak()
        );
    }
    if a.on(&GANTT) {
        println!("{}", viz::gantt(&schedule.outcomes, 100));
    }
}

fn cmd_generate(a: &Args) {
    let trace = build_trace(a);
    let out = a
        .opt(&OUT)
        .unwrap_or_else(|| die("generate needs -o OUT.swf"));
    std::fs::write(&out, swf::write_trace(&trace))
        .unwrap_or_else(|e| die(&format!("writing {out}: {e}")));
    println!("wrote {} jobs to {out}", trace.len());
}

fn cmd_inspect(a: &Args) {
    let trace = build_trace(a);
    println!("{}", TraceStats::of(&trace).render());
    let grid = workload::arrival_heatmap(&trace);
    let rows: Vec<Vec<f64>> = grid
        .iter()
        .map(|day| day.iter().map(|&c| c as f64).collect())
        .collect();
    println!("weekly arrival heatmap (rows = day of week, cols = hour of day):");
    println!(
        "{}",
        viz::heatmap(&rows, &["d0", "d1", "d2", "d3", "d4", "d5", "d6"])
    );
}

/// The trace source `--model`, `--jobs` and `--seed` name, for the
/// commands that send a declarative `Scenario`, which has no Lublin model.
fn model_source(a: &Args) -> TraceSource {
    let (jobs, seed) = (a.get(&JOBS), a.get(&SEED));
    match a.get(&MODEL).as_str() {
        "ctc" => TraceSource::Ctc { jobs, seed },
        "sdsc" => TraceSource::Sdsc { jobs, seed },
        other => die(&format!(
            "bad --model {other:?}: {} supports ctc and sdsc",
            a.command
        )),
    }
}

fn cmd_compare(a: &Args) {
    let seeds = a.get(&SEEDS);
    let campaign = Campaign {
        scenario: Scenario {
            source: model_source(a),
            estimate: a.get(&ESTIMATE),
            estimate_seed: 1,
            load: a.get(&LOAD),
        },
        seeds: seeds.clone(),
        grid: vec![
            (SchedulerKind::NoBackfill, Policy::Fcfs),
            (SchedulerKind::Conservative, Policy::Fcfs),
            (SchedulerKind::Easy, Policy::Fcfs),
            (SchedulerKind::Easy, Policy::Sjf),
            (SchedulerKind::Easy, Policy::XFactor),
            (SchedulerKind::Selective { threshold: 2.0 }, Policy::Fcfs),
        ],
        threads: None,
    };
    let mut table = Table::new(
        format!("Campaign over seeds {seeds:?}"),
        &["scheme", "slowdown", "turnaround (s)", "utilization"],
    );
    for cell in campaign.run() {
        table.row(vec![
            format!("{}/{}", cell.kind.label(), cell.policy),
            cell.slowdown.to_string(),
            cell.turnaround.to_string(),
            format!(
                "{:.3} ± {:.3}",
                cell.utilization.mean, cell.utilization.ci95
            ),
        ]);
    }
    println!("{}", table.render());
}

/// Deadline/retry options from the CLI flags, shared by every daemon
/// command and by the sweep coordinator's per-shard clients.
fn client_options(a: &Args) -> ClientOptions {
    ClientOptions {
        deadline: a.get(&TIMEOUT),
        retry: RetryPolicy {
            max_retries: a.get(&RETRIES),
            base: Duration::from_millis(a.get(&RETRY_BASE)),
            seed: a.get(&RETRY_SEED),
            ..RetryPolicy::default()
        },
    }
}

/// Build the resilient client from the CLI's deadline/retry flags. The
/// connection itself is lazy, so this never fails — errors surface (and
/// get retried) on the first actual request.
fn connect(a: &Args) -> ResilientClient {
    ResilientClient::new(a.get(&ADDR), client_options(a))
}

fn cmd_submit(a: &Args) {
    let config = RunConfig {
        scenario: Scenario {
            source: model_source(a),
            estimate: a.get(&ESTIMATE),
            estimate_seed: a.get(&SEED) ^ 0xE57,
            load: a.get(&LOAD),
        },
        kind: a.get(&SCHEDULER),
        policy: a.get(&POLICY),
    };
    let reply = connect(a)
        .submit(&config)
        .unwrap_or_else(|e| die_client("submit", a, e));
    let r = &reply.report;
    println!(
        "{} [{}] config {:#018x} in {} ms",
        r.label,
        if reply.cached { "cached" } else { "fresh" },
        reply.config_hash,
        reply.wall_ms
    );
    println!(
        "{} jobs on {} nodes | fingerprint {:#018x}",
        r.jobs, r.nodes, r.fingerprint
    );
    println!(
        "avg bounded slowdown {:.2} | avg wait {:.0} s | avg turnaround {:.0} s",
        r.stats.overall.avg_slowdown(),
        r.stats.overall.avg_wait(),
        r.stats.overall.avg_turnaround()
    );
    println!(
        "worst turnaround {:.1} h | utilization {:.3} | makespan {}",
        r.stats.overall.worst_turnaround() / 3600.0,
        r.stats.utilization,
        r.stats.makespan
    );
    println!(
        "fairness: slowdown gini {:.3} | max stretch {:.1} | overtake rate {:.3}",
        r.fairness.slowdown_gini, r.fairness.max_stretch, r.fairness.overtake_rate
    );
}

fn cmd_stats(a: &Args) {
    let stats = connect(a)
        .stats()
        .unwrap_or_else(|e| die_client("stats", a, e));
    println!(
        "requests: {} submitted | {} completed | {} failed | {} rejected | {} shed{}",
        stats.submitted,
        stats.completed,
        stats.failed,
        stats.rejected,
        stats.shed,
        if stats.draining { " | DRAINING" } else { "" }
    );
    println!(
        "cache: {} hits / {} misses | {} entries | {} evicted",
        stats.cache_hits, stats.cache_misses, stats.cache_entries, stats.cache_evictions
    );
    println!(
        "pool: {} queued | {} in flight | {} worker panics",
        stats.queue_depth, stats.in_flight, stats.worker_panics
    );
    println!(
        "wall: {:.1} ms mean | {} ms max | {} ms total",
        stats.wall_ms_mean(),
        stats.wall_ms_max,
        stats.wall_ms_total
    );
}

/// One measured cell of the pinned throughput sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct BenchCell {
    /// Unique cell label: config label + load + estimate model.
    label: String,
    /// The full config, so the cell can be reproduced verbatim.
    config: RunConfig,
    /// Schedule fingerprint — equal across code versions iff the change
    /// preserved every scheduling decision in this cell.
    fingerprint: u64,
    /// Jobs simulated.
    jobs: usize,
    /// Discrete events the driver delivered.
    events: u64,
    /// Best-of-repeats wall time for the simulation alone (trace
    /// materialization excluded), in milliseconds.
    wall_ms: f64,
    /// `events / wall seconds` — the headline throughput number.
    events_per_sec: f64,
    /// Profile and queue operation counters, if the scheduler keeps them.
    profile: Option<ProfileStats>,
}

/// A current cell measured against the same cell in a `--baseline` file.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct BenchComparison {
    label: String,
    baseline_events_per_sec: f64,
    events_per_sec: f64,
    /// `events_per_sec / baseline_events_per_sec`.
    speedup: f64,
    /// True iff this cell's schedule fingerprint equals the baseline's —
    /// the speedup changed no scheduling decision.
    fingerprint_matches: bool,
}

/// The emitted `BENCH_*.json` document. See DESIGN.md §11 for the schema.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct BenchReport {
    /// Schema/PR version of this report.
    version: u32,
    tool: String,
    /// True when produced by the shrunken `--tiny` CI sweep.
    tiny: bool,
    cells: Vec<BenchCell>,
    /// The `--baseline` file's cells, embedded so before/after travel in
    /// one self-contained document.
    baseline: Option<Vec<BenchCell>>,
    /// Per-cell current-vs-baseline speedups (empty without `--baseline`).
    comparison: Vec<BenchComparison>,
}

/// Unique bench label: the config label alone collides across load and
/// estimate-model variants of the same scheduler cell.
fn bench_label(config: &RunConfig) -> String {
    let est = match config.scenario.estimate {
        EstimateModel::Exact => "exact".to_string(),
        EstimateModel::SystematicOver { factor } => format!("sys{factor}"),
        EstimateModel::User(_) => "user".to_string(),
    };
    let load = match config.scenario.load {
        Some(rho) => format!("{rho}"),
        None => "native".to_string(),
    };
    format!("{} rho={load} est={est}", config.label())
}

/// Load and validate a `--baseline` report *before* the sweep runs: a
/// missing/corrupt file or a baseline with no cell in common with the
/// current sweep exits 6 immediately instead of wasting the whole sweep
/// (or worse, panicking mid-way through it).
fn load_baseline(path: &str, configs: &[RunConfig], enforce_parity: bool) -> Vec<BenchCell> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| die_data(&format!("reading baseline {path}: {e}")));
    let report: BenchReport = serde_json::from_str(&text)
        .unwrap_or_else(|e| die_data(&format!("parsing baseline {path}: {e}")));
    // Cells match by *config* (the full reproducible RunConfig), not by
    // label: labels are human-readable and have collided across sweep
    // revisions before.
    let missing: Vec<&RunConfig> = configs
        .iter()
        .filter(|c| !report.cells.iter().any(|b| b.config == **c))
        .collect();
    if missing.len() == configs.len() {
        die_data(&format!(
            "baseline {path} shares no cell with the current sweep \
             ({} baseline cells, {} current): wrong file?",
            report.cells.len(),
            configs.len()
        ));
    }
    if enforce_parity && !missing.is_empty() {
        die_data(&format!(
            "baseline {path} is missing {} of {} sweep cells (first: {}) \
             and --enforce-parity needs all of them",
            missing.len(),
            configs.len(),
            bench_label(missing[0])
        ));
    }
    report.cells
}

fn cmd_bench(a: &Args) {
    let (tiny, enforce_parity) = (a.on(&TINY), a.on(&ENFORCE_PARITY));
    let out = a
        .opt(&OUT)
        .unwrap_or_else(|| die("bench needs -o OUT.json"));
    let configs = bench_cells(tiny);
    let baseline: Option<Vec<BenchCell>> = a
        .opt(&BASELINE)
        .map(|path| load_baseline(&path, &configs, enforce_parity));
    if enforce_parity && baseline.is_none() {
        die("--enforce-parity needs --baseline");
    }
    // Wall time on a shared machine is one-sided noise (contention only
    // slows a run down), so each cell keeps its best-of-`reps` time.
    let repeats = a.opt(&REPS).unwrap_or(if tiny { 1 } else { 2 });
    let trace_out = a.opt(&TRACE_OUT);
    let mut cells = Vec::with_capacity(configs.len());
    let mut trace_file = trace_out.as_ref().map(|path| {
        std::fs::File::create(path).unwrap_or_else(|e| die(&format!("creating {path}: {e}")))
    });
    for config in &configs {
        // Materialize once, outside the timed region: the bench measures
        // the event loop, not the workload generator.
        let trace = config.scenario.materialize();
        let mut best: Option<(f64, Schedule)> = None;
        let mut recorded: Option<Rc<RefCell<Recorder>>> = None;
        for _ in 0..repeats {
            // With --trace-out the timed run itself carries the
            // recorder: the emitted fingerprints then prove it is
            // decision-neutral against a plain bench run.
            let recorder = trace_out
                .as_ref()
                .map(|_| obs::trace::shared(obs::trace::DEFAULT_TRACE_CAP.max(trace.len() * 8)));
            let t0 = std::time::Instant::now();
            let options = SimOptions {
                recorder: recorder.clone(),
                phases: None,
            };
            let (schedule, ()) = simulate_observed(&trace, config.kind, config.policy, options);
            let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
            if best.as_ref().is_none_or(|(b, _)| wall_ms < *b) {
                best = Some((wall_ms, schedule));
                recorded = recorder;
            }
        }
        let (wall_ms, schedule) = best.expect("repeats >= 1");
        if let (Some(file), Some(rec)) = (trace_file.as_mut(), &recorded) {
            rec.borrow()
                .write_jsonl(file)
                .unwrap_or_else(|e| die(&format!("writing trace events: {e}")));
        }
        let events_per_sec = if wall_ms > 0.0 {
            schedule.events as f64 / (wall_ms / 1e3)
        } else {
            0.0
        };
        let label = bench_label(config);
        obs::info!(target: "bfsim::bench",
            "{label}: {} events / {wall_ms:.1} ms = {events_per_sec:.0} ev/s",
            schedule.events
        );
        cells.push(BenchCell {
            label,
            config: *config,
            fingerprint: schedule.fingerprint(),
            jobs: schedule.outcomes.len(),
            events: schedule.events,
            wall_ms,
            events_per_sec,
            profile: schedule.profile_stats,
        });
    }

    let mut comparison = Vec::new();
    if let Some(base) = &baseline {
        for cell in &cells {
            let Some(b) = base.iter().find(|b| b.config == cell.config) else {
                continue;
            };
            comparison.push(BenchComparison {
                label: cell.label.clone(),
                baseline_events_per_sec: b.events_per_sec,
                events_per_sec: cell.events_per_sec,
                speedup: if b.events_per_sec > 0.0 {
                    cell.events_per_sec / b.events_per_sec
                } else {
                    0.0
                },
                fingerprint_matches: b.fingerprint == cell.fingerprint,
            });
        }
    }

    let report = BenchReport {
        version: 5,
        tool: "bfsim bench".into(),
        tiny,
        cells,
        baseline,
        comparison,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out, &json).unwrap_or_else(|e| die(&format!("writing {out}: {e}")));

    // Self-check: the emitted document must round-trip. This is what the
    // CI smoke step relies on to validate the format.
    let back =
        std::fs::read_to_string(&out).unwrap_or_else(|e| die(&format!("re-reading {out}: {e}")));
    let parsed: BenchReport = serde_json::from_str(&back)
        .unwrap_or_else(|e| die(&format!("emitted {out} is invalid: {e}")));
    if parsed.cells.len() != report.cells.len() {
        die(&format!("emitted {out} lost cells in the round-trip"));
    }
    for c in &report.comparison {
        let tag = if c.fingerprint_matches {
            ""
        } else {
            "  !! FINGERPRINT CHANGED"
        };
        println!(
            "{}: {:.0} -> {:.0} ev/s ({:.2}x){tag}",
            c.label, c.baseline_events_per_sec, c.events_per_sec, c.speedup
        );
    }
    println!("wrote {} cells to {out} (validated)", report.cells.len());
    if enforce_parity {
        let changed: Vec<&BenchComparison> = report
            .comparison
            .iter()
            .filter(|c| !c.fingerprint_matches)
            .collect();
        if !changed.is_empty() {
            // The report is on disk already: fail loudly but inspectably.
            die_parity(&format!(
                "{} of {} cells changed schedule fingerprint vs baseline (first: {})",
                changed.len(),
                report.comparison.len(),
                changed[0].label
            ));
        }
        println!(
            "fingerprint parity: {} cells identical to baseline",
            report.comparison.len()
        );
    }
}

fn cmd_metrics(a: &Args) {
    let json = connect(a)
        .metrics()
        .unwrap_or_else(|e| die_client("metrics", a, e));
    if a.get(&FORMAT) == "prom" {
        let snapshot = coord::parse_metrics_doc(&json)
            .unwrap_or_else(|e| die_client("metrics", a, ClientError::Protocol(e)));
        // Prometheus text exposition (already newline-terminated).
        print!("{}", obs::render_prometheus(&snapshot));
        return;
    }
    // One canonical-JSON document on stdout, ready for `jq` or diffing.
    println!("{json}");
}

fn cmd_health(a: &Args) {
    let h = connect(a)
        .health()
        .unwrap_or_else(|e| die_client("health", a, e));
    let status = if h.draining {
        "draining"
    } else if h.ready {
        "ready"
    } else {
        "not ready"
    };
    println!("bfsimd at {} is {status}", a.get(&ADDR));
    println!(
        "pool: {} workers | queue {}/{} | {} in flight | {} shed | {} worker panics",
        h.workers, h.queue_depth, h.queue_cap, h.in_flight, h.shed, h.worker_panics
    );
    println!("cache: {} entries", h.cache_entries);
    match &h.journal {
        Some(j) => println!(
            "journal: {} ({} replayed, {} appended{})",
            j.path,
            j.replayed,
            j.appended,
            if j.truncated {
                format!(
                    ", torn tail truncated at startup ({} bytes dropped)",
                    j.dropped_bytes
                )
            } else {
                String::new()
            }
        ),
        None => println!("journal: none (cache is in-memory only)"),
    }
    if let Some(plan) = &h.fault_plan {
        println!("FAULT PLAN ACTIVE: {plan}");
    }
}

fn cmd_shutdown(a: &Args) {
    connect(a)
        .shutdown()
        .unwrap_or_else(|e| die_client("shutdown", a, e));
    println!("bfsimd at {} is draining", a.get(&ADDR));
}

/// One completed cell in a `bfsim sweep` report.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SweepCellOut {
    /// Unique bench label (config + load + estimate model).
    label: String,
    /// The full config, so the cell can be reproduced verbatim.
    config: RunConfig,
    /// Canonical content hash — the shard-assignment and dedup key,
    /// verified equal between coordinator and serving daemon.
    config_hash: u64,
    /// Schedule fingerprint; byte-identical to a serial run's.
    fingerprint: u64,
    /// True when the shard answered from its result cache.
    cached: bool,
    /// Index (into `shards`) of the shard that served it.
    shard: usize,
    /// True when the cell ran away from its home shard.
    stolen: bool,
    /// Wall milliseconds the serving shard spent on it.
    wall_ms: u64,
}

/// One permanently failed cell in a `bfsim sweep` report.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SweepFailedOut {
    label: String,
    config: RunConfig,
    config_hash: u64,
    error: String,
}

/// Per-shard accounting in a `bfsim sweep` report.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SweepShardOut {
    addr: String,
    workers: u64,
    window: usize,
    assigned: usize,
    completed: u64,
    stolen: u64,
    cache_hits: u64,
    dead: bool,
    wall_ms_p99: u64,
}

/// The emitted `SWEEP.json` document. See DESIGN.md §15 for semantics.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SweepReport {
    version: u32,
    tool: String,
    shards: Vec<SweepShardOut>,
    cells: Vec<SweepCellOut>,
    failed: Vec<SweepFailedOut>,
    steals: u64,
    requeues: u64,
    duplicates: usize,
    degraded: bool,
    /// Shard deaths observed mid-sweep. A shard can die and later
    /// rejoin, so `deaths > 0` with `degraded == false` means every
    /// casualty was healed before the sweep ended.
    #[serde(default)]
    deaths: u64,
    /// Dead shards re-admitted by the coordinator's reprobe loop.
    #[serde(default)]
    rejoins: u64,
    /// Cells restored from a `--resume` journal without dispatching.
    #[serde(default)]
    replayed: u64,
    /// True when SIGINT/SIGTERM stopped the sweep before completion.
    #[serde(default)]
    interrupted: bool,
    /// Field-wise sum of reachable shards' post-sweep service stats.
    stats: Option<service::ServiceStats>,
    /// Canonical merged metrics document (same format one daemon emits),
    /// embedded as a string.
    metrics: Option<String>,
    /// Collected span sources (`--spans` only; empty otherwise). The
    /// default keeps version-1 reports readable by `bfsim timeline`.
    #[serde(default)]
    spans: Vec<coord::SpanDoc>,
}

/// The sweep's cell grid: an explicit `--spec FILE.json` (a serialized
/// `SweepSpec`) or the pinned tiny bench grid via `--tiny`.
fn sweep_cells(a: &Args) -> Vec<RunConfig> {
    if let Some(path) = a.opt(&SPEC) {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| die_data(&format!("reading sweep spec {path}: {e}")));
        let spec: SweepSpec = serde_json::from_str(&text)
            .unwrap_or_else(|e| die_data(&format!("parsing sweep spec {path}: {e}")));
        spec.validate()
            .unwrap_or_else(|e| die_data(&format!("invalid sweep spec {path}: {e}")));
        spec.expand()
    } else if a.on(&BENCH) {
        bench_cells(false)
    } else if a.on(&TINY) {
        bench_cells(true)
    } else {
        die("sweep needs --spec FILE.json, --tiny, or --bench")
    }
}

/// One cell of the `--canonical-out` projection.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct CanonicalCell {
    label: String,
    config_hash: u64,
    fingerprint: u64,
}

/// One permanently failed cell of the `--canonical-out` projection. The
/// error *text* is deliberately absent: attempt counts and shard
/// addresses in it vary run to run, and this file must not.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct CanonicalFailed {
    label: String,
    config_hash: u64,
}

/// The `--canonical-out CANON.json` document: the deterministic
/// projection of a sweep. Plan-ordered cells with their config hashes
/// and schedule fingerprints; every nondeterministic field of the full
/// report (wall times, shard placement, steal/cache accounting, span
/// timings) is stripped. Two runs of the same spec — including a
/// crashed-then-`--resume`d run versus an undisturbed one — produce
/// byte-identical files, so CI can `cmp` them.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct CanonicalSweep {
    version: u32,
    plan_hash: u64,
    cells: Vec<CanonicalCell>,
    failed: Vec<CanonicalFailed>,
    duplicates: usize,
}

fn cmd_sweep(a: &Args) {
    let shards = a
        .opt(&SHARDS)
        .unwrap_or_else(|| die("sweep needs --shards HOST:PORT[,HOST:PORT...]"));
    let (journal_path, resume) = (a.opt(&SWEEP_JOURNAL), a.opt(&RESUME));
    if journal_path.is_some() && resume.is_some() {
        die("--journal and --resume are mutually exclusive (a resume appends to the journal it replays)");
    }
    let cells = sweep_cells(a);
    // Re-derive the plan for index → config mapping; planning is a pure
    // function of (cells, shard count), so this matches the dispatcher.
    let plan = coord::Plan::new(&cells, shards.len());

    // --journal starts a fresh journal; --resume replays one written by
    // an earlier (crashed or interrupted) run of the *same* plan and
    // keeps appending to it. Any resume-time mismatch — wrong plan hash,
    // foreign cell hashes, malformed records — is a bad data file: 6.
    let mut replay: Option<SweepReplay> = None;
    let journal: Option<SweepJournal> = if let Some(path) = &resume {
        match SweepJournal::resume(Path::new(path), &plan) {
            Ok((journal, rep)) => {
                if rep.truncated {
                    obs::warn!(target: "bfsim",
                        "journal {path}: torn tail truncated ({} bytes dropped)",
                        rep.dropped_bytes);
                }
                println!(
                    "resume: {}/{} cells already journaled ({} failed, {} duplicate records)",
                    rep.resolved(),
                    plan.len(),
                    rep.failed.len(),
                    rep.duplicates
                );
                replay = Some(rep);
                Some(journal)
            }
            Err(err) => die_data(&format!("resuming {path}: {err}")),
        }
    } else if let Some(path) = &journal_path {
        match SweepJournal::create(Path::new(path), &plan) {
            Ok(journal) => Some(journal),
            Err(err) => die_data(&format!("creating journal {path}: {err}")),
        }
    } else {
        None
    };

    let interrupt = interrupt_flag();
    let opts = SweepOptions {
        client: client_options(a),
        window: a.opt(&WINDOW),
        steal: !a.on(&NO_STEAL),
        max_requeues: a.get(&MAX_REQUEUES),
        spans: a.on(&SPANS),
        reprobe: a.get(&REPROBE),
        interrupt: Some(Arc::clone(&interrupt)),
    };
    let outcome =
        match run_sweep_recoverable(&shards, &cells, &opts, journal.as_ref(), replay.as_ref()) {
            Ok(outcome) => outcome,
            Err(err @ SweepError::ShardUnreachable { .. }) => die_shard(&err),
            Err(SweepError::NoShards) => die("sweep needs --shards"),
            Err(SweepError::EmptySweep) => die_data("sweep expanded to zero cells"),
        };

    let report = SweepReport {
        version: 3,
        tool: "bfsim sweep".into(),
        shards: outcome
            .shards
            .iter()
            .map(|s| SweepShardOut {
                addr: s.addr.clone(),
                workers: s.workers,
                window: s.window,
                assigned: s.assigned,
                completed: s.completed,
                stolen: s.stolen,
                cache_hits: s.cache_hits,
                dead: s.dead,
                wall_ms_p99: s.wall_ms_p99,
            })
            .collect(),
        cells: outcome
            .cells
            .iter()
            .map(|c| SweepCellOut {
                label: bench_label(&plan.cells[c.index]),
                config: plan.cells[c.index],
                config_hash: c.config_hash,
                fingerprint: c.report.fingerprint,
                cached: c.cached,
                shard: c.shard,
                stolen: c.stolen,
                wall_ms: c.wall_ms,
            })
            .collect(),
        failed: outcome
            .failed
            .iter()
            .map(|f| SweepFailedOut {
                label: bench_label(&plan.cells[f.index]),
                config: plan.cells[f.index],
                config_hash: f.config_hash,
                error: f.error.clone(),
            })
            .collect(),
        steals: outcome.steals,
        requeues: outcome.requeues,
        duplicates: outcome.duplicates,
        degraded: outcome.degraded,
        deaths: outcome.deaths,
        rejoins: outcome.rejoins,
        replayed: outcome.replayed,
        interrupted: outcome.interrupted,
        stats: outcome.stats,
        metrics: outcome.metrics_json,
        spans: outcome.spans.into_iter().map(Into::into).collect(),
    };
    let out = a.opt(&OUT).unwrap_or_else(|| "SWEEP.json".into());
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out, &json).unwrap_or_else(|e| die(&format!("writing {out}: {e}")));

    for s in &report.shards {
        println!(
            "shard {}: {} assigned | {} completed ({} stolen, {} cached) | \
             window {} | p99 {} ms{}",
            s.addr,
            s.assigned,
            s.completed,
            s.stolen,
            s.cache_hits,
            s.window,
            s.wall_ms_p99,
            if s.dead { " | DIED MID-SWEEP" } else { "" }
        );
    }
    println!(
        "sweep: {}/{} cells ok | {} failed | {} steals | {} requeues | \
         {} duplicates collapsed -> {out}",
        report.cells.len(),
        plan.len(),
        report.failed.len(),
        report.steals,
        report.requeues,
        report.duplicates
    );
    if opts.spans {
        let total: usize = report.spans.iter().map(|s| s.spans.len()).sum();
        println!(
            "spans: {total} from {} sources (merge with `bfsim timeline --in {out}`)",
            report.spans.len()
        );
    }
    if report.deaths > 0 || report.replayed > 0 || journal.is_some() {
        println!(
            "recovery: {} cells replayed from journal | {} shard deaths | {} rejoins{}",
            report.replayed,
            report.deaths,
            report.rejoins,
            journal
                .as_ref()
                .map(|j| format!(" | journal {}", j.path().display()))
                .unwrap_or_default()
        );
    }

    // --canonical-out: the deterministic projection, plan-ordered.
    if let Some(path) = a.opt(&CANONICAL_OUT) {
        let mut cells: Vec<(usize, CanonicalCell)> = outcome
            .cells
            .iter()
            .map(|c| {
                (
                    c.index,
                    CanonicalCell {
                        label: bench_label(&plan.cells[c.index]),
                        config_hash: c.config_hash,
                        fingerprint: c.report.fingerprint,
                    },
                )
            })
            .collect();
        cells.sort_by_key(|(index, _)| *index);
        let mut failed: Vec<(usize, CanonicalFailed)> = outcome
            .failed
            .iter()
            .map(|f| {
                (
                    f.index,
                    CanonicalFailed {
                        label: bench_label(&plan.cells[f.index]),
                        config_hash: f.config_hash,
                    },
                )
            })
            .collect();
        failed.sort_by_key(|(index, _)| *index);
        let canon = CanonicalSweep {
            version: 1,
            plan_hash: plan.content_hash(),
            cells: cells.into_iter().map(|(_, c)| c).collect(),
            failed: failed.into_iter().map(|(_, f)| f).collect(),
            duplicates: outcome.duplicates,
        };
        let json = serde_json::to_string_pretty(&canon).expect("canonical sweep serializes");
        std::fs::write(&path, &json).unwrap_or_else(|e| die(&format!("writing {path}: {e}")));
        println!("canonical: {} cells -> {path}", canon.cells.len());
    }

    // Exit taxonomy: the report is on disk in every branch below. An
    // interrupt outranks the failure branches — the "failed" cells are
    // just the ones the signal preempted, and the journal has everything
    // a resume needs.
    if report.interrupted {
        let hint = match &journal {
            Some(j) => format!(
                "; resume with `bfsim sweep --resume {}` (same spec and flags)",
                j.path().display()
            ),
            None => "; no --journal was active, so a rerun starts from scratch".to_string(),
        };
        obs::error!(target: "bfsim",
            "sweep interrupted by signal: {} of {} cells resolved{hint}",
            report.cells.len(), plan.len());
        std::process::exit(130);
    }
    let all_dead = report.shards.iter().all(|s| s.dead);
    if !report.failed.is_empty() {
        if all_dead {
            obs::error!(target: "bfsim",
                "every shard died mid-sweep; {} cells unresolved", report.failed.len());
            std::process::exit(3);
        }
        obs::error!(target: "bfsim",
            "{} of {} cells failed permanently (first: {})",
            report.failed.len(), plan.len(), report.failed[0].error);
        std::process::exit(5);
    }
    if report.degraded {
        die_degraded(&format!(
            "sweep completed degraded: all {} cells resolved, but {} shard(s) \
             were dead at sweep end ({} deaths, {} rejoins)",
            plan.len(),
            report.shards.iter().filter(|s| s.dead).count(),
            report.deaths,
            report.rejoins
        ));
    }
}

/// `bfsim shards` — spawn `--count` local `bfsimd` children on
/// consecutive ports and babysit them: crashed children restart under
/// seeded decorrelated-jitter backoff, crash-loopers trip their breaker
/// and are abandoned. Runs until SIGINT/SIGTERM (fleet stopped, exit 0)
/// or until every child has broken (exit 5).
fn cmd_shards(a: &Args) {
    let bfsimd = match a.opt(&BFSIMD) {
        Some(path) => PathBuf::from(path),
        // Default to the bfsimd sitting next to this bfsim binary —
        // the layout `cargo build` produces — falling back to $PATH.
        None => std::env::current_exe()
            .ok()
            .and_then(|exe| exe.parent().map(|dir| dir.join("bfsimd")))
            .filter(|candidate| candidate.exists())
            .unwrap_or_else(|| PathBuf::from("bfsimd")),
    };
    let base_port = a.get(&BASE_PORT) as usize;
    let addrs: Vec<String> = (0..a.get(&COUNT))
        .map(|i| format!("127.0.0.1:{}", base_port + i))
        .collect();
    let mut args: Vec<String> = Vec::new();
    if let Some(dir) = a.opt(&CACHE_JOURNAL_DIR) {
        std::fs::create_dir_all(&dir).unwrap_or_else(|e| die(&format!("creating {dir}: {e}")));
        args.push("--cache-journal".into());
        args.push(format!("{dir}/shard-{{port}}.jsonl"));
    }
    if let Some(plan) = a.opt(&FAULT_PLAN) {
        args.push("--fault-plan".into());
        args.push(plan);
    }
    let spec = SupervisorSpec {
        bfsimd,
        addrs: addrs.clone(),
        args,
        retry: RetryPolicy {
            base: Duration::from_millis(a.get(&RETRY_BASE)),
            seed: a.get(&RETRY_SEED),
            ..RetryPolicy::default()
        },
        breaker: BreakerPolicy {
            max_restarts: a.get(&RESTART_LIMIT),
            stable_uptime: Duration::from_millis(a.get(&STABLE_MS)),
        },
    };
    let supervisor =
        service::Supervisor::spawn(spec).unwrap_or_else(|e| die(&format!("spawning fleet: {e}")));
    println!("shards: supervising {} bfsimd children", addrs.len());
    println!("  --shards {}", addrs.join(","));
    let stop = interrupt_flag();
    let stopped_by_signal = loop {
        if stop.load(Ordering::SeqCst) {
            supervisor.stop();
            break true;
        }
        if supervisor.finished() {
            break false;
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    let report = supervisor.join();
    for child in &report.children {
        let status = match child.status {
            ChildStatus::Running => "running",
            ChildStatus::Backoff => "backoff",
            ChildStatus::Broken => "BROKEN (crash-looped)",
            ChildStatus::Stopped => "stopped",
        };
        println!(
            "shard {}: {status} | started {} time(s)",
            child.addr, child.restarts
        );
    }
    if !stopped_by_signal {
        obs::error!(target: "bfsim",
            "every supervised shard crash-looped; breakers open, giving up");
        std::process::exit(5);
    }
}

/// Merge a span-bearing sweep report into one Chrome trace-event JSON
/// document. Validation first: every cell's spans must form exactly one
/// rooted tree (one root whose span id is the trace id, every other
/// span's parent present in the same trace) — a violation means the
/// propagation chain broke somewhere and exits 6 rather than rendering
/// a misleading timeline.
fn cmd_timeline(a: &Args) {
    // Only the `spans` field matters here; unknown fields are ignored,
    // so any report revision ≥ 1 parses (a v1 report just has no spans).
    #[derive(Deserialize)]
    struct TimelineDoc {
        #[serde(default)]
        spans: Vec<coord::SpanDoc>,
    }
    let path = a.opt(&IN).unwrap_or_else(|| "SWEEP.json".into());
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| die_data(&format!("reading sweep report {path}: {e}")));
    let doc: TimelineDoc = serde_json::from_str(&text)
        .unwrap_or_else(|e| die_data(&format!("parsing sweep report {path}: {e}")));
    if doc.spans.is_empty() {
        die_data(&format!(
            "{path} carries no spans (was the sweep run with --spans?)"
        ));
    }
    let sources: Vec<obs::SpanSource> = doc.spans.into_iter().map(Into::into).collect();
    let merged: Vec<obs::SpanRecord> = sources
        .iter()
        .flat_map(|s| s.spans.iter().cloned())
        .collect();
    let summary = obs::validate_forest(&merged)
        .unwrap_or_else(|e| die_data(&format!("{path}: span forest is malformed: {e}")));
    let rendered = obs::render_chrome_trace(&sources);
    match a.opt(&OUT) {
        Some(out) => {
            std::fs::write(&out, &rendered).unwrap_or_else(|e| die(&format!("writing {out}: {e}")));
            println!(
                "timeline: {} spans across {} cell traces from {} sources -> {out}",
                summary.spans,
                summary.traces,
                sources.len()
            );
        }
        None => println!("{rendered}"),
    }
}

fn cmd_coord_status(a: &Args) {
    // Offline views first: a sweep journal (--journal) and/or a finished
    // report (--in). Either makes --shards optional, so an operator can
    // inspect recovery state with no fleet running at all.
    let mut offline = false;
    if let Some(path) = a.opt(&SWEEP_JOURNAL) {
        offline = true;
        match SweepJournal::inspect(Path::new(&path)) {
            Ok(stats) => println!(
                "journal {path}: plan {:#018x} over {} shard(s) | {}/{} cells done | \
                 {} failed | {} duplicate records | {} bytes dropped from torn tail",
                stats.plan_hash,
                stats.shards,
                stats.done,
                stats.cells,
                stats.failed,
                stats.duplicates,
                stats.dropped_bytes
            ),
            Err(err) => die_data(&format!("inspecting journal {path}: {err}")),
        }
    }
    if let Some(path) = a.opt(&IN) {
        offline = true;
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| die_data(&format!("reading sweep report {path}: {e}")));
        let report: SweepReport = serde_json::from_str(&text)
            .unwrap_or_else(|e| die_data(&format!("parsing sweep report {path}: {e}")));
        let dead = report.shards.iter().filter(|s| s.dead).count();
        println!(
            "report {path}: {} cells | {} failed | {} replayed from journal | \
             {} shard deaths | {} rejoins | {dead} dead at end{}{}",
            report.cells.len(),
            report.failed.len(),
            report.replayed,
            report.deaths,
            report.rejoins,
            if report.degraded { " | DEGRADED" } else { "" },
            if report.interrupted {
                " | INTERRUPTED"
            } else {
                ""
            },
        );
    }
    let Some(shards) = a.opt(&SHARDS) else {
        if offline {
            return;
        }
        die("coord-status needs --shards HOST:PORT[,HOST:PORT...] (or --journal / --in)");
    };
    let mut reachable = 0usize;
    for addr in &shards {
        let mut client = ResilientClient::new(addr.clone(), client_options(a));
        let polled = (|| -> Result<_, ClientError> {
            let caps = client.capabilities()?;
            let health = client.health()?;
            let stats = client.stats()?;
            Ok((caps, health, stats))
        })();
        let (caps, health, stats) = match polled {
            Ok(row) => row,
            Err(err) => {
                println!("{addr}: DOWN ({err})");
                continue;
            }
        };
        reachable += 1;
        let lookups = stats.cache_hits + stats.cache_misses;
        let hit_rate = if lookups > 0 {
            100.0 * stats.cache_hits as f64 / lookups as f64
        } else {
            0.0
        };
        let state = if caps.draining {
            "draining"
        } else if health.ready {
            "ready"
        } else {
            "not ready"
        };
        println!(
            "{addr}: {state} | proto v{} | {} workers | queue {}/{} | \
             {} in flight | cache {} entries ({hit_rate:.0}% hits) | \
             {} completed | {} retries-worth requeued",
            caps.proto,
            caps.workers,
            health.queue_depth,
            health.queue_cap,
            health.in_flight,
            health.cache_entries,
            stats.completed,
            stats.rejected + stats.shed,
        );
        if let Some(j) = &health.journal {
            println!(
                "  journal: {} ({} replayed, {} bytes dropped from torn tail)",
                j.path, j.replayed, j.dropped_bytes
            );
        }
    }
    if reachable == 0 {
        obs::error!(target: "bfsim", "no shard reachable");
        std::process::exit(3);
    }
    println!("{reachable}/{} shards reachable", shards.len());
}

fn main() {
    let a = obs::cli::parse(&BFSIM, std::env::args().skip(1).collect());
    match a.command {
        "simulate" => cmd_simulate(&a),
        "generate" => cmd_generate(&a),
        "inspect" => cmd_inspect(&a),
        "compare" => cmd_compare(&a),
        "submit" => cmd_submit(&a),
        "stats" => cmd_stats(&a),
        "metrics" => cmd_metrics(&a),
        "health" => cmd_health(&a),
        "shutdown" => cmd_shutdown(&a),
        "bench" => cmd_bench(&a),
        "sweep" => cmd_sweep(&a),
        "shards" => cmd_shards(&a),
        "timeline" => cmd_timeline(&a),
        "coord-status" => cmd_coord_status(&a),
        other => unreachable!("the table has no command {other:?}"),
    }
}
