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
//! bfsim bench [-o OUT.json] [--baseline OLD.json] [--enforce-parity]
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
//! Every command also accepts `--log-level SPEC` (the `BFSIM_LOG`
//! filter grammar, e.g. `info` or `warn,sched=debug`), `--log-json`
//! (JSON-lines log records instead of text), and `--log-elapsed`
//! (monotonic `elapsed_ms` on every record). The flag wins over the
//! environment; without either, only errors are logged.
//!
//! `metrics` accepts `--format json|prom`: `json` (default) prints the
//! canonical registry document, `prom` the Prometheus text exposition
//! of the same state, scrape-ready.
//!
//! `sweep --spans` traces the sweep: one root span per cell on the
//! coordinator, an `attempt` span per submission, trace context
//! propagated to the shards (whose cache/pool/phase spans parent into
//! the same trace), and everything drained into the report's `spans`
//! field. `timeline` then merges a span-bearing report into Chrome
//! trace-event JSON (chrome://tracing, Perfetto), validating first that
//! every cell's spans form exactly one rooted tree (exit 6 otherwise).
//!
//! `--trace-out` records the run's scheduling decisions (arrivals,
//! reservations, backfills, starts, completions, compressions,
//! preemptions) to a JSONL file — see DESIGN.md §12 for the event
//! schema and `crates/bench`'s analyzer for consuming it. Recording is
//! strictly observational: the schedule fingerprint is identical with
//! and without it.
//!
//! WORKLOAD: --model ctc|sdsc|lublin | --trace FILE.swf [--lenient]
//!           --jobs N --seed S --load RHO
//!           --estimate exact|systematic:R|user
//! SCHED:    --scheduler nobf|cons|cons-reanchor|cons-headstart|cons-none|
//!                       easy|selective:T|slack:F|depth:K|preemptive:T
//!           --policy fcfs|sjf|xf|ljf|widest
//! ```
//!
//! The daemon commands (`submit`/`stats`/`metrics`/`health`/`shutdown`)
//! talk to a running `bfsimd` (default `127.0.0.1:7411`) through the
//! resilient client: per-request deadline `--timeout-ms N` (0 disables),
//! retry budget `--retries N` with seeded decorrelated-jitter backoff
//! (`--retry-base-ms N`, `--retry-seed S`). On failure they exit
//! nonzero with a one-line diagnostic through the obs logger: 3 for
//! connection/timeout failures, 4 when the daemon is busy or draining,
//! 5 for service/protocol errors. `submit` only supports the
//! model-generated workloads (`ctc`/`sdsc`) because the daemon receives
//! a declarative `RunConfig`, not a trace file.
//!
//! `--lenient` (with `--trace FILE.swf`) skips malformed trace lines
//! and logs a per-field breakdown instead of aborting the parse.
//!
//! `bench` runs the **pinned** throughput sweep (fixed traces, seeds,
//! loads, scheduler kinds) serially, and writes a machine-readable JSON
//! report: per-cell wall time, events processed, events/sec, schedule
//! fingerprint, and the scheduler's profile/queue operation counters.
//! With `--baseline OLD.json`, the old report's cells are embedded in the
//! new file alongside per-cell speedups and fingerprint-parity flags, so a
//! perf claim and its decision-preservation proof travel together. The
//! baseline is loaded and validated *before* the sweep: a missing or
//! corrupt file, or one whose cell set shares nothing with the current
//! sweep, exits 6 with one logged diagnostic (extending the daemon exit
//! taxonomy above: 2 usage, 3 connect, 4 busy, 5 service, 6 bad data
//! file, 7 parity violation). `--enforce-parity` additionally requires
//! every sweep cell to exist in the baseline and exits 7 — after writing
//! the report — if any schedule fingerprint differs: decision-neutrality
//! as a CI gate. `--tiny` shrinks the sweep to a six-cell subset of the
//! full grid, in seconds, for CI smoke testing.
//!
//! `sweep` fans one sweep out across many `bfsimd` shards (see
//! DESIGN.md §15): cells are assigned to shards by canonical config
//! hash, idle shards steal from stragglers, a dying shard's queue is
//! redistributed, and the merged report carries exactly one result per
//! unique cell with per-cell fingerprints byte-identical to a serial
//! run. The cell grid comes from `--tiny` (the pinned six-cell bench
//! grid) or `--spec FILE.json` (a serialized `SweepSpec`; a missing or
//! invalid file exits 6). Exit codes extend the taxonomy again: 8 when
//! a shard fails the startup `capabilities` handshake (nothing ran), 9
//! when the sweep *completed* — every cell resolved, report written —
//! but degraded because at least one shard died mid-sweep.
//! `coord-status` prints one row per shard (capabilities, queue depth,
//! cache hit rate, journal replay) and exits 3 only when **no** shard
//! is reachable. With `--journal J.jsonl` it additionally summarizes a
//! sweep journal offline (cells done, duplicates, torn-tail bytes), and
//! with `--in SWEEP.json` a finished report's recovery accounting
//! (deaths, rejoins, replayed cells); either makes `--shards` optional.
//!
//! Crash recovery (see DESIGN.md §18): `sweep --journal J.jsonl`
//! appends a checksummed record per resolved cell; after a coordinator
//! crash, `sweep --resume J.jsonl` (same spec and flags) replays the
//! journal, marks journaled cells done without dispatching them, and
//! runs only the remainder. A resume against a journal written for a
//! *different* plan exits 6. `--canonical-out CANON.json` writes the
//! deterministic projection of the sweep (plan-ordered cells, config
//! hashes, schedule fingerprints — no wall times or shard placement),
//! byte-identical between an undisturbed run and a crashed-then-resumed
//! one. SIGINT/SIGTERM interrupt a sweep cleanly: the journal is
//! already flushed per record, a resume hint is printed, and the exit
//! code is 130. `--reprobe-ms N` (default 1000, 0 disables) makes the
//! coordinator periodically re-handshake shards that died mid-sweep and
//! re-admit any that answer again — a shard that was SIGKILLed and then
//! respawned by `bfsim shards` rejoins the sweep, and a sweep whose
//! every death was healed by a rejoin exits 0, not 9.
//!
//! `shards` spawns `--count` local `bfsimd` children on consecutive
//! ports and babysits them: a crashed child is restarted under seeded
//! decorrelated-jitter backoff, and a child that crash-loops (more than
//! `--restart-limit` consecutive sub-`--stable-ms` lifetimes) trips its
//! breaker and is abandoned. SIGINT/SIGTERM stops the fleet (exit 0);
//! if every child breaks, the supervisor gives up with exit 5.

use backfill_sim::prelude::*;
use bench_lib::sweep::{bench_cells, SweepSpec};
use coord::{run_sweep_recoverable, SweepError, SweepJournal, SweepOptions, SweepReplay};
use metrics::{fairness, queue_depth_series, utilization_series, viz};
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
fn die_client(context: &str, addr: &str, err: ClientError) -> ! {
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
        format!(" (is bfsimd running at {addr}?)")
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

/// Install the global logger before full CLI parsing, so `die` and every
/// later record go through it. The `--log-level` flag beats `BFSIM_LOG`;
/// with neither, errors still print.
fn init_logging(args: &[String]) {
    let mut spec: Option<String> = None;
    let mut json = false;
    let mut elapsed = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--log-level" => spec = it.next().cloned(),
            "--log-json" => json = true,
            "--log-elapsed" => elapsed = true,
            _ => {}
        }
    }
    let filter = match &spec {
        Some(spec) => obs::log::Filter::parse(spec).unwrap_or_else(|e| {
            eprintln!("bfsim: bad --log-level: {e}");
            std::process::exit(2);
        }),
        None => match std::env::var("BFSIM_LOG") {
            Ok(env_spec) if !env_spec.trim().is_empty() => obs::log::Filter::parse(&env_spec)
                .unwrap_or_else(|_| obs::log::Filter::uniform(obs::log::Level::Warn)),
            _ => obs::log::Filter::uniform(obs::log::Level::Error),
        },
    };
    let _ = obs::log::init(obs::log::LogConfig {
        filter,
        json,
        elapsed,
        sink: obs::log::Sink::Stderr,
    });
}

#[derive(Debug, Clone)]
struct Cli {
    command: String,
    model: String,
    trace_file: Option<String>,
    jobs: usize,
    seed: u64,
    seeds: Vec<u64>,
    load: Option<f64>,
    estimate: EstimateModel,
    scheduler: SchedulerKind,
    policy: Policy,
    out: Option<String>,
    gantt: bool,
    series: bool,
    fairness: bool,
    journal: Option<String>,
    addr: String,
    baseline: Option<String>,
    enforce_parity: bool,
    tiny: bool,
    reps: Option<u32>,
    trace_out: Option<String>,
    lenient: bool,
    timeout_ms: u64,
    retries: u32,
    retry_base_ms: u64,
    retry_seed: u64,
    shards: Vec<String>,
    spec: Option<String>,
    window: Option<usize>,
    no_steal: bool,
    max_requeues: u32,
    spans: bool,
    format: String,
    input: Option<String>,
    resume: Option<String>,
    reprobe_ms: u64,
    canonical_out: Option<String>,
    bench: bool,
    count: usize,
    base_port: u16,
    bfsimd_path: Option<String>,
    cache_journal_dir: Option<String>,
    fault_plan: Option<String>,
    restart_limit: u32,
    stable_ms: u64,
}

impl Default for Cli {
    fn default() -> Self {
        Cli {
            command: String::new(),
            model: "ctc".into(),
            trace_file: None,
            jobs: 5_000,
            seed: 42,
            seeds: vec![42, 1337, 2002],
            load: Some(0.9),
            estimate: EstimateModel::Exact,
            scheduler: SchedulerKind::Easy,
            policy: Policy::Fcfs,
            out: None,
            gantt: false,
            series: false,
            fairness: false,
            journal: None,
            addr: "127.0.0.1:7411".into(),
            baseline: None,
            enforce_parity: false,
            tiny: false,
            reps: None,
            trace_out: None,
            lenient: false,
            timeout_ms: 30_000,
            retries: 4,
            retry_base_ms: 25,
            retry_seed: 0,
            shards: Vec::new(),
            spec: None,
            window: None,
            no_steal: false,
            max_requeues: 3,
            spans: false,
            format: "json".into(),
            input: None,
            resume: None,
            reprobe_ms: 1_000,
            canonical_out: None,
            bench: false,
            count: 2,
            base_port: 7431,
            bfsimd_path: None,
            cache_journal_dir: None,
            fault_plan: None,
            restart_limit: 5,
            stable_ms: 5_000,
        }
    }
}

fn parse_estimate(s: &str) -> EstimateModel {
    match s {
        "exact" => EstimateModel::Exact,
        "user" => EstimateModel::User(UserModelParams::capped(SimSpan::from_hours(18))),
        other => match other
            .strip_prefix("systematic:")
            .and_then(|r| r.parse::<f64>().ok())
        {
            Some(r) if r >= 1.0 => EstimateModel::systematic(r),
            _ => die(&format!(
                "bad --estimate {other:?} (exact | systematic:R | user)"
            )),
        },
    }
}

fn parse_scheduler(s: &str) -> SchedulerKind {
    match s {
        "nobf" => SchedulerKind::NoBackfill,
        "cons" => SchedulerKind::Conservative,
        "cons-reanchor" => SchedulerKind::ConservativeReanchor,
        "cons-headstart" => SchedulerKind::ConservativeHeadStart,
        "cons-none" => SchedulerKind::ConservativeNoCompress,
        "easy" => SchedulerKind::Easy,
        other => {
            if let Some(t) = other
                .strip_prefix("selective:")
                .and_then(|t| t.parse::<f64>().ok())
            {
                if t.is_nan() || t < 1.0 {
                    die(&format!(
                        "bad --scheduler {other:?}: selective:T needs a threshold T >= 1 (inf never reserves)"
                    ))
                }
                SchedulerKind::Selective { threshold: t }
            } else if let Some(f) = other
                .strip_prefix("slack:")
                .and_then(|f| f.parse::<f64>().ok())
            {
                if !f.is_finite() || f < 0.0 {
                    die(&format!(
                        "bad --scheduler {other:?}: slack:F needs a finite factor F >= 0"
                    ))
                }
                SchedulerKind::Slack { slack_factor: f }
            } else if let Some(d) = other.strip_prefix("depth:").and_then(|d| d.parse().ok()) {
                SchedulerKind::Depth { depth: d }
            } else if let Some(t) = other
                .strip_prefix("preemptive:")
                .and_then(|t| t.parse().ok())
            {
                SchedulerKind::Preemptive { threshold: t }
            } else {
                die(&format!("bad --scheduler {other:?}"))
            }
        }
    }
}

fn parse_policy(s: &str) -> Policy {
    match s {
        "fcfs" => Policy::Fcfs,
        "sjf" => Policy::Sjf,
        "xf" => Policy::XFactor,
        "ljf" => Policy::Ljf,
        "widest" => Policy::WidestFirst,
        other => die(&format!("bad --policy {other:?}")),
    }
}

/// Print the usage line and exit 0 (`--help`/`-h`, before or after the
/// command).
fn usage() -> ! {
    println!(
        "usage: bfsim <simulate|generate|inspect|compare|submit|stats|metrics|health|\
         shutdown|bench|sweep|shards|timeline|coord-status> [flags]; see module docs"
    );
    std::process::exit(0);
}

fn parse_cli(args: &[String]) -> Cli {
    let mut cli = Cli::default();
    let mut it = args.iter().cloned();
    cli.command = it
        .next()
        .unwrap_or_else(|| die("missing command (try --help)"));
    if cli.command == "--help" || cli.command == "-h" {
        usage();
    }
    let next = |it: &mut dyn Iterator<Item = String>, flag: &str| -> String {
        it.next()
            .unwrap_or_else(|| die(&format!("{flag} needs a value")))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--model" => cli.model = next(&mut it, "--model"),
            "--trace" => cli.trace_file = Some(next(&mut it, "--trace")),
            "--jobs" => {
                cli.jobs = next(&mut it, "--jobs")
                    .parse()
                    .unwrap_or_else(|_| die("bad --jobs"))
            }
            "--seed" => {
                cli.seed = next(&mut it, "--seed")
                    .parse()
                    .unwrap_or_else(|_| die("bad --seed"))
            }
            "--seeds" => {
                cli.seeds = next(&mut it, "--seeds")
                    .split(',')
                    .map(|s| s.parse().unwrap_or_else(|_| die("bad --seeds")))
                    .collect()
            }
            "--load" => {
                let v = next(&mut it, "--load");
                cli.load = if v == "native" {
                    None
                } else {
                    Some(v.parse().unwrap_or_else(|_| die("bad --load")))
                }
            }
            "--estimate" => cli.estimate = parse_estimate(&next(&mut it, "--estimate")),
            "--scheduler" => cli.scheduler = parse_scheduler(&next(&mut it, "--scheduler")),
            "--policy" => cli.policy = parse_policy(&next(&mut it, "--policy")),
            "-o" | "--out" => cli.out = Some(next(&mut it, "-o")),
            "--gantt" => cli.gantt = true,
            "--journal" => cli.journal = Some(next(&mut it, "--journal")),
            "--series" => cli.series = true,
            "--fairness" => cli.fairness = true,
            "--addr" => cli.addr = next(&mut it, "--addr"),
            "--baseline" => cli.baseline = Some(next(&mut it, "--baseline")),
            "--enforce-parity" => cli.enforce_parity = true,
            "--tiny" => cli.tiny = true,
            "--trace-out" => cli.trace_out = Some(next(&mut it, "--trace-out")),
            "--lenient" => cli.lenient = true,
            "--timeout-ms" => {
                cli.timeout_ms = next(&mut it, "--timeout-ms")
                    .parse()
                    .unwrap_or_else(|_| die("bad --timeout-ms (millis, 0 disables)"))
            }
            "--retries" => {
                cli.retries = next(&mut it, "--retries")
                    .parse()
                    .unwrap_or_else(|_| die("bad --retries"))
            }
            "--retry-base-ms" => {
                cli.retry_base_ms = next(&mut it, "--retry-base-ms")
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| die("bad --retry-base-ms (need millis >= 1)"))
            }
            "--retry-seed" => {
                cli.retry_seed = next(&mut it, "--retry-seed")
                    .parse()
                    .unwrap_or_else(|_| die("bad --retry-seed"))
            }
            "--shards" => {
                cli.shards = next(&mut it, "--shards")
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(String::from)
                    .collect()
            }
            "--spec" => cli.spec = Some(next(&mut it, "--spec")),
            "--window" => {
                cli.window = Some(
                    next(&mut it, "--window")
                        .parse()
                        .ok()
                        .filter(|&n| n >= 1)
                        .unwrap_or_else(|| die("bad --window (need an integer >= 1)")),
                )
            }
            "--no-steal" => cli.no_steal = true,
            "--max-requeues" => {
                cli.max_requeues = next(&mut it, "--max-requeues")
                    .parse()
                    .unwrap_or_else(|_| die("bad --max-requeues"))
            }
            "--spans" => cli.spans = true,
            "--resume" => cli.resume = Some(next(&mut it, "--resume")),
            "--reprobe-ms" => {
                cli.reprobe_ms = next(&mut it, "--reprobe-ms")
                    .parse()
                    .unwrap_or_else(|_| die("bad --reprobe-ms (millis, 0 disables)"))
            }
            "--canonical-out" => cli.canonical_out = Some(next(&mut it, "--canonical-out")),
            "--bench" => cli.bench = true,
            "--count" => {
                cli.count = next(&mut it, "--count")
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| die("bad --count (need an integer >= 1)"))
            }
            "--base-port" => {
                cli.base_port = next(&mut it, "--base-port")
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| die("bad --base-port (need a port >= 1)"))
            }
            "--bfsimd" => cli.bfsimd_path = Some(next(&mut it, "--bfsimd")),
            "--cache-journal-dir" => {
                cli.cache_journal_dir = Some(next(&mut it, "--cache-journal-dir"))
            }
            "--fault-plan" => cli.fault_plan = Some(next(&mut it, "--fault-plan")),
            "--restart-limit" => {
                cli.restart_limit = next(&mut it, "--restart-limit")
                    .parse()
                    .unwrap_or_else(|_| die("bad --restart-limit"))
            }
            "--stable-ms" => {
                cli.stable_ms = next(&mut it, "--stable-ms")
                    .parse()
                    .unwrap_or_else(|_| die("bad --stable-ms"))
            }
            "--format" => {
                cli.format = next(&mut it, "--format");
                if cli.format != "json" && cli.format != "prom" {
                    die(&format!("bad --format {:?} (json | prom)", cli.format));
                }
            }
            "--in" => cli.input = Some(next(&mut it, "--in")),
            // Consumed by init_logging before parsing; skip here.
            "--log-level" => {
                let _ = next(&mut it, "--log-level");
            }
            "--log-json" | "--log-elapsed" => {}
            "--help" | "-h" => usage(),
            "--reps" => {
                cli.reps = Some(
                    next(&mut it, "--reps")
                        .parse()
                        .ok()
                        .filter(|&n| n >= 1)
                        .unwrap_or_else(|| die("bad --reps (need an integer >= 1)")),
                )
            }
            other if !other.starts_with('-') && cli.command == "inspect" => {
                cli.trace_file = Some(other.to_string())
            }
            other => die(&format!("unknown flag {other:?}")),
        }
    }
    cli
}

fn build_trace(cli: &Cli) -> Trace {
    let base = match &cli.trace_file {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| die(&format!("reading {path}: {e}")));
            let mode = if cli.lenient {
                swf::ParseMode::Lenient
            } else {
                swf::ParseMode::Strict
            };
            let parsed = swf::parse_trace_with(&text, path, None, mode)
                .unwrap_or_else(|e| die(&format!("parsing {path}: {e}")));
            if parsed.report.total() > 0 {
                obs::warn!(target: "bfsim",
                    "lenient parse of {path} skipped {} malformed lines ({})",
                    parsed.report.total(), parsed.report.summary());
            }
            parsed.trace
        }
        None => match cli.model.as_str() {
            "ctc" => workload::models::ctc().generate(cli.jobs, cli.seed),
            "sdsc" => workload::models::sdsc().generate(cli.jobs, cli.seed),
            "lublin" => LublinModel::default_for(256).generate(cli.jobs, cli.seed),
            other => die(&format!("unknown model {other:?} (ctc | sdsc | lublin)")),
        },
    };
    let estimated = cli.estimate.apply(&base, cli.seed ^ 0xE57);
    match cli.load {
        Some(rho) => scale_to_load(&estimated, rho),
        None => estimated,
    }
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
    println!("trace: {} events -> {path}", rec.events().len());
}

fn cmd_simulate(cli: &Cli) {
    let trace = build_trace(cli);
    let schedule = if let Some(path) = &cli.journal {
        let (schedule, journal) = simulate_journaled(&trace, cli.scheduler, cli.policy);
        let mut out = String::new();
        for e in &journal {
            out.push_str(&serde_json::to_string(e).expect("journal serializes"));
            out.push('\n');
        }
        std::fs::write(path, out).unwrap_or_else(|e| die(&format!("writing {path}: {e}")));
        println!("journal: {} events -> {path}", journal.len());
        schedule
    } else if let Some(path) = &cli.trace_out {
        let recorder = obs::trace::shared(obs::trace::DEFAULT_TRACE_CAP.max(trace.len() * 8));
        let (schedule, _) = simulate_observed(
            &trace,
            cli.scheduler,
            cli.policy,
            SimOptions::with_recorder(recorder.clone()),
        );
        write_trace_out(&recorder, path);
        schedule
    } else {
        simulate(&trace, cli.scheduler, cli.policy)
    };
    schedule
        .validate()
        .unwrap_or_else(|e| die(&format!("audit failed: {e}")));
    let stats = schedule.stats(&CategoryCriteria::default());
    println!("scheduler: {}", schedule.scheduler);
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
            "profile ops: {} anchors ({:.1} segs/anchor, {} tree descents, \
             {:.1} nodes/descent) | {} reserves | {} releases | \
             {} compress passes | peak {} segments | {} queue moves",
            p.find_anchor_calls,
            p.segments_per_anchor(),
            p.tree_descents,
            p.nodes_per_descent(),
            p.reserves,
            p.releases,
            p.compress_passes,
            p.peak_segments,
            p.queue_moves
        );
        println!("alloc path:  {} scratch reuses", p.scratch_reuses);
    }
    if cli.fairness {
        let f = fairness(&schedule.outcomes);
        println!(
            "fairness: slowdown gini {:.3} | max stretch {:.1} | overtake rate {:.3}",
            f.slowdown_gini, f.max_stretch, f.overtake_rate
        );
    }
    if cli.series {
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
    if cli.gantt {
        println!("{}", viz::gantt(&schedule.outcomes, 100));
    }
}

fn cmd_generate(cli: &Cli) {
    let trace = build_trace(cli);
    let out = cli
        .out
        .clone()
        .unwrap_or_else(|| die("generate needs -o OUT.swf"));
    std::fs::write(&out, swf::write_trace(&trace))
        .unwrap_or_else(|e| die(&format!("writing {out}: {e}")));
    println!("wrote {} jobs to {out}", trace.len());
}

fn cmd_inspect(cli: &Cli) {
    let trace = build_trace(cli);
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

fn cmd_compare(cli: &Cli) {
    let source = match cli.model.as_str() {
        "ctc" => TraceSource::Ctc {
            jobs: cli.jobs,
            seed: cli.seed,
        },
        "sdsc" => TraceSource::Sdsc {
            jobs: cli.jobs,
            seed: cli.seed,
        },
        other => die(&format!("compare supports ctc|sdsc models, got {other:?}")),
    };
    let campaign = Campaign {
        scenario: Scenario {
            source,
            estimate: cli.estimate,
            estimate_seed: 1,
            load: cli.load,
        },
        seeds: cli.seeds.clone(),
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
        format!("Campaign over seeds {:?}", cli.seeds),
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

fn service_config(cli: &Cli) -> RunConfig {
    if cli.trace_file.is_some() {
        die("submit sends a declarative RunConfig; --trace files are not supported");
    }
    let source = match cli.model.as_str() {
        "ctc" => TraceSource::Ctc {
            jobs: cli.jobs,
            seed: cli.seed,
        },
        "sdsc" => TraceSource::Sdsc {
            jobs: cli.jobs,
            seed: cli.seed,
        },
        other => die(&format!("submit supports ctc|sdsc models, got {other:?}")),
    };
    RunConfig {
        scenario: Scenario {
            source,
            estimate: cli.estimate,
            estimate_seed: cli.seed ^ 0xE57,
            load: cli.load,
        },
        kind: cli.scheduler,
        policy: cli.policy,
    }
}

/// Deadline/retry options from the CLI flags, shared by every daemon
/// command and by the sweep coordinator's per-shard clients.
fn client_options(cli: &Cli) -> ClientOptions {
    ClientOptions {
        deadline: if cli.timeout_ms == 0 {
            None
        } else {
            Some(Duration::from_millis(cli.timeout_ms))
        },
        retry: RetryPolicy {
            max_retries: cli.retries,
            base: Duration::from_millis(cli.retry_base_ms),
            seed: cli.retry_seed,
            ..RetryPolicy::default()
        },
    }
}

/// Build the resilient client from the CLI's deadline/retry flags. The
/// connection itself is lazy, so this never fails — errors surface (and
/// get retried) on the first actual request.
fn connect(cli: &Cli) -> ResilientClient {
    ResilientClient::new(&cli.addr, client_options(cli))
}

fn cmd_submit(cli: &Cli) {
    let config = service_config(cli);
    let mut client = connect(cli);
    let reply = client
        .submit(&config)
        .unwrap_or_else(|e| die_client("submit", &cli.addr, e));
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

fn cmd_stats(cli: &Cli) {
    let stats = connect(cli)
        .stats()
        .unwrap_or_else(|e| die_client("stats", &cli.addr, e));
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

fn cmd_bench(cli: &Cli) {
    let configs = bench_cells(cli.tiny);
    let baseline: Option<Vec<BenchCell>> = cli
        .baseline
        .as_ref()
        .map(|path| load_baseline(path, &configs, cli.enforce_parity));
    if cli.enforce_parity && baseline.is_none() {
        die("--enforce-parity needs --baseline");
    }
    // Wall time on a shared machine is one-sided noise (contention only
    // slows a run down), so each cell keeps its best-of-`reps` time.
    let repeats = cli.reps.unwrap_or(if cli.tiny { 1 } else { 2 });
    if cli.spans {
        obs::span::set_enabled(true);
    }
    let mut cells = Vec::with_capacity(configs.len());
    let mut trace_file = cli.trace_out.as_ref().map(|path| {
        std::fs::File::create(path).unwrap_or_else(|e| die(&format!("creating {path}: {e}")))
    });
    for config in &configs {
        // Materialize once, outside the timed region: the bench measures
        // the event loop, not the workload generator.
        let trace = config.scenario.materialize();
        let cell_ctx = obs::SpanContext {
            trace_id: config.content_hash(),
            span_id: config.content_hash(),
        };
        let mut best: Option<(f64, Schedule)> = None;
        let mut recorded: Option<Rc<RefCell<Recorder>>> = None;
        for _ in 0..repeats {
            // With --trace-out the timed run itself carries the
            // recorder, and with --spans the phase accumulator: the
            // emitted fingerprints then prove both are decision-neutral
            // against a plain bench run.
            let recorder = cli
                .trace_out
                .as_ref()
                .map(|_| obs::trace::shared(obs::trace::DEFAULT_TRACE_CAP.max(trace.len() * 8)));
            let phases = cli.spans.then(|| {
                let acc = Rc::new(RefCell::new(obs::PhaseAcc::new()));
                acc.borrow_mut().set_ctx(cell_ctx);
                acc
            });
            let start_us = obs::span::now_micros();
            let t0 = std::time::Instant::now();
            let schedule = if recorder.is_some() || phases.is_some() {
                simulate_observed(
                    &trace,
                    config.kind,
                    config.policy,
                    SimOptions {
                        journal: false,
                        recorder: recorder.clone(),
                        phases: phases.clone(),
                    },
                )
                .0
            } else {
                config.run_on(&trace)
            };
            let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
            if let Some(acc) = &phases {
                // Root span per timed run + phase histograms into the
                // process-global registry (surfaced by `bfsim metrics`
                // against a daemon, or inspectable in-process).
                obs::span::record_raw(obs::SpanRecord {
                    trace_id: cell_ctx.trace_id,
                    span_id: obs::span::next_span_id(),
                    parent_id: 0,
                    name: "bench.run".to_string(),
                    start_us,
                    dur_us: obs::span::now_micros().saturating_sub(start_us),
                });
                acc.borrow().flush_into(obs::metrics::global());
            }
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
        tiny: cli.tiny,
        cells,
        baseline,
        comparison,
    };
    let out = cli.out.clone().unwrap_or_else(|| "BENCH_5.json".into());
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
    if cli.enforce_parity {
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

fn cmd_metrics(cli: &Cli) {
    if cli.format == "prom" {
        let text = connect(cli)
            .metrics_prom()
            .unwrap_or_else(|e| die_client("metrics", &cli.addr, e));
        // Prometheus text exposition (already newline-terminated).
        print!("{text}");
        return;
    }
    let json = connect(cli)
        .metrics()
        .unwrap_or_else(|e| die_client("metrics", &cli.addr, e));
    // One canonical-JSON document on stdout, ready for `jq` or diffing.
    println!("{json}");
}

fn cmd_health(cli: &Cli) {
    let h = connect(cli)
        .health()
        .unwrap_or_else(|e| die_client("health", &cli.addr, e));
    let status = if h.draining {
        "draining"
    } else if h.ready {
        "ready"
    } else {
        "not ready"
    };
    println!("bfsimd at {} is {status}", cli.addr);
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

fn cmd_shutdown(cli: &Cli) {
    connect(cli)
        .shutdown()
        .unwrap_or_else(|e| die_client("shutdown", &cli.addr, e));
    println!("bfsimd at {} is draining", cli.addr);
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
fn sweep_cells(cli: &Cli) -> Vec<RunConfig> {
    if let Some(path) = &cli.spec {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| die_data(&format!("reading sweep spec {path}: {e}")));
        let spec: SweepSpec = serde_json::from_str(&text)
            .unwrap_or_else(|e| die_data(&format!("parsing sweep spec {path}: {e}")));
        spec.validate()
            .unwrap_or_else(|e| die_data(&format!("invalid sweep spec {path}: {e}")));
        spec.expand()
    } else if cli.bench {
        bench_cells(false)
    } else if cli.tiny {
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

fn cmd_sweep(cli: &Cli) {
    if cli.shards.is_empty() {
        die("sweep needs --shards HOST:PORT[,HOST:PORT...]");
    }
    if cli.journal.is_some() && cli.resume.is_some() {
        die("--journal and --resume are mutually exclusive (a resume appends to the journal it replays)");
    }
    let cells = sweep_cells(cli);
    // Re-derive the plan for index → config mapping; planning is a pure
    // function of (cells, shard count), so this matches the dispatcher.
    let plan = coord::Plan::new(&cells, cli.shards.len());

    // --journal starts a fresh journal; --resume replays one written by
    // an earlier (crashed or interrupted) run of the *same* plan and
    // keeps appending to it. Any resume-time mismatch — wrong plan hash,
    // foreign cell hashes, malformed records — is a bad data file: 6.
    let mut replay: Option<SweepReplay> = None;
    let journal: Option<SweepJournal> = if let Some(path) = &cli.resume {
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
    } else if let Some(path) = &cli.journal {
        match SweepJournal::create(Path::new(path), &plan) {
            Ok(journal) => Some(journal),
            Err(err) => die_data(&format!("creating journal {path}: {err}")),
        }
    } else {
        None
    };

    let interrupt = interrupt_flag();
    let opts = SweepOptions {
        client: client_options(cli),
        window: cli.window,
        steal: !cli.no_steal,
        max_requeues: cli.max_requeues,
        spans: cli.spans,
        reprobe: (cli.reprobe_ms > 0).then(|| Duration::from_millis(cli.reprobe_ms)),
        interrupt: Some(Arc::clone(&interrupt)),
    };
    let outcome = match run_sweep_recoverable(
        &cli.shards,
        &cells,
        &opts,
        journal.as_ref(),
        replay.as_ref(),
    ) {
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
    let out = cli.out.clone().unwrap_or_else(|| "SWEEP.json".into());
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
    if cli.spans {
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
    if let Some(path) = &cli.canonical_out {
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
        std::fs::write(path, &json).unwrap_or_else(|e| die(&format!("writing {path}: {e}")));
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
fn cmd_shards(cli: &Cli) {
    let bfsimd = match &cli.bfsimd_path {
        Some(path) => PathBuf::from(path),
        // Default to the bfsimd sitting next to this bfsim binary —
        // the layout `cargo build` produces — falling back to $PATH.
        None => std::env::current_exe()
            .ok()
            .and_then(|exe| exe.parent().map(|dir| dir.join("bfsimd")))
            .filter(|candidate| candidate.exists())
            .unwrap_or_else(|| PathBuf::from("bfsimd")),
    };
    let addrs: Vec<String> = (0..cli.count)
        .map(|i| format!("127.0.0.1:{}", cli.base_port as usize + i))
        .collect();
    let mut args: Vec<String> = Vec::new();
    if let Some(dir) = &cli.cache_journal_dir {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| die(&format!("creating {dir}: {e}")));
        args.push("--cache-journal".into());
        args.push(format!("{dir}/shard-{{port}}.jsonl"));
    }
    if let Some(plan) = &cli.fault_plan {
        args.push("--fault-plan".into());
        args.push(plan.clone());
    }
    let spec = SupervisorSpec {
        bfsimd,
        addrs: addrs.clone(),
        args,
        retry: RetryPolicy {
            base: Duration::from_millis(cli.retry_base_ms),
            seed: cli.retry_seed,
            ..RetryPolicy::default()
        },
        breaker: BreakerPolicy {
            max_restarts: cli.restart_limit,
            stable_uptime: Duration::from_millis(cli.stable_ms),
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
fn cmd_timeline(cli: &Cli) {
    // Only the `spans` field matters here; unknown fields are ignored,
    // so any report revision ≥ 1 parses (a v1 report just has no spans).
    #[derive(Deserialize)]
    struct TimelineDoc {
        #[serde(default)]
        spans: Vec<coord::SpanDoc>,
    }
    let path = cli.input.clone().unwrap_or_else(|| "SWEEP.json".into());
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
    match &cli.out {
        Some(out) => {
            std::fs::write(out, &rendered).unwrap_or_else(|e| die(&format!("writing {out}: {e}")));
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

fn cmd_coord_status(cli: &Cli) {
    // Offline views first: a sweep journal (--journal) and/or a finished
    // report (--in). Either makes --shards optional, so an operator can
    // inspect recovery state with no fleet running at all.
    let mut offline = false;
    if let Some(path) = &cli.journal {
        offline = true;
        match SweepJournal::inspect(Path::new(path)) {
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
    if let Some(path) = &cli.input {
        offline = true;
        let text = std::fs::read_to_string(path)
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
    if cli.shards.is_empty() {
        if offline {
            return;
        }
        die("coord-status needs --shards HOST:PORT[,HOST:PORT...] (or --journal / --in)");
    }
    let mut reachable = 0usize;
    for addr in &cli.shards {
        let mut client = ResilientClient::new(addr.clone(), client_options(cli));
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
    println!("{reachable}/{} shards reachable", cli.shards.len());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    init_logging(&args);
    let cli = parse_cli(&args);
    match cli.command.as_str() {
        "simulate" => cmd_simulate(&cli),
        "generate" => cmd_generate(&cli),
        "inspect" => cmd_inspect(&cli),
        "compare" => cmd_compare(&cli),
        "submit" => cmd_submit(&cli),
        "stats" => cmd_stats(&cli),
        "metrics" => cmd_metrics(&cli),
        "health" => cmd_health(&cli),
        "shutdown" => cmd_shutdown(&cli),
        "bench" => cmd_bench(&cli),
        "sweep" => cmd_sweep(&cli),
        "shards" => cmd_shards(&cli),
        "timeline" => cmd_timeline(&cli),
        "coord-status" => cmd_coord_status(&cli),
        other => die(&format!(
            "unknown command {other:?} \
             (simulate|generate|inspect|compare|submit|stats|metrics|health|shutdown|bench|\
             sweep|shards|timeline|coord-status)"
        )),
    }
}
