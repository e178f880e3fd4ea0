//! Work-stealing sweep dispatcher.
//!
//! One sweep, N shards. Every unique cell starts on its *home* shard's
//! queue (cache affinity, see [`crate::plan`]); each shard gets a pool
//! of submitter threads bounded by its in-flight window (defaulting to
//! the worker count the shard reported in its `capabilities`
//! handshake). A submitter that drains its own queue steals from the
//! back of the longest live peer queue, so stragglers shed work to idle
//! shards instead of gating the sweep.
//!
//! # Exactly-once
//!
//! A cell is *in flight on at most one shard at a time*: it lives in
//! exactly one queue until popped, and is only requeued after its
//! current attempt returned an error. A shard that executed a cell but
//! died before answering may leave a duplicate server-side run, but the
//! runs are deterministic (equal canonical config ⇒ equal report) and
//! the coordinator records each cell's outcome slot once — the first
//! completed attempt wins, later ones are dropped by the slot guard. So
//! the merged report contains **exactly one result per unique cell**,
//! and resubmission after shard death is idempotent.
//!
//! # Shard death and rejoin
//!
//! A transport-terminal error (connect refused, timeout, EOF,
//! `ShuttingDown`) marks the shard dead: its queue drains into a global
//! injector that every live shard polls, the in-flight cell is
//! requeued, and the dead shard's submitters exit. When
//! [`SweepOptions::reprobe`] is set, a monitor thread periodically
//! re-handshakes every dead shard with the `capabilities` verb and
//! readmits one that answers: it is marked live again, `coord.rejoins`
//! is bumped, and a fresh pool of submitters is spawned for it — so a
//! SIGKILL'd daemon that a supervisor respawns finishes the sweep at
//! exit 0. *Degraded* therefore means "a shard was dead **at sweep
//! end**"; [`SweepOutcome::deaths`] records how many deaths happened
//! along the way. With no live shard left (beyond a reprobe grace
//! window), unresolved cells are reported failed rather than hanging
//! the sweep.
//!
//! # Crash recovery
//!
//! [`run_sweep_recoverable`] accepts an optional [`SweepJournal`]: the
//! moment a cell's outcome slot is won, the record is appended (and
//! flushed) to the journal, and cells replayed from a previous run's
//! journal are preloaded into their slots without dispatching. See
//! [`crate::journal`] for the replay invariants.

use crate::journal::{SweepJournal, SweepReplay};
use crate::plan::Plan;
use backfill_sim::RunConfig;
use obs::metrics::{Histogram, Registry, SnapshotValue};
use service::{Capabilities, ClientError, ClientOptions, ResilientClient, RunReport, ServiceStats};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Tuning knobs for [`run_sweep`].
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Deadline/retry options for every per-shard client. The retry
    /// seed is decorrelated per shard and submitter internally.
    pub client: ClientOptions,
    /// In-flight submissions per shard. `None` (default) sizes each
    /// shard's window to the worker count it reports in the
    /// `capabilities` handshake.
    pub window: Option<usize>,
    /// Allow idle shards to steal queued cells from busy ones.
    pub steal: bool,
    /// How many times one cell may be requeued for *cell-level*
    /// retryable failures before it is reported failed. (Requeues
    /// caused by shard death are not counted: the shard, not the cell,
    /// was at fault, and each shard dies at most once.)
    pub max_requeues: u32,
    /// Collect distributed spans: the coordinator opens a root span per
    /// cell, propagates trace context on every submit, and drains each
    /// live shard's span buffer after the sweep into
    /// [`SweepOutcome::spans`]. Off by default (zero overhead).
    pub spans: bool,
    /// Re-handshake dead shards at this interval and readmit any that
    /// answer `capabilities` (and aren't draining). `None` (default)
    /// keeps the historical behaviour: dead stays dead.
    pub reprobe: Option<Duration>,
    /// Cooperative cancellation: when the flag flips true (e.g. from a
    /// SIGINT handler), submitters stop pulling new cells and the sweep
    /// returns with [`SweepOutcome::interrupted`] set. In-flight
    /// submits finish (and are journaled) first.
    pub interrupt: Option<Arc<AtomicBool>>,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            client: ClientOptions::default(),
            window: None,
            steal: true,
            max_requeues: 3,
            spans: false,
            reprobe: None,
            interrupt: None,
        }
    }
}

/// Why a sweep could not start (startup failures; mid-sweep failures
/// degrade the [`SweepOutcome`] instead).
#[derive(Debug)]
pub enum SweepError {
    /// No shard addresses were given.
    NoShards,
    /// The cell list expanded to nothing.
    EmptySweep,
    /// A shard failed the startup `capabilities` handshake (or is
    /// already draining) — the sweep never began.
    ShardUnreachable {
        /// The shard's address.
        addr: String,
        /// The handshake error.
        err: ClientError,
    },
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::NoShards => write!(f, "no shards given"),
            SweepError::EmptySweep => write!(f, "sweep expands to zero cells"),
            SweepError::ShardUnreachable { addr, err } => {
                write!(f, "shard {addr} failed the capabilities handshake: {err}")
            }
        }
    }
}

impl std::error::Error for SweepError {}

/// One completed cell.
#[derive(Debug, Clone)]
pub struct CellDone {
    /// Index into the plan's unique cell list.
    pub index: usize,
    /// Canonical content hash, as computed by the *daemon* (verified
    /// against the coordinator's own hash by the dispatcher).
    pub config_hash: u64,
    /// Shard that served it.
    pub shard: usize,
    /// True when the cell ran away from its home shard (stolen or
    /// redistributed after a shard death).
    pub stolen: bool,
    /// True when the shard answered from its result cache.
    pub cached: bool,
    /// Wall milliseconds the serving shard spent on it.
    pub wall_ms: u64,
    /// The full simulation report.
    pub report: RunReport,
}

/// One permanently failed cell.
#[derive(Debug, Clone)]
pub struct FailedCell {
    /// Index into the plan's unique cell list.
    pub index: usize,
    /// The coordinator-computed content hash.
    pub config_hash: u64,
    /// Human-readable terminal error.
    pub error: String,
}

/// Per-shard accounting for the `coord-status`-style summary.
#[derive(Debug, Clone)]
pub struct ShardSummary {
    /// Shard address.
    pub addr: String,
    /// Worker threads the shard advertised at handshake.
    pub workers: u64,
    /// In-flight window the coordinator ran against it.
    pub window: usize,
    /// Cells homed on this shard by the plan.
    pub assigned: usize,
    /// Cells this shard completed.
    pub completed: u64,
    /// Completed cells that were homed elsewhere (stolen work).
    pub stolen: u64,
    /// Completed cells answered from the shard's result cache.
    pub cache_hits: u64,
    /// True when the shard died mid-sweep.
    pub dead: bool,
    /// p99 of coordinator-observed per-cell wall time against this
    /// shard, in milliseconds (straggler detection; 0 when idle).
    pub wall_ms_p99: u64,
}

/// Everything [`run_sweep`] produced.
#[derive(Debug)]
pub struct SweepOutcome {
    /// Completed cells in plan order — exactly one per unique cell that
    /// succeeded.
    pub cells: Vec<CellDone>,
    /// Cells that failed permanently (empty on a clean sweep).
    pub failed: Vec<FailedCell>,
    /// Per-shard accounting, indexed like the input address list.
    pub shards: Vec<ShardSummary>,
    /// Cells executed away from their home shard due to stealing.
    pub steals: u64,
    /// Cells put back on the queue after a failed attempt.
    pub requeues: u64,
    /// Input cells that deduplicated onto an earlier identical cell.
    pub duplicates: usize,
    /// True when at least one shard was dead **at sweep end**. A shard
    /// that died and then rejoined (see [`SweepOptions::reprobe`]) does
    /// not degrade the sweep; `deaths` still records its death.
    pub degraded: bool,
    /// Shard deaths observed over the sweep (a shard that dies, rejoins
    /// and dies again counts twice).
    pub deaths: u64,
    /// Dead shards readmitted mid-sweep by the reprobe loop.
    pub rejoins: u64,
    /// Cells preloaded from a journal replay instead of dispatched.
    pub replayed: u64,
    /// True when the sweep stopped early because
    /// [`SweepOptions::interrupt`] flipped; unresolved cells are in
    /// `failed` but were *not* journaled, so a resume re-runs them.
    pub interrupted: bool,
    /// Field-wise sum of reachable shards' service stats after the
    /// sweep; `None` when no shard could be polled.
    pub stats: Option<ServiceStats>,
    /// Canonical merged metrics document (all reachable shards plus the
    /// coordinator's own `coord.*` registry); `None` when no shard
    /// could be polled.
    pub metrics_json: Option<String>,
    /// Collected span sources — the coordinator's own spans plus one
    /// entry per reachable shard — filtered to this sweep's trace ids.
    /// Empty unless [`SweepOptions::spans`] was on.
    pub spans: Vec<obs::SpanSource>,
}

struct Shared<'a> {
    plan: &'a Plan,
    queues: Vec<Mutex<VecDeque<usize>>>,
    /// Overflow queue every live shard polls: requeued cells and the
    /// drained queues of dead shards land here.
    injector: Mutex<VecDeque<usize>>,
    live: Vec<AtomicBool>,
    /// Unresolved unique cells (no recorded outcome yet).
    remaining: AtomicUsize,
    outcomes: Mutex<Vec<Option<Result<CellDone, String>>>>,
    /// Cell-level requeue attempts (shard deaths excluded).
    attempts: Vec<AtomicU64>,
    /// Span tracing on? When set, each slot of `started_us` records the
    /// monotonic micros of the cell's *first* attempt (0 = never ran),
    /// and outcome recording synthesizes the cell's root span.
    spans: bool,
    started_us: Vec<AtomicU64>,
    /// Set when any sweep-level span (reprobe, journal replay) was
    /// recorded, so span collection synthesizes the sweep root trace.
    sweep_spans: AtomicBool,
    /// Durable journal to append won outcomes to; `None` = in-memory
    /// only (the historical behaviour).
    journal: Option<&'a SweepJournal>,
    /// Cooperative cancellation flag (see [`SweepOptions::interrupt`]).
    interrupt: Option<Arc<AtomicBool>>,
    /// Coordinator-observed wall time per shard, for straggler p99.
    shard_wall: Vec<Arc<Histogram>>,
    registry: Registry,
}

impl Shared<'_> {
    /// Record a success; the slot guard makes completion exactly-once.
    /// The slot winner also appends the durable journal record (under
    /// the same lock, so the journal sees each cell at most once).
    fn record_done(&self, done: CellDone) {
        let mut outcomes = self.outcomes.lock().unwrap_or_else(|e| e.into_inner());
        let index = done.index;
        if outcomes[index].is_some() {
            obs::debug!(target: "coord",
                "duplicate completion of cell {index} dropped (shard {})", done.shard);
            return;
        }
        if let Some(journal) = self.journal {
            // A broken journal must not fail a healthy sweep: log and
            // keep going — the cell is simply not resumable.
            if let Err(err) = journal.append_done(&done) {
                obs::warn!(target: "coord", "journal append failed for cell {index}: {err}");
            }
        }
        outcomes[index] = Some(Ok(done));
        self.remaining.fetch_sub(1, Ordering::SeqCst);
        self.close_root(index);
    }

    /// Record a permanent failure (same slot guard, same journaling).
    fn record_failed(&self, index: usize, error: String) {
        let mut outcomes = self.outcomes.lock().unwrap_or_else(|e| e.into_inner());
        if outcomes[index].is_some() {
            return;
        }
        obs::warn!(target: "coord", "cell {index} failed permanently: {error}");
        if let Some(journal) = self.journal {
            if let Err(err) = journal.append_failed(index, self.plan.hashes[index], &error) {
                obs::warn!(target: "coord", "journal append failed for cell {index}: {err}");
            }
        }
        outcomes[index] = Some(Err(error));
        self.remaining.fetch_sub(1, Ordering::SeqCst);
        self.close_root(index);
    }

    /// True once the cooperative cancellation flag flipped.
    fn interrupted(&self) -> bool {
        self.interrupt
            .as_ref()
            .is_some_and(|flag| flag.load(Ordering::SeqCst))
    }

    /// Synthesize the cell's root span, spanning first attempt → final
    /// outcome. Roots use the trace id as their span id so shard-side
    /// children (which only know the trace context) parent correctly.
    /// Runs at most once per cell — only the slot-guard winner calls it.
    fn close_root(&self, index: usize) {
        if !self.spans {
            return;
        }
        let started = self.started_us[index].load(Ordering::SeqCst);
        if started == 0 {
            return; // never attempted: no children exist, no root owed
        }
        let trace_id = self.plan.hashes[index];
        obs::span::record_raw(obs::SpanRecord {
            trace_id,
            span_id: trace_id,
            parent_id: 0,
            name: "cell".to_string(),
            start_us: started,
            dur_us: obs::span::now_micros().saturating_sub(started),
        });
    }

    fn requeue(&self, index: usize) {
        self.registry.counter("coord.requeues").inc();
        self.injector
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push_back(index);
    }

    /// Mark `shard` dead (idempotent per death — a rejoined shard can
    /// die again) and move its queue to the injector so live shards
    /// pick the work up.
    fn mark_dead(&self, shard: usize, addr: &str, why: &ClientError) {
        if !self.live[shard].swap(false, Ordering::SeqCst) {
            return;
        }
        self.registry.counter("coord.shard_deaths").inc();
        let orphans: Vec<usize> = {
            let mut queue = self.queues[shard].lock().unwrap_or_else(|e| e.into_inner());
            queue.drain(..).collect()
        };
        obs::warn!(target: "coord",
            "shard {shard} ({addr}) died mid-sweep ({why}); redistributing {} queued cells",
            orphans.len());
        let mut injector = self.injector.lock().unwrap_or_else(|e| e.into_inner());
        injector.extend(orphans);
    }

    fn any_live(&self) -> bool {
        self.live.iter().any(|l| l.load(Ordering::SeqCst))
    }

    /// Next cell for a submitter of `shard`: own queue first, then the
    /// injector, then (if allowed) the back of the longest live peer
    /// queue. The bool marks work executing away from its home shard.
    fn next_cell(&self, shard: usize, steal: bool) -> Option<(usize, bool)> {
        if let Some(i) = self.queues[shard]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop_front()
        {
            // Own-queue work may still be foreign: requeued cells of a
            // dead home shard flow through the injector. Telling the
            // two apart needs only the home map.
            return Some((i, self.plan.home[i] != shard));
        }
        if let Some(i) = self
            .injector
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop_front()
        {
            return Some((i, self.plan.home[i] != shard));
        }
        if !steal {
            return None;
        }
        let victim = (0..self.queues.len())
            .filter(|&s| s != shard && self.live[s].load(Ordering::SeqCst))
            .max_by_key(|&s| {
                self.queues[s]
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .len()
            })?;
        let stolen = self.queues[victim]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop_back();
        if let Some(i) = stolen {
            self.registry.counter("coord.steals").inc();
            obs::debug!(target: "coord",
                "shard {shard} stole cell {i} from shard {victim}");
            return Some((i, true));
        }
        None
    }
}

/// The terminal error class of one submit attempt, after the resilient
/// client's own retry budget ran out.
enum Verdict {
    /// The shard itself is gone (or draining): transport-terminal.
    ShardFatal,
    /// The cell's attempt failed but the shard lives; worth requeueing.
    Retry,
    /// Deterministic failure: requeueing cannot help.
    Permanent,
}

fn classify(err: &ClientError) -> Verdict {
    match err {
        ClientError::Io(_) | ClientError::Timeout(_) | ClientError::ShuttingDown => {
            Verdict::ShardFatal
        }
        ClientError::Busy | ClientError::CorruptFrame(_) => Verdict::Retry,
        ClientError::Service { retryable, .. } => {
            if *retryable {
                Verdict::Retry
            } else {
                Verdict::Permanent
            }
        }
        ClientError::Protocol(_) => Verdict::Permanent,
        // The resilient client already spent its budget; judge by what
        // the final attempt died of.
        ClientError::Exhausted { last, .. } => classify(last),
    }
}

/// Decorrelate each submitter's backoff schedule so a fleet of
/// retrying clients never thunders in lockstep.
fn submitter_options(base: &ClientOptions, shard: usize, slot: usize) -> ClientOptions {
    let mut opts = *base;
    let lane = ((shard as u64) << 16) | (slot as u64 + 1);
    opts.retry.seed = base
        .retry
        .seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(lane));
    opts
}

/// Build a probe client config for reprobing dead shards: no internal
/// retries (each reprobe is one handshake attempt — important for
/// deterministic fault injection) and a tight deadline so one dead
/// shard can't stall the monitor past its interval for long.
fn probe_options(base: &ClientOptions) -> ClientOptions {
    let mut opts = *base;
    opts.retry.max_retries = 0;
    let cap = Duration::from_secs(2);
    opts.deadline = Some(opts.deadline.map_or(cap, |d| d.min(cap)));
    opts
}

/// Run `cells` across `shards`, returning exactly one result per unique
/// cell. See the [module docs](self) for the full protocol.
pub fn run_sweep(
    shards: &[String],
    cells: &[RunConfig],
    opts: &SweepOptions,
) -> Result<SweepOutcome, SweepError> {
    run_sweep_recoverable(shards, cells, opts, None, None)
}

/// [`run_sweep`] with durability: outcomes stream to `journal` as they
/// are won, and cells already resolved by a previous run (`resumed`)
/// are preloaded into their outcome slots without dispatching. The
/// caller is responsible for having validated the replay against this
/// exact cell list ([`SweepJournal::resume`] does).
pub fn run_sweep_recoverable(
    shards: &[String],
    cells: &[RunConfig],
    opts: &SweepOptions,
    journal: Option<&SweepJournal>,
    resumed: Option<&SweepReplay>,
) -> Result<SweepOutcome, SweepError> {
    if shards.is_empty() {
        return Err(SweepError::NoShards);
    }
    if cells.is_empty() {
        return Err(SweepError::EmptySweep);
    }
    let plan = Plan::new(cells, shards.len());
    let plan_hash = plan.content_hash();
    if opts.spans {
        obs::span::set_enabled(true);
    }
    let sweep_start_us = opts.spans.then(obs::span::now_micros).unwrap_or(0);

    // Preload journal-replayed outcomes: these cells are already
    // resolved, so they never enter a queue and are never re-journaled.
    let mut initial: Vec<Option<Result<CellDone, String>>> = vec![None; plan.len()];
    let mut resolved = vec![false; plan.len()];
    if let Some(replay) = resumed {
        for done in &replay.done {
            if done.index < plan.len() && initial[done.index].is_none() {
                resolved[done.index] = true;
                initial[done.index] = Some(Ok(done.clone()));
            }
        }
        for (index, _, error) in &replay.failed {
            if *index < plan.len() && initial[*index].is_none() {
                resolved[*index] = true;
                initial[*index] = Some(Err(error.clone()));
            }
        }
    }
    let replayed = resolved.iter().filter(|&&r| r).count();

    // Startup handshake: every shard must answer `capabilities` (and
    // not be draining) before any cell is submitted — a fleet typo
    // fails fast with a distinct exit code instead of degrading.
    let mut caps: Vec<Capabilities> = Vec::with_capacity(shards.len());
    for (i, addr) in shards.iter().enumerate() {
        let mut client = ResilientClient::new(addr.clone(), submitter_options(&opts.client, i, 0));
        let c = client
            .capabilities()
            .map_err(|err| SweepError::ShardUnreachable {
                addr: addr.clone(),
                err,
            })?;
        if c.draining {
            return Err(SweepError::ShardUnreachable {
                addr: addr.clone(),
                err: ClientError::ShuttingDown,
            });
        }
        if c.proto != service::PROTO_VERSION {
            obs::warn!(target: "coord",
                "shard {addr} speaks protocol v{} (coordinator is v{})",
                c.proto, service::PROTO_VERSION);
        }
        caps.push(c);
    }
    let windows: Vec<usize> = caps
        .iter()
        .map(|c| opts.window.unwrap_or(c.workers.max(1) as usize).max(1))
        .collect();
    obs::info!(target: "coord",
        "sweep: {} unique cells ({} duplicates collapsed, {} replayed from journal) \
         across {} shards, windows {:?}",
        plan.len(), plan.duplicates(), replayed, shards.len(), windows);

    let registry = Registry::new();
    registry.counter("coord.cells").add(plan.len() as u64);
    registry
        .counter("coord.duplicates")
        .add(plan.duplicates() as u64);
    registry
        .counter("coord.journal_replayed")
        .add(replayed as u64);
    let shard_wall: Vec<Arc<Histogram>> = (0..shards.len())
        .map(|i| registry.histogram(&format!("coord.shard{i}.wall_ms")))
        .collect();
    let shared = Shared {
        plan: &plan,
        queues: (0..shards.len())
            .map(|s| {
                Mutex::new(
                    plan.assigned_to(s)
                        .into_iter()
                        .filter(|&i| !resolved[i])
                        .collect(),
                )
            })
            .collect(),
        injector: Mutex::new(VecDeque::new()),
        live: (0..shards.len()).map(|_| AtomicBool::new(true)).collect(),
        remaining: AtomicUsize::new(plan.len() - replayed),
        outcomes: Mutex::new(initial),
        attempts: (0..plan.len()).map(|_| AtomicU64::new(0)).collect(),
        spans: opts.spans,
        started_us: (0..plan.len()).map(|_| AtomicU64::new(0)).collect(),
        sweep_spans: AtomicBool::new(false),
        journal,
        interrupt: opts.interrupt.clone(),
        shard_wall,
        registry,
    };
    if opts.spans && replayed > 0 {
        // The replay itself happened in the caller; give it a span
        // under the sweep root so resumed timelines show what was
        // skipped.
        shared.sweep_spans.store(true, Ordering::SeqCst);
        obs::span::record_raw(obs::SpanRecord {
            trace_id: plan_hash,
            span_id: obs::span::next_span_id(),
            parent_id: plan_hash,
            name: "journal.replay".to_string(),
            start_us: sweep_start_us,
            dur_us: obs::span::now_micros().saturating_sub(sweep_start_us),
        });
    }

    std::thread::scope(|scope| {
        for shard in 0..shards.len() {
            spawn_submitters(scope, &shared, shards, windows.as_slice(), opts, shard);
        }
        if let Some(interval) = opts.reprobe {
            let shared = &shared;
            let windows = windows.as_slice();
            scope.spawn(move || {
                monitor_dead_shards(scope, shared, shards, windows, opts, interval, plan_hash)
            });
        }
    });

    // Cells no shard lived long enough to resolve (or the user
    // interrupted). These bypass `record_failed` on purpose: they must
    // NOT be journaled as permanent failures — a resume re-runs them.
    let interrupted = shared.interrupted();
    {
        let fate = if interrupted {
            "sweep interrupted before this cell resolved"
        } else {
            "all shards died before this cell ran"
        };
        let mut outcomes = shared.outcomes.lock().unwrap_or_else(|e| e.into_inner());
        for slot in outcomes.iter_mut() {
            if slot.is_none() {
                *slot = Some(Err(fate.into()));
            }
        }
    }

    let outcomes = shared
        .outcomes
        .into_inner()
        .unwrap_or_else(|e| e.into_inner());
    let mut done: Vec<CellDone> = Vec::with_capacity(plan.len());
    let mut failed: Vec<FailedCell> = Vec::new();
    for (index, slot) in outcomes.into_iter().enumerate() {
        match slot.expect("every cell resolved above") {
            Ok(cell) => done.push(cell),
            Err(error) => failed.push(FailedCell {
                index,
                config_hash: plan.hashes[index],
                error,
            }),
        }
    }

    let summaries: Vec<ShardSummary> = shards
        .iter()
        .enumerate()
        .map(|(s, addr)| {
            let completed = done.iter().filter(|c| c.shard == s).count() as u64;
            ShardSummary {
                addr: addr.clone(),
                workers: caps[s].workers,
                window: windows[s],
                assigned: plan.assigned_to(s).len(),
                completed,
                stolen: done.iter().filter(|c| c.shard == s && c.stolen).count() as u64,
                cache_hits: done.iter().filter(|c| c.shard == s && c.cached).count() as u64,
                dead: !shared.live[s].load(Ordering::SeqCst),
                wall_ms_p99: shared.shard_wall[s]
                    .snapshot()
                    .approx_quantile(0.99)
                    .unwrap_or(0),
            }
        })
        .collect();

    // Post-sweep aggregation: poll every shard that still answers. A
    // dead shard is skipped — its completed work is already in `done`.
    let mut shard_stats: Vec<ServiceStats> = Vec::new();
    let mut shard_metrics: Vec<String> = Vec::new();
    for (s, addr) in shards.iter().enumerate() {
        if !shared.live[s].load(Ordering::SeqCst) {
            continue;
        }
        let mut client = ResilientClient::new(addr.clone(), opts.client);
        match (client.stats(), client.metrics()) {
            (Ok(st), Ok(m)) => {
                shard_stats.push(st);
                shard_metrics.push(m);
            }
            (st, m) => {
                let err = st.err().or(m.err()).expect("one of the polls failed");
                obs::warn!(target: "coord",
                    "shard {addr} unreachable for post-sweep aggregation: {err}");
            }
        }
    }
    let stats = (!shard_stats.is_empty()).then(|| crate::aggregate::aggregate_stats(&shard_stats));
    let coord_metrics = shared.registry.snapshot();
    let tally = |name: &str| match coord_metrics.iter().find(|(n, _)| n == name) {
        Some((_, SnapshotValue::Counter(v))) => *v,
        _ => 0,
    };
    let metrics_json = (!shard_metrics.is_empty())
        .then(|| {
            crate::aggregate::aggregate_metrics(
                &shard_metrics,
                std::slice::from_ref(&coord_metrics),
            )
        })
        .transpose()
        .unwrap_or_else(|e| {
            obs::warn!(target: "coord", "metrics aggregation failed: {e}");
            None
        });

    // Span collection: the coordinator's own buffer plus every live
    // shard's, filtered to this sweep's trace ids so concurrent sweeps
    // against shared daemons don't leak into each other's timelines.
    let spans = if opts.spans {
        let mut wanted: std::collections::HashSet<u64> = plan.hashes.iter().copied().collect();
        if shared.sweep_spans.load(Ordering::SeqCst) {
            // Sweep-level events (reprobes, journal replay) hang off a
            // synthesized root keyed by the plan hash.
            wanted.insert(plan_hash);
            obs::span::record_raw(obs::SpanRecord {
                trace_id: plan_hash,
                span_id: plan_hash,
                parent_id: 0,
                name: "sweep".to_string(),
                start_us: sweep_start_us,
                dur_us: obs::span::now_micros().saturating_sub(sweep_start_us),
            });
        }
        let mut sources = vec![obs::SpanSource {
            name: "coordinator".to_string(),
            spans: obs::span::drain()
                .into_iter()
                .filter(|s| wanted.contains(&s.trace_id))
                .collect(),
        }];
        for (s, addr) in shards.iter().enumerate() {
            if !shared.live[s].load(Ordering::SeqCst) {
                continue;
            }
            let mut client = ResilientClient::new(addr.clone(), opts.client);
            match client.spans() {
                Ok(wire) => sources.push(obs::SpanSource {
                    name: addr.clone(),
                    spans: wire
                        .into_iter()
                        .map(obs::SpanRecord::from)
                        .filter(|s| wanted.contains(&s.trace_id))
                        .collect(),
                }),
                Err(err) => {
                    obs::warn!(target: "coord",
                        "shard {addr} unreachable for span collection: {err}");
                }
            }
        }
        sources
    } else {
        Vec::new()
    };

    Ok(SweepOutcome {
        cells: done,
        failed,
        shards: summaries,
        steals: tally("coord.steals"),
        requeues: tally("coord.requeues"),
        duplicates: plan.duplicates(),
        // Dead *now*, not "ever died": a shard the reprobe loop
        // readmitted healed the sweep.
        degraded: shared.live.iter().any(|live| !live.load(Ordering::SeqCst)),
        deaths: tally("coord.shard_deaths"),
        rejoins: tally("coord.rejoins"),
        replayed: replayed as u64,
        interrupted,
        stats,
        metrics_json,
        spans,
    })
}

/// Spawn one submitter thread per window slot for `shard` inside
/// `scope`. Called at sweep start for every shard and again by the
/// monitor when a dead shard rejoins (the slot seeds repeat across a
/// rejoin, which keeps backoff decorrelation per shard/slot intact).
fn spawn_submitters<'scope, 'env, 'p>(
    scope: &'scope std::thread::Scope<'scope, 'env>,
    shared: &'env Shared<'p>,
    shards: &'env [String],
    windows: &'env [usize],
    opts: &'env SweepOptions,
    shard: usize,
) {
    let addr = &shards[shard];
    for slot in 0..windows[shard] {
        let client_opts = submitter_options(&opts.client, shard, slot);
        let steal = opts.steal;
        let max_requeues = opts.max_requeues;
        scope.spawn(move || submitter_loop(shared, shard, addr, client_opts, steal, max_requeues));
    }
}

/// The rejoin monitor: while cells remain, periodically re-handshake
/// every dead shard and readmit any that answers `capabilities` without
/// draining. Each reprobe is exactly one connection + one handshake
/// (no client-internal retries), so injected `connect@`/`handshake@`
/// faults map 1:1 onto reprobe attempts. When *no* shard is live the
/// monitor keeps probing for a bounded grace window — long enough for a
/// supervisor to respawn the fleet — then gives up so the sweep can
/// fail instead of hanging.
fn monitor_dead_shards<'scope, 'env, 'p>(
    scope: &'scope std::thread::Scope<'scope, 'env>,
    shared: &'env Shared<'p>,
    shards: &'env [String],
    windows: &'env [usize],
    opts: &'env SweepOptions,
    interval: Duration,
    plan_hash: u64,
) {
    let probe_opts = probe_options(&opts.client);
    let grace = (interval * 20).clamp(Duration::from_secs(2), Duration::from_secs(60));
    let mut all_dead_since: Option<Instant> = None;
    'monitor: loop {
        // Sleep in short slices so sweep completion (or an interrupt)
        // ends the monitor promptly instead of after a full interval.
        let mut slept = Duration::ZERO;
        while slept < interval {
            if shared.remaining.load(Ordering::SeqCst) == 0 || shared.interrupted() {
                break 'monitor;
            }
            let slice = interval
                .saturating_sub(slept)
                .min(Duration::from_millis(25));
            std::thread::sleep(slice);
            slept += slice;
        }
        if shared.remaining.load(Ordering::SeqCst) == 0 || shared.interrupted() {
            break;
        }
        for shard in 0..shards.len() {
            if shared.live[shard].load(Ordering::SeqCst) {
                continue;
            }
            let reprobe_span = shared.spans.then(|| {
                shared.sweep_spans.store(true, Ordering::SeqCst);
                obs::Span::child(
                    obs::SpanContext {
                        trace_id: plan_hash,
                        span_id: plan_hash,
                    },
                    "reprobe",
                )
            });
            let mut probe = ResilientClient::new(shards[shard].clone(), probe_opts);
            match probe.capabilities() {
                Ok(caps) if !caps.draining => {
                    shared.live[shard].store(true, Ordering::SeqCst);
                    shared.registry.counter("coord.rejoins").inc();
                    obs::info!(target: "coord",
                        "shard {shard} ({}) answered the reprobe handshake; \
                         rejoining the sweep with {} submitters",
                        shards[shard], windows[shard]);
                    spawn_submitters(scope, shared, shards, windows, opts, shard);
                }
                Ok(_) => {
                    obs::debug!(target: "coord",
                        "shard {shard} ({}) is up but draining; not rejoined", shards[shard]);
                }
                Err(err) => {
                    obs::debug!(target: "coord",
                        "reprobe of shard {shard} ({}) failed: {err}", shards[shard]);
                }
            }
            drop(reprobe_span);
        }
        if shared.any_live() {
            all_dead_since = None;
        } else {
            match all_dead_since {
                None => all_dead_since = Some(Instant::now()),
                Some(t0) if t0.elapsed() > grace => {
                    obs::warn!(target: "coord",
                        "no shard came back within the {:?} reprobe grace window; giving up",
                        grace);
                    break;
                }
                Some(_) => {}
            }
        }
    }
    if shared.spans {
        obs::span::flush_thread();
    }
}

/// One submitter thread: pops cells, submits them through its own
/// resilient client, and routes failures per the module-level protocol.
fn submitter_loop(
    shared: &Shared<'_>,
    shard: usize,
    addr: &str,
    client_opts: ClientOptions,
    steal: bool,
    max_requeues: u32,
) {
    submitter_work(shared, shard, addr, client_opts, steal, max_requeues);
    // Hand this thread's buffered spans (attempt spans, synthesized
    // roots) to the global sink before the scope reaps the thread.
    if shared.spans {
        obs::span::flush_thread();
    }
}

fn submitter_work(
    shared: &Shared<'_>,
    shard: usize,
    addr: &str,
    client_opts: ClientOptions,
    steal: bool,
    max_requeues: u32,
) {
    let mut client = ResilientClient::new(addr, client_opts);
    while shared.remaining.load(Ordering::SeqCst) > 0 {
        if shared.interrupted() {
            return; // stop pulling; unresolved cells stay resumable
        }
        if !shared.live[shard].load(Ordering::SeqCst) {
            return; // our shard died; survivors own the rest
        }
        let Some((index, stolen)) = shared.next_cell(shard, steal) else {
            if !shared.any_live() {
                return;
            }
            std::thread::sleep(Duration::from_micros(500));
            continue;
        };
        // Each attempt gets its own span under the cell's root (the
        // root's span id is the trace id itself, so no handoff needed);
        // the daemon parents its spans under this attempt via the wire
        // context. The first attempt also stamps the root's start time.
        let hash = shared.plan.hashes[index];
        let attempt_span = shared.spans.then(|| {
            let _ = shared.started_us[index].compare_exchange(
                0,
                obs::span::now_micros().max(1),
                Ordering::SeqCst,
                Ordering::SeqCst,
            );
            obs::Span::child(
                obs::SpanContext {
                    trace_id: hash,
                    span_id: hash,
                },
                "attempt",
            )
        });
        let trace = attempt_span.as_ref().map(|s| service::TraceContext {
            trace_id: hash,
            parent_span: s.ctx().map_or(hash, |c| c.span_id),
        });
        let t0 = Instant::now();
        match client.submit_traced(&shared.plan.cells[index], trace) {
            Ok(reply) => {
                shared.shard_wall[shard].record(t0.elapsed().as_millis() as u64);
                if reply.config_hash != shared.plan.hashes[index] {
                    // The daemon and coordinator disagree on the canonical
                    // hash: a version skew loud enough to fail the cell.
                    shared.record_failed(
                        index,
                        format!(
                            "shard {addr} hashed the config as {:#018x}, \
                             coordinator computed {:#018x} (version skew?)",
                            reply.config_hash, shared.plan.hashes[index]
                        ),
                    );
                    continue;
                }
                shared.record_done(CellDone {
                    index,
                    config_hash: reply.config_hash,
                    shard,
                    stolen,
                    cached: reply.cached,
                    wall_ms: reply.wall_ms,
                    report: reply.report,
                });
            }
            Err(err) => match classify(&err) {
                Verdict::ShardFatal => {
                    shared.mark_dead(shard, addr, &err);
                    shared.requeue(index);
                    return;
                }
                Verdict::Retry => {
                    let tries = shared.attempts[index].fetch_add(1, Ordering::SeqCst) + 1;
                    if tries > max_requeues as u64 {
                        shared.record_failed(
                            index,
                            format!("gave up after {tries} requeues; last error: {err}"),
                        );
                    } else {
                        shared.requeue(index);
                    }
                }
                Verdict::Permanent => shared.record_failed(index, err.to_string()),
            },
        }
    }
}
