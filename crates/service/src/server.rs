//! The resident simulation daemon.
//!
//! One accept loop, one handler thread per connection, one shared
//! [`WorkerPool`] and [`ResultCache`]. Connections speak the JSON-lines
//! protocol from [`crate::protocol`]: the handler reads a line, serves
//! it, writes exactly one response line, and flushes before reading the
//! next — so responses are always in request order per connection.
//!
//! # Hardening
//!
//! The daemon never trusts a peer to behave: sockets carry read/write
//! deadlines (an idle or wedged connection times out and closes instead
//! of pinning its handler thread forever), request frames are capped at
//! [`ServiceConfig::max_frame`] bytes (an oversized line is discarded
//! and answered with a structured error — it is **not** buffered), and
//! when the bounded work queue is full a `Submit` is shed with
//! [`Response::Busy`] instead of blocking the handler. Shedding keeps
//! the accept path responsive under overload and gives well-behaved
//! clients an explicit, retryable signal.
//!
//! # Fault injection
//!
//! With [`ServiceConfig::fault_plan`] set, each accepted `Submit` claims
//! a deterministic index from a [`FaultInjector`] and suffers whatever
//! the plan prescribes: `panic`/`delay` ride into the worker with the
//! task, `drop`/`corrupt` are applied by the connection handler to the
//! response frame. See `crate::fault` for the spec grammar and
//! determinism guarantees. Disabled (the default), the only cost is one
//! `Option` check per submit.
//!
//! # Shutdown sequence
//!
//! 1. Any connection sends [`Request::Shutdown`]; the daemon sets the
//!    `draining` flag and acknowledges with `ShuttingDown`.
//! 2. New `Submit`s now answer `ShuttingDown` without entering the pool.
//! 3. Before Shutdown the accept loop blocks in `accept`, so each
//!    connection reaches its handler the moment the kernel queues it.
//!    Shutdown wakes that call with one connection of its own to the
//!    listener's port (loopback when bound to an unspecified address);
//!    the loop drops the wake unserved — it claims no `connect` fault
//!    index and counts in no metric. Only now does the loop poll,
//!    non-blocking, until `pending` — the count of submits and
//!    Shutdowns between acceptance and response flush — reaches zero, so
//!    every request already in the pipeline, and the Shutdown ack, still
//!    gets its response; connections opened meanwhile are still served.
//! 4. The loop exits, the pool's queue closes, workers finish what they
//!    hold and join. `ServerHandle::join` then returns.

use crate::cache::{Lookup, ResultCache};
use crate::fault::{FaultActions, FaultInjector, FaultPlan};
use crate::pool::{SubmitError, Task, WorkerPool};
use crate::protocol::{
    Capabilities, HealthReport, Request, Response, RunReply, RunReport, ServiceStats, PROTO_VERSION,
};
use backfill_sim::canon::fnv1a_64;
use obs::metrics::{Counter, Histogram, Registry};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often the draining accept loop polls for new connections and
/// drain progress. Before Shutdown the loop blocks in `accept` instead.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// Daemon sizing and hardening knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Simulation worker threads. More workers = more concurrent
    /// scenarios; each holds one materialized trace plus one schedule.
    pub workers: usize,
    /// Bounded work-queue capacity. When this many tasks wait, further
    /// submits are shed with [`Response::Busy`].
    pub queue_cap: usize,
    /// Result-cache entry cap; past it the least-recently-used report
    /// is evicted on insert.
    pub cache_cap: usize,
    /// Per-connection socket read deadline. A connection idle (or
    /// wedged mid-frame) this long is closed. `None` disables.
    pub read_timeout: Option<Duration>,
    /// Per-connection socket write deadline: a peer that stops reading
    /// can stall a response write at most this long. `None` disables.
    pub write_timeout: Option<Duration>,
    /// Largest accepted request frame in bytes. An oversized line is
    /// discarded (never buffered whole) and answered with a structured
    /// non-retryable error.
    pub max_frame: usize,
    /// Append-only cache journal path; see `ResultCache::with_journal`.
    /// `None` (default) keeps the cache memory-only.
    pub journal: Option<PathBuf>,
    /// Deterministic fault plan; `None` (default) injects nothing.
    pub fault_plan: Option<FaultPlan>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        // One worker per core (min 2), and a queue twice the worker
        // count: deep enough to keep workers fed across request bursts,
        // shallow enough that memory for queued configs stays trivial
        // and shedding engages before the daemon hoards work.
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2)
            .max(2);
        ServiceConfig {
            workers,
            queue_cap: workers * 2,
            cache_cap: ResultCache::DEFAULT_CAP,
            // Generous defaults: long enough that a deep queue of slow
            // scenarios never times out a patient client, short enough
            // that a leaked connection cannot pin a thread for hours.
            read_timeout: Some(Duration::from_secs(300)),
            write_timeout: Some(Duration::from_secs(30)),
            max_frame: 1 << 20,
            journal: None,
            fault_plan: None,
        }
    }
}

/// Counters and flags shared between the accept loop and all handlers.
///
/// Request counters live in the daemon's own metrics [`Registry`] (not
/// the process-global one, so tests running several servers in one
/// process don't pollute each other); the `Arc<Counter>` fields are
/// handles into it, kept here so the hot path never takes the registry's
/// name-map lock.
struct Inner {
    cfg: ServiceConfig,
    pool: WorkerPool,
    cache: ResultCache,
    fault: Option<FaultInjector>,
    draining: AtomicBool,
    /// Set by [`Request::Drain`]: refuse new submits but stay alive for
    /// the introspection verbs (unlike `draining`, the accept loop does
    /// not exit).
    refusing: AtomicBool,
    /// Submits between acceptance and response flush; the drain gate.
    pending: AtomicUsize,
    /// Where Shutdown connects to wake the blocked accept (see
    /// [`wake_addr`]).
    wake_addr: SocketAddr,
    /// The wake connection's local address, which the accept loop sees
    /// as its peer. Held locked across the wake's connect, so the loop
    /// can never accept the wake before it is recorded here.
    wake_peer: Mutex<Option<SocketAddr>>,
    registry: Registry,
    submitted: Arc<Counter>,
    completed: Arc<Counter>,
    failed: Arc<Counter>,
    rejected: Arc<Counter>,
    /// Submits shed with `Busy` because the queue was full.
    shed: Arc<Counter>,
    /// Oversized request frames rejected.
    oversized: Arc<Counter>,
    /// Injected faults, by kind.
    fault_panics: Arc<Counter>,
    fault_drops: Arc<Counter>,
    fault_corrupts: Arc<Counter>,
    fault_delays: Arc<Counter>,
    fault_connect_drops: Arc<Counter>,
    fault_handshake_refusals: Arc<Counter>,
    wall_ms_total: Arc<Counter>,
    /// Largest single-request wall time; not a monotone sum, so it stays
    /// a raw atomic and is mirrored into a gauge at snapshot time.
    wall_ms_max: AtomicU64,
    /// Per-request service latency (`service.wall_ms`).
    wall_ms: Arc<Histogram>,
    /// Per-task simulation time as measured by the worker
    /// (`service.pool.run_wall_ms`), excluding queue wait.
    run_wall_ms: Arc<Histogram>,
}

impl Inner {
    /// Build the shared state; fallible because opening/replaying the
    /// cache journal touches the filesystem.
    fn new(cfg: ServiceConfig, bound: SocketAddr) -> io::Result<Self> {
        let registry = Registry::new();
        let cache = match &cfg.journal {
            Some(path) => {
                let cache = ResultCache::with_journal(cfg.cache_cap, path)?;
                let replay = cache.journal_health().expect("journaled cache");
                if replay.truncated {
                    obs::warn!(
                        target: "service::cache",
                        "journal {} had a torn tail: dropped {} bytes, kept {} records",
                        replay.path,
                        replay.dropped_bytes,
                        replay.replayed
                    );
                } else {
                    obs::info!(
                        target: "service::cache",
                        "journal {}: replayed {} records",
                        replay.path,
                        replay.replayed
                    );
                }
                cache
            }
            None => ResultCache::with_capacity(cfg.cache_cap),
        };
        cache.bind_metrics(&registry);
        let traces = Arc::new(crate::tracecache::TraceCache::new());
        traces.bind_metrics(&registry);
        let fault = cfg.fault_plan.clone().filter(|plan| !plan.is_empty());
        if let Some(plan) = &fault {
            obs::warn!(target: "service::fault", "fault injection ACTIVE: {plan}");
        }
        Ok(Inner {
            pool: WorkerPool::with_trace_cache(cfg.workers.max(1), cfg.queue_cap.max(1), traces),
            cache,
            fault: fault.map(FaultInjector::new),
            draining: AtomicBool::new(false),
            refusing: AtomicBool::new(false),
            pending: AtomicUsize::new(0),
            wake_addr: wake_addr(bound),
            wake_peer: Mutex::new(None),
            submitted: registry.counter("service.submitted"),
            completed: registry.counter("service.completed"),
            failed: registry.counter("service.failed"),
            rejected: registry.counter("service.rejected"),
            shed: registry.counter("service.shed"),
            oversized: registry.counter("service.oversized_frames"),
            fault_panics: registry.counter("service.fault.panics"),
            fault_drops: registry.counter("service.fault.drops"),
            fault_corrupts: registry.counter("service.fault.corrupts"),
            fault_delays: registry.counter("service.fault.delays"),
            fault_connect_drops: registry.counter("service.fault.connect_drops"),
            fault_handshake_refusals: registry.counter("service.fault.handshake_refusals"),
            wall_ms_total: registry.counter("service.wall_ms_total"),
            wall_ms_max: AtomicU64::new(0),
            wall_ms: registry.histogram("service.wall_ms"),
            run_wall_ms: registry.histogram("service.pool.run_wall_ms"),
            registry,
            cfg,
        })
    }

    /// One atomically-consistent-enough view of the daemon's counters.
    ///
    /// Read order is load-bearing: everything a submit can *become*
    /// (completed / failed / rejected / shed / in-flight) is read
    /// **before** `submitted`. A worker also stops counting a task as
    /// in-flight before its reply is observable (see `pool.rs`), so a
    /// snapshot can never show `completed + failed + in_flight >
    /// submitted` — a task caught mid-transition is simply not counted
    /// anywhere yet, and reading `submitted` last only ever makes the
    /// right-hand side larger.
    fn snapshot(&self) -> ServiceStats {
        let completed = self.completed.get();
        let failed = self.failed.get();
        let rejected = self.rejected.get();
        let shed = self.shed.get();
        let worker_panics = self.pool.worker_panics() as u64;
        let in_flight = self.pool.in_flight() as u64;
        let queue_depth = self.pool.queue_depth() as u64;
        let (cache_hits, cache_misses, cache_entries, cache_evictions) = self.cache.stats();
        let wall_ms_total = self.wall_ms_total.get();
        let wall_ms_max = self.wall_ms_max.load(Ordering::SeqCst);
        let draining = self.draining.load(Ordering::SeqCst);
        let submitted = self.submitted.get();
        ServiceStats {
            submitted,
            completed,
            failed,
            rejected,
            shed,
            worker_panics,
            cache_hits,
            cache_misses,
            cache_entries,
            cache_evictions,
            queue_depth,
            in_flight,
            draining,
            wall_ms_total,
            wall_ms_max,
        }
    }

    /// Liveness/readiness snapshot for the `health` verb. Served even
    /// while draining — a drain in progress is exactly when an operator
    /// wants to watch queue depth fall.
    fn health(&self) -> HealthReport {
        let (_, _, cache_entries, _) = self.cache.stats();
        let draining = self.draining.load(Ordering::SeqCst);
        let refusing = self.refusing.load(Ordering::SeqCst);
        HealthReport {
            ready: !draining && !refusing,
            draining,
            workers: self.cfg.workers as u64,
            queue_cap: self.cfg.queue_cap as u64,
            queue_depth: self.pool.queue_depth() as u64,
            in_flight: self.pool.in_flight() as u64,
            shed: self.shed.get(),
            worker_panics: self.pool.worker_panics() as u64,
            cache_entries,
            journal: self.cache.journal_health(),
            fault_plan: self
                .fault
                .as_ref()
                .map(|injector| injector.plan().to_string()),
        }
    }

    /// Refresh the point-in-time gauges so a metrics reader sees current
    /// levels rather than whatever the last refresh left behind.
    fn refresh_gauges(&self) {
        self.registry
            .gauge("service.pool.queue_depth")
            .set(self.pool.queue_depth() as i64);
        self.registry
            .gauge("service.pool.in_flight")
            .set(self.pool.in_flight() as i64);
        self.registry
            .gauge("service.pool.worker_panics")
            .set(self.pool.worker_panics() as i64);
        let (_, _, cache_entries, _) = self.cache.stats();
        self.registry
            .gauge("service.cache.entries")
            .set(cache_entries as i64);
        self.registry
            .gauge("service.draining")
            .set(self.draining.load(Ordering::SeqCst) as i64);
        self.registry
            .gauge("service.wall_ms_max")
            .set(self.wall_ms_max.load(Ordering::SeqCst) as i64);
    }

    /// Render the registry as one canonical-JSON document.
    fn metrics_snapshot(&self) -> String {
        self.refresh_gauges();
        self.registry.snapshot_json()
    }

    /// The sizing handshake answering [`Request::Capabilities`].
    fn capabilities(&self) -> Capabilities {
        let (_, _, cache_entries, _) = self.cache.stats();
        Capabilities {
            proto: PROTO_VERSION,
            workers: self.cfg.workers as u64,
            queue_cap: self.cfg.queue_cap as u64,
            max_frame: self.cfg.max_frame as u64,
            cache_entries,
            journaled: self.cfg.journal.is_some(),
            draining: self.draining.load(Ordering::SeqCst) || self.refusing.load(Ordering::SeqCst),
        }
    }

    /// Start the drain: set `draining` and, the first time only, wake the
    /// accept loop out of its blocking `accept` with one connection.
    fn begin_shutdown(&self) {
        if self.draining.swap(true, Ordering::SeqCst) {
            return;
        }
        let mut peer = self.wake_peer.lock().unwrap_or_else(|e| e.into_inner());
        match TcpStream::connect_timeout(&self.wake_addr, Duration::from_secs(1)) {
            Ok(stream) => *peer = stream.local_addr().ok(),
            // The loop then leaves `accept` only with the next connection.
            Err(e) => obs::warn!(
                target: "service::server",
                "shutdown could not wake the accept loop at {}: {e}",
                self.wake_addr
            ),
        }
    }

    /// Is this accepted connection Shutdown's wake? Consumes the match,
    /// so a later client that happens to reuse the port is served.
    fn is_wake(&self, peer: SocketAddr) -> bool {
        let mut wake = self.wake_peer.lock().unwrap_or_else(|e| e.into_inner());
        if *wake == Some(peer) {
            *wake = None;
            return true;
        }
        false
    }

    fn record_wall(&self, wall_ms: u64) {
        self.wall_ms_total.add(wall_ms);
        self.wall_ms_max.fetch_max(wall_ms, Ordering::SeqCst);
        self.wall_ms.record(wall_ms);
    }
}

/// A running daemon. Dropping the handle does **not** stop the server;
/// send [`Request::Shutdown`] (e.g. via `Client::shutdown`) and then
/// [`ServerHandle::join`].
pub struct ServerHandle {
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address actually bound (resolves port 0 to the ephemeral pick).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Block until the daemon has fully drained and stopped.
    pub fn join(mut self) {
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

/// The daemon entry point.
pub struct Server;

impl Server {
    /// Bind `addr` (use port 0 for an ephemeral port) and start serving
    /// in background threads. Returns once the socket is listening (and,
    /// when a journal is configured, once its replay has finished — the
    /// daemon never answers before recovery completes).
    pub fn start<A: ToSocketAddrs>(addr: A, cfg: ServiceConfig) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let inner = Arc::new(Inner::new(cfg, addr)?);
        let accept = std::thread::spawn(move || accept_loop(listener, inner));
        Ok(ServerHandle {
            addr,
            accept: Some(accept),
        })
    }
}

/// Where Shutdown's wake connects: the bound address, with an
/// unspecified IP (`0.0.0.0`, `[::]`) replaced by that family's loopback.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let ip = match bound.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, bound.port())
}

fn accept_loop(listener: TcpListener, inner: Arc<Inner>) {
    // Serving: block in accept until Shutdown sets `draining` and wakes
    // this call with a connection of its own.
    while !inner.draining.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, peer)) => admit(stream, peer, &inner),
            // A failing listener stops the daemon without a drain.
            Err(_) => {
                inner.pool.shutdown();
                return;
            }
        }
    }
    // Draining: keep serving new connections, non-blocking, until every
    // tracked submit has flushed its response.
    if listener.set_nonblocking(true).is_ok() {
        loop {
            match listener.accept() {
                Ok((stream, peer)) => admit(stream, peer, &inner),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if inner.pending.load(Ordering::SeqCst) == 0 {
                        break;
                    }
                    std::thread::sleep(ACCEPT_POLL);
                }
                Err(_) => break,
            }
        }
    }
    // Close the queue and wait for workers; everything still queued was
    // counted in `pending`, so its handlers get replies before this
    // point could be reached only via the drain gate above.
    inner.pool.shutdown();
}

/// Hand an accepted connection to its own handler thread (handlers run
/// blocking I/O), unless it is Shutdown's wake, which is dropped here.
fn admit(stream: TcpStream, peer: SocketAddr, inner: &Arc<Inner>) {
    if inner.is_wake(peer) {
        return;
    }
    let inner = inner.clone();
    std::thread::spawn(move || handle_connection(stream, &inner));
}

/// One framing step's outcome (see [`read_frame`]).
enum Frame {
    /// A complete `\n`-terminated line, newline stripped.
    Line(String),
    /// The line exceeded the frame cap; its bytes were discarded, the
    /// stream is positioned after its terminating newline.
    TooLong,
    /// Clean end of stream (a partial trailing line is also treated as
    /// EOF: the peer vanished mid-frame, there is nobody to answer).
    Eof,
}

/// Read one length-capped frame. Unlike `BufReader::read_line`, an
/// oversized frame is *discarded as it streams past* — the daemon's
/// memory stays bounded by `max` no matter what the peer sends.
fn read_frame<R: BufRead>(reader: &mut R, max: usize) -> io::Result<Frame> {
    let mut buf: Vec<u8> = Vec::new();
    let mut discarding = false;
    loop {
        let (consumed, done) = {
            let chunk = reader.fill_buf()?;
            if chunk.is_empty() {
                // EOF, possibly mid-frame: the peer is gone either way,
                // so even an oversized partial line reports as Eof.
                return Ok(Frame::Eof);
            }
            match chunk.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    if !discarding {
                        buf.extend_from_slice(&chunk[..pos]);
                    }
                    (pos + 1, true)
                }
                None => {
                    if !discarding {
                        buf.extend_from_slice(chunk);
                    }
                    (chunk.len(), false)
                }
            }
        };
        reader.consume(consumed);
        if buf.len() > max {
            discarding = true;
            buf.clear();
        }
        if done {
            return Ok(if discarding {
                Frame::TooLong
            } else {
                Frame::Line(String::from_utf8_lossy(&buf).into_owned())
            });
        }
    }
}

/// What the connection handler must do to the response frame, as
/// prescribed by the fault plan (always `None` without one).
#[derive(Clone, Copy, PartialEq)]
enum WireFault {
    None,
    /// Close the connection without writing the response.
    Drop,
    /// Write a deliberately undecodable frame in place of the response.
    Corrupt,
}

/// One served request: the response plus handler-side bookkeeping.
struct Served {
    response: Response,
    /// True when this request holds a `pending` slot that the handler
    /// must release after the response flush (tracked `Submit`s and
    /// `Shutdown`).
    gates_drain: bool,
    wire: WireFault,
}

impl Served {
    fn plain(response: Response) -> Self {
        Served {
            response,
            gates_drain: false,
            wire: WireFault::None,
        }
    }
}

fn handle_connection(stream: TcpStream, inner: &Inner) {
    // Injected connection fault: each accepted connection claims the
    // next `connect` index; a match closes the socket before any frame
    // is read (the client sees EOF / connection reset).
    if let Some(fault) = &inner.fault {
        let (index, drop) = fault.next_connect();
        if drop {
            inner.fault_connect_drops.inc();
            obs::debug!(target: "service::fault",
                "dropping accepted connection #{index} at accept");
            return;
        }
    }
    let _ = stream.set_nodelay(true);
    // Socket deadlines: a peer that stops sending (or reading) cannot
    // pin this thread past the configured timeouts.
    let _ = stream.set_read_timeout(inner.cfg.read_timeout);
    let _ = stream.set_write_timeout(inner.cfg.write_timeout);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    // Blocking reads on the handler side (the listener's nonblocking
    // flag is per-socket, but inherit rules vary — set it explicitly).
    let _ = stream.set_nonblocking(false);
    let mut reader = BufReader::new(stream);
    loop {
        let served = match read_frame(&mut reader, inner.cfg.max_frame) {
            Ok(Frame::Line(line)) => {
                if line.trim().is_empty() {
                    continue;
                }
                match serde_json::from_str::<Request>(&line) {
                    Ok(request) => serve(request, inner),
                    Err(e) => Served::plain(Response::Error {
                        message: format!("malformed request: {e}"),
                        config_hash: 0,
                        retryable: false,
                    }),
                }
            }
            Ok(Frame::TooLong) => {
                inner.oversized.inc();
                obs::warn!(
                    target: "service::server",
                    "rejected oversized request frame (> {} bytes)",
                    inner.cfg.max_frame
                );
                Served::plain(Response::Error {
                    message: format!(
                        "request frame exceeds max_frame ({} bytes)",
                        inner.cfg.max_frame
                    ),
                    config_hash: 0,
                    retryable: false,
                })
            }
            Ok(Frame::Eof) => break,
            // Read deadline elapsed or the peer vanished: close. Any
            // tracked submit already released its pending slot at flush
            // time, so the drain gate is unaffected.
            Err(_) => break,
        };
        if served.wire == WireFault::Drop {
            // Injected connection drop: vanish instead of answering.
            obs::debug!(target: "service::fault", "dropping connection instead of responding");
            if served.gates_drain {
                inner.pending.fetch_sub(1, Ordering::SeqCst);
            }
            break;
        }
        let mut payload = serde_json::to_string(&served.response).expect("responses serialize");
        if served.wire == WireFault::Corrupt {
            // Still exactly one line, so the stream stays frame-synced
            // and the client can retry on this same connection — but the
            // leading '!' makes the frame undecodable as a Response.
            obs::debug!(target: "service::fault", "corrupting response frame");
            payload.insert(0, '!');
        }
        payload.push('\n');
        let flushed = writer
            .write_all(payload.as_bytes())
            .and_then(|()| writer.flush());
        // The response is now out (or the peer is gone); either way this
        // request no longer gates the drain.
        if served.gates_drain {
            inner.pending.fetch_sub(1, Ordering::SeqCst);
        }
        if flushed.is_err() {
            break;
        }
    }
}

/// Serve one request. A tracked `Submit` or a `Shutdown` increments
/// `pending` here and the connection handler decrements it after the
/// response flush (or after an injected drop).
fn serve(request: Request, inner: &Inner) -> Served {
    match request {
        Request::Submit { config, trace } => {
            if inner.draining.load(Ordering::SeqCst) || inner.refusing.load(Ordering::SeqCst) {
                inner.rejected.inc();
                return Served::plain(Response::ShuttingDown);
            }
            // A traced submit arms span recording for the whole daemon;
            // untraced traffic stays on the zero-cost disabled path.
            if trace.is_some() {
                obs::span::set_enabled(true);
            }
            // Claim this submit's fault actions (index order = daemon
            // acceptance order; a plan-free daemon skips all of this).
            let actions = match &inner.fault {
                Some(injector) => {
                    let (index, actions) = injector.next();
                    if !actions.is_none() {
                        obs::info!(
                            target: "service::fault",
                            "submit #{index}: injecting {actions:?}"
                        );
                        if actions.panic {
                            inner.fault_panics.inc();
                        }
                        if actions.drop {
                            inner.fault_drops.inc();
                        }
                        if actions.corrupt {
                            inner.fault_corrupts.inc();
                        }
                        if actions.delay.is_some() {
                            inner.fault_delays.inc();
                        }
                    }
                    actions
                }
                None => FaultActions::default(),
            };
            inner.pending.fetch_add(1, Ordering::SeqCst);
            inner.submitted.inc();
            let response = serve_submit(config, trace, actions, inner);
            match response {
                Response::ShuttingDown => {
                    // Refused after all (pool closed under us): stop
                    // gating the drain right away.
                    inner.pending.fetch_sub(1, Ordering::SeqCst);
                    inner.rejected.inc();
                    return Served::plain(response);
                }
                Response::Busy => {
                    // Shed: nothing queued, nothing owed; release the
                    // drain slot but still honor wire faults so `Busy`
                    // under chaos behaves like any other frame.
                    inner.pending.fetch_sub(1, Ordering::SeqCst);
                    return Served {
                        response,
                        gates_drain: false,
                        wire: wire_fault(actions),
                    };
                }
                _ => {}
            }
            Served {
                response,
                gates_drain: true,
                wire: wire_fault(actions),
            }
        }
        Request::Stats => Served::plain(Response::Stats(inner.snapshot())),
        Request::Metrics => Served::plain(Response::Metrics {
            json: inner.metrics_snapshot(),
        }),
        Request::Health => Served::plain(Response::Health(inner.health())),
        Request::Capabilities => {
            // Injected handshake fault: each Capabilities request claims
            // the next `handshake` index; a match is refused with a
            // non-retryable error so a probing coordinator fails this
            // attempt cleanly (and deterministically) instead of waiting
            // out a retry budget.
            if let Some(fault) = &inner.fault {
                let (index, refuse) = fault.next_handshake();
                if refuse {
                    inner.fault_handshake_refusals.inc();
                    obs::debug!(target: "service::fault",
                        "refusing capabilities handshake #{index}");
                    return Served::plain(Response::Error {
                        message: format!("injected handshake refusal (#{index})"),
                        config_hash: 0,
                        retryable: false,
                    });
                }
            }
            Served::plain(Response::Capabilities(inner.capabilities()))
        }
        Request::Spans => {
            // Hand the caller every span buffered since the last drain —
            // handler threads flush after each traced submit, so this
            // covers all finished work.
            obs::span::flush_thread();
            let spans = obs::span::drain().into_iter().map(Into::into).collect();
            Served::plain(Response::Spans { spans })
        }
        Request::Drain => {
            inner.refusing.store(true, Ordering::SeqCst);
            obs::info!(
                target: "service::server",
                "drained by request: refusing new submits, staying alive"
            );
            Served::plain(Response::Draining)
        }
        Request::Shutdown => {
            // The ack holds a `pending` slot, taken before the drain
            // starts, so the drain (and a daemon process with it) ends
            // only after the ack is flushed.
            inner.pending.fetch_add(1, Ordering::SeqCst);
            inner.begin_shutdown();
            Served {
                response: Response::ShuttingDown,
                gates_drain: true,
                wire: WireFault::None,
            }
        }
    }
}

fn wire_fault(actions: FaultActions) -> WireFault {
    if actions.drop {
        WireFault::Drop
    } else if actions.corrupt {
        WireFault::Corrupt
    } else {
        WireFault::None
    }
}

fn serve_submit(
    config: backfill_sim::RunConfig,
    trace: Option<crate::protocol::TraceContext>,
    actions: FaultActions,
    inner: &Inner,
) -> Response {
    let started = Instant::now();
    let canonical = config.canonical_json();
    match inner.cache.lookup(&canonical) {
        Lookup::Hit { hash, report } => {
            // `panic`/`delay` act inside a worker; a hit never reaches
            // one, so only the wire-level faults (handled by the
            // connection handler) apply here.
            if let Some(trace) = trace {
                drop(obs::Span::child(trace.ctx(), "cache.hit"));
                obs::span::flush_thread();
            }
            let wall_ms = started.elapsed().as_millis() as u64;
            inner.completed.inc();
            inner.record_wall(wall_ms);
            Response::Run(RunReply {
                config_hash: hash,
                cached: true,
                wall_ms,
                report,
            })
        }
        Lookup::Miss { hash } => {
            let miss_span = trace.map(|t| obs::Span::child(t.ctx(), "cache.miss"));
            let (reply_tx, reply_rx) = mpsc::channel();
            let task = Task {
                config,
                trace: trace.map(|t| t.ctx()),
                accepted: Instant::now(),
                reply: reply_tx,
                fault: actions,
            };
            match inner.pool.try_submit(task) {
                Ok(()) => {}
                Err(SubmitError::Full(_)) => {
                    inner.shed.inc();
                    obs::warn!(
                        target: "service::server",
                        "queue full ({}): shedding submit {:x}",
                        inner.cfg.queue_cap,
                        hash
                    );
                    return Response::Busy;
                }
                Err(SubmitError::Closed(_)) => return Response::ShuttingDown,
            }
            let recv = reply_rx.recv();
            // The miss span covers queue wait + run; end it before the
            // outcome branches so crash paths keep a well-formed tree.
            drop(miss_span);
            if trace.is_some() {
                obs::span::flush_thread();
            }
            let result = match recv {
                Ok(result) => result,
                Err(_) => {
                    // The worker dropped the reply without sending: it
                    // panicked outside the simulation boundary (e.g. an
                    // injected fault). The pool cannot have been torn
                    // down — this handler still holds a `pending` slot,
                    // which blocks the drain gate — so the crash is the
                    // only explanation, and a retry may well succeed.
                    inner.failed.inc();
                    obs::warn!(
                        target: "service::server",
                        "worker crashed serving submit {:x}; reported as retryable",
                        hash
                    );
                    return Response::Error {
                        message: "worker crashed while serving this request; retry is safe"
                            .to_string(),
                        config_hash: hash,
                        retryable: true,
                    };
                }
            };
            let wall_ms = started.elapsed().as_millis() as u64;
            inner.record_wall(wall_ms);
            inner.run_wall_ms.record(result.run_wall.as_millis() as u64);
            // Fold the run's per-phase timing into the daemon registry so
            // `metrics`/`metrics --format prom` expose sim self-profiling.
            if let Some(phases) = &result.phases {
                phases.flush_into(&inner.registry);
            }
            match result.outcome {
                Ok(schedule) => {
                    let report = RunReport::from_schedule(&config, &schedule);
                    // Mirror the run's scheduler-internal counters into
                    // the daemon registry so the `metrics` verb covers
                    // the sim core, not just the service shell.
                    if let Some(stats) = &report.profile {
                        backfill_sim::flush_profile_stats(&inner.registry, stats);
                    }
                    inner.registry.counter("sim.runs").inc();
                    inner.registry.counter("sim.events").add(report.events);
                    inner.cache.insert(canonical, report.clone());
                    inner.completed.inc();
                    Response::Run(RunReply {
                        config_hash: hash,
                        cached: false,
                        wall_ms,
                        report,
                    })
                }
                Err(cell_error) => {
                    inner.failed.inc();
                    Response::Error {
                        message: cell_error.to_string(),
                        config_hash: fnv1a_64(cell_error.config.canonical_json().as_bytes()),
                        retryable: false,
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn default_sizing_is_sane() {
        let cfg = ServiceConfig::default();
        assert!(cfg.workers >= 2);
        assert!(cfg.queue_cap >= cfg.workers, "queue must cover the pool");
        assert!(cfg.read_timeout.is_some() && cfg.write_timeout.is_some());
        assert!(cfg.max_frame >= 64 * 1024, "frames must fit real configs");
    }

    #[test]
    fn read_frame_splits_lines_and_caps_length() {
        let mut reader = Cursor::new(b"first\nsecond\n".to_vec());
        assert!(matches!(
            read_frame(&mut reader, 64).unwrap(),
            Frame::Line(line) if line == "first"
        ));
        assert!(matches!(
            read_frame(&mut reader, 64).unwrap(),
            Frame::Line(line) if line == "second"
        ));
        assert!(matches!(read_frame(&mut reader, 64).unwrap(), Frame::Eof));

        // An oversized line is consumed and reported, and the frame
        // after it still parses — the stream stays line-synced.
        let mut oversized = Vec::new();
        oversized.extend_from_slice(&[b'x'; 100]);
        oversized.push(b'\n');
        oversized.extend_from_slice(b"after\n");
        let mut reader = Cursor::new(oversized);
        assert!(matches!(
            read_frame(&mut reader, 10).unwrap(),
            Frame::TooLong
        ));
        assert!(matches!(
            read_frame(&mut reader, 10).unwrap(),
            Frame::Line(line) if line == "after"
        ));

        // A line of exactly `max` bytes is allowed (the cap is a limit,
        // not a strict bound), and a partial trailing line is EOF.
        let mut reader = Cursor::new(b"12345\npartial".to_vec());
        assert!(matches!(
            read_frame(&mut reader, 5).unwrap(),
            Frame::Line(line) if line == "12345"
        ));
        assert!(matches!(read_frame(&mut reader, 5).unwrap(), Frame::Eof));
    }

    /// Send `Shutdown` on a fresh connection and check the ack. The read
    /// is deadline-bounded: a hung daemon fails the calling test with a
    /// timeout error instead of hanging the suite.
    fn shutdown_over_wire(addr: SocketAddr) {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        writer
            .write_all(
                format!("{}\n", serde_json::to_string(&Request::Shutdown).unwrap()).as_bytes(),
            )
            .unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        BufReader::new(stream).read_line(&mut line).unwrap();
        let response: Response = serde_json::from_str(&line).unwrap();
        assert!(matches!(response, Response::ShuttingDown));
    }

    fn one_worker() -> ServiceConfig {
        ServiceConfig {
            workers: 1,
            queue_cap: 1,
            ..ServiceConfig::default()
        }
    }

    #[test]
    fn start_binds_ephemeral_port() {
        let handle = Server::start("127.0.0.1:0", one_worker()).unwrap();
        let addr = handle.addr();
        assert_ne!(addr.port(), 0, "port 0 must resolve to a real port");
        shutdown_over_wire(addr);
        handle.join();
    }

    #[test]
    fn wake_targets_loopback_for_unspecified_binds() {
        for (bound, wake) in [
            ("0.0.0.0:7481", "127.0.0.1:7481"),
            ("[::]:7481", "[::1]:7481"),
            ("127.0.0.1:7481", "127.0.0.1:7481"),
            ("10.1.2.3:7481", "10.1.2.3:7481"),
            ("[::1]:7481", "[::1]:7481"),
        ] {
            assert_eq!(
                wake_addr(bound.parse().unwrap()),
                wake.parse::<SocketAddr>().unwrap(),
                "{bound}"
            );
        }
    }

    #[test]
    fn shutdown_wakes_an_idle_daemon_on_any_bind_address() {
        for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
            let handle = Server::start(bind, one_worker()).unwrap();
            let port = handle.addr().port();
            shutdown_over_wire(SocketAddr::from((Ipv4Addr::LOCALHOST, port)));
            // Join under a watchdog: a lost wake leaves the accept loop
            // blocked, which must fail this test rather than hang it.
            let (done_tx, done_rx) = mpsc::channel();
            std::thread::spawn(move || {
                handle.join();
                let _ = done_tx.send(());
            });
            assert!(
                done_rx.recv_timeout(Duration::from_secs(5)).is_ok(),
                "{bind}: an idle daemon must stop within 5 s of Shutdown"
            );
        }
    }
}
