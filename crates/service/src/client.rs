//! Blocking clients for the `bfsimd` daemon.
//!
//! [`Client`] owns one TCP connection and speaks the JSON-lines
//! protocol synchronously: each call writes one request line, flushes,
//! and reads exactly one response line. Concurrency comes from opening
//! one client per thread — the daemon serves connections independently.
//!
//! [`ResilientClient`] wraps that with the fault-tolerance contract:
//! per-request deadlines (socket + connect timeouts), bounded retries
//! with exponential backoff and decorrelated jitter, and automatic
//! reconnection after transport failures. Retrying is safe because
//! submission is **idempotent**: the daemon keys work by the canonical
//! config JSON, so a resubmitted scenario is served from cache (or
//! deduplicated into the same deterministic result) and never
//! double-counted in the merged report.
//!
//! # Error taxonomy
//!
//! [`ClientError`] distinguishes every failure mode a caller might
//! handle differently: `Timeout` (deadline elapsed), `Io` (refused /
//! reset / EOF), `Busy` (daemon shed the request), `CorruptFrame`
//! (undecodable response), `Service` (the daemon reported a failure,
//! retryable or not), `Protocol` (impossible answer), `ShuttingDown`,
//! and `Exhausted` (the retry budget ran out — wrapping the terminal
//! error).

use crate::protocol::{
    Capabilities, HealthReport, Request, Response, RunReply, ServiceStats, TraceContext, WireSpan,
};
use backfill_sim::RunConfig;
use simcore::SplitMix64;
use std::fmt;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The connection broke (or never opened): refused, reset, EOF.
    Io(io::Error),
    /// A deadline elapsed: connect, read, or write took longer than the
    /// configured per-request timeout.
    Timeout(io::Error),
    /// The daemon shed the request because its work queue is full.
    /// Nothing was queued; resubmitting later is safe.
    Busy,
    /// The response frame did not decode as a protocol `Response` — a
    /// corrupted or truncated frame. The line (truncated) is carried
    /// for diagnostics.
    CorruptFrame(String),
    /// The daemon answered something the protocol does not allow here
    /// (e.g. a `Stats` payload for a `Submit`).
    Protocol(String),
    /// The daemon reported a request-level failure; the daemon itself
    /// is still healthy.
    Service {
        /// The daemon's error message.
        message: String,
        /// Content hash of the config at fault, 0 if not applicable.
        config_hash: u64,
        /// Whether the daemon judged a retry worthwhile (e.g. a crashed
        /// worker) as opposed to deterministic (a poisoned scenario).
        retryable: bool,
    },
    /// The daemon is draining and refused new work.
    ShuttingDown,
    /// The retry budget ran out; `last` is the terminal error.
    Exhausted {
        /// Total attempts made (initial try + retries).
        attempts: u32,
        /// The error the final attempt failed with.
        last: Box<ClientError>,
    },
}

impl ClientError {
    /// Could retrying the identical request plausibly succeed?
    pub fn is_retryable(&self) -> bool {
        match self {
            ClientError::Io(_)
            | ClientError::Timeout(_)
            | ClientError::Busy
            | ClientError::CorruptFrame(_) => true,
            ClientError::Service { retryable, .. } => *retryable,
            ClientError::Protocol(_)
            | ClientError::ShuttingDown
            | ClientError::Exhausted { .. } => false,
        }
    }

    /// Did the transport itself fail (so the connection must be
    /// re-established before the next attempt)?
    pub fn is_transport(&self) -> bool {
        matches!(self, ClientError::Io(_) | ClientError::Timeout(_))
    }
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Timeout(e) => write!(f, "deadline elapsed: {e}"),
            ClientError::Busy => write!(f, "daemon is overloaded (busy); retry with backoff"),
            ClientError::CorruptFrame(line) => {
                write!(f, "undecodable response frame: {line:?}")
            }
            ClientError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            ClientError::Service {
                message,
                config_hash,
                retryable,
            } => write!(
                f,
                "service error (config {config_hash:#018x}, {}): {message}",
                if *retryable { "retryable" } else { "permanent" }
            ),
            ClientError::ShuttingDown => write!(f, "daemon is shutting down"),
            ClientError::Exhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts: {last}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        // Both kinds appear for elapsed socket deadlines, depending on
        // platform; either way the caller's budget, not the transport,
        // is what gave out.
        if matches!(
            e.kind(),
            io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
        ) {
            ClientError::Timeout(e)
        } else {
            ClientError::Io(e)
        }
    }
}

/// Retry budget and backoff shape for a [`ResilientClient`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the initial attempt (so `max_retries + 1` attempts
    /// total). 0 disables retrying.
    pub max_retries: u32,
    /// First delay and the lower bound of every jittered delay.
    pub base: Duration,
    /// Upper bound on any single delay.
    pub cap: Duration,
    /// Seeds the jitter, making the whole delay schedule deterministic
    /// — tests pin exact schedules, production varies the seed.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 4,
            base: Duration::from_millis(25),
            cap: Duration::from_secs(2),
            seed: 0,
        }
    }
}

/// Deterministic decorrelated-jitter backoff (AWS style): each delay is
/// drawn from `[base, min(cap, 3 * previous))`, so consecutive delays
/// grow roughly exponentially while never synchronizing across clients
/// with different seeds.
#[derive(Debug)]
pub struct Backoff {
    rng: SplitMix64,
    base_ms: u64,
    cap_ms: u64,
    prev_ms: u64,
}

impl Backoff {
    /// Start a fresh schedule for one logical request.
    pub fn new(policy: &RetryPolicy) -> Self {
        let base_ms = policy.base.as_millis().max(1) as u64;
        Backoff {
            rng: SplitMix64::new(policy.seed),
            base_ms,
            cap_ms: (policy.cap.as_millis() as u64).max(base_ms),
            prev_ms: base_ms,
        }
    }

    /// The next delay to sleep before retrying. Pure function of the
    /// seed and call count: equal `(seed, n)` always answer the same
    /// delay, which is what makes chaos tests reproducible.
    pub fn next_delay(&mut self) -> Duration {
        let span = (self.prev_ms.saturating_mul(3))
            .saturating_sub(self.base_ms)
            .max(1);
        let ms = (self.base_ms + self.rng.next_u64() % span).min(self.cap_ms);
        self.prev_ms = ms.max(1);
        Duration::from_millis(ms)
    }
}

/// A connection to a running `bfsimd`. No deadlines, no retries — the
/// raw protocol; wrap in [`ResilientClient`] for the hardened path.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connect to a daemon with no deadlines (blocks indefinitely).
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Self, ClientError> {
        Self::connect_with(addr, None)
    }

    /// Connect with an optional deadline governing the connect itself
    /// and every subsequent socket read/write.
    pub fn connect_with<A: ToSocketAddrs>(
        addr: A,
        deadline: Option<Duration>,
    ) -> Result<Self, ClientError> {
        let stream = match deadline {
            None => TcpStream::connect(addr)?,
            Some(limit) => {
                let mut last: Option<io::Error> = None;
                let mut connected = None;
                for candidate in addr.to_socket_addrs()? {
                    match TcpStream::connect_timeout(&candidate, limit) {
                        Ok(stream) => {
                            connected = Some(stream);
                            break;
                        }
                        Err(e) => last = Some(e),
                    }
                }
                match connected {
                    Some(stream) => stream,
                    None => {
                        return Err(last
                            .unwrap_or_else(|| {
                                io::Error::new(
                                    io::ErrorKind::InvalidInput,
                                    "address resolved to nothing",
                                )
                            })
                            .into())
                    }
                }
            }
        };
        stream.set_nodelay(true)?;
        stream.set_read_timeout(deadline)?;
        stream.set_write_timeout(deadline)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Send one request line and read the matching response line.
    pub fn request(&mut self, request: &Request) -> Result<Response, ClientError> {
        let mut line = serde_json::to_string(request)
            .map_err(|e| ClientError::Protocol(format!("unserializable request: {e}")))?;
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()?;
        let mut answer = String::new();
        let n = self.reader.read_line(&mut answer)?;
        if n == 0 {
            return Err(ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection before answering",
            )));
        }
        let trimmed = answer.trim_end();
        serde_json::from_str(trimmed).map_err(|_| {
            // The stream is still line-synced (one frame per line), so
            // a retry on this same connection is well-defined.
            let mut snippet = trimmed.chars().take(80).collect::<String>();
            if trimmed.chars().count() > 80 {
                snippet.push('…');
            }
            ClientError::CorruptFrame(snippet)
        })
    }

    /// Simulate one scenario (or fetch its memoized report).
    pub fn submit(&mut self, config: &RunConfig) -> Result<RunReply, ClientError> {
        self.submit_traced(config, None)
    }

    /// Simulate one scenario, propagating an optional span context so
    /// the daemon's cache/pool/phase spans parent into the caller's
    /// trace. A `None` context is wire-identical to [`Self::submit`].
    pub fn submit_traced(
        &mut self,
        config: &RunConfig,
        trace: Option<TraceContext>,
    ) -> Result<RunReply, ClientError> {
        match self.request(&Request::Submit {
            config: *config,
            trace,
        })? {
            Response::Run(reply) => Ok(reply),
            Response::Busy => Err(ClientError::Busy),
            Response::Error {
                message,
                config_hash,
                retryable,
            } => Err(ClientError::Service {
                message,
                config_hash,
                retryable,
            }),
            Response::ShuttingDown => Err(ClientError::ShuttingDown),
            other => Err(ClientError::Protocol(format!(
                "submit answered with {other:?}"
            ))),
        }
    }

    /// Fetch the daemon's counters.
    pub fn stats(&mut self) -> Result<ServiceStats, ClientError> {
        match self.request(&Request::Stats)? {
            Response::Stats(stats) => Ok(stats),
            other => Err(ClientError::Protocol(format!(
                "stats answered with {other:?}"
            ))),
        }
    }

    /// Fetch the daemon's metrics registry as one canonical-JSON
    /// document (see DESIGN.md §12 for the metric name space).
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        match self.request(&Request::Metrics)? {
            Response::Metrics { json } => Ok(json),
            other => Err(ClientError::Protocol(format!(
                "metrics answered with {other:?}"
            ))),
        }
    }

    /// Drain the daemon's buffered span records (each drain hands over
    /// everything recorded since the previous drain).
    pub fn spans(&mut self) -> Result<Vec<WireSpan>, ClientError> {
        match self.request(&Request::Spans)? {
            Response::Spans { spans } => Ok(spans),
            other => Err(ClientError::Protocol(format!(
                "spans answered with {other:?}"
            ))),
        }
    }

    /// Probe the daemon's liveness and readiness.
    pub fn health(&mut self) -> Result<HealthReport, ClientError> {
        match self.request(&Request::Health)? {
            Response::Health(report) => Ok(report),
            other => Err(ClientError::Protocol(format!(
                "health answered with {other:?}"
            ))),
        }
    }

    /// Fetch the daemon's sizing handshake (protocol revision, worker
    /// count, queue capacity) — what a sweep coordinator sizes its
    /// in-flight windows from.
    pub fn capabilities(&mut self) -> Result<Capabilities, ClientError> {
        match self.request(&Request::Capabilities)? {
            Response::Capabilities(caps) => Ok(caps),
            Response::Error {
                message,
                config_hash,
                retryable,
            } => Err(ClientError::Service {
                message,
                config_hash,
                retryable,
            }),
            other => Err(ClientError::Protocol(format!(
                "capabilities answered with {other:?}"
            ))),
        }
    }

    /// Ask the daemon to stop accepting new submits while staying alive
    /// (in-flight work completes; introspection verbs keep answering).
    pub fn drain(&mut self) -> Result<(), ClientError> {
        match self.request(&Request::Drain)? {
            Response::Draining => Ok(()),
            other => Err(ClientError::Protocol(format!(
                "drain answered with {other:?}"
            ))),
        }
    }

    /// Ask the daemon to drain and stop. The acknowledgement comes back
    /// before the drain completes; pair with `ServerHandle::join` (in
    /// process) or wait for the port to close.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.request(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(ClientError::Protocol(format!(
                "shutdown answered with {other:?}"
            ))),
        }
    }
}

/// Deadline + retry options for a [`ResilientClient`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientOptions {
    /// Per-request deadline applied to connect and every socket
    /// read/write. `None` waits indefinitely (retries still apply to
    /// non-timeout failures).
    pub deadline: Option<Duration>,
    /// Retry budget and backoff shape.
    pub retry: RetryPolicy,
}

impl Default for ClientOptions {
    fn default() -> Self {
        ClientOptions {
            deadline: Some(Duration::from_secs(30)),
            retry: RetryPolicy::default(),
        }
    }
}

/// A self-healing client: deadlines on every attempt, reconnection
/// after transport failures, bounded seeded-jitter retries on every
/// retryable error. One instance owns at most one connection at a time;
/// use one per thread, like [`Client`].
pub struct ResilientClient {
    addr: String,
    opts: ClientOptions,
    conn: Option<Client>,
}

impl ResilientClient {
    /// Create a client for `addr` (connections open lazily, so this
    /// never blocks and never fails).
    pub fn new(addr: impl Into<String>, opts: ClientOptions) -> Self {
        ResilientClient {
            addr: addr.into(),
            opts,
            conn: None,
        }
    }

    /// The configured options (mainly for diagnostics).
    pub fn options(&self) -> &ClientOptions {
        &self.opts
    }

    fn connection(&mut self) -> Result<&mut Client, ClientError> {
        if self.conn.is_none() {
            self.conn = Some(Client::connect_with(
                self.addr.as_str(),
                self.opts.deadline,
            )?);
        }
        Ok(self.conn.as_mut().expect("connection just established"))
    }

    /// Run `op` with retries: transport failures drop the connection
    /// (the next attempt reconnects), retryable failures back off and
    /// try again, non-retryable failures return immediately, and an
    /// exhausted budget returns [`ClientError::Exhausted`] wrapping the
    /// terminal error.
    fn with_retry<T>(
        &mut self,
        what: &str,
        op: impl FnMut(&mut Client) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        self.with_retry_ctx(what, None, op)
    }

    /// [`Self::with_retry`], recording a `client.attempt` span around
    /// every attempt and a `client.backoff` span around every sleep when
    /// a span context is given — so retries and backoff stalls show up
    /// in the merged timeline instead of as unexplained gaps.
    fn with_retry_ctx<T>(
        &mut self,
        what: &str,
        ctx: Option<obs::SpanContext>,
        mut op: impl FnMut(&mut Client) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let mut backoff = Backoff::new(&self.opts.retry);
        let mut attempt: u32 = 0;
        loop {
            let attempt_span = ctx.map(|c| obs::Span::child(c, "client.attempt"));
            let result = match self.connection() {
                Ok(client) => op(client),
                Err(e) => Err(e),
            };
            drop(attempt_span);
            let err = match result {
                Ok(value) => return Ok(value),
                Err(err) => err,
            };
            if err.is_transport() {
                // The stream's state is unknown; never reuse it.
                self.conn = None;
            }
            if !err.is_retryable() {
                return Err(err);
            }
            if attempt >= self.opts.retry.max_retries {
                return Err(ClientError::Exhausted {
                    attempts: attempt + 1,
                    last: Box::new(err),
                });
            }
            attempt += 1;
            let delay = backoff.next_delay();
            obs::metrics::global().counter("client.retries").inc();
            obs::warn!(
                target: "service::client",
                "{what} attempt {attempt} failed ({err}); retrying in {} ms",
                delay.as_millis()
            );
            let backoff_span = ctx.map(|c| obs::Span::child(c, "client.backoff"));
            std::thread::sleep(delay);
            drop(backoff_span);
        }
    }

    /// Simulate one scenario, retrying per policy. Idempotent: the
    /// daemon dedupes by canonical config, so a response lost in
    /// transit is recomputed (or cache-served) on retry, never
    /// double-counted.
    pub fn submit(&mut self, config: &RunConfig) -> Result<RunReply, ClientError> {
        self.with_retry("submit", |client| client.submit(config))
    }

    /// [`Self::submit`] with span propagation: attempts and backoff
    /// sleeps are recorded as children of `trace`'s parent span, and the
    /// context rides the wire so daemon-side spans join the same trace.
    pub fn submit_traced(
        &mut self,
        config: &RunConfig,
        trace: Option<TraceContext>,
    ) -> Result<RunReply, ClientError> {
        let ctx = trace.map(|t| t.ctx());
        self.with_retry_ctx("submit", ctx, |client| client.submit_traced(config, trace))
    }

    /// Fetch the daemon's counters, retrying per policy.
    pub fn stats(&mut self) -> Result<ServiceStats, ClientError> {
        self.with_retry("stats", |client| client.stats())
    }

    /// Fetch the daemon's metrics snapshot, retrying per policy.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        self.with_retry("metrics", |client| client.metrics())
    }

    /// Drain the daemon's buffered spans, retrying per policy. Only the
    /// transport is retried; a drain that succeeded but whose response
    /// was lost leaves those spans consumed — callers treat span
    /// collection as best-effort.
    pub fn spans(&mut self) -> Result<Vec<WireSpan>, ClientError> {
        self.with_retry("spans", |client| client.spans())
    }

    /// Probe the daemon's health, retrying per policy.
    pub fn health(&mut self) -> Result<HealthReport, ClientError> {
        self.with_retry("health", |client| client.health())
    }

    /// Fetch the daemon's sizing handshake, retrying per policy.
    pub fn capabilities(&mut self) -> Result<Capabilities, ClientError> {
        self.with_retry("capabilities", |client| client.capabilities())
    }

    /// Ask the daemon to stop taking new submits while staying alive.
    /// Not retried, for the same reason as [`Self::shutdown`].
    pub fn drain(&mut self) -> Result<(), ClientError> {
        self.connection()?.drain()
    }

    /// Ask the daemon to drain and stop. Not retried: a lost
    /// acknowledgement is indistinguishable from a daemon that already
    /// exited, and resending to a drained daemon only produces noise.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.connection()?.shutdown()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_schedule_is_pinned_for_a_fixed_seed() {
        // The exact schedule for seed 42 with the default base/cap.
        // Pinned on purpose: any change to SplitMix64, the jitter
        // formula, or the clamping silently changes every chaos test's
        // timing — this test makes that change loud.
        let policy = RetryPolicy {
            max_retries: 8,
            base: Duration::from_millis(25),
            cap: Duration::from_secs(2),
            seed: 42,
        };
        let mut backoff = Backoff::new(&policy);
        let schedule: Vec<u64> = (0..6)
            .map(|_| backoff.next_delay().as_millis() as u64)
            .collect();
        assert_eq!(schedule, vec![38, 29, 79, 77, 135, 47]);
    }

    #[test]
    fn backoff_is_deterministic_per_seed_and_differs_across_seeds() {
        let policy = |seed| RetryPolicy {
            seed,
            ..RetryPolicy::default()
        };
        let draw = |seed: u64| -> Vec<u64> {
            let mut b = Backoff::new(&policy(seed));
            (0..8).map(|_| b.next_delay().as_millis() as u64).collect()
        };
        assert_eq!(draw(7), draw(7), "same seed must repeat exactly");
        assert_ne!(draw(7), draw(8), "different seeds must not collide");
    }

    #[test]
    fn backoff_delays_stay_within_base_and_cap() {
        let policy = RetryPolicy {
            max_retries: 0,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(500),
            seed: 123,
        };
        let mut backoff = Backoff::new(&policy);
        let mut hit_cap = false;
        for _ in 0..64 {
            let d = backoff.next_delay();
            assert!(d >= policy.base, "{d:?} under base");
            assert!(d <= policy.cap, "{d:?} over cap");
            hit_cap |= d == policy.cap;
        }
        assert!(hit_cap, "64 growing draws must reach the cap");
    }

    #[test]
    fn error_taxonomy_classifies_retryability() {
        let timeout = ClientError::Timeout(io::Error::new(io::ErrorKind::TimedOut, "t"));
        let refused = ClientError::Io(io::Error::new(io::ErrorKind::ConnectionRefused, "r"));
        assert!(timeout.is_retryable() && timeout.is_transport());
        assert!(refused.is_retryable() && refused.is_transport());
        assert!(ClientError::Busy.is_retryable());
        assert!(!ClientError::Busy.is_transport());
        assert!(ClientError::CorruptFrame("!".into()).is_retryable());
        let crashed = ClientError::Service {
            message: "worker crashed".into(),
            config_hash: 1,
            retryable: true,
        };
        let poisoned = ClientError::Service {
            message: "panic".into(),
            config_hash: 1,
            retryable: false,
        };
        assert!(crashed.is_retryable());
        assert!(!poisoned.is_retryable());
        assert!(!ClientError::Protocol("p".into()).is_retryable());
        assert!(!ClientError::ShuttingDown.is_retryable());
        assert!(!ClientError::Exhausted {
            attempts: 5,
            last: Box::new(ClientError::Busy),
        }
        .is_retryable());
    }

    #[test]
    fn io_error_conversion_separates_timeouts() {
        let timeout: ClientError = io::Error::new(io::ErrorKind::TimedOut, "t").into();
        assert!(matches!(timeout, ClientError::Timeout(_)));
        let wouldblock: ClientError = io::Error::new(io::ErrorKind::WouldBlock, "w").into();
        assert!(matches!(wouldblock, ClientError::Timeout(_)));
        let reset: ClientError = io::Error::new(io::ErrorKind::ConnectionReset, "r").into();
        assert!(matches!(reset, ClientError::Io(_)));
    }
}
