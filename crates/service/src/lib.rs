//! Resident simulation service for the backfilling testbed.
//!
//! Sweeping the paper's scenario grid re-pays trace generation and
//! simulation on every CLI invocation. This crate keeps a simulator
//! resident instead: the `bfsimd` daemon accepts
//! [`RunConfig`](backfill_sim::RunConfig)s as
//! JSON lines over localhost TCP, executes them on a bounded worker
//! pool, and memoizes every completed report in a content-addressed
//! cache — so any config the daemon has seen before is answered in
//! microseconds, byte-identical to the fresh run.
//!
//! The service layer is built to survive a hostile world — see
//! DESIGN.md §13. Sockets carry deadlines, oversized frames are shed
//! with structured errors, a full queue answers `Busy` instead of
//! blocking, workers survive panics, the cache can journal to disk and
//! replay after a crash, and a deterministic [`fault`] plan can inject
//! panics / drops / corruption / latency for reproducible chaos tests.
//!
//! Crate map:
//!
//! * [`protocol`] — request/response message types (shared serde data);
//! * [`pool`] — bounded worker pool: shedding via `try_submit`,
//!   per-task panic isolation (worker-level `catch_unwind` plus
//!   `backfill_sim::run_cell_on`'s inner boundary);
//! * [`lru`] — the bounded LRU map under both caches;
//! * [`cache`] — result memoization keyed by canonical config JSON,
//!   optionally crash-recoverable via a cache journal;
//! * [`tracecache`] — materialized traces shared by the pool's workers;
//! * [`journal`] — the checksummed JSONL journal under the cache
//!   journal and `coord`'s sweep journal;
//! * [`fault`] — seedable deterministic fault injection plans;
//! * [`server`] — accept loop, connection handlers, hardening,
//!   graceful drain;
//! * [`client`] — blocking [`Client`] plus the deadline/retry-wrapped
//!   [`ResilientClient`] used by `bfsim submit|stats|metrics|health`.
//!
//! ```no_run
//! use service::{Client, Server, ServiceConfig};
//! use backfill_sim::{RunConfig, Scenario, SchedulerKind, TraceSource};
//! use sched::Policy;
//!
//! let handle = Server::start("127.0.0.1:0", ServiceConfig::default()).unwrap();
//! let mut client = Client::connect(handle.addr()).unwrap();
//! let config = RunConfig {
//!     scenario: Scenario::high_load(TraceSource::Ctc { jobs: 500, seed: 42 }),
//!     kind: SchedulerKind::Easy,
//!     policy: Policy::Sjf,
//! };
//! let first = client.submit(&config).unwrap(); // simulated
//! let again = client.submit(&config).unwrap(); // served from cache
//! assert!(!first.cached && again.cached);
//! client.shutdown().unwrap();
//! handle.join();
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod fault;
pub mod journal;
pub mod lru;
pub mod pool;
pub mod protocol;
pub mod server;
pub mod supervisor;
pub mod tracecache;

pub use cache::{Lookup, ResultCache};
pub use client::{Backoff, Client, ClientError, ClientOptions, ResilientClient, RetryPolicy};
pub use fault::{FaultActions, FaultInjector, FaultPlan};
pub use pool::{SubmitError, Task, TaskResult, WorkerPool};
pub use protocol::{
    Capabilities, HealthReport, JournalHealth, Request, Response, RunReply, RunReport,
    ServiceStats, TraceContext, WireSpan, PROTO_VERSION,
};
pub use server::{Server, ServerHandle, ServiceConfig};
pub use supervisor::{
    Breaker, BreakerPolicy, ChildStatus, ChildView, RestartDecision, Supervisor, SupervisorReport,
    SupervisorSpec,
};
