//! The `bfsimd` wire protocol: JSON-lines over TCP.
//!
//! Grammar: each request is one JSON object on one `\n`-terminated line;
//! the daemon answers every request line with exactly one response line,
//! in order, on the same connection. Types are plain serde data shared
//! with the rest of the workspace, so a scenario written for the CLI
//! (`RunConfig`) is submitted to the service verbatim.

use backfill_sim::{RunConfig, Schedule};
use metrics::{capacity_report, fairness, CapacityReport, FairnessReport, ScheduleStats};
use sched::ProfileStats;
use serde::{Deserialize, Serialize};
use workload::CategoryCriteria;

/// Distributed-trace context riding on a [`Request::Submit`]: the
/// coordinator's cell trace plus the span to parent daemon-side spans
/// under. Optional and ignored by pre-v3 daemons (unknown JSON fields
/// are skipped on deserialize), so old and new peers interoperate; a
/// missing field parses as `None` via the serde default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceContext {
    /// Trace id — the cell's canonical content hash, shared by every
    /// span of that cell across coordinator and shards.
    pub trace_id: u64,
    /// Span id of the submitting attempt; daemon-side spans become its
    /// children so the merged timeline is one rooted tree per cell.
    pub parent_span: u64,
}

impl TraceContext {
    /// The `obs` span context this wire form carries.
    pub fn ctx(&self) -> obs::SpanContext {
        obs::SpanContext {
            trace_id: self.trace_id,
            span_id: self.parent_span,
        }
    }
}

/// One completed span on the wire (the serde mirror of
/// [`obs::SpanRecord`], which stays serde-free like all of `obs`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireSpan {
    /// Trace this span belongs to (cell content hash).
    pub trace_id: u64,
    /// Unique span id within the trace.
    pub span_id: u64,
    /// Parent span id; 0 marks a root.
    pub parent_id: u64,
    /// Operation name, e.g. `"pool.run"`.
    pub name: String,
    /// Start, microseconds on the emitting process's monotonic clock.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
}

impl From<obs::SpanRecord> for WireSpan {
    fn from(r: obs::SpanRecord) -> Self {
        WireSpan {
            trace_id: r.trace_id,
            span_id: r.span_id,
            parent_id: r.parent_id,
            name: r.name,
            start_us: r.start_us,
            dur_us: r.dur_us,
        }
    }
}

impl From<WireSpan> for obs::SpanRecord {
    fn from(w: WireSpan) -> Self {
        obs::SpanRecord {
            trace_id: w.trace_id,
            span_id: w.span_id,
            parent_id: w.parent_id,
            name: w.name,
            start_us: w.start_us,
            dur_us: w.dur_us,
        }
    }
}

/// A client request: one per line.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Request {
    /// Simulate one scenario (or fetch its memoized report).
    Submit {
        /// The full run configuration; also the cache key (canonicalized).
        config: RunConfig,
        /// Optional distributed-trace context. When present the daemon
        /// records its serving spans (queue wait, run, cache hit/miss)
        /// as children of `parent_span`, harvestable via
        /// [`Request::Spans`]. Absent on pre-v3 clients; ignored by
        /// pre-v3 daemons. Never part of the cache key.
        #[serde(default)]
        trace: Option<TraceContext>,
    },
    /// Introspect the daemon: queue depth, in-flight, cache, wall times.
    Stats,
    /// Fetch the daemon's full metrics registry as one canonical-JSON
    /// document (scheduler, profile-index, queue, pool, and cache
    /// metrics under their dotted names — see DESIGN.md §12).
    Metrics,
    /// Probe liveness and readiness: answered with
    /// [`Response::Health`] even while draining, so an operator can
    /// always tell a slow daemon from a dead one.
    Health,
    /// Handshake: report the daemon's sizing and protocol revision so a
    /// sweep coordinator can size its per-shard in-flight windows
    /// before dispatching any work. Answered with
    /// [`Response::Capabilities`].
    Capabilities,
    /// Drain and return every span the daemon buffered since the last
    /// `Spans` request (submit handling, pool wait/run, cache hits and
    /// misses, simulator phases). Answered with [`Response::Spans`].
    /// Draining is destructive — the coordinator collects once per
    /// sweep — and spans are only buffered while traced submits arrive.
    Spans,
    /// Stop accepting new `Submit`s but **stay alive**: in-flight work
    /// completes, and `Stats`/`Metrics`/`Health`/`Capabilities` keep
    /// answering so a coordinator can still harvest the shard's final
    /// counters. Unlike [`Request::Shutdown`] the daemon does not exit.
    /// Acknowledged with [`Response::Draining`]; refused submits answer
    /// [`Response::ShuttingDown`], which resilient clients already
    /// treat as "send this work elsewhere".
    Drain,
    /// Begin graceful shutdown: stop taking new work, drain in-flight
    /// requests, then exit.
    Shutdown,
}

/// The daemon's answer: one per request line, in order.
// Run carries the full ~1 KB report by value: a Response exists only to
// be serialized onto the wire immediately, so the size gap between Run
// and ShuttingDown never sits in memory long enough to matter.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Response {
    /// A completed (or cache-served) simulation.
    Run(RunReply),
    /// The daemon's current counters.
    Stats(ServiceStats),
    /// The daemon's metrics registry snapshot, answering
    /// [`Request::Metrics`].
    Metrics {
        /// Canonical JSON: sorted keys, integer values, no whitespace —
        /// byte-identical for identical registry states.
        json: String,
    },
    /// The daemon's readiness probe, answering [`Request::Health`].
    Health(HealthReport),
    /// The daemon's sizing handshake, answering
    /// [`Request::Capabilities`].
    Capabilities(Capabilities),
    /// The daemon's buffered spans, answering [`Request::Spans`].
    Spans {
        /// Every span drained from the daemon's buffers, oldest first.
        spans: Vec<WireSpan>,
    },
    /// Acknowledges [`Request::Drain`]: the daemon refuses new submits
    /// from here on but stays alive for introspection verbs.
    Draining,
    /// The bounded work queue is full and the daemon shed this request
    /// rather than block the connection. The submission had **no
    /// effect** (nothing queued, nothing cached): resubmitting the same
    /// config later is safe and idempotent, which is what lets clients
    /// retry `Busy` with backoff.
    Busy,
    /// The request failed; the daemon itself is still healthy. Carries
    /// the offending config's canonical hash when the failure was a
    /// simulation panic (fault isolation), zero for malformed requests.
    Error {
        /// Human-readable cause.
        message: String,
        /// Content hash of the config at fault, 0 if not applicable.
        config_hash: u64,
        /// True when retrying the identical request may succeed (e.g. a
        /// crashed worker); false for deterministic failures (a
        /// poisoned scenario, a malformed or oversized request).
        /// Defaults to false so pre-fault-layer daemons parse as
        /// non-retryable.
        #[serde(default)]
        retryable: bool,
    },
    /// The daemon is draining and takes no new work (also the
    /// acknowledgement of [`Request::Shutdown`] itself).
    ShuttingDown,
}

/// Liveness/readiness snapshot, answering [`Request::Health`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HealthReport {
    /// True when the daemon accepts new submissions (not draining).
    pub ready: bool,
    /// True once graceful shutdown has begun.
    pub draining: bool,
    /// Configured worker-thread count.
    pub workers: u64,
    /// Configured bounded-queue capacity.
    pub queue_cap: u64,
    /// Tasks waiting in the queue right now.
    pub queue_depth: u64,
    /// Tasks being simulated right now.
    pub in_flight: u64,
    /// Submissions shed with [`Response::Busy`] so far.
    pub shed: u64,
    /// Worker panics outside the simulation boundary so far (injected
    /// faults and pool-path bugs).
    pub worker_panics: u64,
    /// Entries currently memoized in the result cache.
    pub cache_entries: u64,
    /// Cache-journal state, when a journal is configured.
    #[serde(default)]
    pub journal: Option<JournalHealth>,
    /// The active fault plan's spec string, when fault injection is on.
    /// `None` in normal operation.
    #[serde(default)]
    pub fault_plan: Option<String>,
}

/// Cache-journal state inside a [`HealthReport`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct JournalHealth {
    /// Journal file path.
    pub path: String,
    /// Entries replayed into the cache at startup.
    pub replayed: u64,
    /// Entries appended since startup.
    pub appended: u64,
    /// True when startup replay found and truncated a torn tail.
    pub truncated: bool,
    /// Torn-tail bytes dropped by the startup truncation (0 for a clean
    /// file). Defaults so pre-coordinator health reports still parse.
    #[serde(default)]
    pub dropped_bytes: u64,
}

/// The daemon's sizing handshake, answering [`Request::Capabilities`].
///
/// A sweep coordinator uses this to size its bounded in-flight window
/// per shard (one outstanding submit per daemon worker keeps the pool
/// busy without tripping `Busy` shedding) and to refuse incompatible
/// daemons up front instead of mid-sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Capabilities {
    /// Protocol revision this daemon speaks. Bumped when a verb is
    /// added or changes meaning; coordinators require at least the
    /// revision they were built against.
    pub proto: u32,
    /// Simulation worker threads (the natural in-flight window).
    pub workers: u64,
    /// Bounded work-queue capacity (submits past `workers + queue_cap`
    /// would be shed with `Busy`).
    pub queue_cap: u64,
    /// Largest accepted request frame in bytes.
    pub max_frame: u64,
    /// Entries currently memoized in the result cache.
    pub cache_entries: u64,
    /// True when the cache is journaled (survives a crash).
    pub journaled: bool,
    /// True when the daemon refuses new submits (draining or drained).
    pub draining: bool,
}

/// The protocol revision this build speaks (see [`Capabilities::proto`]).
/// v3 added span tracing: the optional `trace` field on `Submit` and the
/// `Spans` verb. v4 dropped the Prometheus-text metrics verb: clients
/// render the `Metrics` document as Prometheus text themselves.
pub const PROTO_VERSION: u32 = 4;

/// A successful submit: the report plus cache provenance.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunReply {
    /// Stable content hash of the canonical config (the cache label).
    pub config_hash: u64,
    /// True when the report was served from the result cache. The
    /// `report` payload is byte-identical either way — only this marker
    /// (and `wall_ms`) distinguish a hit from a fresh run.
    pub cached: bool,
    /// Wall time the daemon spent serving this request, in milliseconds
    /// (queue wait + simulation for a miss; lookup only for a hit).
    pub wall_ms: u64,
    /// The simulation report.
    pub report: RunReport,
}

/// Everything the service reports about one completed run. A pure
/// function of the schedule, so a report computed daemon-side equals one
/// computed by the caller from a direct `run_all` — asserted by the
/// service integration tests.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunReport {
    /// Config label, e.g. `"CTC EASY/SJF"`.
    pub label: String,
    /// Machine size the schedule ran on.
    pub nodes: u32,
    /// Number of jobs simulated.
    pub jobs: usize,
    /// Schedule fingerprint (FNV over job start assignments) — two runs
    /// are behaviourally identical iff these match.
    pub fingerprint: u64,
    /// The paper's aggregate statistics (overall + per category/quality).
    pub stats: ScheduleStats,
    /// Fairness summary (slowdown Gini, max-stretch, overtake rate).
    pub fairness: FairnessReport,
    /// Capacity breakdown (utilized / blameless idle / loss of capacity).
    pub capacity: CapacityReport,
    /// Availability-profile operation counters, if the scheduler keeps a
    /// profile.
    pub profile: Option<ProfileStats>,
    /// Discrete events the driver delivered over the run.
    pub events: u64,
}

impl RunReport {
    /// Build the report for one completed schedule. Deterministic: equal
    /// `(config, schedule)` pairs produce byte-identical serialized
    /// reports.
    pub fn from_schedule(config: &RunConfig, schedule: &Schedule) -> Self {
        RunReport {
            label: config.label(),
            nodes: schedule.nodes,
            jobs: schedule.outcomes.len(),
            fingerprint: schedule.fingerprint(),
            stats: schedule.stats(&CategoryCriteria::default()),
            fairness: fairness(&schedule.outcomes),
            capacity: capacity_report(&schedule.outcomes, schedule.nodes),
            profile: schedule.profile_stats,
            events: schedule.events,
        }
    }
}

/// Daemon introspection counters, returned by [`Request::Stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ServiceStats {
    /// Submit requests accepted so far (hits + misses + failures).
    pub submitted: u64,
    /// Submit requests answered with a report.
    pub completed: u64,
    /// Submit requests that failed inside the simulation (isolated
    /// panics) or were malformed.
    pub failed: u64,
    /// Submit requests refused because the daemon was draining.
    pub rejected: u64,
    /// Submit requests shed with [`Response::Busy`] because the bounded
    /// queue was full. Defaults so pre-fault-layer stats still parse.
    #[serde(default)]
    pub shed: u64,
    /// Worker panics outside the simulation boundary (injected faults
    /// and pool-path bugs); each one failed its request.
    #[serde(default)]
    pub worker_panics: u64,
    /// Result-cache hits.
    pub cache_hits: u64,
    /// Result-cache misses.
    pub cache_misses: u64,
    /// Entries currently memoized.
    pub cache_entries: u64,
    /// Entries evicted to stay under the configured cache cap (LRU).
    pub cache_evictions: u64,
    /// Tasks waiting in the bounded work queue right now.
    pub queue_depth: u64,
    /// Tasks being simulated by workers right now.
    pub in_flight: u64,
    /// True once graceful shutdown has begun.
    pub draining: bool,
    /// Total wall milliseconds across all timed submit requests.
    pub wall_ms_total: u64,
    /// Largest single-request wall time in milliseconds.
    pub wall_ms_max: u64,
}

impl ServiceStats {
    /// Mean per-request wall time in milliseconds (0 when nothing ran).
    pub fn wall_ms_mean(&self) -> f64 {
        let timed = self.completed + self.failed;
        if timed == 0 {
            0.0
        } else {
            self.wall_ms_total as f64 / timed as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backfill_sim::{Scenario, SchedulerKind, TraceSource};
    use sched::Policy;

    fn config() -> RunConfig {
        RunConfig {
            scenario: Scenario::high_load(TraceSource::Ctc { jobs: 80, seed: 3 }),
            kind: SchedulerKind::Easy,
            policy: Policy::Sjf,
        }
    }

    #[test]
    fn requests_round_trip() {
        for req in [
            Request::Submit {
                config: config(),
                trace: None,
            },
            Request::Submit {
                config: config(),
                trace: Some(TraceContext {
                    trace_id: 0xFEED,
                    parent_span: 0xBEEF,
                }),
            },
            Request::Stats,
            Request::Metrics,
            Request::Health,
            Request::Capabilities,
            Request::Spans,
            Request::Drain,
            Request::Shutdown,
        ] {
            let line = serde_json::to_string(&req).unwrap();
            assert!(!line.contains('\n'), "requests must fit one line");
            let back: Request = serde_json::from_str(&line).unwrap();
            assert_eq!(
                serde_json::to_string(&back).unwrap(),
                line,
                "round-trip changed the encoding"
            );
        }
    }

    #[test]
    fn responses_round_trip() {
        let cfg = config();
        let schedule = cfg.run();
        let reply = Response::Run(RunReply {
            config_hash: cfg.content_hash(),
            cached: false,
            wall_ms: 12,
            report: RunReport::from_schedule(&cfg, &schedule),
        });
        for resp in [
            reply,
            Response::Stats(ServiceStats::default()),
            Response::Metrics {
                json: r#"{"counters":{"service.submitted":1}}"#.into(),
            },
            Response::Health(HealthReport {
                ready: true,
                workers: 4,
                queue_cap: 8,
                journal: Some(JournalHealth {
                    path: "/tmp/j.jsonl".into(),
                    replayed: 3,
                    appended: 1,
                    truncated: true,
                    dropped_bytes: 117,
                }),
                fault_plan: Some("seed=7;panic@3".into()),
                ..HealthReport::default()
            }),
            Response::Capabilities(Capabilities {
                proto: PROTO_VERSION,
                workers: 4,
                queue_cap: 8,
                max_frame: 1 << 20,
                cache_entries: 12,
                journaled: true,
                draining: false,
            }),
            Response::Spans {
                spans: vec![WireSpan {
                    trace_id: 7,
                    span_id: 9,
                    parent_id: 7,
                    name: "pool.run".into(),
                    start_us: 120,
                    dur_us: 35,
                }],
            },
            Response::Draining,
            Response::Busy,
            Response::Error {
                message: "boom".into(),
                config_hash: 7,
                retryable: true,
            },
            Response::ShuttingDown,
        ] {
            let line = serde_json::to_string(&resp).unwrap();
            assert!(!line.contains('\n'));
            let back: Response = serde_json::from_str(&line).unwrap();
            assert_eq!(serde_json::to_string(&back).unwrap(), line);
        }
    }

    #[test]
    fn pre_fault_layer_encodings_still_parse() {
        // Older daemons/reports omit the fields this layer added; serde
        // defaults must fill them in rather than reject the document.
        let err: Response =
            serde_json::from_str(r#"{"Error":{"message":"boom","config_hash":7}}"#).unwrap();
        match err {
            Response::Error { retryable, .. } => assert!(!retryable, "default is non-retryable"),
            other => panic!("parsed as {other:?}"),
        }
        let stats: ServiceStats = serde_json::from_str(
            r#"{"submitted":4,"completed":4,"failed":0,"rejected":0,"cache_hits":0,"cache_misses":4,"cache_entries":4,"cache_evictions":0,"queue_depth":0,"in_flight":0,"draining":false,"wall_ms_total":9,"wall_ms_max":5}"#,
        )
        .unwrap();
        assert_eq!((stats.shed, stats.worker_panics), (0, 0));
        assert_eq!(stats.submitted, 4);
        // Pre-coordinator journal health (no dropped_bytes) still parses.
        let journal: JournalHealth = serde_json::from_str(
            r#"{"path":"/tmp/j.jsonl","replayed":3,"appended":1,"truncated":true}"#,
        )
        .unwrap();
        assert_eq!(journal.dropped_bytes, 0, "default fills the new field");
    }

    #[test]
    fn submit_trace_context_is_cross_revision_compatible() {
        // A pre-v3 client's Submit has no `trace` field: the serde
        // default must fill in `None`, not reject the frame.
        let cfg = serde_json::to_string(&config()).unwrap();
        let old_line = format!(r#"{{"Submit":{{"config":{cfg}}}}}"#);
        let parsed: Request = serde_json::from_str(&old_line).unwrap();
        match parsed {
            Request::Submit { config: c, trace } => {
                assert_eq!(c, config());
                assert_eq!(trace, None, "missing field defaults to None");
            }
            other => panic!("parsed as {other:?}"),
        }

        // Conversely a pre-v3 *daemon* sees the new field as an unknown
        // key and must skip it — modelled here by a Submit carrying an
        // extra field this build has never heard of. This is the exact
        // mechanism that lets an old daemon round-trip a traced Submit.
        let future = format!(
            r#"{{"Submit":{{"config":{cfg},"trace":{{"trace_id":7,"parent_span":9}},"hologram":42}}}}"#
        );
        let parsed: Request = serde_json::from_str(&future).unwrap();
        match parsed {
            Request::Submit { config: c, trace } => {
                assert_eq!(c, config());
                assert_eq!(
                    trace,
                    Some(TraceContext {
                        trace_id: 7,
                        parent_span: 9
                    })
                );
            }
            other => panic!("parsed as {other:?}"),
        }
    }

    #[test]
    fn wire_span_round_trips_through_obs() {
        let rec = obs::SpanRecord {
            trace_id: 3,
            span_id: 5,
            parent_id: 3,
            name: "client.attempt".into(),
            start_us: 99,
            dur_us: 12,
        };
        let wire: WireSpan = rec.clone().into();
        let back: obs::SpanRecord = wire.into();
        assert_eq!(back, rec);
    }

    #[test]
    fn report_is_deterministic() {
        let cfg = config();
        let a = RunReport::from_schedule(&cfg, &cfg.run());
        let b = RunReport::from_schedule(&cfg, &cfg.run());
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "equal runs must serialize byte-identically"
        );
    }

    #[test]
    fn wall_time_mean() {
        let stats = ServiceStats {
            completed: 3,
            failed: 1,
            wall_ms_total: 100,
            ..Default::default()
        };
        assert!((stats.wall_ms_mean() - 25.0).abs() < 1e-12);
        assert_eq!(ServiceStats::default().wall_ms_mean(), 0.0);
    }
}
