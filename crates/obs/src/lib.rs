//! Unified observability for the backfill simulator: structured logging,
//! a metrics registry, and an opt-in decision-trace recorder.
//!
//! The crate is deliberately dependency-free (std only) so it can sit at
//! the bottom of the workspace graph — `sched`, `core`, `service`, and
//! the binaries all layer on top of it without cycles, and the vendored
//! stand-in crates are not pulled into the hot path. Four facilities:
//!
//! * [`log`] — leveled, targeted records behind [`error!`]..[`trace!`]
//!   macros, filtered by a `BFSIM_LOG`-style directive string, emitted as
//!   text or JSON lines. The global handle is an atomic level gate plus a
//!   `OnceLock`, so a disabled level costs one relaxed load and no
//!   formatting. [`cli`] is the binaries' flag parser, which installs it.
//! * [`metrics`] — named counters, gauges, and log-scale histograms with
//!   atomic hot-path increments, registered in a process-global (or
//!   per-component) [`metrics::Registry`] and snapshot-able as one
//!   canonical-JSON document (sorted keys, integers only).
//! * [`span`] — distributed span tracing (trace/span/parent ids on a
//!   monotonic clock, bounded per-thread buffers) plus the simulator's
//!   per-phase self-profiling accumulator; drained spans merge across
//!   processes into one Chrome-trace timeline per cell.
//! * [`mod@trace`] — typed scheduler decisions (`Arrive`, `Reserve`,
//!   `Backfill`, `Start`, `Complete`, `Compress`, `Preempt`) tagged with
//!   job id and paper category, streamed to a `Write` sink as JSONL and
//!   re-parseable for offline analysis.
//!
//! Everything here is **decision-neutral**: recording observes the
//! simulation, it never feeds back into it. The core test suite asserts
//! schedule fingerprints are byte-identical with observability fully on
//! and fully off.

#![warn(missing_docs)]

pub mod cli;
pub mod log;
pub mod metrics;
pub mod span;
pub mod trace;

pub(crate) mod json;

pub use log::Level;
pub use metrics::{
    merge_snapshots, render_prometheus, render_snapshot, Counter, Gauge, Histogram,
    HistogramSnapshot, LocalHistogram, Registry, SnapshotValue,
};
pub use span::{
    render_chrome_trace, validate_forest, ForestSummary, Phase, PhaseAcc, SharedPhases, Span,
    SpanContext, SpanRecord, SpanSource,
};
pub use trace::{Recorder, SharedRecorder, TraceCategory, TraceEvent, TraceKind};
