//! Distributed span tracing and per-phase self-profiling.
//!
//! A **span** is one timed operation: it carries a `trace_id` (the cell
//! it belongs to — by convention the cell's canonical content hash), its
//! own `span_id`, the `span_id` of its parent (0 for a root), a start
//! timestamp in microseconds on the process-local monotonic clock, and a
//! duration. Spans from the coordinator and every shard merge into one
//! timeline per cell: the coordinator opens the root (`span_id ==
//! trace_id`, so the wire only needs to carry `{trace_id, parent_span}`),
//! each submit attempt is a child of the root, and everything a shard
//! records for that attempt parents onto the attempt's span id. Dead
//! shards lose their own spans but never orphan the tree — the
//! coordinator-side root and attempt spans always exist.
//!
//! # Cost model
//!
//! Recording is off by default. Every entry point checks one relaxed
//! atomic load and returns immediately when disabled, so the instrumented
//! hot paths cost a branch. When enabled, finished spans go into a small
//! per-thread buffer (no locking) that flushes into a bounded global
//! vector; past the global cap spans are counted in [`dropped`] and
//! discarded rather than growing without bound. Nothing here feeds back
//! into scheduling decisions: tracing is **decision-neutral** by
//! construction, and the CI parity gate holds schedule fingerprints
//! byte-identical with tracing on and off.
//!
//! # Phases
//!
//! [`PhaseAcc`] is the in-simulation half: a plain (non-atomic)
//! per-phase histogram of nanosecond durations for the driver's event
//! phases (event pop, per-class dispatch) and the schedulers' inner
//! passes (queue ops, compress, backfill). The **top-level** phases
//! record every occurrence — their sums are exact, which is what lets a
//! run account for its own wall time — while the nested phases are
//! timed one occurrence in [`NESTED_SAMPLE`] (they are attribution
//! inside the top-level timings, so sampling them costs accuracy
//! nothing the histograms care about). Only every [`SPAN_SAMPLE`]-th
//! occurrence also emits a span, keeping span volume bounded on
//! million-event runs. Phase timers read the TSC-backed [`clock_ticks`]
//! fast clock, not `Instant` — see the cost note on that function.

use crate::metrics::{LocalHistogram, Registry};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Per-thread buffer size: flushing into the global vector happens at
/// this many finished spans (and at explicit [`flush_thread`] calls).
pub const THREAD_BUF: usize = 256;

/// Global buffer cap: spans past this are dropped (and counted), so a
/// runaway producer cannot exhaust memory.
pub const GLOBAL_CAP: usize = 65_536;

/// One in `SPAN_SAMPLE` phase occurrences also emits a span (histograms
/// still see every occurrence).
pub const SPAN_SAMPLE: u64 = 4096;

/// One in `NESTED_SAMPLE` *nested* phase occurrences is actually timed
/// (see [`PhaseAcc::tick`]). Top-level phases are never sampled — their
/// sums must tile the wall time — but the nested phases are pure
/// attribution, so sampling them keeps the per-event overhead down
/// without losing the shape of their distributions.
pub const NESTED_SAMPLE: u64 = 8;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static DROPPED: AtomicU64 = AtomicU64::new(0);
static SINK: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());

/// Turn span recording on or off process-wide. Off is the default; when
/// off every recording entry point is one relaxed load.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Release);
}

/// Is span recording on?
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The process-local monotonic anchor: all span timestamps are
/// microseconds since the first call in this process. Timestamps are
/// therefore comparable *within* a process but not across processes —
/// the timeline renderer normalizes per source.
fn anchor() -> Instant {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    *ANCHOR.get_or_init(Instant::now)
}

/// Microseconds since the process anchor.
pub fn now_micros() -> u64 {
    anchor().elapsed().as_micros() as u64
}

// ---------------------------------------------------------------------
// Fast phase clock
// ---------------------------------------------------------------------
//
// `Instant::now` goes through a vDSO call and costs ~25-35 ns; at two
// reads per simulated event that alone is ~20% of the event loop. The
// phase timers therefore read the CPU timestamp counter directly on
// x86_64 (~7 ns, invariant-rate on every CPU this project targets) and
// convert tick deltas to nanoseconds with a once-calibrated factor.
// Other architectures fall back to `Instant`, which is merely slower,
// not wrong.

/// An opaque reading of the fast phase clock. Only *differences* between
/// two readings mean anything, and only after [`ticks_to_ns`].
#[inline]
pub fn clock_ticks() -> u64 {
    #[cfg(target_arch = "x86_64")]
    unsafe {
        core::arch::x86_64::_rdtsc()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        anchor().elapsed().as_nanos() as u64
    }
}

/// Convert a [`clock_ticks`] delta to nanoseconds.
#[inline]
pub fn ticks_to_ns(dt: u64) -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        (dt as f64 * ns_per_tick()) as u64
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        dt
    }
}

/// Force the one-time TSC calibration now, so its ~2 ms measurement
/// window does not land inside the first timed region. Safe to call any
/// number of times; a no-op on non-x86_64.
pub fn calibrate_clock() {
    #[cfg(target_arch = "x86_64")]
    ns_per_tick();
}

#[cfg(target_arch = "x86_64")]
fn ns_per_tick() -> f64 {
    static NS_PER_TICK: OnceLock<f64> = OnceLock::new();
    *NS_PER_TICK.get_or_init(|| {
        // Measure the TSC against the OS monotonic clock across a short
        // sleep. The sleep's actual length is irrelevant — both clocks
        // span the same interval — it only has to be long enough that
        // syscall jitter at the endpoints is noise.
        let (t0, c0) = (Instant::now(), clock_ticks());
        std::thread::sleep(std::time::Duration::from_millis(2));
        let (dt, dc) = (t0.elapsed(), clock_ticks().saturating_sub(c0));
        if dc == 0 {
            return 1.0; // a TSC that does not advance: treat ticks as ns
        }
        dt.as_nanos() as f64 / dc as f64
    })
}

/// A fresh process-unique span id. The process id seeds the high bits so
/// ids minted by the coordinator and its shards stay distinct when their
/// spans merge (roots use the trace id itself and are exempt).
pub fn next_span_id() -> u64 {
    let seq = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    ((std::process::id() as u64) << 40) ^ seq
}

/// The propagated identity of a live span: enough to parent children,
/// locally or across the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanContext {
    /// The trace (cell) this span belongs to.
    pub trace_id: u64,
    /// The span itself — children use this as their `parent_id`.
    pub span_id: u64,
}

/// One finished span, as buffered and drained.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// The trace (cell) the span belongs to.
    pub trace_id: u64,
    /// This span's id; unique within the merged timeline.
    pub span_id: u64,
    /// Parent span id; 0 marks a root.
    pub parent_id: u64,
    /// Operation name (`cell`, `attempt`, `rpc.submit`, `run`, ...).
    pub name: String,
    /// Start, µs on the recording process's monotonic clock.
    pub start_us: u64,
    /// Duration in µs.
    pub dur_us: u64,
}

/// A live span; records itself into the thread buffer when dropped (or
/// explicitly [`Span::end`]ed). When recording is disabled construction
/// returns an inert guard that does nothing.
#[derive(Debug)]
pub struct Span {
    live: Option<LiveSpan>,
}

#[derive(Debug)]
struct LiveSpan {
    ctx: SpanContext,
    parent_id: u64,
    name: &'static str,
    start_us: u64,
}

impl Span {
    /// Open a root span for `trace_id`. By convention the root's span id
    /// *is* the trace id, so remote children can parent onto it knowing
    /// only the trace context.
    pub fn root(trace_id: u64, name: &'static str) -> Span {
        Self::open(trace_id, trace_id, 0, name)
    }

    /// Open a child of `parent`.
    pub fn child(parent: SpanContext, name: &'static str) -> Span {
        Self::open(parent.trace_id, next_span_id(), parent.span_id, name)
    }

    fn open(trace_id: u64, span_id: u64, parent_id: u64, name: &'static str) -> Span {
        if !enabled() {
            return Span { live: None };
        }
        Span {
            live: Some(LiveSpan {
                ctx: SpanContext { trace_id, span_id },
                parent_id,
                name,
                start_us: now_micros(),
            }),
        }
    }

    /// The span's propagation context; `None` when recording is off (an
    /// inert guard has no identity worth propagating).
    pub fn ctx(&self) -> Option<SpanContext> {
        self.live.as_ref().map(|l| l.ctx)
    }

    /// Finish the span now (drop does the same).
    pub fn end(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(live) = self.live.take() {
            record_raw(SpanRecord {
                trace_id: live.ctx.trace_id,
                span_id: live.ctx.span_id,
                parent_id: live.parent_id,
                name: live.name.to_string(),
                start_us: live.start_us,
                dur_us: now_micros().saturating_sub(live.start_us),
            });
        }
    }
}

/// Thread-local buffer wrapper whose drop flushes, so short-lived
/// threads (pool workers, submitters) never strand finished spans.
struct LocalBuf(RefCell<Vec<SpanRecord>>);

impl Drop for LocalBuf {
    fn drop(&mut self) {
        flush_vec(self.0.get_mut());
    }
}

thread_local! {
    static LOCAL: LocalBuf = const { LocalBuf(RefCell::new(Vec::new())) };
}

fn flush_vec(buf: &mut Vec<SpanRecord>) {
    if buf.is_empty() {
        return;
    }
    let mut sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
    let room = GLOBAL_CAP.saturating_sub(sink.len());
    if buf.len() > room {
        DROPPED.fetch_add((buf.len() - room) as u64, Ordering::Relaxed);
        buf.truncate(room);
    }
    sink.append(buf);
}

/// Buffer one already-finished span (the building block for synthesized
/// spans, e.g. the coordinator's per-cell roots). No-op when disabled.
pub fn record_raw(rec: SpanRecord) {
    if !enabled() {
        return;
    }
    LOCAL.with(|local| {
        let mut buf = local.0.borrow_mut();
        buf.push(rec);
        if buf.len() >= THREAD_BUF {
            flush_vec(&mut buf);
        }
    });
}

/// Flush this thread's buffer into the global sink. Call at natural
/// boundaries (request served, cell resolved) so [`drain`] observes
/// everything; thread exit flushes automatically.
pub fn flush_thread() {
    LOCAL.with(|local| flush_vec(&mut local.0.borrow_mut()));
}

/// Take every globally buffered span (flushing the calling thread
/// first). Spans still sitting in *other* live threads' buffers are not
/// included — flush at task boundaries to avoid that.
pub fn drain() -> Vec<SpanRecord> {
    flush_thread();
    let mut sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
    std::mem::take(&mut *sink)
}

/// Spans discarded because the global buffer was full.
pub fn dropped() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------
// Forest validation
// ---------------------------------------------------------------------

/// What [`validate_forest`] found in a span set that passed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForestSummary {
    /// Distinct trace ids.
    pub traces: usize,
    /// Total spans.
    pub spans: usize,
}

/// Check that `spans` form exactly one rooted tree per trace: every
/// trace id has exactly one root (`parent_id == 0`) and every non-root
/// span's parent exists *within the same trace*. Duplicate span ids
/// within a trace are also rejected (they would render as ambiguous
/// parents).
pub fn validate_forest(spans: &[SpanRecord]) -> Result<ForestSummary, String> {
    use std::collections::{BTreeMap, BTreeSet};
    let mut roots: BTreeMap<u64, usize> = BTreeMap::new();
    let mut ids: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
    for s in spans {
        if !ids.entry(s.trace_id).or_default().insert(s.span_id) {
            return Err(format!(
                "trace {:#018x}: duplicate span id {:#018x} (`{}`)",
                s.trace_id, s.span_id, s.name
            ));
        }
        if s.parent_id == 0 {
            *roots.entry(s.trace_id).or_insert(0) += 1;
        } else {
            roots.entry(s.trace_id).or_insert(0);
        }
    }
    for (trace, n) in &roots {
        match n {
            1 => {}
            0 => return Err(format!("trace {trace:#018x}: no root span")),
            n => return Err(format!("trace {trace:#018x}: {n} root spans")),
        }
    }
    for s in spans {
        if s.parent_id != 0 && !ids[&s.trace_id].contains(&s.parent_id) {
            return Err(format!(
                "trace {:#018x}: span {:#018x} (`{}`) has orphan parent {:#018x}",
                s.trace_id, s.span_id, s.name, s.parent_id
            ));
        }
    }
    Ok(ForestSummary {
        traces: roots.len(),
        spans: spans.len(),
    })
}

// ---------------------------------------------------------------------
// Chrome trace-event rendering
// ---------------------------------------------------------------------

/// One process's worth of spans for [`render_chrome_trace`] — the
/// coordinator and each shard are separate sources because their
/// monotonic clocks share no epoch.
#[derive(Debug, Clone)]
pub struct SpanSource {
    /// Display name (`coordinator`, a shard address, ...).
    pub name: String,
    /// The spans that source drained.
    pub spans: Vec<SpanRecord>,
}

/// Render sources as Chrome trace-event JSON (`chrome://tracing` /
/// Perfetto loadable). Each source becomes one `pid` (timestamps are
/// re-based to that source's earliest span, since monotonic clocks do
/// not align across processes) and each trace id becomes one `tid`
/// within it, so a cell reads as one row per process. Span identity
/// rides along in `args` for tooling.
pub fn render_chrome_trace(sources: &[SpanSource]) -> String {
    use crate::json::push_str_literal;
    use std::collections::BTreeMap;
    let mut out = String::with_capacity(4096);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    let mut emit = |out: &mut String, piece: &str| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(piece);
    };
    for (pid, source) in sources.iter().enumerate() {
        let mut meta = String::new();
        meta.push_str("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":");
        meta.push_str(&pid.to_string());
        meta.push_str(",\"tid\":0,\"args\":{\"name\":");
        push_str_literal(&mut meta, &source.name);
        meta.push_str("}}");
        emit(&mut out, &meta);

        let base = source.spans.iter().map(|s| s.start_us).min().unwrap_or(0);
        let mut tids: BTreeMap<u64, usize> = BTreeMap::new();
        for s in &source.spans {
            let next = tids.len();
            let tid = *tids.entry(s.trace_id).or_insert(next);
            let mut ev = String::with_capacity(160);
            ev.push_str("{\"name\":");
            push_str_literal(&mut ev, &s.name);
            ev.push_str(",\"cat\":\"span\",\"ph\":\"X\",\"ts\":");
            ev.push_str(&(s.start_us - base).to_string());
            ev.push_str(",\"dur\":");
            ev.push_str(&s.dur_us.to_string());
            ev.push_str(",\"pid\":");
            ev.push_str(&pid.to_string());
            ev.push_str(",\"tid\":");
            ev.push_str(&tid.to_string());
            ev.push_str(",\"args\":{\"trace\":");
            push_str_literal(&mut ev, &format!("{:#018x}", s.trace_id));
            ev.push_str(",\"span\":");
            push_str_literal(&mut ev, &format!("{:#018x}", s.span_id));
            ev.push_str(",\"parent\":");
            push_str_literal(&mut ev, &format!("{:#018x}", s.parent_id));
            ev.push_str("}}");
            emit(&mut out, &ev);
        }
    }
    out.push_str("]}");
    out
}

// ---------------------------------------------------------------------
// Per-phase self-profiling
// ---------------------------------------------------------------------

/// The simulator's instrumented phases. The first four are the driver's
/// **top-level** phases — between them they tile the driver's whole
/// event loop, so their sums account for a run's wall time. The rest are nested
/// attribution inside the dispatch phases (a backfill pass runs *inside*
/// an arrival) and are excluded from [`PhaseAcc::top_level_sum_ns`] to
/// avoid double counting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Phase {
    /// Popping the next event off the driver's event queue.
    EventPop = 0,
    /// Handling one arrival event (scheduler `on_arrival` + apply).
    Arrival = 1,
    /// Handling one completion event.
    Completion = 2,
    /// Handling one wake event.
    Wake = 3,
    /// Scheduler-internal queue insert/remove work.
    QueueOps = 4,
    /// Conservative-style reservation compression.
    Compress = 5,
    /// A backfill scan over the queue.
    Backfill = 6,
}

/// Number of phases tracked by a [`PhaseAcc`].
pub const PHASE_COUNT: usize = 7;

/// Every phase, in index order.
pub const ALL_PHASES: [Phase; PHASE_COUNT] = [
    Phase::EventPop,
    Phase::Arrival,
    Phase::Completion,
    Phase::Wake,
    Phase::QueueOps,
    Phase::Compress,
    Phase::Backfill,
];

impl Phase {
    /// Short lower-case name (also the span name for sampled spans).
    pub fn name(self) -> &'static str {
        match self {
            Phase::EventPop => "event_pop",
            Phase::Arrival => "arrival",
            Phase::Completion => "completion",
            Phase::Wake => "wake",
            Phase::QueueOps => "queue_ops",
            Phase::Compress => "compress",
            Phase::Backfill => "backfill",
        }
    }

    /// The metrics-registry histogram this phase flushes into
    /// (nanosecond samples).
    pub fn metric(self) -> &'static str {
        match self {
            Phase::EventPop => "sim.phase.event_pop_ns",
            Phase::Arrival => "sim.phase.arrival_ns",
            Phase::Completion => "sim.phase.completion_ns",
            Phase::Wake => "sim.phase.wake_ns",
            Phase::QueueOps => "sim.phase.queue_ops_ns",
            Phase::Compress => "sim.phase.compress_ns",
            Phase::Backfill => "sim.phase.backfill_ns",
        }
    }

    /// True for the mutually exclusive driver phases whose sums tile the
    /// driver's event-loop wall time.
    pub fn top_level(self) -> bool {
        matches!(
            self,
            Phase::EventPop | Phase::Arrival | Phase::Completion | Phase::Wake
        )
    }
}

/// Accumulates per-phase nanosecond durations for one simulation run.
/// Plain fields, no atomics: a run is single-threaded, and the
/// accumulator is shared with the schedulers the same way the decision
/// recorder is (an `Rc<RefCell<_>>`).
#[derive(Debug)]
pub struct PhaseAcc {
    hist: [LocalHistogram; PHASE_COUNT],
    occurrences: [u64; PHASE_COUNT],
    /// Occurrence counters for [`PhaseAcc::tick`]'s nested-phase
    /// sampling (counts every occurrence, timed or not).
    ticks: [u64; PHASE_COUNT],
    /// Parent for sampled phase spans (the run's span), when tracing.
    ctx: Option<SpanContext>,
}

impl Default for PhaseAcc {
    fn default() -> Self {
        Self::new()
    }
}

impl PhaseAcc {
    /// An empty accumulator. Calibrates the fast clock first, so the
    /// one-time calibration sleep never lands inside a timed run.
    pub fn new() -> Self {
        calibrate_clock();
        PhaseAcc {
            hist: std::array::from_fn(|_| LocalHistogram::new()),
            occurrences: [0; PHASE_COUNT],
            ticks: [0; PHASE_COUNT],
            ctx: None,
        }
    }

    /// Parent sampled phase spans onto `ctx` (normally the run span).
    pub fn set_ctx(&mut self, ctx: SpanContext) {
        self.ctx = Some(ctx);
    }

    /// Record one phase occurrence of `ns` nanoseconds. Histograms see
    /// every occurrence (exact sums); every [`SPAN_SAMPLE`]-th
    /// occurrence also emits a span when tracing is on and a context is
    /// set.
    #[inline]
    pub fn record(&mut self, phase: Phase, ns: u64) {
        let i = phase as usize;
        self.hist[i].record(ns);
        self.occurrences[i] += 1;
        if self.occurrences[i].is_multiple_of(SPAN_SAMPLE) {
            if let (Some(ctx), true) = (self.ctx, enabled()) {
                let dur_us = ns / 1000;
                record_raw(SpanRecord {
                    trace_id: ctx.trace_id,
                    span_id: next_span_id(),
                    parent_id: ctx.span_id,
                    name: phase.name().to_string(),
                    start_us: now_micros().saturating_sub(dur_us),
                    dur_us,
                });
            }
        }
    }

    /// Sampling decision for a **nested** phase occurrence: returns
    /// `true` for one in [`NESTED_SAMPLE`] calls per phase, meaning
    /// "time this one". Callers skip the clock reads entirely on the
    /// other occurrences, so a nested phase's histogram holds an
    /// unbiased 1-in-N sample of its durations (multiply its sum by
    /// [`NESTED_SAMPLE`] to estimate total time). Top-level phases must
    /// not be sampled — [`PhaseAcc::top_level_sum_ns`] relies on their
    /// sums being exact.
    #[inline]
    pub fn tick(&mut self, phase: Phase) -> bool {
        debug_assert!(!phase.top_level(), "top-level phases are never sampled");
        let i = phase as usize;
        let n = self.ticks[i];
        self.ticks[i] = n + 1;
        n.is_multiple_of(NESTED_SAMPLE)
    }

    /// Exact nanosecond sum over the **top-level** phases — the
    /// self-accounted share of the run's wall time.
    pub fn top_level_sum_ns(&self) -> u64 {
        ALL_PHASES
            .iter()
            .filter(|p| p.top_level())
            .map(|&p| self.hist[p as usize].sum())
            .sum()
    }

    /// One phase's frozen histogram (empty phases included).
    pub fn histogram(&self, phase: Phase) -> &LocalHistogram {
        &self.hist[phase as usize]
    }

    /// Absorb every non-empty phase histogram into `registry` under the
    /// `sim.phase.*` names.
    pub fn flush_into(&self, registry: &Registry) {
        for &phase in &ALL_PHASES {
            let h = &self.hist[phase as usize];
            if h.count() > 0 {
                registry.histogram(phase.metric()).absorb(&h.snapshot());
            }
        }
    }
}

/// A [`PhaseAcc`] shared between the driver and the schedulers, mirroring
/// [`SharedRecorder`](crate::trace::SharedRecorder).
pub type SharedPhases = std::rc::Rc<RefCell<PhaseAcc>>;

/// Open a sampled nested-phase timing: returns a fast-clock reading iff
/// an accumulator is attached *and* this occurrence won the
/// 1-in-[`NESTED_SAMPLE`] draw (losing occurrences cost one counter
/// bump, no clock read). Close with [`finish_nested`].
#[inline]
pub fn start_nested(phases: &Option<SharedPhases>, phase: Phase) -> Option<u64> {
    let p = phases.as_ref()?;
    p.borrow_mut().tick(phase).then(clock_ticks)
}

/// Close a timing opened by [`start_nested`], recording the elapsed
/// nanoseconds under `phase`.
#[inline]
pub fn finish_nested(phases: &Option<SharedPhases>, phase: Phase, t0: Option<u64>) {
    if let (Some(t0), Some(p)) = (t0, phases) {
        p.borrow_mut()
            .record(phase, ticks_to_ns(clock_ticks().saturating_sub(t0)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialize span tests: they share the process-global sink/gate.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GUARD: Mutex<()> = Mutex::new(());
        GUARD.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_spans_record_nothing_and_have_no_ctx() {
        let _g = lock();
        set_enabled(false);
        drain();
        let span = Span::root(7, "cell");
        assert!(span.ctx().is_none());
        drop(span);
        assert!(drain().is_empty());
    }

    #[test]
    fn root_and_child_form_a_tree() {
        let _g = lock();
        set_enabled(true);
        drain();
        {
            let root = Span::root(0xABCD, "cell");
            let ctx = root.ctx().unwrap();
            assert_eq!(ctx.span_id, 0xABCD, "root span id is the trace id");
            let child = Span::child(ctx, "attempt");
            let grandchild = Span::child(child.ctx().unwrap(), "rpc.submit");
            drop(grandchild);
            drop(child);
        }
        let spans = drain();
        set_enabled(false);
        assert_eq!(spans.len(), 3);
        let summary = validate_forest(&spans).unwrap();
        assert_eq!((summary.traces, summary.spans), (1, 3));
        // Children close before parents, so the root drains last.
        assert_eq!(spans[2].name, "cell");
        assert_eq!(spans[2].parent_id, 0);
        assert_eq!(spans[0].name, "rpc.submit");
        assert_eq!(spans[0].parent_id, spans[1].span_id);
    }

    #[test]
    fn validate_forest_rejects_orphans_and_multi_roots() {
        let rec = |trace, span, parent, name: &str| SpanRecord {
            trace_id: trace,
            span_id: span,
            parent_id: parent,
            name: name.into(),
            start_us: 0,
            dur_us: 1,
        };
        // Orphan parent.
        let err = validate_forest(&[rec(1, 1, 0, "root"), rec(1, 5, 99, "lost")]).unwrap_err();
        assert!(err.contains("orphan parent"), "{err}");
        // Two roots in one trace.
        let err = validate_forest(&[rec(1, 1, 0, "a"), rec(1, 2, 0, "b")]).unwrap_err();
        assert!(err.contains("2 root spans"), "{err}");
        // No root at all.
        let err = validate_forest(&[rec(1, 2, 2, "self-loop?")]).unwrap_err();
        assert!(err.contains("no root"), "{err}");
        // A proper two-trace forest passes.
        let ok =
            validate_forest(&[rec(1, 1, 0, "a"), rec(1, 7, 1, "a.1"), rec(2, 2, 0, "b")]).unwrap();
        assert_eq!((ok.traces, ok.spans), (2, 3));
    }

    #[test]
    fn global_cap_drops_and_counts() {
        let _g = lock();
        set_enabled(true);
        drain();
        let before = dropped();
        for i in 0..(GLOBAL_CAP + 100) {
            record_raw(SpanRecord {
                trace_id: 1,
                span_id: i as u64 + 1,
                parent_id: 0,
                name: String::new(),
                start_us: 0,
                dur_us: 0,
            });
        }
        let spans = drain();
        set_enabled(false);
        assert_eq!(spans.len(), GLOBAL_CAP);
        assert_eq!(dropped() - before, 100);
    }

    #[test]
    fn chrome_render_rebases_and_is_loadable_shaped() {
        let spans = vec![
            SpanRecord {
                trace_id: 0x10,
                span_id: 0x10,
                parent_id: 0,
                name: "cell".into(),
                start_us: 1_000,
                dur_us: 500,
            },
            SpanRecord {
                trace_id: 0x10,
                span_id: 0x22,
                parent_id: 0x10,
                name: "attempt".into(),
                start_us: 1_100,
                dur_us: 300,
            },
        ];
        let json = render_chrome_trace(&[SpanSource {
            name: "coordinator".into(),
            spans,
        }]);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"process_name\""));
        // Earliest span re-based to ts 0; the child keeps its offset.
        assert!(json.contains("\"ts\":0,"), "{json}");
        assert!(json.contains("\"ts\":100,"), "{json}");
        assert!(json.contains("\"dur\":500"));
        assert!(json.contains("\"parent\":\"0x0000000000000010\""));
    }

    #[test]
    fn phase_acc_sums_are_exact_and_flush_into_a_registry() {
        let mut acc = PhaseAcc::new();
        acc.record(Phase::EventPop, 100);
        acc.record(Phase::Arrival, 2_000);
        acc.record(Phase::Arrival, 3_000);
        acc.record(Phase::Backfill, 1_500); // nested: not in the top-level sum
        assert_eq!(acc.top_level_sum_ns(), 5_100);
        assert_eq!(acc.histogram(Phase::Arrival).count(), 2);

        let r = Registry::new();
        acc.flush_into(&r);
        assert_eq!(r.histogram("sim.phase.arrival_ns").sum(), 5_000);
        assert_eq!(r.histogram("sim.phase.event_pop_ns").count(), 1);
        // Empty phases register nothing.
        assert!(!r.snapshot_json().contains("wake_ns"));

        // A second run's accumulator absorbs into the same histograms.
        let mut acc2 = PhaseAcc::new();
        acc2.record(Phase::Arrival, 1_000);
        acc2.flush_into(&r);
        assert_eq!(r.histogram("sim.phase.arrival_ns").sum(), 6_000);
        assert_eq!(r.histogram("sim.phase.arrival_ns").count(), 3);
    }
}
