//! Named counters, gauges, and log-scale histograms.
//!
//! Metric handles are plain atomics wrapped in `Arc`, so the hot path is
//! a single `fetch_add` with no locking and no allocation; the registry
//! is only touched at registration and snapshot time. Components either
//! ask a [`Registry`] for a handle by name (get-or-create) or create the
//! atomic themselves and [`Registry::bind`] it later — the service uses
//! the latter so its counters exist before any registry does.
//!
//! # Naming convention
//!
//! Dotted lower-case paths, most-general component first:
//! `service.submitted`, `service.cache.hits`, `service.pool.queue_depth`,
//! `sim.profile.find_anchor_calls`, `sim.queue.inserts`. Counters are
//! monotone totals, gauges are instantaneous levels, histograms are
//! distributions (`service.wall_ms`).
//!
//! # Snapshots
//!
//! [`Registry::snapshot_json`] renders one **canonical** JSON document:
//! keys sorted (the map is a `BTreeMap`), integers only, no whitespace.
//! Equal registry states therefore serialize byte-identically, which is
//! what the `bfsimd` `metrics` verb and its tests rely on.

use crate::json::push_str_literal;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotone counter. `Relaxed` increments; `SeqCst` reads, so a
/// snapshot observes every increment that happened-before it.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A fresh zero counter.
    pub fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::SeqCst)
    }
}

/// An instantaneous level (queue depth, cache entries). Signed so
/// transient dips below zero in racy mirrors are representable rather
/// than wrapping.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A fresh zero gauge.
    pub fn new() -> Self {
        Gauge(AtomicI64::new(0))
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Set to an absolute value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::SeqCst)
    }
}

/// Number of histogram buckets: bucket 0 holds the value 0, bucket `i`
/// (1 ≤ i ≤ 64) holds values in `[2^(i−1), 2^i)`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A log₂-bucketed histogram of `u64` samples. Recording is two relaxed
/// `fetch_add`s plus one on the bucket — no floating point, no locks.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Histogram {
    /// A fresh empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket index a value lands in.
    #[inline]
    fn bucket_of(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Add a frozen histogram's contents in bulk — counts, sum, and
    /// buckets element-wise. This is how per-run [`LocalHistogram`]s
    /// (e.g. the simulator's phase timers) merge into a long-lived
    /// registry without paying per-sample atomics on the hot path.
    pub fn absorb(&self, snap: &HistogramSnapshot) {
        self.count.fetch_add(snap.count, Ordering::Relaxed);
        self.sum.fetch_add(snap.sum, Ordering::Relaxed);
        for (bucket, &n) in self.buckets.iter().zip(&snap.buckets) {
            if n > 0 {
                bucket.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// The inclusive upper bound of bucket `i`.
    pub fn bucket_upper_bound(i: usize) -> u64 {
        match i {
            0 => 0,
            64 => u64::MAX,
            i => (1u64 << i) - 1,
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.buckets[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::SeqCst)
    }

    /// Sum of all samples (wraps only past 2^64).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::SeqCst)
    }

    /// Freeze bucket counts for reporting.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::SeqCst))
            .collect();
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            buckets,
        }
    }
}

/// A single-threaded [`Histogram`]: plain fields instead of atomics, for
/// hot paths that are not shared (one simulation run's phase timers).
/// Merge into a shared [`Histogram`] afterwards via
/// [`Histogram::absorb`].
#[derive(Debug, Clone)]
pub struct LocalHistogram {
    count: u64,
    sum: u64,
    buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for LocalHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LocalHistogram {
    /// A fresh empty histogram.
    pub fn new() -> Self {
        LocalHistogram {
            count: 0,
            sum: 0,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }

    /// Record one sample. The sum wraps on overflow, exactly like the
    /// atomic [`Histogram`]'s `fetch_add`.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        self.buckets[Histogram::bucket_of(v)] += 1;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Freeze for reporting or [`Histogram::absorb`].
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            buckets: self.buckets.to_vec(),
        }
    }
}

/// A frozen [`Histogram`]: counts per bucket plus totals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// One count per bucket (see [`Histogram::bucket_upper_bound`]).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Upper bound of the bucket containing the `q`-quantile (0 ≤ q ≤ 1)
    /// — a coarse tail estimate, exact to within the bucket's factor-of-2
    /// width. `None` when empty.
    pub fn approx_quantile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.count == 0 {
            return None;
        }
        // Rank of the wanted sample, 1-based; q=0 → first, q=1 → last.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(Histogram::bucket_upper_bound(i));
            }
        }
        Some(u64::MAX)
    }
}

/// One named metric handle.
#[derive(Debug, Clone)]
pub enum Metric {
    /// A monotone counter.
    Counter(Arc<Counter>),
    /// An instantaneous level.
    Gauge(Arc<Gauge>),
    /// A distribution.
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A named collection of metric handles. Cheap to share (`Arc` it) and
/// cheap to read on the hot path (handles are plain atomics; the inner
/// mutex guards only the name map).
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn get_or_insert(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        let mut map = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        map.entry(name.to_string()).or_insert_with(make).clone()
    }

    /// Get-or-create the counter `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        match self.get_or_insert(name, || Metric::Counter(Arc::new(Counter::new()))) {
            Metric::Counter(c) => c,
            other => panic!("metric `{name}` is a {}, not a counter", other.kind()),
        }
    }

    /// Get-or-create the gauge `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        match self.get_or_insert(name, || Metric::Gauge(Arc::new(Gauge::new()))) {
            Metric::Gauge(g) => g,
            other => panic!("metric `{name}` is a {}, not a gauge", other.kind()),
        }
    }

    /// Get-or-create the histogram `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        match self.get_or_insert(name, || Metric::Histogram(Arc::new(Histogram::new()))) {
            Metric::Histogram(h) => h,
            other => panic!("metric `{name}` is a {}, not a histogram", other.kind()),
        }
    }

    /// Register an existing handle under `name` (replacing any previous
    /// binding). Lets a component own its atomics and expose them to a
    /// registry created later.
    pub fn bind(&self, name: &str, metric: Metric) {
        let mut map = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        map.insert(name.to_string(), metric);
    }

    /// Read every metric. Values are loaded `SeqCst` while holding the
    /// name map, so the snapshot is internally ordered — but individual
    /// metrics still advance concurrently; invariants between specific
    /// counters are the caller's job (see the service's documented read
    /// order).
    pub fn snapshot(&self) -> Vec<(String, SnapshotValue)> {
        let map = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        map.iter()
            .map(|(name, metric)| {
                let value = match metric {
                    Metric::Counter(c) => SnapshotValue::Counter(c.get()),
                    Metric::Gauge(g) => SnapshotValue::Gauge(g.get()),
                    Metric::Histogram(h) => SnapshotValue::Histogram(h.snapshot()),
                };
                (name.clone(), value)
            })
            .collect()
    }

    /// Render the canonical JSON document described at the
    /// [module level](self).
    pub fn snapshot_json(&self) -> String {
        render_snapshot(&self.snapshot())
    }
}

/// Render a snapshot as the canonical JSON document described at the
/// [module level](self). [`Registry::snapshot_json`] delegates here;
/// the sweep coordinator uses it directly to render a
/// [`merge_snapshots`]-aggregated snapshot in the same format the
/// daemons emit.
///
/// Names must be unique and sorted (both hold for [`Registry::snapshot`]
/// and [`merge_snapshots`] output) for the result to be canonical.
pub fn render_snapshot(snap: &[(String, SnapshotValue)]) -> String {
    let mut counters = String::new();
    let mut gauges = String::new();
    let mut histograms = String::new();
    for (name, value) in snap {
        match value {
            SnapshotValue::Counter(v) => {
                if !counters.is_empty() {
                    counters.push(',');
                }
                push_str_literal(&mut counters, name);
                counters.push(':');
                counters.push_str(&v.to_string());
            }
            SnapshotValue::Gauge(v) => {
                if !gauges.is_empty() {
                    gauges.push(',');
                }
                push_str_literal(&mut gauges, name);
                gauges.push(':');
                gauges.push_str(&v.to_string());
            }
            SnapshotValue::Histogram(h) => {
                if !histograms.is_empty() {
                    histograms.push(',');
                }
                push_str_literal(&mut histograms, name);
                histograms.push_str(":{\"buckets\":[");
                let mut first = true;
                for (i, &n) in h.buckets.iter().enumerate() {
                    if n == 0 {
                        continue;
                    }
                    if !first {
                        histograms.push(',');
                    }
                    first = false;
                    histograms.push('[');
                    histograms.push_str(&Histogram::bucket_upper_bound(i).to_string());
                    histograms.push(',');
                    histograms.push_str(&n.to_string());
                    histograms.push(']');
                }
                histograms.push_str("],\"count\":");
                histograms.push_str(&h.count.to_string());
                for (label, q) in [("p50", 0.5), ("p90", 0.9), ("p99", 0.99)] {
                    histograms.push_str(",\"");
                    histograms.push_str(label);
                    histograms.push_str("\":");
                    histograms.push_str(&h.approx_quantile(q).unwrap_or(0).to_string());
                }
                histograms.push_str(",\"sum\":");
                histograms.push_str(&h.sum.to_string());
                histograms.push('}');
            }
        }
    }
    format!(
        "{{\"counters\":{{{counters}}},\"gauges\":{{{gauges}}},\"histograms\":{{{histograms}}}}}"
    )
}

/// A metric name in Prometheus form: dots (and any other character
/// outside `[a-zA-Z0-9_:]`) become underscores.
fn prom_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Render a snapshot in the Prometheus text exposition format.
///
/// Counters and gauges become one `# TYPE` line plus one sample line.
/// Histograms expose the classic triplet: cumulative
/// `name_bucket{le="..."}` series (one line per log₂ bucket up to the
/// highest non-empty one, then the mandatory `le="+Inf"`), `name_sum`,
/// and `name_count`. Like [`render_snapshot`], equal snapshots render
/// byte-identically, so the output is golden-testable.
pub fn render_prometheus(snap: &[(String, SnapshotValue)]) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(snap.len() * 64);
    for (name, value) in snap {
        let name = prom_name(name);
        match value {
            SnapshotValue::Counter(v) => {
                let _ = writeln!(out, "# TYPE {name} counter\n{name} {v}");
            }
            SnapshotValue::Gauge(v) => {
                let _ = writeln!(out, "# TYPE {name} gauge\n{name} {v}");
            }
            SnapshotValue::Histogram(h) => {
                let _ = writeln!(out, "# TYPE {name} histogram");
                let last = h
                    .buckets
                    .iter()
                    .rposition(|&n| n > 0)
                    .map(|i| i.min(HISTOGRAM_BUCKETS - 2))
                    .unwrap_or(0);
                let mut cumulative = 0u64;
                for (i, &n) in h.buckets.iter().enumerate().take(last + 1) {
                    cumulative += n;
                    let _ = writeln!(
                        out,
                        "{name}_bucket{{le=\"{}\"}} {cumulative}",
                        Histogram::bucket_upper_bound(i)
                    );
                }
                let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
                let _ = writeln!(out, "{name}_sum {}\n{name}_count {}", h.sum, h.count);
            }
        }
    }
    out
}

/// Merge per-shard snapshots into one aggregate, keyed by metric name.
///
/// Counters and gauges add; histograms add `count`, `sum`, and buckets
/// element-wise (shorter bucket vectors are padded with zeros), which is
/// exact because every sample lives in exactly one bucket. If the same
/// name appears with different kinds across shards — only possible when
/// shards run different builds — the first-seen kind wins and later
/// clashes are ignored rather than panicking, since a merged report
/// from a degraded fleet is more useful than none.
pub fn merge_snapshots(snaps: &[Vec<(String, SnapshotValue)>]) -> Vec<(String, SnapshotValue)> {
    let mut merged: BTreeMap<String, SnapshotValue> = BTreeMap::new();
    for snap in snaps {
        for (name, value) in snap {
            match merged.entry(name.clone()) {
                std::collections::btree_map::Entry::Vacant(slot) => {
                    slot.insert(value.clone());
                }
                std::collections::btree_map::Entry::Occupied(mut slot) => {
                    match (slot.get_mut(), value) {
                        (SnapshotValue::Counter(a), SnapshotValue::Counter(b)) => {
                            *a = a.wrapping_add(*b);
                        }
                        (SnapshotValue::Gauge(a), SnapshotValue::Gauge(b)) => {
                            *a = a.wrapping_add(*b);
                        }
                        (SnapshotValue::Histogram(a), SnapshotValue::Histogram(b)) => {
                            a.count = a.count.wrapping_add(b.count);
                            a.sum = a.sum.wrapping_add(b.sum);
                            if a.buckets.len() < b.buckets.len() {
                                a.buckets.resize(b.buckets.len(), 0);
                            }
                            for (dst, src) in a.buckets.iter_mut().zip(&b.buckets) {
                                *dst = dst.wrapping_add(*src);
                            }
                        }
                        _ => {} // kind clash across shards: keep first
                    }
                }
            }
        }
    }
    merged.into_iter().collect()
}

/// One metric's value at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotValue {
    /// Counter total.
    Counter(u64),
    /// Gauge level.
    Gauge(i64),
    /// Histogram contents.
    Histogram(HistogramSnapshot),
}

/// The process-global registry. Simulation-core counters (availability
/// profile, scheduler queue, fits cache) are flushed here once per run;
/// long-lived components like the service daemon keep their own
/// [`Registry`] instead so concurrent servers in one process (tests) do
/// not share counters.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.inc();
        g.inc();
        assert_eq!(g.get(), 2);
        g.set(-7);
        assert_eq!(g.get(), -7);
    }

    #[test]
    fn histogram_buckets_and_bounds() {
        let h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 1024, u64::MAX] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 7);
        assert_eq!(snap.buckets[0], 1); // 0
        assert_eq!(snap.buckets[1], 1); // 1
        assert_eq!(snap.buckets[2], 2); // 2..3
        assert_eq!(snap.buckets[3], 1); // 4..7
        assert_eq!(snap.buckets[11], 1); // 1024..2047
        assert_eq!(snap.buckets[64], 1); // top bucket
        assert_eq!(Histogram::bucket_upper_bound(0), 0);
        assert_eq!(Histogram::bucket_upper_bound(1), 1);
        assert_eq!(Histogram::bucket_upper_bound(11), 2047);
        assert_eq!(Histogram::bucket_upper_bound(64), u64::MAX);
    }

    #[test]
    fn histogram_quantiles() {
        let h = Histogram::new();
        assert_eq!(h.snapshot().approx_quantile(0.5), None);
        for _ in 0..90 {
            h.record(3); // bucket 2, upper bound 3
        }
        for _ in 0..10 {
            h.record(1000); // bucket 10, upper bound 1023
        }
        let snap = h.snapshot();
        assert_eq!(snap.approx_quantile(0.0), Some(3));
        assert_eq!(snap.approx_quantile(0.5), Some(3));
        assert_eq!(snap.approx_quantile(0.9), Some(3));
        assert_eq!(snap.approx_quantile(0.91), Some(1023));
        assert_eq!(snap.approx_quantile(1.0), Some(1023));
    }

    #[test]
    fn registry_get_or_create_and_bind() {
        let r = Registry::new();
        let a = r.counter("x.hits");
        let b = r.counter("x.hits");
        a.inc();
        assert_eq!(b.get(), 1, "same name must alias the same counter");

        let mine = Arc::new(Counter::new());
        mine.add(9);
        r.bind("x.bound", Metric::Counter(mine.clone()));
        assert_eq!(r.counter("x.bound").get(), 9);
    }

    #[test]
    #[should_panic(expected = "is a counter, not a gauge")]
    fn registry_rejects_kind_clash() {
        let r = Registry::new();
        r.counter("dual");
        r.gauge("dual");
    }

    #[test]
    fn merge_adds_counters_gauges_and_histogram_buckets() {
        let a = Registry::new();
        a.counter("hits").add(3);
        a.gauge("depth").set(2);
        a.histogram("lat").record(5);
        a.counter("only.a").inc();

        let b = Registry::new();
        b.counter("hits").add(4);
        b.gauge("depth").set(-5);
        b.histogram("lat").record(5);
        b.histogram("lat").record(1000);
        b.histogram("only.b").record(1);

        let merged = merge_snapshots(&[a.snapshot(), b.snapshot()]);
        let get = |name: &str| {
            merged
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v.clone())
                .unwrap()
        };
        assert_eq!(get("hits"), SnapshotValue::Counter(7));
        assert_eq!(get("depth"), SnapshotValue::Gauge(-3));
        assert_eq!(get("only.a"), SnapshotValue::Counter(1));
        match get("lat") {
            SnapshotValue::Histogram(h) => {
                assert_eq!(h.count, 3);
                assert_eq!(h.sum, 1010);
                assert_eq!(h.buckets[3], 2); // two samples of 5
                assert_eq!(h.buckets[10], 1); // one sample of 1000
            }
            other => panic!("lat merged to {other:?}"),
        }
        match get("only.b") {
            SnapshotValue::Histogram(h) => assert_eq!((h.count, h.sum), (1, 1)),
            other => panic!("only.b merged to {other:?}"),
        }
        // Names stay sorted so render_snapshot output stays canonical.
        let names: Vec<&str> = merged.iter().map(|(n, _)| n.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
    }

    #[test]
    fn merge_kind_clash_keeps_first() {
        let a = Registry::new();
        a.counter("dual").add(2);
        let b = Registry::new();
        b.gauge("dual").set(9);
        let merged = merge_snapshots(&[a.snapshot(), b.snapshot()]);
        assert_eq!(merged, vec![("dual".into(), SnapshotValue::Counter(2))]);
    }

    #[test]
    fn render_snapshot_matches_registry_rendering() {
        let r = Registry::new();
        r.counter("c").add(2);
        r.gauge("g").set(-1);
        r.histogram("h").record(12);
        assert_eq!(render_snapshot(&r.snapshot()), r.snapshot_json());
        // A single-registry "merge" is the identity, so rendering the
        // merged snapshot reproduces the daemon's own document.
        assert_eq!(
            render_snapshot(&merge_snapshots(&[r.snapshot()])),
            r.snapshot_json()
        );
    }

    #[test]
    fn local_histogram_matches_atomic_and_absorbs() {
        let atomic = Histogram::new();
        let mut local = LocalHistogram::new();
        for v in [0, 1, 5, 1024, u64::MAX] {
            atomic.record(v);
            local.record(v);
        }
        assert_eq!(local.snapshot(), atomic.snapshot());

        let target = Histogram::new();
        target.record(5);
        target.absorb(&local.snapshot());
        let snap = target.snapshot();
        assert_eq!(snap.count, 6);
        assert_eq!(snap.sum, 5 + local.sum());
        assert_eq!(snap.buckets[3], 2, "two samples of 5 after absorb");
    }

    #[test]
    fn prometheus_rendering_is_pinned() {
        let r = Registry::new();
        r.counter("service.submitted").add(12);
        r.gauge("service.pool.queue_depth").set(-2);
        r.histogram("service.wall_ms").record(5);
        r.histogram("service.wall_ms").record(900);
        let text = render_prometheus(&r.snapshot());
        let expected = "\
# TYPE service_pool_queue_depth gauge
service_pool_queue_depth -2
# TYPE service_submitted counter
service_submitted 12
# TYPE service_wall_ms histogram
service_wall_ms_bucket{le=\"0\"} 0
service_wall_ms_bucket{le=\"1\"} 0
service_wall_ms_bucket{le=\"3\"} 0
service_wall_ms_bucket{le=\"7\"} 1
service_wall_ms_bucket{le=\"15\"} 1
service_wall_ms_bucket{le=\"31\"} 1
service_wall_ms_bucket{le=\"63\"} 1
service_wall_ms_bucket{le=\"127\"} 1
service_wall_ms_bucket{le=\"255\"} 1
service_wall_ms_bucket{le=\"511\"} 1
service_wall_ms_bucket{le=\"1023\"} 2
service_wall_ms_bucket{le=\"+Inf\"} 2
service_wall_ms_sum 905
service_wall_ms_count 2
";
        assert_eq!(text, expected);
    }

    #[test]
    fn prometheus_rendering_handles_empty_and_top_bucket() {
        let r = Registry::new();
        r.histogram("empty");
        let text = render_prometheus(&r.snapshot());
        assert!(text.contains("empty_bucket{le=\"0\"} 0\nempty_bucket{le=\"+Inf\"} 0"));
        assert!(text.contains("empty_sum 0\nempty_count 0"));

        let r = Registry::new();
        r.histogram("top").record(u64::MAX);
        let text = render_prometheus(&r.snapshot());
        // The overflow bucket is only representable as +Inf; the last
        // finite le stays at bucket 63's bound.
        assert!(text.contains(&format!("top_bucket{{le=\"{}\"}} 0", (1u64 << 63) - 1)));
        assert!(text.contains("top_bucket{le=\"+Inf\"} 1"));
    }

    #[test]
    fn snapshot_json_is_canonical() {
        let r = Registry::new();
        r.counter("b.second").add(2);
        r.counter("a.first").inc();
        r.gauge("depth").set(3);
        r.histogram("lat").record(5);
        let a = r.snapshot_json();
        let b = r.snapshot_json();
        assert_eq!(a, b, "equal states must serialize byte-identically");
        assert_eq!(
            a,
            "{\"counters\":{\"a.first\":1,\"b.second\":2},\
             \"gauges\":{\"depth\":3},\
             \"histograms\":{\"lat\":{\"buckets\":[[7,1]],\"count\":1,\
             \"p50\":7,\"p90\":7,\"p99\":7,\"sum\":5}}}"
        );
    }
}
