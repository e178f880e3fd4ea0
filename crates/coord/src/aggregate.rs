//! Merging shared-nothing shard state into one report.
//!
//! Each `bfsimd` shard owns its own counters, cache, and metrics
//! registry; nothing is shared across processes. After a sweep the
//! coordinator pulls every reachable shard's [`ServiceStats`] and
//! canonical metrics JSON, sums the former field-wise, and merges the
//! latter with [`obs::merge_snapshots`] — counters and gauges add,
//! histograms add bucket-wise — then re-renders the aggregate in the
//! *same* canonical format a single daemon emits, so existing tooling
//! (`jq`, diffing, the metrics e2e tests) consumes fleet-wide documents
//! unchanged.

use obs::metrics::{render_snapshot, HistogramSnapshot, SnapshotValue, HISTOGRAM_BUCKETS};
use serde::{Deserialize, Serialize, Value};
use service::{ServiceStats, WireSpan};

/// One span source in serialized form — what a sweep report embeds so
/// `bfsim timeline` can rebuild the [`obs::SpanSource`] list offline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SpanDoc {
    /// Source display name (`coordinator`, a shard address, ...).
    pub name: String,
    /// That source's spans in wire form.
    pub spans: Vec<WireSpan>,
}

impl From<obs::SpanSource> for SpanDoc {
    fn from(src: obs::SpanSource) -> Self {
        SpanDoc {
            name: src.name,
            spans: src.spans.into_iter().map(Into::into).collect(),
        }
    }
}

impl From<SpanDoc> for obs::SpanSource {
    fn from(doc: SpanDoc) -> Self {
        obs::SpanSource {
            name: doc.name,
            spans: doc.spans.into_iter().map(Into::into).collect(),
        }
    }
}

fn as_u64(v: &Value) -> Result<u64, String> {
    match v {
        Value::U64(n) => Ok(*n),
        other => Err(format!("expected unsigned integer, got {}", other.kind())),
    }
}

fn as_i64(v: &Value) -> Result<i64, String> {
    match v {
        Value::I64(n) => Ok(*n),
        Value::U64(n) => i64::try_from(*n).map_err(|_| format!("gauge {n} overflows i64")),
        other => Err(format!("expected integer, got {}", other.kind())),
    }
}

/// The inverse of [`Histogram::bucket_upper_bound`]: which bucket index
/// a serialized `[upper_bound, count]` pair belongs to. Upper bounds
/// are `0`, `2^i - 1`, or `u64::MAX`, so this is exactly `bucket_of`.
///
/// [`Histogram::bucket_upper_bound`]: obs::metrics::Histogram::bucket_upper_bound
fn bucket_index(upper_bound: u64) -> usize {
    (64 - upper_bound.leading_zeros()) as usize
}

/// Parse one daemon's canonical metrics document (the `metrics` verb's
/// reply, rendered by [`obs::render_snapshot`]) back into snapshot
/// form, ready for [`obs::merge_snapshots`].
pub fn parse_metrics_doc(json: &str) -> Result<Vec<(String, SnapshotValue)>, String> {
    let doc: Value = serde_json::from_str(json).map_err(|e| format!("metrics document: {e}"))?;
    let section = |name: &str| -> Result<Vec<(String, Value)>, String> {
        match doc.field(name).map_err(|e| e.to_string())? {
            Value::Object(fields) => Ok(fields.clone()),
            other => Err(format!("section `{name}` is {}, not object", other.kind())),
        }
    };
    let mut snap: Vec<(String, SnapshotValue)> = Vec::new();
    for (name, v) in section("counters")? {
        snap.push((name, SnapshotValue::Counter(as_u64(&v)?)));
    }
    for (name, v) in section("gauges")? {
        snap.push((name, SnapshotValue::Gauge(as_i64(&v)?)));
    }
    for (name, v) in section("histograms")? {
        let mut buckets = vec![0u64; HISTOGRAM_BUCKETS];
        for pair in v
            .field("buckets")
            .and_then(Value::as_array)
            .map_err(|e| format!("histogram `{name}`: {e}"))?
        {
            let pair = pair
                .as_array()
                .map_err(|e| format!("histogram `{name}` bucket: {e}"))?;
            if pair.len() != 2 {
                return Err(format!("histogram `{name}` bucket is not a pair"));
            }
            let (ub, n) = (as_u64(&pair[0])?, as_u64(&pair[1])?);
            buckets[bucket_index(ub)] = n;
        }
        let count = as_u64(v.field("count").map_err(|e| e.to_string())?)?;
        let sum = as_u64(v.field("sum").map_err(|e| e.to_string())?)?;
        snap.push((
            name,
            SnapshotValue::Histogram(HistogramSnapshot {
                count,
                sum,
                buckets,
            }),
        ));
    }
    // merge_snapshots re-sorts; sort here too so a single parsed doc is
    // already in canonical (registry) order.
    snap.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(snap)
}

/// Merge shard metrics documents (plus any extra local snapshots, e.g.
/// the coordinator's own registry) into one canonical document.
pub fn aggregate_metrics(
    docs: &[String],
    extra: &[Vec<(String, SnapshotValue)>],
) -> Result<String, String> {
    let mut snaps: Vec<Vec<(String, SnapshotValue)>> = Vec::with_capacity(docs.len());
    for doc in docs {
        snaps.push(parse_metrics_doc(doc)?);
    }
    snaps.extend(extra.iter().cloned());
    Ok(render_snapshot(&obs::merge_snapshots(&snaps)))
}

/// Sum per-shard service stats into a fleet view: counters add,
/// `wall_ms_max` takes the max, `draining` is true if any shard drains.
pub fn aggregate_stats(stats: &[ServiceStats]) -> ServiceStats {
    let mut total = ServiceStats::default();
    for s in stats {
        total.submitted += s.submitted;
        total.completed += s.completed;
        total.failed += s.failed;
        total.rejected += s.rejected;
        total.shed += s.shed;
        total.worker_panics += s.worker_panics;
        total.cache_hits += s.cache_hits;
        total.cache_misses += s.cache_misses;
        total.cache_entries += s.cache_entries;
        total.cache_evictions += s.cache_evictions;
        total.queue_depth += s.queue_depth;
        total.in_flight += s.in_flight;
        total.draining |= s.draining;
        total.wall_ms_total += s.wall_ms_total;
        total.wall_ms_max = total.wall_ms_max.max(s.wall_ms_max);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::Registry;

    #[test]
    fn parse_round_trips_a_registry_document() {
        let r = Registry::new();
        r.counter("service.submitted").add(12);
        r.gauge("service.pool.queue_depth").set(-2);
        r.histogram("service.wall_ms").record(5);
        r.histogram("service.wall_ms").record(900);
        let doc = r.snapshot_json();
        let parsed = parse_metrics_doc(&doc).unwrap();
        assert_eq!(render_snapshot(&parsed), doc, "parse must invert render");
    }

    /// `bfsim metrics --format prom` renders the parsed `metrics`
    /// document: the text must equal a rendering of the registry itself.
    #[test]
    fn prometheus_text_of_a_parsed_document_matches_the_registry() {
        let r = Registry::new();
        r.counter("service.submitted").add(12);
        r.counter("sim.runs").inc();
        r.gauge("service.pool.queue_depth").set(-2);
        r.histogram("service.empty");
        for v in [0, 1, 2, 3, 1000, 65_000, u64::MAX / 2, u64::MAX] {
            r.histogram("service.wall_ms").record(v);
        }
        let parsed = parse_metrics_doc(&r.snapshot_json()).unwrap();
        assert_eq!(
            obs::render_prometheus(&parsed),
            obs::render_prometheus(&r.snapshot())
        );
    }

    #[test]
    fn aggregate_metrics_doubles_a_doc_merged_with_itself() {
        let r = Registry::new();
        r.counter("c").add(3);
        r.histogram("h").record(7);
        let doc = r.snapshot_json();
        let merged = aggregate_metrics(&[doc.clone(), doc], &[]).unwrap();
        let parsed = parse_metrics_doc(&merged).unwrap();
        assert_eq!(parsed[0], ("c".into(), SnapshotValue::Counter(6)));
        match &parsed[1].1 {
            SnapshotValue::Histogram(h) => assert_eq!((h.count, h.sum), (2, 14)),
            other => panic!("h aggregated to {other:?}"),
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_metrics_doc("not json").is_err());
        assert!(parse_metrics_doc("{\"counters\":{}}").is_err()); // missing sections
        assert!(
            parse_metrics_doc("{\"counters\":{\"c\":-1},\"gauges\":{},\"histograms\":{}}").is_err()
        );
    }

    #[test]
    fn stats_sum_field_wise() {
        let a = ServiceStats {
            submitted: 4,
            completed: 3,
            cache_hits: 1,
            wall_ms_max: 70,
            ..ServiceStats::default()
        };
        let b = ServiceStats {
            submitted: 6,
            completed: 6,
            draining: true,
            wall_ms_max: 20,
            ..ServiceStats::default()
        };
        let total = aggregate_stats(&[a, b]);
        assert_eq!(total.submitted, 10);
        assert_eq!(total.completed, 9);
        assert_eq!(total.cache_hits, 1);
        assert_eq!(total.wall_ms_max, 70, "max, not sum");
        assert!(total.draining);
    }
}
