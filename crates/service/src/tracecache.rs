//! Scenario-keyed trace cache for the worker pool.
//!
//! A sweep submitted to `bfsimd` is dozens of (scheduler × policy) cells
//! over a handful of scenarios, but tasks arrive one by one, so the pool
//! cannot group them the way `run_all` does. Instead the workers share
//! this cache: traces are memoized in an [`Lru`] under the **canonical
//! JSON** of their [`Scenario`], and a worker that misses materializes
//! once and publishes the `Arc<Trace>` for everyone after it.
//!
//! Traces are a few MB each, so the cap is small. Two workers racing on
//! the same scenario may both materialize; materialization is
//! deterministic, so last-write-wins is harmless. A scenario whose
//! materialization panics is **not** cached — every request for it
//! re-runs (and re-fails), exactly like the per-cell fault boundary in
//! `run_cell_on`.

use crate::lru::Lru;
use backfill_sim::{materialize_caught, Scenario};
use obs::metrics::Registry;
use std::sync::Arc;
use workload::Trace;

/// Thread-safe memoization of materialized traces, keyed by canonical
/// scenario JSON, bounded to `cap` entries with LRU eviction.
#[derive(Debug)]
pub struct TraceCache {
    traces: Lru<Arc<Trace>>,
}

impl Default for TraceCache {
    fn default() -> Self {
        Self::with_capacity(Self::DEFAULT_CAP)
    }
}

impl TraceCache {
    /// Default entry cap. A full paper sweep spans ~6 scenarios and a
    /// 20k-job trace is a few MB, so a small cap holds several complete
    /// sweeps' worth of traces without ballooning the daemon.
    pub const DEFAULT_CAP: usize = 32;

    /// Create an empty cache with the default entry cap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an empty cache holding at most `cap` entries (minimum 1).
    pub fn with_capacity(cap: usize) -> Self {
        TraceCache {
            traces: Lru::new(cap),
        }
    }

    /// Expose the cache's counters to `registry` under
    /// `service.trace_cache.{hits,misses,evictions}`.
    pub fn bind_metrics(&self, registry: &Registry) {
        self.traces.bind_metrics(registry, "service.trace_cache");
    }

    /// The scenario's trace: served from cache on a hit (refreshing
    /// recency), materialized — outside the lock — and published on a
    /// miss. A panic during materialization comes back as its rendered
    /// text and leaves the cache untouched.
    pub fn get_or_materialize(&self, scenario: &Scenario) -> Result<Arc<Trace>, String> {
        let key = scenario.canonical_json();
        if let Some(trace) = self.traces.get(&key) {
            return Ok(trace);
        }
        // The lock is released between the lookup and the insert: a
        // multi-second trace generation must not stall every other
        // worker's lookups.
        let trace = Arc::new(materialize_caught(scenario)?);
        self.traces.insert(key, trace.clone());
        Ok(trace)
    }

    /// `(hits, misses, entries, evictions)` counters.
    pub fn stats(&self) -> (u64, u64, u64, u64) {
        self.traces.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backfill_sim::{Scenario, TraceSource};

    fn scenario(seed: u64, load: f64) -> Scenario {
        Scenario {
            source: TraceSource::Ctc { jobs: 60, seed },
            estimate: workload::EstimateModel::Exact,
            estimate_seed: 1,
            load: Some(load),
        }
    }

    #[test]
    fn second_lookup_shares_the_first_materialization() {
        let cache = TraceCache::new();
        let sc = scenario(1, 0.9);
        let a = cache.get_or_materialize(&sc).unwrap();
        let b = cache.get_or_materialize(&sc).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "hit must share the cached trace");
        assert_eq!(cache.stats(), (1, 1, 1, 0));
    }

    #[test]
    fn distinct_scenarios_occupy_distinct_slots() {
        let cache = TraceCache::new();
        let a = cache.get_or_materialize(&scenario(1, 0.9)).unwrap();
        let b = cache.get_or_materialize(&scenario(2, 0.9)).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats(), (0, 2, 2, 0));
    }

    #[test]
    fn lru_eviction_under_cap_of_two() {
        let cache = TraceCache::with_capacity(2);
        let (a, b, c) = (scenario(1, 0.9), scenario(2, 0.9), scenario(3, 0.9));
        cache.get_or_materialize(&a).unwrap();
        cache.get_or_materialize(&b).unwrap();
        // Touch `a`: it becomes the most recently used of the two.
        cache.get_or_materialize(&a).unwrap();
        // Third distinct scenario at cap 2: the LRU entry — `b` — goes.
        cache.get_or_materialize(&c).unwrap();
        let (hits, misses, entries, evictions) = cache.stats();
        assert_eq!((hits, misses, entries, evictions), (1, 3, 2, 1));
        // `b` misses again (re-materializes), evicting the new LRU `a`;
        // `c` — just inserted — still hits.
        cache.get_or_materialize(&b).unwrap();
        cache.get_or_materialize(&c).unwrap();
        let (hits, misses, _, evictions) = cache.stats();
        assert_eq!((hits, misses, evictions), (2, 4, 2));
    }

    #[test]
    fn poisoned_scenario_is_never_cached() {
        let cache = TraceCache::new();
        let bad = scenario(1, -1.0); // scale_to_load panics on negative load
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // expected panics below
        let first = cache.get_or_materialize(&bad);
        let second = cache.get_or_materialize(&bad);
        std::panic::set_hook(hook);
        for result in [first, second] {
            let panic = result.expect_err("poisoned scenario must fail");
            assert!(panic.contains("target load must be positive"));
        }
        let (_, misses, entries, _) = cache.stats();
        assert_eq!((misses, entries), (2, 0), "failures must not be cached");
    }
}
