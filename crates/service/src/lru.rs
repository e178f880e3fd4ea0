//! Bounded least-recently-used map, shared by the daemon's two caches.
//!
//! Both [`ResultCache`](crate::cache::ResultCache) (reports by canonical
//! config JSON) and [`TraceCache`](crate::tracecache::TraceCache) (traces
//! by canonical scenario JSON) memoize under the **full canonical text**,
//! not a hash of it, so two distinct keys can never alias a slot, even
//! under a 64-bit collision.
//!
//! Past the entry cap, inserting a new key evicts the entry with the
//! oldest logical tick; lookup hits refresh recency. The eviction scan
//! is O(entries) on purpose: an insert only follows a full simulation or
//! trace materialization, so the scan is noise, and the flat map keeps
//! lookups — the hot path — one hash probe.

use obs::metrics::{Counter, Metric, Registry};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Guarded state: each value with the logical tick of its last hit or
/// insert, and the clock that stamps them.
#[derive(Debug)]
struct Slots<V> {
    map: HashMap<String, (V, u64)>,
    clock: u64,
}

impl<V> Slots<V> {
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }
}

/// A thread-safe map keyed by canonical JSON, bounded to `cap` entries
/// with LRU eviction. Counters are monotone over the map's lifetime.
#[derive(Debug)]
pub struct Lru<V> {
    slots: Mutex<Slots<V>>,
    cap: usize,
    // Shared obs handles so an owning daemon can `bind_metrics` them
    // into its registry; the map increments, the registry reads.
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
}

impl<V: Clone> Lru<V> {
    /// An empty map holding at most `cap` entries (minimum 1).
    pub fn new(cap: usize) -> Self {
        Lru {
            slots: Mutex::new(Slots {
                map: HashMap::new(),
                clock: 0,
            }),
            cap: cap.max(1),
            hits: Arc::new(Counter::new()),
            misses: Arc::new(Counter::new()),
            evictions: Arc::new(Counter::new()),
        }
    }

    /// The value under `key`, bumping the hit or miss counter. A hit
    /// refreshes the entry's recency.
    pub fn get(&self, key: &str) -> Option<V> {
        let mut slots = self.slots.lock();
        let now = slots.tick();
        match slots.map.get_mut(key) {
            Some((value, tick)) => {
                *tick = now;
                self.hits.inc();
                Some(value.clone())
            }
            None => {
                self.misses.inc();
                None
            }
        }
    }

    /// Store `value` under `key`, evicting the least-recently-used entry
    /// if the map is full. Re-inserting a resident key replaces its
    /// value and never evicts.
    pub fn insert(&self, key: String, value: V) {
        let mut slots = self.slots.lock();
        let tick = slots.tick();
        if slots.map.len() >= self.cap && !slots.map.contains_key(&key) {
            let coldest = slots
                .map
                .iter()
                .min_by_key(|(_, (_, tick))| *tick)
                .map(|(key, _)| key.clone())
                .expect("cap >= 1, so a full map is non-empty");
            slots.map.remove(&coldest);
            self.evictions.inc();
        }
        slots.map.insert(key, (value, tick));
    }

    /// `(hits, misses, entries, evictions)` counters.
    pub fn stats(&self) -> (u64, u64, u64, u64) {
        (
            self.hits.get(),
            self.misses.get(),
            self.slots.lock().map.len() as u64,
            self.evictions.get(),
        )
    }

    /// Expose the counters to `registry` as
    /// `{prefix}.{hits,misses,evictions}`.
    pub fn bind_metrics(&self, registry: &Registry, prefix: &str) {
        for (name, counter) in [
            ("hits", &self.hits),
            ("misses", &self.misses),
            ("evictions", &self.evictions),
        ] {
            registry.bind(
                &format!("{prefix}.{name}"),
                Metric::Counter(counter.clone()),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_eviction_under_cap_of_two() {
        let lru = Lru::new(2);
        lru.insert("a".to_string(), 1);
        lru.insert("b".to_string(), 2);
        // Touch `a`: it becomes the most recently used of the two.
        assert_eq!(lru.get("a"), Some(1));
        // Third insert at cap 2: the LRU entry — `b`, not `a` — goes.
        lru.insert("c".to_string(), 3);
        assert_eq!(lru.stats(), (1, 0, 2, 1));
        assert_eq!(lru.get("b"), None, "the least-recently-used entry goes");
        assert_eq!(lru.get("a"), Some(1));
        assert_eq!(lru.get("c"), Some(3));
        // Re-inserting a resident key at cap replaces it and never evicts.
        lru.insert("a".to_string(), 10);
        assert_eq!(lru.get("a"), Some(10));
        assert_eq!(lru.stats(), (4, 1, 2, 1));
        // `c` is now the coldest: a new key evicts it, not `a`.
        lru.insert("d".to_string(), 4);
        assert_eq!(lru.get("c"), None);
        assert_eq!(lru.get("a"), Some(10));
        assert_eq!(lru.stats(), (5, 2, 2, 2));
    }
}
