//! Content-addressed result cache.
//!
//! Completed runs are memoized in an [`Lru`] under the **canonical
//! JSON** of their `RunConfig` (see `backfill_sim::canon`). The FNV-1a
//! hash of the key is carried alongside purely as the compact label
//! shown in responses and logs. Simulations are deterministic (equal
//! config ⇒ byte-identical schedule ⇒ byte-identical report), so a hit
//! returns a report indistinguishable from re-running the scenario,
//! minus the compute.
//!
//! # Crash recovery
//!
//! With [`ResultCache::with_journal`] every insert is also appended to a
//! [`Journal`] of [`Entry`] records: one line per insert,
//! `{"crc":C,"entry":{"key":K,"report":R}}`. On startup the journal's
//! good prefix is replayed in file order under the same LRU cap, and its
//! torn tail (if any) is cut. The journal is a log, not a snapshot:
//! entries evicted in memory may be re-admitted on replay (the cap is
//! re-applied), and duplicate appends replay idempotently.

use crate::journal::{Journal, Record};
use crate::lru::Lru;
use crate::protocol::{JournalHealth, RunReport};
use backfill_sim::canon::fnv1a_64;
use obs::metrics::{Metric, Registry};
use serde::{Deserialize, Serialize};
use std::io;
use std::path::Path;

/// One cache-journal record: exactly what [`ResultCache::insert`] took.
#[derive(Debug, Serialize, Deserialize)]
pub struct Entry {
    /// Canonical config JSON.
    pub key: String,
    /// The memoized report.
    pub report: RunReport,
}

impl Record for Entry {
    const FIELD: &'static str = "entry";
}

/// Thread-safe memoization of completed runs, keyed by canonical config
/// JSON, bounded to `cap` entries with LRU eviction, optionally backed
/// by a journal.
#[derive(Debug)]
pub struct ResultCache {
    /// Display hash and report per canonical key.
    entries: Lru<(u64, RunReport)>,
    /// The journal and what its startup replay found (`appended` is
    /// read live from the journal's counter).
    journal: Option<(Journal<Entry>, JournalHealth)>,
}

impl Default for ResultCache {
    fn default() -> Self {
        Self::with_capacity(Self::DEFAULT_CAP)
    }
}

/// A cache lookup's outcome, as reported by [`ResultCache::lookup`].
// A Hit carries the full ~1 KB report by value: every Hit is immediately
// serialized into a response, so boxing would buy nothing but an extra
// allocation on the cache's whole purpose.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum Lookup {
    /// The report was memoized; serving it costs no simulation.
    Hit {
        /// Content hash of the canonical key (the display label).
        hash: u64,
        /// The memoized report.
        report: RunReport,
    },
    /// Not memoized; the caller must run the scenario (and should
    /// [`ResultCache::insert`] the result).
    Miss {
        /// Content hash of the canonical key.
        hash: u64,
    },
}

impl ResultCache {
    /// Default entry cap: a full paper sweep is a few hundred cells, so
    /// this holds several complete sweeps before anything is evicted.
    pub const DEFAULT_CAP: usize = 1024;

    /// Create an empty cache with the default entry cap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an empty cache holding at most `cap` entries (minimum 1).
    pub fn with_capacity(cap: usize) -> Self {
        ResultCache {
            entries: Lru::new(cap),
            journal: None,
        }
    }

    /// Create a cache backed by the journal at `path` (created when
    /// absent), replaying its good prefix in file order, so recency
    /// follows append order, and cutting its torn tail. What the replay
    /// found is in [`Self::journal_health`].
    pub fn with_journal(cap: usize, path: &Path) -> io::Result<Self> {
        let mut cache = Self::with_capacity(cap);
        let (journal, replay) = Journal::open(path, Ok::<_, io::Error>)?;
        let health = JournalHealth {
            path: path.display().to_string(),
            replayed: replay.records.len() as u64,
            appended: 0,
            truncated: replay.dropped_bytes > 0,
            dropped_bytes: replay.dropped_bytes,
        };
        for entry in replay.records {
            cache.insert_in_memory(entry);
        }
        cache.journal = Some((journal, health));
        Ok(cache)
    }

    /// The journal's health snapshot, `None` when no journal is
    /// configured.
    pub fn journal_health(&self) -> Option<JournalHealth> {
        self.journal
            .as_ref()
            .map(|(journal, replay)| JournalHealth {
                appended: journal.appends().get(),
                ..replay.clone()
            })
    }

    /// Expose the cache's counters to `registry` under
    /// `service.cache.{hits,misses,evictions}` (plus
    /// `service.cache.journal_appends` when journaling — see DESIGN.md
    /// §12/§13).
    pub fn bind_metrics(&self, registry: &Registry) {
        self.entries.bind_metrics(registry, "service.cache");
        if let Some((journal, _)) = &self.journal {
            registry.bind(
                "service.cache.journal_appends",
                Metric::Counter(journal.appends().clone()),
            );
        }
    }

    /// Look up a canonical config key, bumping the hit or miss counter.
    /// A hit refreshes the entry's recency.
    pub fn lookup(&self, canonical: &str) -> Lookup {
        match self.entries.get(canonical) {
            Some((hash, report)) => Lookup::Hit { hash, report },
            None => Lookup::Miss {
                hash: fnv1a_64(canonical.as_bytes()),
            },
        }
    }

    /// Memoize a completed run, evicting the least-recently-used entry
    /// if the cache is at capacity. Idempotent: two workers racing on
    /// the same scenario insert byte-identical reports, so
    /// last-write-wins is harmless (and re-inserting never evicts).
    /// When a journal is configured the entry is also appended and
    /// flushed before this returns, so a `SIGKILL` any time after an
    /// insert finds the entry durable.
    pub fn insert(&self, canonical: String, report: RunReport) {
        let entry = Entry {
            key: canonical,
            report,
        };
        if let Some((journal, _)) = &self.journal {
            if journal.append(&entry).is_err() {
                obs::warn!(
                    target: "service::cache",
                    "journal append failed at {}; entry stays in memory only",
                    journal.path().display()
                );
            }
        }
        self.insert_in_memory(entry);
    }

    /// The in-memory half of [`Self::insert`] — also the replay path,
    /// which must not append what it just read back.
    fn insert_in_memory(&self, entry: Entry) {
        let hash = fnv1a_64(entry.key.as_bytes());
        self.entries.insert(entry.key, (hash, entry.report));
    }

    /// `(hits, misses, entries, evictions)` counters.
    pub fn stats(&self) -> (u64, u64, u64, u64) {
        self.entries.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::RunReport;
    use backfill_sim::{RunConfig, Scenario, SchedulerKind, TraceSource};
    use sched::Policy;

    fn config(seed: u64) -> RunConfig {
        RunConfig {
            scenario: Scenario::high_load(TraceSource::Ctc { jobs: 60, seed }),
            kind: SchedulerKind::Easy,
            policy: Policy::Fcfs,
        }
    }

    #[test]
    fn miss_then_hit_round_trip() {
        let cache = ResultCache::new();
        let cfg = config(1);
        let key = cfg.canonical_json();
        let miss_hash = match cache.lookup(&key) {
            Lookup::Miss { hash } => hash,
            Lookup::Hit { .. } => panic!("empty cache reported a hit"),
        };
        assert_eq!(miss_hash, cfg.content_hash());

        let report = RunReport::from_schedule(&cfg, &cfg.run());
        let fresh_bytes = serde_json::to_string(&report).unwrap();
        cache.insert(key.clone(), report);

        match cache.lookup(&key) {
            Lookup::Hit { hash, report } => {
                assert_eq!(hash, miss_hash);
                // The memoized report serializes byte-identically to the
                // fresh one.
                assert_eq!(serde_json::to_string(&report).unwrap(), fresh_bytes);
            }
            Lookup::Miss { .. } => panic!("inserted key missed"),
        }
        assert_eq!(cache.stats(), (1, 1, 1, 0));
    }

    #[test]
    fn lru_eviction_under_cap_of_two() {
        let cache = ResultCache::with_capacity(2);
        let (a, b, c) = (config(1), config(2), config(3));
        let report = |cfg: &RunConfig| RunReport::from_schedule(cfg, &cfg.run());
        cache.insert(a.canonical_json(), report(&a));
        cache.insert(b.canonical_json(), report(&b));
        // Touch `a`: it becomes the most recently used of the two.
        assert!(matches!(
            cache.lookup(&a.canonical_json()),
            Lookup::Hit { .. }
        ));
        // Third insert at cap 2: the LRU entry — `b`, not `a` — goes.
        cache.insert(c.canonical_json(), report(&c));
        let (hits, _, entries, evictions) = cache.stats();
        assert_eq!((hits, entries, evictions), (1, 2, 1));
        assert!(
            matches!(cache.lookup(&b.canonical_json()), Lookup::Miss { .. }),
            "least-recently-used entry must be the one evicted"
        );
        assert!(matches!(
            cache.lookup(&a.canonical_json()),
            Lookup::Hit { .. }
        ));
        assert!(matches!(
            cache.lookup(&c.canonical_json()),
            Lookup::Hit { .. }
        ));
        // Re-inserting a resident key at cap never evicts.
        cache.insert(a.canonical_json(), report(&a));
        let (_, _, entries, evictions) = cache.stats();
        assert_eq!((entries, evictions), (2, 1));
    }

    #[test]
    fn distinct_configs_occupy_distinct_slots() {
        let cache = ResultCache::new();
        let a = config(1);
        let b = config(2);
        assert_ne!(a.canonical_json(), b.canonical_json());
        cache.insert(a.canonical_json(), RunReport::from_schedule(&a, &a.run()));
        cache.insert(b.canonical_json(), RunReport::from_schedule(&b, &b.run()));
        let (_, _, entries, _) = cache.stats();
        assert_eq!(entries, 2);
        match cache.lookup(&a.canonical_json()) {
            Lookup::Hit { report, .. } => assert_eq!(report.label, a.label()),
            Lookup::Miss { .. } => panic!("a missed"),
        }
    }

    /// A scratch path under the target-adjacent temp dir, removed on drop.
    struct TempJournal(std::path::PathBuf);
    impl TempJournal {
        fn new(name: &str) -> Self {
            let mut path = std::env::temp_dir();
            path.push(format!("bfsim-cache-test-{}-{}", std::process::id(), name));
            let _ = std::fs::remove_file(&path);
            TempJournal(path)
        }
    }
    impl Drop for TempJournal {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    #[test]
    fn journal_replays_inserts_across_instances() {
        let journal = TempJournal::new("replay");
        let (a, b) = (config(1), config(2));
        let report = |cfg: &RunConfig| RunReport::from_schedule(cfg, &cfg.run());
        let expected = serde_json::to_string(&report(&a)).unwrap();
        {
            let cache = ResultCache::with_journal(8, &journal.0).unwrap();
            let fresh = cache.journal_health().unwrap();
            assert_eq!(
                (fresh.replayed, fresh.dropped_bytes),
                (0, 0),
                "fresh journal is empty"
            );
            cache.insert(a.canonical_json(), report(&a));
            cache.insert(b.canonical_json(), report(&b));
            assert_eq!(cache.journal_health().unwrap().appended, 2);
        } // dropped without any shutdown ceremony — durability is per-insert
        let cache = ResultCache::with_journal(8, &journal.0).unwrap();
        match cache.lookup(&a.canonical_json()) {
            Lookup::Hit { report, .. } => {
                assert_eq!(
                    serde_json::to_string(&report).unwrap(),
                    expected,
                    "replayed report must be byte-identical to the original"
                );
            }
            Lookup::Miss { .. } => panic!("journaled entry missed after replay"),
        }
        assert!(matches!(
            cache.lookup(&b.canonical_json()),
            Lookup::Hit { .. }
        ));
        let health = cache.journal_health().unwrap();
        assert_eq!(
            (health.replayed, health.appended, health.truncated),
            (2, 0, false)
        );
    }

    /// Cache-journal lines written by earlier builds, whose profile
    /// counters included since-deleted fields (two in the oldest, one more
    /// in v2): each still replays, and the cache writes the replayed entry
    /// back as the pinned current line (less those keys, with its own
    /// checksum).
    #[test]
    fn golden_journal_line_replays_and_rewrites_byte_identically() {
        const GOLDEN: &str = include_str!("../tests/golden/cache_journal.jsonl");
        const GOLDEN_V2: &str = include_str!("../tests/golden/cache_journal_v2.jsonl");
        const GOLDEN_V3: &str = include_str!("../tests/golden/cache_journal_v3.jsonl");
        for (name, golden) in [("golden-v1", GOLDEN), ("golden-v2", GOLDEN_V2)] {
            let old = TempJournal::new(name);
            std::fs::write(&old.0, golden).unwrap();
            let cache = ResultCache::with_journal(8, &old.0).unwrap();
            let health = cache.journal_health().unwrap();
            assert_eq!((health.replayed, health.truncated), (1, false), "{name}");
            let entry = Journal::<Entry>::read(&old.0).unwrap().records.remove(0);
            assert!(entry.key.starts_with("{\"kind\":\"Easy\""));
            assert!(matches!(cache.lookup(&entry.key), Lookup::Hit { .. }));

            let new = TempJournal::new("golden-new");
            let rewriter = ResultCache::with_journal(8, &new.0).unwrap();
            rewriter.insert(entry.key, entry.report);
            assert_eq!(
                std::fs::read_to_string(&new.0).unwrap(),
                GOLDEN_V3,
                "{name}"
            );
        }
    }

    #[test]
    fn torn_tail_is_truncated_and_earlier_records_survive() {
        let journal = TempJournal::new("torn");
        let (a, b) = (config(1), config(2));
        let report = |cfg: &RunConfig| RunReport::from_schedule(cfg, &cfg.run());
        {
            let cache = ResultCache::with_journal(8, &journal.0).unwrap();
            cache.insert(a.canonical_json(), report(&a));
            cache.insert(b.canonical_json(), report(&b));
        }
        // Simulate a crash mid-append: chop the final record in half.
        let bytes = std::fs::read(&journal.0).unwrap();
        let first_end = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        let torn_at = first_end + (bytes.len() - first_end) / 2;
        std::fs::write(&journal.0, &bytes[..torn_at]).unwrap();

        let cache = ResultCache::with_journal(8, &journal.0).unwrap();
        // The health view carries the replay provenance, so the `health`
        // verb (and a sweep coordinator polling it) can report shard
        // recovery state: entries replayed + torn-tail bytes dropped.
        let health = cache.journal_health().expect("journaled cache");
        assert_eq!(
            (health.replayed, health.truncated, health.dropped_bytes),
            (1, true, (torn_at - first_end) as u64),
            "only the intact record replays"
        );
        assert!(matches!(
            cache.lookup(&a.canonical_json()),
            Lookup::Hit { .. }
        ));
        assert!(matches!(
            cache.lookup(&b.canonical_json()),
            Lookup::Miss { .. }
        ));
        // The file itself was truncated back to the good prefix...
        assert_eq!(
            std::fs::metadata(&journal.0).unwrap().len(),
            first_end as u64
        );
        // ...and appending resumes cleanly after the truncation point.
        cache.insert(b.canonical_json(), report(&b));
        drop(cache);
        let cache = ResultCache::with_journal(8, &journal.0).unwrap();
        let health = cache.journal_health().unwrap();
        assert_eq!((health.replayed, health.truncated), (2, false));
    }

    #[test]
    fn checksum_mismatch_truncates_from_the_corrupt_record() {
        let journal = TempJournal::new("crc");
        let (a, b) = (config(1), config(2));
        let report = |cfg: &RunConfig| RunReport::from_schedule(cfg, &cfg.run());
        {
            let cache = ResultCache::with_journal(8, &journal.0).unwrap();
            cache.insert(a.canonical_json(), report(&a));
            cache.insert(b.canonical_json(), report(&b));
        }
        // Flip one digit inside the second record's payload: the line
        // still parses as JSON but its crc no longer matches.
        let text = std::fs::read_to_string(&journal.0).unwrap();
        let first_end = text.find('\n').unwrap() + 1;
        let tail = &text[first_end..];
        let digit_at = first_end
            + tail
                .find("\"fingerprint\":")
                .map(|i| i + "\"fingerprint\":".len())
                .expect("reports carry a fingerprint field");
        let mut bytes = text.into_bytes();
        bytes[digit_at] = if bytes[digit_at] == b'1' { b'2' } else { b'1' };
        std::fs::write(&journal.0, &bytes).unwrap();

        let cache = ResultCache::with_journal(8, &journal.0).unwrap();
        let health = cache.journal_health().unwrap();
        assert_eq!((health.replayed, health.truncated), (1, true));
        assert!(matches!(
            cache.lookup(&a.canonical_json()),
            Lookup::Hit { .. }
        ));
        assert!(matches!(
            cache.lookup(&b.canonical_json()),
            Lookup::Miss { .. }
        ));
    }

    #[test]
    fn replay_respects_the_lru_cap() {
        let journal = TempJournal::new("cap");
        let (a, b, c) = (config(1), config(2), config(3));
        let report = |cfg: &RunConfig| RunReport::from_schedule(cfg, &cfg.run());
        {
            let cache = ResultCache::with_journal(8, &journal.0).unwrap();
            cache.insert(a.canonical_json(), report(&a));
            cache.insert(b.canonical_json(), report(&b));
            cache.insert(c.canonical_json(), report(&c));
        }
        // Replay under a smaller cap: file order is recency order, so
        // the oldest append is the one evicted.
        let cache = ResultCache::with_journal(2, &journal.0).unwrap();
        assert_eq!(
            cache.journal_health().unwrap().replayed,
            3,
            "all records replay before the cap trims"
        );
        let (_, _, entries, evictions) = cache.stats();
        assert_eq!((entries, evictions), (2, 1));
        assert!(matches!(
            cache.lookup(&a.canonical_json()),
            Lookup::Miss { .. }
        ));
        assert!(matches!(
            cache.lookup(&c.canonical_json()),
            Lookup::Hit { .. }
        ));
    }
}
