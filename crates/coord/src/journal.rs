//! Durable sweep journal: crash recovery for the coordinator.
//!
//! A sweep journal is a [`service::journal::Journal`] of
//! [`SweepRecord`]s, the same checksummed JSONL format as the daemon's
//! cache journal: every line is `{"crc":C,"record":R}`. The first record
//! is a **plan header** pinning the planned cell set
//! ([`Plan::content_hash`] plus every per-cell content hash); each
//! subsequent record is one resolved cell (`Done` or `Failed`), appended
//! by the dispatcher the moment the cell's outcome slot is won.
//!
//! # Replay invariants
//!
//! [`SweepJournal::resume`] and [`SweepJournal::inspect`] share one
//! replay loop, which checks every record against the header:
//!
//! - The header must be the file's first valid record; for `resume` it
//!   must also match the re-planned sweep exactly — a mismatch is a hard
//!   [`JournalError::PlanMismatch`] (CLI exit 6), never a silent partial
//!   resume.
//! - A checksum-valid record that contradicts the header (a second
//!   header, an index out of range, or a `config_hash` differing from
//!   the header's hash at that index) is a hard
//!   [`JournalError::BadRecord`] (exit 6): the journal belongs to some
//!   other sweep and replaying it would fabricate results.
//! - Duplicate records for one cell are resolved **first-writer-wins**,
//!   matching the dispatcher's in-memory outcome-slot guard; later
//!   duplicates are counted and dropped.
//! - Replay stops at the first torn line; `resume` truncates the file
//!   back to the good prefix, and only after every check passed, so a
//!   crash mid-append costs at most the record being written and a
//!   refused resume changes nothing.
//!
//! Because replayed cells re-enter the outcome table verbatim and the
//! remainder is re-planned identically, a resumed sweep's canonical
//! report is byte-identical to an uninterrupted run's.

use crate::dispatch::CellDone;
use crate::plan::Plan;
use serde::{Deserialize, Serialize};
use service::journal::{Journal, Record, Replay};
use std::io;
use std::path::Path;

/// One durable sweep event.
// `Done` dominates the enum's size via its embedded report, but records
// only ever exist one at a time on the append path, and replay holds
// one per journaled cell — indirection would buy nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum SweepRecord {
    /// The header: identity of the planned cell set. Written exactly
    /// once, as the first record.
    Plan {
        /// [`Plan::content_hash`] of the sweep being journaled.
        plan_hash: u64,
        /// Shard count at write time (informational: resume may run
        /// against a different fleet).
        shards: usize,
        /// Per-cell content hashes in plan order.
        hashes: Vec<u64>,
    },
    /// A cell completed; mirrors [`CellDone`] field-for-field so replay
    /// reconstructs the outcome verbatim.
    Done {
        /// Index into the plan's unique cell list.
        index: usize,
        /// Canonical content hash (daemon-computed, parity-checked).
        config_hash: u64,
        /// Shard that served it (historical: an index into the fleet
        /// that ran the cell, which may differ from the resuming one).
        shard: usize,
        /// True when the cell ran away from its home shard.
        stolen: bool,
        /// True when the shard answered from its result cache.
        cached: bool,
        /// Wall milliseconds the serving shard spent on it.
        wall_ms: u64,
        /// The full simulation report.
        report: service::RunReport,
    },
    /// A cell failed permanently (requeue budget exhausted or a
    /// non-retryable error).
    Failed {
        /// Index into the plan's unique cell list.
        index: usize,
        /// The coordinator-computed content hash.
        config_hash: u64,
        /// Human-readable terminal error.
        error: String,
    },
}

impl Record for SweepRecord {
    const FIELD: &'static str = "record";
}

/// Why a journal could not be replayed. Every variant maps to CLI
/// exit 6 (bad data): resuming from a journal we cannot trust would
/// fabricate sweep results.
#[derive(Debug)]
pub enum JournalError {
    /// The file could not be read or written.
    Io(io::Error),
    /// The journal has no valid plan header (empty file, torn first
    /// line, or a first record that is not `Plan`).
    MissingHeader,
    /// The header's plan hash does not match the re-planned sweep.
    PlanMismatch {
        /// Hash of the sweep being resumed (from `Plan::content_hash`).
        expected: u64,
        /// Hash recorded in the journal header.
        found: u64,
    },
    /// A checksum-valid record contradicts the plan.
    BadRecord {
        /// 1-based line number of the offending record.
        line: usize,
        /// What was wrong with it.
        why: String,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(err) => write!(f, "journal io error: {err}"),
            JournalError::MissingHeader => {
                write!(f, "journal has no valid plan header record")
            }
            JournalError::PlanMismatch { expected, found } => write!(
                f,
                "journal plan hash {found:#018x} does not match this sweep's \
                 plan hash {expected:#018x} (different spec or cell set)"
            ),
            JournalError::BadRecord { line, why } => {
                write!(f, "journal line {line}: {why}")
            }
        }
    }
}

impl std::error::Error for JournalError {}

impl From<io::Error> for JournalError {
    fn from(err: io::Error) -> Self {
        JournalError::Io(err)
    }
}

/// What replaying a journal recovered, fed back into the dispatcher so
/// resolved cells are marked done without dispatching.
#[derive(Debug, Clone, Default)]
pub struct SweepReplay {
    /// Completed cells, reconstructed verbatim.
    pub done: Vec<CellDone>,
    /// Permanently failed cells: `(index, config_hash, error)`.
    pub failed: Vec<(usize, u64, String)>,
    /// Duplicate cell records dropped (first-writer-wins).
    pub duplicates: u64,
    /// True when a torn tail was cut off the file.
    pub truncated: bool,
    /// Bytes dropped with the torn tail.
    pub dropped_bytes: u64,
}

impl SweepReplay {
    /// Cells the replay resolved (done + failed).
    pub fn resolved(&self) -> usize {
        self.done.len() + self.failed.len()
    }
}

/// Plan-free summary of a journal file, for `bfsim coord-status`.
#[derive(Debug, Clone)]
pub struct JournalStats {
    /// Plan hash from the header.
    pub plan_hash: u64,
    /// Shard count recorded in the header.
    pub shards: usize,
    /// Unique cells the plan header declares.
    pub cells: usize,
    /// `Done` records replayed.
    pub done: usize,
    /// `Failed` records replayed.
    pub failed: usize,
    /// Duplicate cell records dropped.
    pub duplicates: u64,
    /// Bytes in the torn tail (0 for a clean file).
    pub dropped_bytes: u64,
}

/// An open sweep journal: appends are durable per record (flushed
/// line by line, so a SIGKILL costs at most the line being written).
#[derive(Debug)]
pub struct SweepJournal {
    journal: Journal<SweepRecord>,
    /// Appends that were the plan header: 1 after `create`, 0 after
    /// `resume`.
    header: u64,
}

impl SweepJournal {
    /// Start a fresh journal for `plan` at `path`, truncating anything
    /// already there and writing the plan header.
    pub fn create(path: &Path, plan: &Plan) -> io::Result<SweepJournal> {
        let journal = Journal::create(path)?;
        journal.append(&SweepRecord::Plan {
            plan_hash: plan.content_hash(),
            shards: plan.shards,
            hashes: plan.hashes.clone(),
        })?;
        Ok(SweepJournal { journal, header: 1 })
    }

    /// Reopen an existing journal against the re-planned sweep:
    /// validate the header and every record, replay resolved cells,
    /// truncate any torn tail, and hold the file open for further
    /// appends.
    pub fn resume(path: &Path, plan: &Plan) -> Result<(SweepJournal, SweepReplay), JournalError> {
        let (journal, replay) = Journal::open(path, |replay| {
            fold(replay, Some(plan)).map(|(_, replay)| replay)
        })?;
        Ok((SweepJournal { journal, header: 0 }, replay))
    }

    /// Summarize a journal without a plan to validate against (for
    /// `coord-status`), checking it exactly as `resume` would except for
    /// the header's match with a re-planned sweep. Writes nothing.
    pub fn inspect(path: &Path) -> Result<JournalStats, JournalError> {
        fold(Journal::read(path)?, None).map(|(stats, _)| stats)
    }

    /// Append a completed cell. Errors are returned, not swallowed —
    /// the dispatcher logs and keeps sweeping (a broken journal must
    /// not fail a healthy sweep).
    pub fn append_done(&self, done: &CellDone) -> io::Result<()> {
        self.journal.append(&SweepRecord::Done {
            index: done.index,
            config_hash: done.config_hash,
            shard: done.shard,
            stolen: done.stolen,
            cached: done.cached,
            wall_ms: done.wall_ms,
            report: done.report.clone(),
        })
    }

    /// Append a permanently failed cell.
    pub fn append_failed(&self, index: usize, config_hash: u64, error: &str) -> io::Result<()> {
        self.journal.append(&SweepRecord::Failed {
            index,
            config_hash,
            error: error.to_string(),
        })
    }

    /// Where the journal lives.
    pub fn path(&self) -> &Path {
        self.journal.path()
    }

    /// Records appended since open (excludes replayed ones and the
    /// header).
    pub fn appended(&self) -> u64 {
        self.journal.appends().get() - self.header
    }
}

/// The one replay loop: check the header (against `plan` when given)
/// and every record against the header, and fold the cells into a
/// replay, first writer winning, and its summary.
fn fold(
    replay: Replay<SweepRecord>,
    plan: Option<&Plan>,
) -> Result<(JournalStats, SweepReplay), JournalError> {
    let mut records = replay.records.into_iter();
    let Some(SweepRecord::Plan {
        plan_hash,
        shards,
        hashes,
    }) = records.next()
    else {
        return Err(JournalError::MissingHeader);
    };
    if let Some(plan) = plan {
        let expected = plan.content_hash();
        if plan_hash != expected || hashes != plan.hashes {
            return Err(JournalError::PlanMismatch {
                expected,
                found: plan_hash,
            });
        }
    }
    let mut out = SweepReplay {
        truncated: replay.dropped_bytes > 0,
        dropped_bytes: replay.dropped_bytes,
        ..SweepReplay::default()
    };
    let mut resolved = vec![false; hashes.len()];
    for (at, record) in records.enumerate() {
        let line = at + 2; // 1-based, after the header
        let bad = |why: String| Err(JournalError::BadRecord { line, why });
        let (index, config_hash) = match &record {
            SweepRecord::Plan { .. } => return bad("second plan header".to_string()),
            SweepRecord::Done {
                index, config_hash, ..
            }
            | SweepRecord::Failed {
                index, config_hash, ..
            } => (*index, *config_hash),
        };
        let Some(&expected) = hashes.get(index) else {
            return bad(format!(
                "cell index {index} outside the {}-cell plan",
                hashes.len()
            ));
        };
        if config_hash != expected {
            return bad(format!(
                "config_hash {config_hash:#018x} is not the plan's hash \
                 {expected:#018x} for cell {index}"
            ));
        }
        if std::mem::replace(&mut resolved[index], true) {
            out.duplicates += 1;
            continue;
        }
        match record {
            SweepRecord::Done {
                index,
                config_hash,
                shard,
                stolen,
                cached,
                wall_ms,
                report,
            } => out.done.push(CellDone {
                index,
                config_hash,
                shard,
                stolen,
                cached,
                wall_ms,
                report,
            }),
            SweepRecord::Failed {
                index,
                config_hash,
                error,
            } => out.failed.push((index, config_hash, error)),
            SweepRecord::Plan { .. } => unreachable!("rejected above"),
        }
    }
    let stats = JournalStats {
        plan_hash,
        shards,
        cells: hashes.len(),
        done: out.done.len(),
        failed: out.failed.len(),
        duplicates: out.duplicates,
        dropped_bytes: out.dropped_bytes,
    };
    Ok((stats, out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bench_lib::sweep::tiny_spec;
    use std::fs::{self, OpenOptions};
    use std::io::Write;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("bfsim-journal-{}-{name}.jsonl", std::process::id()));
        let _ = fs::remove_file(&path);
        path
    }

    fn tiny_plan() -> Plan {
        Plan::new(&tiny_spec().expand(), 2)
    }

    fn fake_done(plan: &Plan, index: usize) -> CellDone {
        let cfg = &plan.cells[index];
        let report = service::RunReport::from_schedule(cfg, &cfg.run());
        CellDone {
            index,
            config_hash: plan.hashes[index],
            shard: plan.home[index],
            stolen: false,
            cached: false,
            wall_ms: 7,
            report,
        }
    }

    #[test]
    fn create_then_resume_replays_everything() {
        let path = tmp("roundtrip");
        let plan = tiny_plan();
        let journal = SweepJournal::create(&path, &plan).unwrap();
        journal.append_done(&fake_done(&plan, 0)).unwrap();
        journal.append_failed(2, plan.hashes[2], "boom").unwrap();
        assert_eq!(journal.appended(), 2);
        drop(journal);

        let (_, replay) = SweepJournal::resume(&path, &plan).unwrap();
        assert_eq!(replay.done.len(), 1);
        assert_eq!(replay.done[0].index, 0);
        assert_eq!(replay.done[0].config_hash, plan.hashes[0]);
        assert_eq!(replay.failed, vec![(2, plan.hashes[2], "boom".to_string())]);
        assert!(!replay.truncated);
        assert_eq!(replay.resolved(), 2);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_truncated_and_stays_truncated() {
        let path = tmp("torn");
        let plan = tiny_plan();
        let journal = SweepJournal::create(&path, &plan).unwrap();
        journal.append_done(&fake_done(&plan, 1)).unwrap();
        drop(journal);
        let clean_len = fs::metadata(&path).unwrap().len();
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(b"{\"crc\":1,\"record\":{\"Done\":{\"ind")
            .unwrap();
        drop(file);

        let (_, replay) = SweepJournal::resume(&path, &plan).unwrap();
        assert_eq!(replay.done.len(), 1);
        assert!(replay.truncated);
        assert!(replay.dropped_bytes > 0);
        assert_eq!(fs::metadata(&path).unwrap().len(), clean_len);

        let (_, replay) = SweepJournal::resume(&path, &plan).unwrap();
        assert!(!replay.truncated, "second resume sees a clean file");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn duplicate_records_are_first_writer_wins() {
        let path = tmp("dups");
        let plan = tiny_plan();
        let journal = SweepJournal::create(&path, &plan).unwrap();
        let mut first = fake_done(&plan, 0);
        first.wall_ms = 1;
        let mut second = fake_done(&plan, 0);
        second.wall_ms = 99;
        journal.append_done(&first).unwrap();
        journal.append_done(&second).unwrap();
        // A Failed after a Done for the same cell is also a duplicate.
        journal
            .append_failed(0, plan.hashes[0], "late loser")
            .unwrap();
        drop(journal);

        let (_, replay) = SweepJournal::resume(&path, &plan).unwrap();
        assert_eq!(replay.done.len(), 1);
        assert_eq!(replay.done[0].wall_ms, 1, "first writer wins");
        assert!(replay.failed.is_empty());
        assert_eq!(replay.duplicates, 2);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn plan_mismatch_is_rejected() {
        let path = tmp("mismatch");
        let plan = tiny_plan();
        SweepJournal::create(&path, &plan).unwrap();
        let mut other_cells = tiny_spec().expand();
        other_cells.truncate(3);
        let other = Plan::new(&other_cells, 2);
        match SweepJournal::resume(&path, &other) {
            Err(JournalError::PlanMismatch { expected, found }) => {
                assert_eq!(expected, other.content_hash());
                assert_eq!(found, plan.content_hash());
            }
            other => panic!("expected PlanMismatch, got {other:?}"),
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn foreign_config_hash_is_rejected() {
        let path = tmp("foreign");
        let plan = tiny_plan();
        let journal = SweepJournal::create(&path, &plan).unwrap();
        journal.append_failed(1, 0xDEAD_BEEF, "not ours").unwrap();
        drop(journal);
        match SweepJournal::resume(&path, &plan) {
            Err(JournalError::BadRecord { line, why }) => {
                assert_eq!(line, 2);
                assert!(why.contains("config_hash"), "why: {why}");
            }
            other => panic!("expected BadRecord, got {other:?}"),
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn missing_header_is_rejected() {
        let path = tmp("headerless");
        fs::write(&path, b"").unwrap();
        assert!(matches!(
            SweepJournal::resume(&path, &tiny_plan()),
            Err(JournalError::MissingHeader)
        ));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn inspect_summarizes_without_a_plan() {
        let path = tmp("inspect");
        let plan = tiny_plan();
        let journal = SweepJournal::create(&path, &plan).unwrap();
        journal.append_done(&fake_done(&plan, 0)).unwrap();
        journal.append_done(&fake_done(&plan, 0)).unwrap();
        journal.append_failed(3, plan.hashes[3], "x").unwrap();
        drop(journal);
        let stats = SweepJournal::inspect(&path).unwrap();
        assert_eq!(stats.plan_hash, plan.content_hash());
        assert_eq!(stats.cells, plan.len());
        assert_eq!(stats.done, 1);
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.duplicates, 1);
        assert_eq!(stats.dropped_bytes, 0);
        let _ = fs::remove_file(&path);
    }

    /// `coord-status` checks records exactly as `resume` does: an index
    /// outside the plan, a foreign `config_hash` and a second header are
    /// each a bad record, not a count.
    #[test]
    fn inspect_rejects_what_resume_rejects() {
        let plan = tiny_plan();
        let cases = [
            (
                SweepRecord::Failed {
                    index: 99,
                    config_hash: plan.hashes[0],
                    error: "x".to_string(),
                },
                "cell index 99 outside the 6-cell plan",
            ),
            (
                SweepRecord::Failed {
                    index: 1,
                    config_hash: 0xDEAD_BEEF,
                    error: "x".to_string(),
                },
                "config_hash",
            ),
            (
                SweepRecord::Plan {
                    plan_hash: plan.content_hash(),
                    shards: plan.shards,
                    hashes: plan.hashes.clone(),
                },
                "second plan header",
            ),
        ];
        for (at, (record, reason)) in cases.into_iter().enumerate() {
            let path = tmp(&format!("inspect-bad-{at}"));
            SweepJournal::create(&path, &plan).unwrap();
            let (raw, ()) = Journal::open(&path, |_| Ok::<_, io::Error>(())).unwrap();
            raw.append(&record).unwrap();
            drop(raw);
            for err in [
                SweepJournal::inspect(&path).unwrap_err(),
                SweepJournal::resume(&path, &plan).unwrap_err(),
            ] {
                match err {
                    JournalError::BadRecord { line, why } => {
                        assert_eq!(line, 2);
                        assert!(why.contains(reason), "why: {why}");
                    }
                    other => panic!("expected BadRecord, got {other:?}"),
                }
            }
            let _ = fs::remove_file(&path);
        }
    }

    /// Sweep journals written by earlier builds, whose profile counters
    /// included since-deleted fields (two in the oldest, one more in v2):
    /// both still replay, and appending the replayed records writes the
    /// pinned current lines (each `Done` line less those keys, with its
    /// own checksum; the header unchanged).
    #[test]
    fn golden_journal_lines_replay_and_rewrite_byte_identically() {
        const GOLDEN: &str = include_str!("../tests/golden/sweep_journal.jsonl");
        const GOLDEN_V2: &str = include_str!("../tests/golden/sweep_journal_v2.jsonl");
        const GOLDEN_V3: &str = include_str!("../tests/golden/sweep_journal_v3.jsonl");
        for (name, golden) in [("golden-v1", GOLDEN), ("golden-v2", GOLDEN_V2)] {
            let old = tmp(name);
            fs::write(&old, golden).unwrap();
            let stats = SweepJournal::inspect(&old).unwrap();
            assert_eq!((stats.cells, stats.done, stats.dropped_bytes), (6, 1, 0));

            let new = tmp("golden-new");
            let rewriter = Journal::<SweepRecord>::create(&new).unwrap();
            for record in Journal::<SweepRecord>::read(&old).unwrap().records {
                rewriter.append(&record).unwrap();
            }
            assert_eq!(fs::read_to_string(&new).unwrap(), GOLDEN_V3, "{name}");
            let _ = fs::remove_file(&old);
            let _ = fs::remove_file(&new);
        }
    }
}
