//! Property torture for the journals. Through the shared
//! `service::journal::Journal`, for both record types (sweep records and
//! cache entries): arbitrary byte truncation never loses a complete
//! record, and a second open is clean. For the sweep journal on top:
//! resume after truncation recovers exactly the complete cells,
//! duplicated records resolve first-writer-wins, and a record whose
//! `config_hash` belongs to a different plan is rejected with its line
//! number — never silently replayed.
//!
//! `PROPTEST_CASES` raises the case count (CI runs this file in release
//! at 2000).

use coord::{CellDone, JournalError, Plan, SweepJournal, SweepRecord};
use proptest::prelude::*;
use sched::Policy;
use service::journal::{Journal, Record};
use service::{cache, ResultCache};
use workload::EstimateModel;

use backfill_sim::SchedulerKind;
use bench_lib::sweep::{SweepSpec, TraceModel};
use std::path::PathBuf;
use std::sync::OnceLock;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bfsim-journal-torture-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

/// 4 fast cells, parameterized by seeds so two disjoint plans exist.
fn spec(seeds: Vec<u64>) -> SweepSpec {
    SweepSpec {
        models: vec![TraceModel::Ctc],
        jobs: 50,
        seeds,
        estimates: vec![EstimateModel::Exact],
        estimate_seeds: vec![1],
        loads: vec![Some(0.9)],
        kinds: vec![SchedulerKind::Easy],
        policies: vec![Policy::Fcfs, Policy::Sjf],
    }
}

/// Computed once: plan A with a fully journaled run (as text), the
/// cache journal of a daemon that served those cells, plan B (disjoint
/// cells), and one valid record line written for plan B.
struct Fixture {
    plan_a: Plan,
    text_a: String,
    cache_text: String,
    plan_b: Plan,
    foreign_line: String,
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let journal_for = |name: &str, seeds: Vec<u64>, cells_to_log: usize| {
            let plan = Plan::new(&spec(seeds).expand(), 2);
            let path = tmp(name);
            let journal = SweepJournal::create(&path, &plan).expect("create journal");
            for index in 0..cells_to_log {
                let cfg = &plan.cells[index];
                journal
                    .append_done(&CellDone {
                        index,
                        config_hash: plan.hashes[index],
                        shard: index % 2,
                        stolen: false,
                        cached: false,
                        wall_ms: 1,
                        report: service::RunReport::from_schedule(cfg, &cfg.run()),
                    })
                    .expect("append");
            }
            let text = std::fs::read_to_string(&path).expect("read journal back");
            (plan, text)
        };
        let (plan_a, text_a) = journal_for("torture-a.jsonl", vec![7, 8], 4);
        let (plan_b, text_b) = journal_for("torture-b.jsonl", vec![9, 10], 1);
        let cache_path = tmp("torture-cache.jsonl");
        let _ = std::fs::remove_file(&cache_path);
        let cache = ResultCache::with_journal(8, &cache_path).expect("open cache journal");
        for cfg in &plan_a.cells {
            cache.insert(
                cfg.canonical_json(),
                service::RunReport::from_schedule(cfg, &cfg.run()),
            );
        }
        let cache_text = std::fs::read_to_string(&cache_path).expect("read cache journal");
        let foreign_line = text_b
            .lines()
            .nth(1)
            .expect("plan B journal has one record")
            .to_string();
        Fixture {
            plan_a,
            text_a,
            cache_text,
            plan_b,
            foreign_line,
        }
    })
}

/// Case count: `PROPTEST_CASES` can raise it, never lower it.
fn cases(default: u32) -> ProptestConfig {
    let raised = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    ProptestConfig::with_cases(default.max(raised))
}

/// Cut `text` at `cut` and open it as a `Journal<R>`: exactly the records
/// whose newline is on disk replay, the torn tail's size is reported,
/// the file is cut back to the good prefix, and a second open is clean.
fn open_after_cut<R: Record>(text: &str, cut: usize, name: &str) -> Result<(), TestCaseError> {
    let prefix = &text.as_bytes()[..cut];
    let path = tmp(name);
    std::fs::write(&path, prefix).expect("write torn journal");
    let complete = prefix.iter().filter(|&&b| b == b'\n').count();
    let good_len = prefix
        .iter()
        .rposition(|&b| b == b'\n')
        .map_or(0, |at| at + 1);

    let (journal, replay) = Journal::<R>::open(&path, Ok::<_, std::io::Error>).expect("open");
    prop_assert_eq!(replay.records.len(), complete);
    prop_assert_eq!(replay.dropped_bytes as usize, cut - good_len);
    drop(journal);
    prop_assert!(
        std::fs::read(&path).expect("read back") == prefix[..good_len],
        "the file is cut back to exactly the good prefix"
    );
    let (_, again) = Journal::<R>::open(&path, Ok::<_, std::io::Error>).expect("second open");
    prop_assert_eq!(again.dropped_bytes, 0, "truncation is idempotent");
    prop_assert_eq!(again.records.len(), complete);
    let _ = std::fs::remove_file(&path);
    Ok(())
}

proptest! {
    #![proptest_config(cases(64))]

    /// Any cut of a sweep journal keeps every complete record.
    #[test]
    fn any_cut_keeps_every_complete_sweep_record(raw in 0u64..1_000_000) {
        let text = &fixture().text_a;
        let cut = (raw as usize) % (text.len() + 1);
        open_after_cut::<SweepRecord>(text, cut, &format!("cut-sweep-{cut}.jsonl"))?;
    }

    /// Any cut of a cache journal keeps every complete entry.
    #[test]
    fn any_cut_keeps_every_complete_cache_entry(raw in 0u64..1_000_000) {
        let text = &fixture().cache_text;
        let cut = (raw as usize) % (text.len() + 1);
        open_after_cut::<cache::Entry>(text, cut, &format!("cut-cache-{cut}.jsonl"))?;
    }

    /// Cutting the journal at *any* byte offset keeps every record
    /// whose line survived intact: resume recovers `complete - 1` cells
    /// (minus the header), reports the exact torn-tail size, truncates
    /// the file to the good prefix, and a second resume of the
    /// truncated file drops nothing further.
    #[test]
    fn torn_tail_resume_recovers_exactly_the_complete_prefix(raw in 0u64..1_000_000) {
        let fix = fixture();
        let cut = (raw as usize) % (fix.text_a.len() + 1);
        let prefix = &fix.text_a.as_bytes()[..cut];
        let path = tmp(&format!("torn-{cut}.jsonl"));
        std::fs::write(&path, prefix).expect("write torn journal");

        // A line only counts once its newline is on disk.
        let complete = prefix.iter().filter(|&&b| b == b'\n').count();
        let good_len = prefix
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |at| at + 1);
        match SweepJournal::resume(&path, &fix.plan_a) {
            Ok((journal, replay)) => {
                prop_assert!(complete >= 1, "a missing header must not resume");
                prop_assert_eq!(replay.resolved(), complete - 1);
                prop_assert_eq!(replay.dropped_bytes as usize, cut - good_len);
                prop_assert_eq!(replay.truncated, cut != good_len);
                drop(journal);
                prop_assert_eq!(
                    std::fs::metadata(&path).expect("metadata").len() as usize,
                    good_len,
                    "the torn tail is cut from the file itself"
                );
                let (_, again) =
                    SweepJournal::resume(&path, &fix.plan_a).expect("second resume");
                prop_assert!(!again.truncated, "truncation is idempotent");
                prop_assert_eq!(again.resolved(), complete - 1);
            }
            Err(JournalError::MissingHeader) => prop_assert_eq!(
                complete, 0,
                "only a torn header line may fail the resume"
            ),
            Err(other) => prop_assert!(false, "unexpected resume error: {other}"),
        }
    }

    /// Re-appending already-present records (the crash window where a
    /// cell was journaled but the coordinator died before advancing)
    /// resolves first-writer-wins: the replay is unchanged and every
    /// extra copy is counted, never applied.
    #[test]
    fn duplicate_records_are_counted_not_replayed(
        picks in proptest::collection::vec(0u64..4, 1..8),
    ) {
        let fix = fixture();
        let lines: Vec<&str> = fix.text_a.lines().collect();
        let mut text: String = fix.text_a.clone();
        for pick in &picks {
            // lines[0] is the header; records live at 1..=4.
            text.push_str(lines[1 + *pick as usize]);
            text.push('\n');
        }
        let path = tmp(&format!("dupes-{}-{}.jsonl", picks.len(), picks[0]));
        std::fs::write(&path, &text).expect("write journal");

        let (_, replay) = SweepJournal::resume(&path, &fix.plan_a).expect("resume");
        prop_assert_eq!(replay.resolved(), fix.plan_a.len());
        prop_assert_eq!(replay.duplicates, picks.len() as u64);
        prop_assert!(!replay.truncated);
        // And inspect (plan-free) agrees on the counts.
        let stats = SweepJournal::inspect(&path).expect("inspect");
        prop_assert_eq!(stats.done, fix.plan_a.len());
        prop_assert_eq!(stats.duplicates, picks.len() as u64);
    }

    /// A checksum-valid record whose config_hash belongs to a different
    /// plan is a corrupt journal, not a skippable row: resume must
    /// refuse, naming the offending line.
    #[test]
    fn foreign_record_is_rejected_with_its_line_number(at in 0u64..5) {
        let fix = fixture();
        let at = at as usize; // record-boundary insertion point, 0..=4
        let mut text = String::new();
        for (i, line) in fix.text_a.lines().enumerate() {
            if i == at + 1 {
                text.push_str(&fix.foreign_line);
                text.push('\n');
            }
            text.push_str(line);
            text.push('\n');
        }
        if at == 4 {
            text.push_str(&fix.foreign_line);
            text.push('\n');
        }
        let path = tmp(&format!("foreign-{at}.jsonl"));
        std::fs::write(&path, &text).expect("write journal");

        match SweepJournal::resume(&path, &fix.plan_a) {
            Err(JournalError::BadRecord { line, why }) => {
                prop_assert_eq!(line, at + 2, "1-based line of the splice: {why}");
                prop_assert!(why.contains("config_hash"), "reason names the field: {why}");
            }
            Ok(_) => prop_assert!(false, "a foreign record must not resume"),
            Err(other) => prop_assert!(false, "unexpected resume error: {other}"),
        }
    }
}

/// The same journal resumed against the *wrong plan entirely* (plan B)
/// is a plan mismatch, pinned here next to the torture properties.
#[test]
fn wrong_plan_resume_is_a_plan_mismatch() {
    let fix = fixture();
    let path = tmp("wrong-plan.jsonl");
    std::fs::write(&path, &fix.text_a).expect("write journal");
    match SweepJournal::resume(&path, &fix.plan_b) {
        Err(JournalError::PlanMismatch { expected, found }) => {
            assert_eq!(found, fix.plan_a.content_hash());
            assert_eq!(expected, fix.plan_b.content_hash());
        }
        other => panic!("expected PlanMismatch, got {other:?}"),
    }
}
