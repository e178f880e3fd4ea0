//! Property test of the compression modes' guarantee discipline.
//!
//! When an early completion opens a hole, every compression mode promises
//! the same thing: **no queued job's guaranteed start moves later** than it
//! was before the hole opened. `Backfill` (the paper's semantics) either
//! starts a job in the hole or leaves its guarantee untouched; `HeadStart`
//! does the same but stops at the first blocked job; `Reanchor` may pull
//! guarantees earlier without starting the job.
//!
//! Note the property deliberately compares each mode against the
//! *pre-compression* guarantees, not jobwise against `Backfill`'s
//! post-compression schedule: re-anchoring a higher-priority job into the
//! middle of the hole can consume capacity that `Backfill` would have
//! handed to a lower-priority job, so jobwise "Reanchor ≤ Backfill" is
//! simply false. What all modes do guarantee — and what conservative
//! backfilling's contract requires — is that compression never *degrades*
//! any guarantee.

use proptest::prelude::*;
use sched::{Compression, ConservativeScheduler, Decisions, JobMeta, Policy, Running, Scheduler};
use simcore::{JobId, SimSpan, SimTime};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn no_mode_ever_degrades_a_guarantee(
        first_width in 1u32..=16,
        jobs in proptest::collection::vec((1u32..=16, 10u64..2_000), 2..12),
    ) {
        let cap = 16u32;
        let modes = [Compression::Backfill, Compression::HeadStart, Compression::Reanchor];
        let mut scheds: Vec<ConservativeScheduler> = modes
            .iter()
            .map(|&m| ConservativeScheduler::with_compression(cap, Policy::Fcfs, m))
            .collect();

        // Job 0 heads the machine with a long estimate; its early
        // completion below is what opens the hole.
        let j0 = JobMeta {
            id: JobId(0),
            arrival: SimTime::ZERO,
            estimate: SimSpan::new(9_500),
            width: first_width,
        };
        for s in &mut scheds {
            let mut d = Decisions::default();
            s.on_arrival(j0, SimTime::ZERO, &mut d);
            prop_assert_eq!(&d.starts, &vec![JobId(0)]);
        }

        // The rest arrive one second apart. Modes only differ in compress(),
        // which has not run yet, so all three must decide identically here.
        for (i, &(width, est)) in jobs.iter().enumerate() {
            let now = SimTime::new(i as u64 + 1);
            let m = JobMeta {
                id: JobId(i as u32 + 1),
                arrival: now,
                estimate: SimSpan::new(est),
                width,
            };
            let mut first_starts: Option<Vec<JobId>> = None;
            for s in &mut scheds {
                let mut d = Decisions::default();
                s.on_arrival(m, now, &mut d);
                match &first_starts {
                    None => first_starts = Some(d.starts),
                    Some(prev) => {
                        prop_assert_eq!(prev, &d.starts, "modes diverged before any compression")
                    }
                }
            }
        }

        // Snapshot every queued job's guarantee (identical across modes).
        let ids: Vec<JobId> = (1..=jobs.len() as u32).map(JobId).collect();
        let g_before: Vec<Option<SimTime>> =
            ids.iter().map(|&id| scheds[0].guarantee(id)).collect();
        for s in &scheds {
            for (&id, &g) in ids.iter().zip(&g_before) {
                prop_assert_eq!(s.guarantee(id), g);
            }
        }

        // Job 0 completes far before its estimate: the hole opens and each
        // mode compresses its own way.
        let hole = SimTime::new(jobs.len() as u64 + 1);
        for (s, &mode) in scheds.iter_mut().zip(&modes) {
            let mut d = Decisions::default();
            let record = Running {
                meta: j0,
                started_at: SimTime::ZERO,
                suspensions: 0,
            };
            s.on_completion(record, hole, &mut d);
            for (&id, &before) in ids.iter().zip(&g_before) {
                let Some(before) = before else {
                    continue; // started on arrival; was never queued
                };
                match s.guarantee(id) {
                    Some(after) => {
                        prop_assert!(
                            after <= before,
                            "{mode:?} pushed {id} from {before} to {after}"
                        );
                        if matches!(mode, Compression::Backfill | Compression::HeadStart) {
                            // Start-now modes move a job only to start it:
                            // anything still queued is exactly where it was.
                            prop_assert_eq!(
                                after,
                                before,
                                "{:?} moved {} without starting it",
                                mode,
                                id
                            );
                        }
                    }
                    None => {
                        // Started in the hole: it ran at `hole`, no later
                        // than its old promise.
                        prop_assert!(
                            d.starts.contains(&id),
                            "{mode:?}: {id} vanished without starting"
                        );
                        prop_assert!(hole <= before, "{mode:?} started {id} after its promise");
                    }
                }
            }
        }
    }
}
