//! Reconstruct per-job timelines from a decision-trace JSONL file.
//!
//! The `--trace-out` flag of `bfsim simulate`/`bfsim bench` streams the
//! recorder's events (schema and reader in `obs::trace`). This module
//! joins each job's `Arrive`/`Start`/`Complete` events back into a
//! timeline and aggregates mean wait and mean bounded slowdown per
//! paper category — the same numbers `metrics::aggregate` computes from
//! the schedule itself, so the two paths cross-check each other (pinned
//! by `tests/trace_analysis_crosscheck.rs`).
//!
//! For a job that was never preempted, `Complete.t − Start.t` *is* its
//! runtime, so wait and slowdown are exact. A preempted job's runtime is
//! recovered from `Arrive.estimate / Complete.overestimate_factor`,
//! which round-trips through a float — accurate to the second in
//! practice, but the exactness guarantee holds only for non-preemptive
//! runs.

pub use obs::trace::parse_jsonl;
use obs::trace::{TraceCategory, TraceEvent, TraceKind};
use std::collections::BTreeMap;

/// The paper's bounded-slowdown threshold, matching
/// `metrics::BOUNDED_SLOWDOWN_THRESHOLD_SECS`.
const TAU_SECS: u64 = 10;

/// One job's reconstructed lifecycle.
#[derive(Debug, Clone, Copy)]
pub struct JobTimeline {
    /// Job identifier.
    pub job: u64,
    /// Paper category the driver tagged at arrival.
    pub category: TraceCategory,
    /// Arrival instant, sim seconds.
    pub arrive: u64,
    /// First start instant, sim seconds.
    pub start: u64,
    /// Completion instant, sim seconds.
    pub complete: u64,
    /// Actual runtime in seconds (exact unless `preempted`).
    pub runtime: u64,
    /// True if the job was suspended at least once.
    pub preempted: bool,
}

impl JobTimeline {
    /// Total not-running time: `complete − arrive − runtime` (queue wait
    /// plus suspended spans), matching `JobOutcome::wait`.
    pub fn wait_secs(&self) -> u64 {
        (self.complete - self.arrive).saturating_sub(self.runtime)
    }

    /// Bounded slowdown with the paper's τ = 10 s threshold, matching
    /// `JobOutcome::bounded_slowdown` (denominator floored at 1 s).
    pub fn bounded_slowdown(&self) -> f64 {
        let denom = self.runtime.max(TAU_SECS).max(1) as f64;
        (self.wait_secs() as f64 + denom) / denom
    }
}

/// Running means for one group of jobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct GroupSummary {
    /// Jobs in the group.
    pub count: u64,
    wait_sum: f64,
    slowdown_sum: f64,
}

impl GroupSummary {
    fn push(&mut self, t: &JobTimeline) {
        self.count += 1;
        self.wait_sum += t.wait_secs() as f64;
        self.slowdown_sum += t.bounded_slowdown();
    }

    /// Mean wait in seconds (0 for an empty group).
    pub fn mean_wait(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.wait_sum / self.count as f64
        }
    }

    /// Mean bounded slowdown (0 for an empty group).
    pub fn mean_slowdown(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.slowdown_sum / self.count as f64
        }
    }
}

/// Aggregated timelines: one summary per category plus the overall one.
#[derive(Debug, Clone, Default)]
pub struct TraceAnalysis {
    /// Every reconstructed timeline, in job-id order.
    pub timelines: Vec<JobTimeline>,
    /// All jobs together.
    pub overall: GroupSummary,
    /// `(category, summary)` for each category that appeared.
    pub per_category: Vec<(TraceCategory, GroupSummary)>,
}

impl TraceAnalysis {
    /// The summary for `cat`, if any job of that category completed.
    pub fn category(&self, cat: TraceCategory) -> Option<&GroupSummary> {
        self.per_category
            .iter()
            .find(|(c, _)| *c == cat)
            .map(|(_, s)| s)
    }
}

/// Join events, in any order, into per-job timelines and aggregate per
/// category. The trace must be one whole run: the error names the first
/// job missing its `Arrive`, `Start` or `Complete` (a truncated file),
/// arriving twice (two runs in one file) or out of order.
pub fn analyze(events: &[TraceEvent]) -> Result<TraceAnalysis, String> {
    #[derive(Default)]
    struct Partial {
        category: Option<TraceCategory>,
        arrive: Option<u64>,
        estimate: Option<u64>,
        start: Option<u64>,
        complete: Option<u64>,
        overestimate_factor: Option<f64>,
        preempted: bool,
    }

    let mut jobs: BTreeMap<u64, Partial> = BTreeMap::new();
    for ev in events {
        let p = jobs.entry(ev.job).or_default();
        if p.category.is_none() && ev.category != TraceCategory::Unknown {
            p.category = Some(ev.category);
        }
        match &ev.kind {
            TraceKind::Arrive { estimate, .. } => {
                if let Some(first) = p.arrive {
                    return Err(format!(
                        "job {} arrives twice (t={first} and t={}): two runs in one file?",
                        ev.job, ev.time
                    ));
                }
                p.arrive = Some(ev.time);
                p.estimate = Some(*estimate);
            }
            // Keep the FIRST start: a preempted job restarts later, but
            // wait accounting keys off the initial dispatch.
            TraceKind::Start => {
                if p.start.is_none() {
                    p.start = Some(ev.time);
                }
            }
            TraceKind::Complete {
                overestimate_factor,
            } => {
                p.complete = Some(ev.time);
                p.overestimate_factor = Some(*overestimate_factor);
            }
            TraceKind::Preempt => p.preempted = true,
            TraceKind::Reserve { .. } | TraceKind::Backfill { .. } | TraceKind::Compress { .. } => {
            }
        }
    }

    let mut analysis = TraceAnalysis::default();
    let mut incomplete = Vec::new();
    for (job, p) in jobs {
        let (Some(arrive), Some(start), Some(complete)) = (p.arrive, p.start, p.complete) else {
            incomplete.push(job);
            continue;
        };
        if !(arrive <= start && start <= complete) {
            return Err(format!(
                "job {job} is out of order: arrive t={arrive}, start t={start}, complete t={complete}"
            ));
        }
        let runtime = if p.preempted {
            // Recover the true runtime from the overestimation factor
            // (estimate ÷ runtime); `complete − start` would include
            // suspended spans.
            match (p.estimate, p.overestimate_factor) {
                (Some(est), Some(f)) if f > 0.0 => (est as f64 / f).round() as u64,
                _ => complete - start,
            }
        } else {
            complete - start
        };
        let timeline = JobTimeline {
            job,
            category: p.category.unwrap_or(TraceCategory::Unknown),
            arrive,
            start,
            complete,
            runtime,
            preempted: p.preempted,
        };
        analysis.overall.push(&timeline);
        match analysis
            .per_category
            .iter_mut()
            .find(|(c, _)| *c == timeline.category)
        {
            Some((_, summary)) => summary.push(&timeline),
            None => {
                let mut summary = GroupSummary::default();
                summary.push(&timeline);
                analysis.per_category.push((timeline.category, summary));
            }
        }
        analysis.timelines.push(timeline);
    }
    if let Some(job) = incomplete.first() {
        return Err(format!(
            "not one whole run: {} completed jobs, {} incomplete (job {job} lacks an \
             Arrive, Start or Complete): a truncated trace?",
            analysis.overall.count,
            incomplete.len()
        ));
    }
    Ok(analysis)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(time: u64, job: u64, cat: TraceCategory, kind: TraceKind) -> TraceEvent {
        TraceEvent {
            time,
            job,
            category: cat,
            kind,
        }
    }

    #[test]
    fn joins_lifecycle_into_wait_and_slowdown() {
        // Job 1 (SN): arrive 0, start 50, runs 100 → wait 50,
        // slowdown (50+100)/100 = 1.5.
        let events = vec![
            ev(
                0,
                1,
                TraceCategory::SN,
                TraceKind::Arrive {
                    estimate: 100,
                    width: 1,
                },
            ),
            ev(50, 1, TraceCategory::SN, TraceKind::Start),
            ev(
                150,
                1,
                TraceCategory::SN,
                TraceKind::Complete {
                    overestimate_factor: 1.0,
                },
            ),
        ];
        let analysis = analyze(&events).unwrap();
        assert_eq!(analysis.overall.count, 1);
        assert!((analysis.overall.mean_wait() - 50.0).abs() < 1e-12);
        assert!((analysis.overall.mean_slowdown() - 1.5).abs() < 1e-12);
        let sn = analysis.category(TraceCategory::SN).expect("SN summary");
        assert_eq!(sn.count, 1);
    }

    #[test]
    fn short_jobs_use_the_tau_floor() {
        // Runtime 2 < τ=10: slowdown = (wait + 10)/10.
        let events = vec![
            ev(
                0,
                7,
                TraceCategory::SN,
                TraceKind::Arrive {
                    estimate: 2,
                    width: 1,
                },
            ),
            ev(98, 7, TraceCategory::SN, TraceKind::Start),
            ev(
                100,
                7,
                TraceCategory::SN,
                TraceKind::Complete {
                    overestimate_factor: 1.0,
                },
            ),
        ];
        let analysis = analyze(&events).unwrap();
        assert!((analysis.overall.mean_slowdown() - 10.8).abs() < 1e-12);
    }

    /// `job`'s whole lifecycle: arrive at `t`, start 10 s later, run
    /// 100 s.
    fn lifecycle(t: u64, job: u64) -> Vec<TraceEvent> {
        vec![
            ev(
                t,
                job,
                TraceCategory::LW,
                TraceKind::Arrive {
                    estimate: 100,
                    width: 8,
                },
            ),
            ev(t + 10, job, TraceCategory::LW, TraceKind::Start),
            ev(
                t + 110,
                job,
                TraceCategory::LW,
                TraceKind::Complete {
                    overestimate_factor: 1.0,
                },
            ),
        ]
    }

    #[test]
    fn incomplete_jobs_are_counted_not_guessed() {
        // Job 2 arrives and starts, but the file ends before it
        // completes; job 3 has only its Complete.
        let mut events = lifecycle(0, 1);
        events.extend(lifecycle(5, 2).into_iter().take(2));
        events.extend(lifecycle(7, 3).into_iter().skip(2));
        let err = analyze(&events).unwrap_err();
        assert!(
            err.contains("1 completed jobs, 2 incomplete (job 2 "),
            "got {err}"
        );
    }

    #[test]
    fn a_second_arrive_for_one_job_is_refused() {
        // Two runs appended to one file: the same ids arrive again.
        let mut events = lifecycle(0, 1);
        events.extend(lifecycle(0, 1));
        let err = analyze(&events).unwrap_err();
        assert!(err.contains("job 1 arrives twice"), "got {err}");
    }

    #[test]
    fn a_complete_before_its_start_is_refused() {
        let mut events = lifecycle(0, 1);
        events[1].time = 500;
        let err = analyze(&events).unwrap_err();
        assert!(
            err.contains("job 1 is out of order: arrive t=0, start t=500, complete t=110"),
            "got {err}"
        );
    }

    #[test]
    fn preempted_runtime_recovered_from_factor() {
        // estimate 200, factor 2.0 → true runtime 100; complete − start
        // = 180 would be wrong.
        let events = vec![
            ev(
                0,
                3,
                TraceCategory::LN,
                TraceKind::Arrive {
                    estimate: 200,
                    width: 2,
                },
            ),
            ev(10, 3, TraceCategory::LN, TraceKind::Start),
            ev(60, 3, TraceCategory::LN, TraceKind::Preempt),
            ev(120, 3, TraceCategory::LN, TraceKind::Start),
            ev(
                190,
                3,
                TraceCategory::LN,
                TraceKind::Complete {
                    overestimate_factor: 2.0,
                },
            ),
        ];
        let analysis = analyze(&events).unwrap();
        let t = analysis.timelines[0];
        assert!(t.preempted);
        assert_eq!(t.runtime, 100);
        // wait = 190 − 0 − 100 = 90.
        assert_eq!(t.wait_secs(), 90);
    }

    #[test]
    fn parse_jsonl_reports_line_numbers() {
        let good = r#"{"t":1,"job":2,"cat":"SN","ev":"Start"}"#;
        let doc = format!("{good}\n\nnot json\n");
        let err = parse_jsonl(&doc).unwrap_err();
        assert!(err.starts_with("line 3:"), "got {err}");
        assert_eq!(parse_jsonl(good).unwrap().len(), 1);
    }
}
