//! Loss of capacity — the utilization-side companion to slowdown.
//!
//! Raw utilization conflates two different kinds of idleness: processors
//! idle because *nothing is waiting* (harmless) and processors idle
//! *while jobs sit in the queue* (the scheduler's failure to pack — what
//! backfilling exists to fix). **Loss of capacity** (Feitelson's κ) counts
//! only the second kind: the fraction of processor-seconds left idle while
//! at least one job was waiting.

use crate::outcome::JobOutcome;
use serde::{Deserialize, Serialize};
use simcore::SimTime;

/// Breakdown of a schedule's capacity usage over its busy horizon
/// (first arrival → last completion).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CapacityReport {
    /// Fraction of capacity doing real work.
    pub utilized: f64,
    /// Fraction idle while the queue was empty (blameless).
    pub idle_no_demand: f64,
    /// Fraction idle while jobs were waiting — the loss of capacity κ.
    pub lost: f64,
}

/// Compute the capacity breakdown of a schedule.
///
/// Sweeps the schedule's instants; within each interval between them the
/// number of running processors and waiting jobs is constant, so the
/// integral is exact.
pub fn capacity_report(outcomes: &[JobOutcome], nodes: u32) -> CapacityReport {
    assert!(nodes > 0, "machine size must be positive");
    let n = outcomes.len();
    if n == 0 {
        return CapacityReport {
            utilized: 0.0,
            idle_no_demand: 0.0,
            lost: 0.0,
        };
    }

    // Three sorted streams: arrivals, and starts and ends with their
    // widths.
    let mut arrivals: Vec<SimTime> = outcomes.iter().map(|o| o.job.arrival).collect();
    arrivals.sort_unstable();
    let mut starts: Vec<(SimTime, u32)> = outcomes.iter().map(|o| (o.start, o.job.width)).collect();
    starts.sort_unstable_by_key(|&(t, _)| t);
    let mut ends: Vec<(SimTime, u32)> = outcomes.iter().map(|o| (o.end(), o.job.width)).collect();
    ends.sort_unstable_by_key(|&(t, _)| t);
    let horizon_start = arrivals[0];
    let horizon_end = ends[n - 1].0;
    let total = horizon_end.since(horizon_start).as_secs() as u128 * nodes as u128;
    if total == 0 {
        return CapacityReport {
            utilized: 0.0,
            idle_no_demand: 0.0,
            lost: 0.0,
        };
    }

    // Sweep the instants in order: integrate the interval since the last
    // one, then apply every change at this instant.
    let mut busy_int: u128 = 0;
    let mut lost_int: u128 = 0;
    let mut running: i64 = 0;
    let mut waiting: i64 = 0;
    let mut prev = horizon_start;
    let (mut a, mut s, mut e) = (0, 0, 0);
    while let Some(t) = [
        arrivals.get(a).copied(),
        starts.get(s).map(|&(t, _)| t),
        ends.get(e).map(|&(t, _)| t),
    ]
    .into_iter()
    .flatten()
    .min()
    {
        let dt = t.since(prev).as_secs() as u128;
        busy_int += running as u128 * dt;
        if waiting > 0 {
            lost_int += (nodes as i64 - running).max(0) as u128 * dt;
        }
        prev = t;
        while a < n && arrivals[a] == t {
            waiting += 1;
            a += 1;
        }
        while s < n && starts[s].0 == t {
            running += starts[s].1 as i64;
            waiting -= 1;
            s += 1;
        }
        while e < n && ends[e].0 == t {
            running -= ends[e].1 as i64;
            e += 1;
        }
        debug_assert!(running >= 0 && waiting >= 0, "negative sweep state");
    }
    let utilized = busy_int as f64 / total as f64;
    let lost = lost_int as f64 / total as f64;
    CapacityReport {
        utilized,
        lost,
        idle_no_demand: (1.0 - utilized - lost).max(0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::{JobId, SimSpan};
    use workload::Job;

    fn outcome(arrival: u64, runtime: u64, width: u32, start: u64) -> JobOutcome {
        JobOutcome::new(
            Job {
                id: JobId(0),
                arrival: SimTime::new(arrival),
                runtime: SimSpan::new(runtime),
                estimate: SimSpan::new(runtime),
                width,
            },
            SimTime::new(start),
        )
    }

    #[test]
    fn fully_packed_schedule_has_no_loss() {
        // 8/8 procs busy the whole horizon.
        let outcomes = vec![outcome(0, 100, 8, 0), outcome(0, 100, 8, 100)];
        let r = capacity_report(&outcomes, 8);
        assert!((r.utilized - 1.0).abs() < 1e-12);
        assert_eq!(r.lost, 0.0);
        assert_eq!(r.idle_no_demand, 0.0);
    }

    #[test]
    fn idle_with_waiting_job_is_lost_capacity() {
        // Job 2 (8-wide) waits on [0, 100) while only 4 procs run:
        // 4 procs * 100 s lost of 8 * 200 total -> 0.25.
        let outcomes = vec![outcome(0, 100, 4, 0), outcome(0, 100, 8, 100)];
        let r = capacity_report(&outcomes, 8);
        assert!((r.lost - 0.25).abs() < 1e-12, "lost {}", r.lost);
        // Work: 400 + 800 = 1200 of 1600 -> 0.75 utilized; nothing blameless.
        assert!((r.utilized - 0.75).abs() < 1e-12);
        assert!(r.idle_no_demand.abs() < 1e-12);
    }

    #[test]
    fn idle_without_demand_is_blameless() {
        // One 4-wide job, starts immediately: the other 4 procs idle with
        // an empty queue.
        let outcomes = vec![outcome(0, 100, 4, 0)];
        let r = capacity_report(&outcomes, 8);
        assert_eq!(r.lost, 0.0);
        assert!((r.utilized - 0.5).abs() < 1e-12);
        assert!((r.idle_no_demand - 0.5).abs() < 1e-12);
    }

    #[test]
    fn gap_between_batches_is_blameless() {
        // Busy [0,100), idle [100,200) with empty queue, busy [200,300).
        let outcomes = vec![outcome(0, 100, 8, 0), outcome(200, 100, 8, 200)];
        let r = capacity_report(&outcomes, 8);
        assert_eq!(r.lost, 0.0);
        assert!((r.idle_no_demand - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn fractions_sum_to_one() {
        let outcomes = vec![
            outcome(0, 50, 3, 0),
            outcome(10, 200, 6, 50),
            outcome(20, 30, 2, 250),
        ];
        let r = capacity_report(&outcomes, 8);
        let sum = r.utilized + r.lost + r.idle_no_demand;
        assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
        assert!(r.lost > 0.0, "the 6-wide job waited while procs idled");
    }

    #[test]
    fn empty_schedule() {
        let r = capacity_report(&[], 8);
        assert_eq!(r.utilized, 0.0);
        assert_eq!(r.lost, 0.0);
    }

    #[test]
    fn report_round_trips_through_json() {
        let outcomes = vec![outcome(0, 50, 3, 0), outcome(10, 200, 6, 50)];
        let r = capacity_report(&outcomes, 8);
        let text = serde_json::to_string(&r).unwrap();
        let back: CapacityReport = serde_json::from_str(&text).unwrap();
        assert_eq!(r, back);
    }
}
