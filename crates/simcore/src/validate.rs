//! Post-hoc schedule validation.
//!
//! Every schedule a scheduler produces can be replayed and audited against
//! the physical constraints of the machine, independent of the scheduler's
//! own bookkeeping. This catches whole classes of subtle backfilling bugs
//! (phantom reservations, double-counted processors) that unit tests on the
//! scheduler's internal state cannot.

use crate::error::SimError;
use crate::time::SimTime;

/// A job as placed by a schedule: all the validator needs to know.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlacedJob {
    /// Job identifier (for error messages).
    pub id: u32,
    /// When the job became eligible to run.
    pub arrival: SimTime,
    /// When the schedule started it.
    pub start: SimTime,
    /// When it released its processors.
    pub end: SimTime,
    /// Processors held for the whole `[start, end)` interval.
    pub width: u32,
}

/// Validate a completed schedule against machine capacity.
///
/// Checks, for every job:
/// * `start >= arrival` (no clairvoyant starts),
/// * `end >= start`,
/// * `1 <= width <= capacity`;
///
/// and globally that at no instant does the sum of widths of concurrently
/// running jobs exceed `capacity`. Zero-length jobs (`end == start`) occupy
/// no capacity and are only checked for the per-job constraints.
pub fn validate_schedule(jobs: &[PlacedJob], capacity: u32) -> Result<(), SimError> {
    for j in jobs {
        if j.start < j.arrival {
            return Err(SimError::AuditFailure(format!(
                "job#{} started at {} before its arrival at {}",
                j.id, j.start, j.arrival
            )));
        }
        if j.end < j.start {
            return Err(SimError::AuditFailure(format!(
                "job#{} ends at {} before it starts at {}",
                j.id, j.end, j.start
            )));
        }
        if j.width == 0 {
            return Err(SimError::AuditFailure(format!(
                "job#{} has zero width",
                j.id
            )));
        }
        if j.width > capacity {
            return Err(SimError::JobWiderThanMachine {
                job: j.id,
                width: j.width,
                machine: capacity,
            });
        }
    }

    // Sweep: +width at start, -width at end; ends apply before starts at the
    // same instant (a releasing job's processors are reusable immediately).
    let mut deltas: Vec<(SimTime, i64)> = Vec::with_capacity(jobs.len() * 2);
    for j in jobs {
        if j.end > j.start {
            deltas.push((j.start, j.width as i64));
            deltas.push((j.end, -(j.width as i64)));
        }
    }
    deltas.sort_by_key(|&(t, d)| (t, d)); // negatives (releases) first per instant
    let mut in_use: i64 = 0;
    for (t, d) in deltas {
        in_use += d;
        if in_use > capacity as i64 {
            return Err(SimError::AuditFailure(format!(
                "capacity exceeded at {t}: {in_use} > {capacity}"
            )));
        }
        debug_assert!(in_use >= 0, "negative in-use at {t}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pj(id: u32, arrival: u64, start: u64, end: u64, width: u32) -> PlacedJob {
        PlacedJob {
            id,
            arrival: SimTime::new(arrival),
            start: SimTime::new(start),
            end: SimTime::new(end),
            width,
        }
    }

    #[test]
    fn accepts_valid_schedule() {
        let jobs = [pj(1, 0, 0, 10, 4), pj(2, 0, 0, 5, 4), pj(3, 2, 5, 9, 4)];
        assert!(validate_schedule(&jobs, 8).is_ok());
    }

    #[test]
    fn rejects_clairvoyant_start() {
        let jobs = [pj(1, 10, 5, 20, 1)];
        let err = validate_schedule(&jobs, 8).unwrap_err();
        assert!(err.to_string().contains("before its arrival"));
    }

    #[test]
    fn rejects_negative_duration() {
        let jobs = [pj(1, 0, 10, 5, 1)];
        assert!(validate_schedule(&jobs, 8).is_err());
    }

    #[test]
    fn rejects_zero_width() {
        let jobs = [pj(1, 0, 0, 5, 0)];
        assert!(validate_schedule(&jobs, 8).is_err());
    }

    #[test]
    fn rejects_wider_than_machine() {
        let jobs = [pj(1, 0, 0, 5, 9)];
        assert!(matches!(
            validate_schedule(&jobs, 8),
            Err(SimError::JobWiderThanMachine { .. })
        ));
    }

    #[test]
    fn rejects_capacity_violation() {
        let jobs = [pj(1, 0, 0, 10, 5), pj(2, 0, 3, 8, 4)];
        let err = validate_schedule(&jobs, 8).unwrap_err();
        assert!(err.to_string().contains("capacity exceeded"));
    }

    #[test]
    fn back_to_back_handoff_is_legal() {
        // Job 2 starts at the exact second job 1 ends, on the same processors.
        let jobs = [pj(1, 0, 0, 10, 8), pj(2, 0, 10, 20, 8)];
        assert!(validate_schedule(&jobs, 8).is_ok());
    }

    #[test]
    fn zero_length_jobs_hold_no_capacity() {
        let jobs = [pj(1, 0, 0, 10, 8), pj(2, 0, 5, 5, 8)];
        assert!(validate_schedule(&jobs, 8).is_ok());
    }

    #[test]
    fn empty_schedule_is_valid() {
        assert!(validate_schedule(&[], 1).is_ok());
    }
}
