//! Time-binned series derived from schedules.
//!
//! The paper reports steady-state averages; operators read *time series* —
//! utilization and queue depth over the week. This module bins a
//! schedule's outcomes into fixed windows and produces both, the basis of
//! the Gantt/occupancy views in [`crate::viz`].

use crate::outcome::JobOutcome;
use simcore::{SimSpan, SimTime};

/// A fixed-bin time series over a schedule's horizon.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    origin: SimTime,
    bin: SimSpan,
    values: Vec<f64>,
}

impl TimeSeries {
    /// Start of the series.
    pub fn origin(&self) -> SimTime {
        self.origin
    }

    /// Bin width.
    pub fn bin(&self) -> SimSpan {
        self.bin
    }

    /// Bin values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of bins.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the series has no bins.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Mean of all bins (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// Peak bin value (0 when empty).
    pub fn peak(&self) -> f64 {
        self.values.iter().cloned().fold(0.0, f64::max)
    }
}

fn horizon(outcomes: &[JobOutcome]) -> Option<(SimTime, SimTime)> {
    let first = outcomes.iter().map(|o| o.job.arrival).min()?;
    let last = outcomes.iter().map(|o| o.end()).max()?;
    Some((first, last))
}

fn bins_for(first: SimTime, last: SimTime, bin: SimSpan) -> usize {
    // Enough bins to cover [first, last): ceil(span / bin), at least one.
    let span = last.since(first).as_secs();
    (span.div_ceil(bin.as_secs()).max(1)) as usize
}

/// Utilization per bin: busy processor-seconds in the bin divided by
/// `nodes × bin`. Values are in `[0, 1]`.
pub fn utilization_series(outcomes: &[JobOutcome], nodes: u32, bin: SimSpan) -> TimeSeries {
    assert!(
        nodes > 0 && !bin.is_zero(),
        "need positive nodes and bin width"
    );
    let Some((first, last)) = horizon(outcomes) else {
        return TimeSeries {
            origin: SimTime::ZERO,
            bin,
            values: vec![],
        };
    };
    let n = bins_for(first, last, bin);
    let mut busy = vec![0u128; n];
    for o in outcomes {
        let (s, e) = (o.start, o.end());
        if e <= s {
            continue;
        }
        // Distribute width × overlap into each covered bin.
        let first_bin = (s.since(first).as_secs() / bin.as_secs()) as usize;
        let last_bin = ((e.since(first).as_secs().saturating_sub(1)) / bin.as_secs()) as usize;
        for (b, slot) in busy
            .iter_mut()
            .enumerate()
            .take(last_bin + 1)
            .skip(first_bin)
        {
            let bin_start = first + SimSpan::new(b as u64 * bin.as_secs());
            let bin_end = bin_start + bin;
            let lo = s.max(bin_start);
            let hi = e.min(bin_end);
            *slot += o.job.width as u128 * hi.since(lo).as_secs() as u128;
        }
    }
    let denom = nodes as f64 * bin.as_secs_f64();
    TimeSeries {
        origin: first,
        bin,
        values: busy.iter().map(|&b| b as f64 / denom).collect(),
    }
}

/// Mean number of waiting jobs per bin (sampled as the time-average of the
/// piecewise-constant queue-length function).
pub fn queue_depth_series(outcomes: &[JobOutcome], bin: SimSpan) -> TimeSeries {
    assert!(!bin.is_zero(), "need positive bin width");
    let Some((first, last)) = horizon(outcomes) else {
        return TimeSeries {
            origin: SimTime::ZERO,
            bin,
            values: vec![],
        };
    };
    let n = bins_for(first, last, bin);
    let mut waiting_secs = vec![0u128; n];
    for o in outcomes {
        let (s, e) = (o.job.arrival, o.start);
        if e <= s {
            continue;
        }
        let first_bin = (s.since(first).as_secs() / bin.as_secs()) as usize;
        let last_bin = ((e.since(first).as_secs().saturating_sub(1)) / bin.as_secs()) as usize;
        for (b, slot) in waiting_secs
            .iter_mut()
            .enumerate()
            .take(last_bin + 1)
            .skip(first_bin)
        {
            let bin_start = first + SimSpan::new(b as u64 * bin.as_secs());
            let bin_end = bin_start + bin;
            let lo = s.max(bin_start);
            let hi = e.min(bin_end);
            *slot += hi.since(lo).as_secs() as u128;
        }
    }
    TimeSeries {
        origin: first,
        bin,
        values: waiting_secs
            .iter()
            .map(|&w| w as f64 / bin.as_secs_f64())
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::JobId;
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
    fn full_machine_is_utilization_one() {
        // 8 procs busy for 100 s, bins of 10 s.
        let outcomes = vec![outcome(0, 100, 8, 0)];
        let ts = utilization_series(&outcomes, 8, SimSpan::new(10));
        assert_eq!(ts.len(), 10);
        for &v in ts.values() {
            assert!((v - 1.0).abs() < 1e-12, "bin value {v}");
        }
        assert!((ts.mean() - 1.0).abs() < 1e-12);
        assert_eq!(ts.peak(), 1.0);
    }

    #[test]
    fn partial_bins_account_fractional_overlap() {
        // 4 of 8 procs busy on [5, 15): bins [0,10) and [10,20) each get
        // 4 procs x 5 s = 20 proc-s of 80 -> 0.25.
        let outcomes = vec![outcome(0, 10, 4, 5)];
        let ts = utilization_series(&outcomes, 8, SimSpan::new(10));
        assert!((ts.values()[0] - 0.25).abs() < 1e-12);
        assert!((ts.values()[1] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn utilization_never_exceeds_one_for_valid_schedules() {
        let outcomes = vec![
            outcome(0, 50, 4, 0),
            outcome(0, 50, 4, 0),
            outcome(0, 100, 8, 50),
        ];
        let ts = utilization_series(&outcomes, 8, SimSpan::new(7));
        for &v in ts.values() {
            assert!(v <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn queue_depth_counts_waiting_jobs() {
        // Job waits on [0, 100); second waits on [50, 100). Bin 100 s:
        // (100 + 50) / 100 = 1.5 average waiting jobs in bin 0.
        let outcomes = vec![outcome(0, 10, 1, 100), outcome(50, 10, 1, 100)];
        let ts = queue_depth_series(&outcomes, SimSpan::new(100));
        assert!((ts.values()[0] - 1.5).abs() < 1e-12);
    }

    #[test]
    fn zero_wait_jobs_contribute_nothing_to_queue() {
        let outcomes = vec![outcome(0, 10, 1, 0)];
        let ts = queue_depth_series(&outcomes, SimSpan::new(5));
        for &v in ts.values() {
            assert_eq!(v, 0.0);
        }
    }

    #[test]
    fn empty_schedule_gives_empty_series() {
        let ts = utilization_series(&[], 8, SimSpan::new(10));
        assert!(ts.is_empty());
        assert_eq!(ts.mean(), 0.0);
        let ts = queue_depth_series(&[], SimSpan::new(10));
        assert!(ts.is_empty());
    }

    #[test]
    fn origin_is_first_arrival() {
        let outcomes = vec![outcome(500, 10, 1, 505)];
        let ts = utilization_series(&outcomes, 8, SimSpan::new(10));
        assert_eq!(ts.origin(), SimTime::new(500));
        assert_eq!(ts.bin(), SimSpan::new(10));
    }
}
