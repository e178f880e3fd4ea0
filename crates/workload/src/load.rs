//! Offered-load manipulation.
//!
//! The paper simulates a "high load" condition by shrinking the
//! inter-arrival times of jobs (Section 3). Shrinking arrivals by a factor
//! `f < 1` multiplies the offered load ρ = work / (nodes × span) by `1/f`
//! while leaving every job's shape untouched.

use crate::job::Job;
use crate::trace::Trace;

/// Scale all inter-arrival gaps by `factor` (`< 1` compresses ⇒ higher
/// load, `> 1` dilates ⇒ lower load). The first arrival stays fixed; each
/// subsequent arrival is re-placed at `first + (arrival − first) × factor`.
pub fn scale_interarrival(trace: &Trace, factor: f64) -> Trace {
    assert!(
        factor.is_finite() && factor > 0.0,
        "inter-arrival scale factor must be positive, got {factor}"
    );
    let first = trace.first_arrival();
    let jobs: Vec<Job> = trace
        .jobs()
        .iter()
        .map(|j| Job {
            arrival: first + j.arrival.since(first).scale(factor),
            ..*j
        })
        .collect();
    Trace::new(trace.name().to_string(), trace.nodes(), jobs)
        .expect("arrival scaling preserves validity")
}

/// Rescale arrivals so the trace's offered load becomes `target_rho`.
///
/// Returns the rescaled trace. Panics on a degenerate trace (fewer than two
/// distinct arrival instants, or zero work) where load is undefined.
pub fn scale_to_load(trace: &Trace, target_rho: f64) -> Trace {
    assert!(
        target_rho.is_finite() && target_rho > 0.0,
        "target load must be positive, got {target_rho}"
    );
    let current = trace.offered_load();
    assert!(
        current.is_finite() && current > 0.0,
        "trace has undefined offered load ({current}); cannot rescale"
    );
    scale_interarrival(trace, current / target_rho)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::{JobId, SimSpan, SimTime};

    fn trace_with_arrivals(arrivals: &[u64]) -> Trace {
        let jobs = arrivals
            .iter()
            .map(|&a| Job {
                id: JobId(0),
                arrival: SimTime::new(a),
                runtime: SimSpan::new(100),
                estimate: SimSpan::new(100),
                width: 4,
            })
            .collect();
        Trace::new("t", 8, jobs).unwrap()
    }

    #[test]
    fn compression_halves_gaps() {
        let t = trace_with_arrivals(&[1000, 1200, 1400]);
        let c = scale_interarrival(&t, 0.5);
        let arr: Vec<u64> = c.jobs().iter().map(|j| j.arrival.as_secs()).collect();
        assert_eq!(arr, vec![1000, 1100, 1200]);
    }

    #[test]
    fn dilation_doubles_gaps() {
        let t = trace_with_arrivals(&[0, 10, 30]);
        let d = scale_interarrival(&t, 2.0);
        let arr: Vec<u64> = d.jobs().iter().map(|j| j.arrival.as_secs()).collect();
        assert_eq!(arr, vec![0, 20, 60]);
    }

    #[test]
    fn factor_one_is_identity() {
        let t = trace_with_arrivals(&[5, 17, 90]);
        assert_eq!(scale_interarrival(&t, 1.0).jobs(), t.jobs());
    }

    #[test]
    fn shapes_are_preserved() {
        let t = trace_with_arrivals(&[0, 100]);
        let c = scale_interarrival(&t, 0.25);
        for (a, b) in t.jobs().iter().zip(c.jobs()) {
            assert_eq!(a.runtime, b.runtime);
            assert_eq!(a.estimate, b.estimate);
            assert_eq!(a.width, b.width);
        }
    }

    #[test]
    fn scale_to_load_hits_target() {
        // Work: 2 jobs x 4 procs x 100 s = 800; span 1000 s; 8 nodes:
        // rho = 800/8000 = 0.1. Target 0.8 compresses 8x.
        let t = trace_with_arrivals(&[0, 1000]);
        assert!((t.offered_load() - 0.1).abs() < 1e-12);
        let hot = scale_to_load(&t, 0.8);
        assert!(
            (hot.offered_load() - 0.8).abs() < 0.01,
            "rho {}",
            hot.offered_load()
        );
    }

    #[test]
    fn scale_to_load_can_reduce_load_too() {
        let t = trace_with_arrivals(&[0, 100]);
        let rho = t.offered_load();
        let cool = scale_to_load(&t, rho / 2.0);
        assert!((cool.offered_load() - rho / 2.0).abs() / rho < 0.01);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn rejects_zero_factor() {
        let t = trace_with_arrivals(&[0, 10]);
        scale_interarrival(&t, 0.0);
    }

    #[test]
    #[should_panic(expected = "undefined offered load")]
    fn rejects_degenerate_trace_for_load_targeting() {
        let t = trace_with_arrivals(&[5]);
        scale_to_load(&t, 0.9);
    }
}
