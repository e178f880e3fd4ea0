//! Job arrival processes.
//!
//! Supercomputer submissions are bursty and follow a strong daily cycle:
//! heavy during working hours, light at night. We model arrivals as a
//! non-homogeneous Poisson process whose rate is modulated by a 24-hour
//! profile, sampled by thinning (Lewis & Shedler 1979). A plain homogeneous
//! process is available for controlled experiments.

use crate::dist::Sample;
use simcore::{SimRng, SimSpan, SimTime};

/// A generator of successive arrival instants.
pub trait ArrivalProcess {
    /// The next arrival strictly after `after`.
    fn next_after(&self, after: SimTime, rng: &mut SimRng) -> SimTime;

    /// Generate `n` arrivals starting from time zero.
    fn generate(&self, n: usize, rng: &mut SimRng) -> Vec<SimTime> {
        let mut out = Vec::with_capacity(n);
        let mut t = SimTime::ZERO;
        for _ in 0..n {
            t = self.next_after(t, rng);
            out.push(t);
        }
        out
    }
}

/// Homogeneous Poisson process with the given mean inter-arrival gap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Poisson {
    mean_gap: f64,
}

impl Poisson {
    /// Create from the mean gap between arrivals, in seconds.
    pub fn new(mean_gap_secs: f64) -> Self {
        assert!(
            mean_gap_secs.is_finite() && mean_gap_secs > 0.0,
            "mean inter-arrival gap must be positive, got {mean_gap_secs}"
        );
        Poisson {
            mean_gap: mean_gap_secs,
        }
    }
}

impl ArrivalProcess for Poisson {
    fn next_after(&self, after: SimTime, rng: &mut SimRng) -> SimTime {
        let gap = -rng.f64_open().ln() * self.mean_gap;
        // Round up so arrivals always advance (integral clock).
        after + SimSpan::new(gap.ceil().max(1.0) as u64)
    }
}

/// Non-homogeneous Poisson process with a 24-hour rate profile, sampled by
/// thinning against the profile's peak rate.
#[derive(Debug, Clone, PartialEq)]
pub struct DiurnalPoisson {
    /// Base mean gap (as if the rate were flat at its average).
    mean_gap: f64,
    /// 24 multiplicative weights, one per hour of day, mean-normalized.
    hourly: [f64; 24],
    /// max rate multiplier — the thinning envelope.
    peak: f64,
}

impl DiurnalPoisson {
    /// Create from the average mean gap and 24 non-negative hourly weights
    /// (relative, any scale; they are normalized to mean 1).
    pub fn new(mean_gap_secs: f64, hourly_weights: [f64; 24]) -> Self {
        assert!(
            mean_gap_secs.is_finite() && mean_gap_secs > 0.0,
            "mean inter-arrival gap must be positive, got {mean_gap_secs}"
        );
        let sum: f64 = hourly_weights.iter().sum();
        assert!(sum > 0.0, "hourly weights must not all be zero");
        for &w in &hourly_weights {
            assert!(w >= 0.0 && w.is_finite(), "bad hourly weight {w}");
        }
        let mean = sum / 24.0;
        let hourly = hourly_weights.map(|w| w / mean);
        let peak = hourly.iter().cloned().fold(0.0, f64::max);
        DiurnalPoisson {
            mean_gap: mean_gap_secs,
            hourly,
            peak,
        }
    }

    /// The default working-hours profile: low overnight, ramping from 08:00,
    /// peaking 10:00–17:00, tapering through the evening. Shape follows the
    /// canonical daily-cycle plots from the Parallel Workloads Archive.
    pub fn working_hours(mean_gap_secs: f64) -> Self {
        let hourly = [
            0.4, 0.3, 0.25, 0.2, 0.2, 0.25, // 00-05
            0.4, 0.6, 1.0, 1.5, 1.9, 2.0, // 06-11
            1.9, 1.9, 2.0, 2.0, 1.9, 1.7, // 12-17
            1.4, 1.1, 0.9, 0.7, 0.6, 0.5, // 18-23
        ];
        DiurnalPoisson::new(mean_gap_secs, hourly)
    }

    fn rate_multiplier(&self, t: SimTime) -> f64 {
        let hour = (t.as_secs() / 3600) % 24;
        self.hourly[hour as usize]
    }
}

impl ArrivalProcess for DiurnalPoisson {
    fn next_after(&self, after: SimTime, rng: &mut SimRng) -> SimTime {
        // Thinning: propose from the peak-rate envelope, accept with
        // probability rate(t)/peak.
        let envelope_gap = self.mean_gap / self.peak;
        let mut t = after;
        loop {
            let gap = -rng.f64_open().ln() * envelope_gap;
            t += SimSpan::new(gap.ceil().max(1.0) as u64);
            if rng.f64() * self.peak < self.rate_multiplier(t) {
                return t;
            }
        }
    }
}

/// An arrival process driven by an arbitrary positive gap distribution
/// (e.g. Weibull for burstier-than-Poisson traffic).
#[derive(Debug, Clone)]
pub struct RenewalProcess<D: Sample> {
    gap: D,
}

impl<D: Sample> RenewalProcess<D> {
    /// Create from a gap distribution; non-positive draws are clamped to 1 s.
    pub fn new(gap: D) -> Self {
        RenewalProcess { gap }
    }
}

impl<D: Sample> ArrivalProcess for RenewalProcess<D> {
    fn next_after(&self, after: SimTime, rng: &mut SimRng) -> SimTime {
        after + SimSpan::new(self.gap.sample_clamped_int(rng, 1, u64::MAX / 4))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Weibull;

    #[test]
    fn poisson_arrivals_strictly_increase() {
        let p = Poisson::new(100.0);
        let mut rng = SimRng::seed_from_u64(1);
        let arrivals = p.generate(1000, &mut rng);
        for w in arrivals.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn poisson_mean_gap_matches() {
        let p = Poisson::new(300.0);
        let mut rng = SimRng::seed_from_u64(2);
        let n = 50_000;
        let arrivals = p.generate(n, &mut rng);
        let mean_gap = arrivals.last().unwrap().as_secs() as f64 / n as f64;
        // Integral rounding (ceil) biases up by ~0.5 s.
        assert!((mean_gap - 300.0).abs() < 5.0, "mean gap {mean_gap}");
    }

    #[test]
    fn diurnal_peak_hours_receive_more_arrivals() {
        let d = DiurnalPoisson::working_hours(60.0);
        let mut rng = SimRng::seed_from_u64(3);
        let arrivals = d.generate(100_000, &mut rng);
        let mut by_hour = [0u32; 24];
        for a in &arrivals {
            by_hour[((a.as_secs() / 3600) % 24) as usize] += 1;
        }
        // 14:00 is at profile weight 2.0, 03:00 at 0.2: expect a big ratio.
        let ratio = by_hour[14] as f64 / by_hour[3].max(1) as f64;
        assert!(ratio > 4.0, "peak/trough ratio {ratio} too flat");
    }

    #[test]
    fn diurnal_overall_rate_matches_mean_gap() {
        let d = DiurnalPoisson::working_hours(120.0);
        let mut rng = SimRng::seed_from_u64(4);
        let n = 50_000;
        let arrivals = d.generate(n, &mut rng);
        let mean_gap = arrivals.last().unwrap().as_secs() as f64 / n as f64;
        assert!(
            (mean_gap - 120.0).abs() / 120.0 < 0.08,
            "mean gap {mean_gap}"
        );
    }

    #[test]
    fn diurnal_arrivals_strictly_increase() {
        let d = DiurnalPoisson::working_hours(10.0);
        let mut rng = SimRng::seed_from_u64(5);
        let arrivals = d.generate(5000, &mut rng);
        for w in arrivals.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn renewal_with_weibull_gaps() {
        let r = RenewalProcess::new(Weibull::new(0.5, 50.0));
        let mut rng = SimRng::seed_from_u64(6);
        let arrivals = r.generate(10_000, &mut rng);
        for w in arrivals.windows(2) {
            assert!(w[1] > w[0]);
        }
        // Weibull(0.5, 50) has mean 100.
        let mean_gap = arrivals.last().unwrap().as_secs() as f64 / 10_000.0;
        assert!(
            (mean_gap - 100.0).abs() / 100.0 < 0.1,
            "mean gap {mean_gap}"
        );
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let p = Poisson::new(100.0);
        let a = p.generate(100, &mut SimRng::seed_from_u64(7));
        let b = p.generate(100, &mut SimRng::seed_from_u64(7));
        let c = p.generate(100, &mut SimRng::seed_from_u64(8));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn poisson_rejects_zero_gap() {
        Poisson::new(0.0);
    }

    #[test]
    #[should_panic(expected = "not all be zero")]
    fn diurnal_rejects_zero_profile() {
        DiurnalPoisson::new(10.0, [0.0; 24]);
    }
}
