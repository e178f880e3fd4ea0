//! Streaming summary statistics (Welford's algorithm).
//!
//! Simulations produce hundreds of thousands of per-job metrics; Welford's
//! online update gives numerically stable mean/variance in one pass with
//! O(1) memory, plus min/max tracking for worst-case reporting (the paper's
//! Tables 4 and 7 report worst-case turnaround times).

use serde::{Deserialize, Serialize};

/// Online mean / variance / min / max accumulator.
///
/// ```
/// use metrics::Welford;
/// let mut w = Welford::new();
/// for x in [1.0, 2.0, 3.0] { w.push(x); }
/// assert_eq!(w.mean(), 2.0);
/// assert_eq!(w.variance(), 1.0);
/// assert_eq!(w.max(), Some(3.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for Welford {
    fn default() -> Self {
        Self::new()
    }
}

impl Welford {
    /// An empty accumulator.
    pub fn new() -> Self {
        Welford {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one observation. Non-finite values are rejected with a panic —
    /// a NaN silently poisoning a mean is the worst failure mode a metrics
    /// library can have.
    pub fn push(&mut self, x: f64) {
        assert!(x.is_finite(), "non-finite observation {x}");
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merge another accumulator into this one (Chan's parallel update);
    /// used to combine per-thread sweep results.
    pub fn merge(&mut self, other: &Welford) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.mean += delta * other.count as f64 / total as f64;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample variance (n−1 denominator; 0 with fewer than two samples).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Smallest observation (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance_of_known_sample() {
        let mut w = Welford::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            w.push(x);
        }
        assert_eq!(w.count(), 8);
        assert!((w.mean() - 5.0).abs() < 1e-12);
        // Sample variance with n-1: 32/7.
        assert!((w.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(w.min(), Some(2.0));
        assert_eq!(w.max(), Some(9.0));
    }

    #[test]
    fn empty_accumulator_defaults() {
        let w = Welford::new();
        assert_eq!(w.count(), 0);
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
        assert_eq!(w.min(), None);
        assert_eq!(w.max(), None);
    }

    #[test]
    fn single_observation() {
        let mut w = Welford::new();
        w.push(3.5);
        assert_eq!(w.mean(), 3.5);
        assert_eq!(w.variance(), 0.0);
        assert_eq!(w.min(), Some(3.5));
        assert_eq!(w.max(), Some(3.5));
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0 + 5.0).collect();
        let mut all = Welford::new();
        for &x in &xs {
            all.push(x);
        }
        let mut left = Welford::new();
        let mut right = Welford::new();
        for &x in &xs[..37] {
            left.push(x);
        }
        for &x in &xs[37..] {
            right.push(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), all.count());
        assert!((left.mean() - all.mean()).abs() < 1e-10);
        assert!((left.variance() - all.variance()).abs() < 1e-10);
        assert_eq!(left.min(), all.min());
        assert_eq!(left.max(), all.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut w = Welford::new();
        w.push(1.0);
        w.push(2.0);
        let snapshot = w;
        w.merge(&Welford::new());
        assert_eq!(w, snapshot);
        let mut e = Welford::new();
        e.merge(&snapshot);
        assert_eq!(e, snapshot);
    }

    #[test]
    fn numerically_stable_for_large_offsets() {
        let mut w = Welford::new();
        for x in [1e9 + 4.0, 1e9 + 7.0, 1e9 + 13.0, 1e9 + 16.0] {
            w.push(x);
        }
        assert!((w.mean() - (1e9 + 10.0)).abs() < 1e-3);
        assert!(
            (w.variance() - 30.0).abs() < 1e-3,
            "variance {}",
            w.variance()
        );
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn rejects_nan() {
        Welford::new().push(f64::NAN);
    }
}
