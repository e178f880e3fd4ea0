//! Sample statistics and the benchmark's output: a human-readable table
//! (every metric with its unit and sample count) followed by the one-line
//! JSON result.

/// Median of `v` (mean of the two middle values for even lengths).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The highest percentile of 99, 95, 90, 75 that leaves at least ten
/// samples above it, with its nearest-rank value; the median when there
/// are too few samples for any of them.
pub fn tail(v: &[f64]) -> (f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len() as f64;
    for p in [99.0, 95.0, 90.0, 75.0] {
        if n * (1.0 - p / 100.0) >= 10.0 {
            let rank = ((p / 100.0) * n).ceil() as usize;
            return (p, s[rank.clamp(1, s.len()) - 1]);
        }
    }
    (50.0, median(v))
}

/// `num / den`, or 0 when nothing was measured.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: usize,
    note: String,
    /// Printed in the table only, left out of the JSON result.
    table_only: bool,
}

/// Every metric one run produced, in the order it was measured.
#[derive(Default)]
pub struct Report {
    metrics: Vec<Metric>,
    /// Operations attempted (cell simulations and submits).
    pub attempted: u64,
    /// Failure descriptions; each one also counts as a failed operation.
    pub failures: Vec<String>,
}

impl Report {
    /// Record one metric from `samples` samples.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
            note: String::new(),
            table_only: false,
        });
    }

    /// Record a metric for the table only, with a note printed beside
    /// it (see `README.md` for which metrics and why).
    pub fn put_table_only(
        &mut self,
        name: &str,
        value: f64,
        unit: &'static str,
        samples: usize,
        note: String,
    ) {
        self.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
            note,
            table_only: true,
        });
    }

    fn push(&mut self, metric: Metric) {
        let name = &metric.name;
        assert!(metric.value.is_finite(), "metric {name} is not finite");
        assert!(
            self.metrics.iter().all(|m| &m.name != name),
            "metric {name} recorded twice"
        );
        self.metrics.push(metric);
    }

    /// Record the median of `samples`.
    pub fn put_median(&mut self, name: &str, samples: &[f64], unit: &'static str) {
        self.put(name, median(samples), unit, samples.len());
    }

    /// Record a failure.
    pub fn fail(&mut self, why: String) {
        self.failures.push(why);
    }

    /// Print the table, then the JSON result as the last line of stdout.
    /// Names in parentheses are table-only; `failed_frac` is one, as the
    /// JSON's `failed`/`attempted` fields already give it.
    pub fn print(&self, header: &str) {
        println!("{header}");
        for m in &self.metrics {
            let note = if m.note.is_empty() {
                String::new()
            } else {
                format!("  [{}]", m.note)
            };
            let name = if m.table_only {
                format!("({})", m.name)
            } else {
                m.name.clone()
            };
            println!(
                "  {:<34} {:>16.6} {:<11} n={}{note}",
                name, m.value, m.unit, m.samples
            );
        }
        let failed = self.failures.len() as u64;
        println!(
            "  {:<34} {:>16.6} {:<11} n={}",
            "(failed_frac)",
            ratio(failed as f64, self.attempted as f64),
            "fraction",
            self.attempted
        );
        for why in &self.failures {
            println!("  FAILED: {why}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| !m.table_only)
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted.max(1),
            failed,
            metrics.join(", ")
        );
    }
}
