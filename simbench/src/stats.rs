//! Sample summaries and the printed result.

use vmp_obs::json::Value;

/// Host-time samples of one metric.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// Adds one sample.
    pub fn push(&mut self, x: f64) {
        self.0.push(x);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The largest sample.
    pub fn max(&self) -> f64 {
        self.0.iter().copied().fold(f64::NAN, f64::max)
    }

    /// Sum of the samples.
    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    /// The `q`-quantile (0..=1), linearly interpolated between order
    /// statistics; `NaN` when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        match v.len() {
            0 => f64::NAN,
            n => {
                let pos = q * (n - 1) as f64;
                let lo = pos.floor() as usize;
                let hi = pos.ceil() as usize;
                v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
            }
        }
    }

    /// The median.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }
}

/// Host-time samples as measured and scaled to the reference host speed
/// of [`crate::calib`].
#[derive(Debug, Default, Clone)]
pub struct Scaled {
    /// As measured.
    pub raw: Samples,
    /// Scaled by the host speed measured around each sample.
    pub scaled: Samples,
}

impl Scaled {
    /// Adds a rate measured at host speed `speed`.
    pub fn rate(&mut self, x: f64, speed: f64) {
        self.raw.push(x);
        self.scaled.push(x / speed);
    }

    /// Adds a duration measured at host speed `speed`.
    pub fn time(&mut self, x: f64, speed: f64) {
        self.raw.push(x);
        self.scaled.push(x * speed);
    }
}

/// The metrics of one run, in the order they were added, plus the
/// operation counts of the correctness checks.
#[derive(Debug, Default)]
pub struct Outcome {
    metrics: Vec<(String, f64, &'static str)>,
    /// Operations attempted (one per checked rep).
    pub attempted: u64,
    /// Operations whose checks failed.
    pub failed: u64,
}

impl Outcome {
    /// Records an operation; prints the reason when it failed.
    pub fn check(&mut self, what: &str, failure: Option<String>) {
        self.attempted += 1;
        if let Some(why) = failure {
            self.failed += 1;
            println!("FAILED {what}: {why}");
        }
    }

    /// Adds a metric and prints it with `note`.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, note: &str) {
        println!("{name:<28} {value:>16.6} {unit:<8} {note}");
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Adds a host-time metric: the geometric mean of the 10th and 90th
    /// percentiles of its scaled samples, printed with both, their
    /// median, the median of the raw samples and the sample count.
    ///
    /// Scaling by the calibration removes most of the host's swing
    /// between its fast and slow phases but not all of it, and the share
    /// of slow time changes from run to run. The 10th and 90th
    /// percentiles sit on the two phases while a run sees both, so their
    /// geometric mean moves little with that share; when a run sees only
    /// one phase, it moves half as far as either percentile alone
    /// (README.md, "How a host metric is summarised").
    pub fn host(&mut self, name: &str, s: &Scaled, unit: &'static str, note: &str) {
        let value = (s.scaled.quantile(0.1) * s.scaled.quantile(0.9)).sqrt();
        self.host_value(name, value, s, unit, note);
    }

    /// Adds a host-time metric whose value is the median of its scaled
    /// samples, printed like [`Outcome::host`]. `setup_s` uses it: it has
    /// hundreds of samples a run, spread over every phase.
    pub fn host_median(&mut self, name: &str, s: &Scaled, unit: &'static str, note: &str) {
        self.host_value(name, s.scaled.median(), s, unit, note);
    }

    fn host_value(&mut self, name: &str, value: f64, s: &Scaled, unit: &'static str, note: &str) {
        let note = format!(
            "H  p10 {:.6} median {:.6} p90 {:.6} raw median {:.6} n {}  {note}",
            s.scaled.quantile(0.1),
            s.scaled.median(),
            s.scaled.quantile(0.9),
            s.raw.median(),
            s.scaled.len(),
        );
        self.metric(name, value, unit, &note);
    }

    /// Adds a per-layer host-time metric: the median of its samples.
    pub fn layer(&mut self, name: &str, s: &Samples, unit: &'static str, note: &str) {
        let note = format!(
            "H  q1 {:.6} q3 {:.6} n {}  {note}",
            s.quantile(0.25),
            s.quantile(0.75),
            s.len()
        );
        self.metric(name, s.median(), unit, &note);
    }

    /// The result object printed as the last line of standard output.
    pub fn to_json(&self) -> Value {
        let mut metrics = Value::obj();
        for (name, value, unit) in &self.metrics {
            metrics =
                metrics.set(name.as_str(), Value::obj().set("value", *value).set("unit", *unit));
        }
        Value::obj()
            .set("correct", self.failed == 0 && self.attempted > 0)
            .set("attempted", self.attempted)
            .set("failed", self.failed)
            .set("metrics", metrics)
    }
}
