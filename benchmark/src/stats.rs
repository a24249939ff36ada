//! Order statistics, the failure ledger and the metric sheet a run prints.

/// The `p`-quantile (`0.0..=1.0`) of `samples` by linear interpolation
/// between closest ranks (the "type 7" rule). Returns 0.0 for no samples.
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `samples` (0.0 for none).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// `num / den`, or 0.0 when the denominator is zero.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Counts attempted operations and the failed ones among them. A failure
/// is an error, a non-completed terminal, a shed query or a wrong output;
/// each is recorded with a reason so the run can say what went wrong.
#[derive(Debug, Default)]
pub struct Ledger {
    attempted: u64,
    failures: Vec<String>,
}

impl Ledger {
    /// Records one operation: `Ok(())` passed every check, `Err(why)`
    /// failed one.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failures.push(why);
        }
    }

    /// Operations recorded.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Operations that failed.
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// Failed operations as a share of attempted ones.
    pub fn failed_frac(&self) -> f64 {
        ratio(self.failed() as f64, self.attempted as f64)
    }

    /// The recorded failure reasons, in order.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

/// One reported metric: its value, unit and how many samples it summarises.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
}

/// The metrics of one run, in the order they were added.
#[derive(Debug, Default)]
pub struct Sheet {
    metrics: Vec<Metric>,
}

impl Sheet {
    /// Adds the metric `name`.
    pub fn put(&mut self, name: &str, unit: &'static str, value: f64, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
            samples,
        });
    }

    /// The metrics in insertion order.
    pub fn metrics(&self) -> &[Metric] {
        &self.metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert!((quantile(&xs, 0.95) - 3.85).abs() < 1e-12);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn p95_of_a_hundred_ranks() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((quantile(&xs, 0.95) - 95.05).abs() < 1e-9);
        assert!((quantile(&xs, 0.5) - 50.5).abs() < 1e-9);
    }

    #[test]
    fn ledger_counts_every_kind_of_failure() {
        let mut ledger = Ledger::default();
        ledger.record(Ok(()));
        ledger.record(Err("query 3 shed: rejected".into()));
        ledger.record(Err("query 4: count 9 != solo 10".into()));
        ledger.record(Ok(()));
        assert_eq!(ledger.attempted(), 4);
        assert_eq!(ledger.failed(), 2);
        assert_eq!(ledger.failed_frac(), 0.5);
        assert_eq!(ledger.failures().len(), 2);
        assert_eq!(Ledger::default().failed_frac(), 0.0);
    }
}
