//! Metrics, output checks and the result line.

#[derive(Default)]
pub struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
    failed_checks: Vec<String>,
    /// Operations attempted: training iterations and offered requests.
    pub attempted: u64,
    /// Operations that failed: shed, expired or check-failed requests,
    /// check-failed iterations, and one per failed identity.
    pub failed: u64,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.check(&format!("{name} is finite"), value.is_finite());
        self.metrics.push((name, value, unit));
    }

    /// Record one output check; a failed check fails the run.
    pub fn check(&mut self, what: &str, ok: bool) -> bool {
        if !ok {
            eprintln!("perfbench: CHECK FAILED: {what}");
            self.failed_checks.push(what.to_string());
        }
        ok
    }

    pub fn correct(&self) -> bool {
        self.failed_checks.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// Every metric by name with its unit, one per line.
    pub fn print_metrics(&self) {
        for (name, value, unit) in &self.metrics {
            println!("  {name:<36} {value:>16.6} {unit}");
        }
    }

    /// The result object: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
