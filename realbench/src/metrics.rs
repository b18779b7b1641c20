//! The metric catalogue and the result line.
//!
//! `BENCHMARK.json` lists the same names and units; a test keeps the two
//! in step. Every workload reports every metric of its mode: an untraced
//! run prints all of [`END_TO_END`], a traced run all of [`PER_LAYER`].

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("call_p50_us", "us"),
    ("ok_share", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("install.gather_s", "s"),
    ("install.fit_s", "s"),
    ("predictor.eval_us", "us"),
    ("predictor.eval_share", "ratio"),
    ("predictor.hit_rate", "ratio"),
    ("predictor.nt1_share", "ratio"),
    ("predictor.speedup_vs_max", "ratio"),
    ("predictor.regret", "ratio"),
    ("backend.gflops", "GFLOP/s"),
    ("backend.scaling", "ratio"),
    ("kernel.peak_frac", "ratio"),
    ("pool.dispatch_us", "us"),
    ("pool.barrier_us", "us"),
    ("pack.gbps", "GB/s"),
    ("arena.misses_per_call", "count"),
    ("serve.goodput_jobs_s", "1/s"),
    ("serve.job_p50_ms", "ms"),
    ("serve.job_p99_ms", "ms"),
    ("serve.hit_rate", "ratio"),
    ("serve.submit_us", "us"),
    ("serve.wait_p50_ms", "ms"),
    ("serve.wait_p99_ms", "ms"),
    ("serve.exec_ms", "ms"),
    ("serve.batch_size", "count"),
    ("serve.rejected", "count"),
    ("serve.expired", "count"),
    ("serve.retries", "count"),
    ("serve.stolen_batches", "count"),
    ("serve.shed", "count"),
    ("serve.gen_lag_ms", "ms"),
    ("trace.unattributed_p99", "ratio"),
    ("trace.overhead_share", "ratio"),
];

/// Metric values of one run, checked against a catalogue.
#[derive(Debug)]
pub struct Metrics {
    catalogue: &'static [(&'static str, &'static str)],
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// An empty set for the catalogue of the run's mode.
    pub fn new(traced: bool) -> Metrics {
        Metrics {
            catalogue: if traced { &PER_LAYER } else { &END_TO_END },
            values: BTreeMap::new(),
        }
    }

    /// Set `name`.
    ///
    /// # Panics
    /// If `name` is not in the catalogue: a typo would otherwise print a
    /// metric `BENCHMARK.json` does not list.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.catalogue.iter().any(|(n, _)| *n == name),
            "metric {name} is not in this mode's catalogue"
        );
        self.values.insert(name, value);
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// The `"metrics"` JSON object: every catalogue entry with its unit.
    ///
    /// # Panics
    /// If a catalogue metric was never set or is not finite.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .catalogue
            .iter()
            .map(|(name, unit)| {
                let v = self.values.get(name).copied();
                let v = v.unwrap_or_else(|| panic!("metric {name} was not measured"));
                assert!(v.is_finite(), "metric {name} is not finite: {v}");
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// The last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_lists_every_metric_with_its_unit() {
        let mut m = Metrics::new(false);
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            m.set(name, 1.5 + i as f64);
        }
        let line = result_line(true, 10, 0, &m);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(line.contains("\"peak_rss_mb\": {\"value\": 4.5, \"unit\": \"MB\"}"));
    }

    #[test]
    #[should_panic(expected = "not in this mode's catalogue")]
    fn unknown_names_are_refused() {
        Metrics::new(true).set("setup_s", 1.0);
    }
}
