//! Machine-readable bench output.
//!
//! The `exp*` binaries print human-readable tables; with `--json [path]`
//! they additionally write a flat, schema-stable JSON report
//! (`BENCH_search.json`, `BENCH_wrangle.json`, ...) that CI and plotting
//! scripts can diff across commits without scraping stdout.
//!
//! The schema is deliberately a flat `metrics` map of dotted keys to
//! numbers: keys are stable identifiers, values are `u64` or `f64`
//! (rendered with a fixed number of decimals so byte-level diffs are
//! meaningful), and the map is sorted. Latency distributions are summarized
//! as `count`/`mean`/`p50`/`p95`/`p99`/`max`, either from exact samples or
//! from a telemetry [`HistogramSnapshot`].

use metamess_telemetry::HistogramSnapshot;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Schema identifier embedded in every report.
pub const SCHEMA: &str = "metamess-bench/1";

#[derive(Debug, Clone, PartialEq)]
enum Value {
    U64(u64),
    F64(f64),
}

/// A flat metric report, rendered as stable JSON.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchReport {
    experiment: String,
    metrics: BTreeMap<String, Value>,
}

impl BenchReport {
    /// Creates an empty report for a named experiment (`"search"`,
    /// `"wrangle"`, ...).
    pub fn new(experiment: &str) -> BenchReport {
        BenchReport { experiment: experiment.to_string(), metrics: BTreeMap::new() }
    }

    /// Sets an integer metric.
    pub fn set(&mut self, key: &str, v: u64) {
        self.metrics.insert(key.to_string(), Value::U64(v));
    }

    /// Sets a float metric. Non-finite values are stored as 0 so the
    /// rendered schema never contains `NaN`/`inf` (invalid JSON).
    pub fn set_f64(&mut self, key: &str, v: f64) {
        let v = if v.is_finite() { v } else { 0.0 };
        self.metrics.insert(key.to_string(), Value::F64(v));
    }

    /// Number of metrics recorded so far.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// True when no metric has been recorded.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Summarizes exact latency samples (in µs) under `prefix`: writes
    /// `<prefix>.count`, `.mean_micros`, `.p50_micros`, `.p95_micros`,
    /// `.p99_micros`, `.max_micros` using nearest-rank percentiles.
    pub fn record_samples(&mut self, prefix: &str, samples: &[u64]) {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let rank = |q: f64| -> u64 {
            if sorted.is_empty() {
                return 0;
            }
            let ix = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            sorted[ix - 1]
        };
        let sum: u64 = sorted.iter().sum();
        self.set(&format!("{prefix}.count"), sorted.len() as u64);
        self.set_f64(
            &format!("{prefix}.mean_micros"),
            if sorted.is_empty() { 0.0 } else { sum as f64 / sorted.len() as f64 },
        );
        self.set(&format!("{prefix}.p50_micros"), rank(0.50));
        self.set(&format!("{prefix}.p95_micros"), rank(0.95));
        self.set(&format!("{prefix}.p99_micros"), rank(0.99));
        self.set(&format!("{prefix}.max_micros"), sorted.last().copied().unwrap_or(0));
    }

    /// Summarizes a telemetry histogram under `prefix` with the same keys
    /// as [`record_samples`](Self::record_samples) (percentiles come from
    /// the log-bucketed scheme, so they carry its ≤12.5% relative error).
    pub fn record_histogram(&mut self, prefix: &str, h: &HistogramSnapshot) {
        self.set(&format!("{prefix}.count"), h.count);
        self.set_f64(&format!("{prefix}.mean_micros"), h.mean());
        self.set(&format!("{prefix}.p50_micros"), h.quantile(0.50));
        self.set(&format!("{prefix}.p95_micros"), h.quantile(0.95));
        self.set(&format!("{prefix}.p99_micros"), h.quantile(0.99));
        self.set(&format!("{prefix}.max_micros"), h.max);
    }

    /// Renders the report as JSON: schema + experiment + sorted flat
    /// metrics map. Floats use 4 decimals so re-rendering is byte-stable.
    pub fn render(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"schema\": \"{}\",", SCHEMA);
        let _ = writeln!(out, "  \"experiment\": \"{}\",", self.experiment);
        out.push_str("  \"metrics\": {\n");
        for (ix, (k, v)) in self.metrics.iter().enumerate() {
            let comma = if ix + 1 < self.metrics.len() { "," } else { "" };
            match v {
                Value::U64(n) => {
                    let _ = writeln!(out, "    \"{k}\": {n}{comma}");
                }
                Value::F64(x) => {
                    let _ = writeln!(out, "    \"{k}\": {x:.4}{comma}");
                }
            }
        }
        out.push_str("  }\n}\n");
        out
    }

    /// Writes the rendered report to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.render())
    }
}

/// Parses an optional `--json [path]` flag: `None` when absent,
/// `Some(default)` for a bare `--json`, `Some(path)` when a path follows.
pub fn json_flag(args: &[String], default: &str) -> Option<std::path::PathBuf> {
    let ix = args.iter().position(|a| a == "--json")?;
    match args.get(ix + 1) {
        Some(p) if !p.starts_with("--") => Some(std::path::PathBuf::from(p)),
        _ => Some(std::path::PathBuf::from(default)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_is_sorted_valid_json_and_stable() {
        let mut r = BenchReport::new("search");
        r.set("b.count", 2);
        r.set_f64("a.speedup", 2.5);
        r.set_f64("c.bad", f64::NAN);
        let text = r.render();
        let v: serde_json::Value = serde_json::from_str(&text).expect("valid json");
        assert_eq!(v["schema"].as_str(), Some(SCHEMA));
        assert_eq!(v["experiment"].as_str(), Some("search"));
        assert_eq!(v["metrics"]["b.count"].as_u64(), Some(2));
        assert_eq!(v["metrics"]["a.speedup"].as_f64(), Some(2.5));
        assert_eq!(v["metrics"]["c.bad"].as_f64(), Some(0.0), "non-finite stored as 0");
        assert!(text.find("a.speedup").unwrap() < text.find("b.count").unwrap());
        assert_eq!(text, r.clone().render(), "re-render is byte-stable");
    }

    #[test]
    fn sample_percentiles_are_nearest_rank() {
        let mut r = BenchReport::new("t");
        let samples: Vec<u64> = (1..=100).collect();
        r.record_samples("lat", &samples);
        let text = r.render();
        let v: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert_eq!(v["metrics"]["lat.count"].as_u64(), Some(100));
        assert_eq!(v["metrics"]["lat.p50_micros"].as_u64(), Some(50));
        assert_eq!(v["metrics"]["lat.p95_micros"].as_u64(), Some(95));
        assert_eq!(v["metrics"]["lat.p99_micros"].as_u64(), Some(99));
        assert_eq!(v["metrics"]["lat.max_micros"].as_u64(), Some(100));
        assert_eq!(v["metrics"]["lat.mean_micros"].as_f64(), Some(50.5));
    }

    #[test]
    fn empty_samples_render_zeroes() {
        let mut r = BenchReport::new("t");
        r.record_samples("lat", &[]);
        let v: serde_json::Value = serde_json::from_str(&r.render()).unwrap();
        assert_eq!(v["metrics"]["lat.count"].as_u64(), Some(0));
        assert_eq!(v["metrics"]["lat.p99_micros"].as_u64(), Some(0));
    }

    #[test]
    fn histogram_summary_brackets_observations() {
        let h = metamess_telemetry::Histogram::new();
        for v in [10u64, 20, 30, 1000] {
            h.record(v);
        }
        let mut r = BenchReport::new("t");
        r.record_histogram("h", &h.snapshot());
        let v: serde_json::Value = serde_json::from_str(&r.render()).unwrap();
        assert_eq!(v["metrics"]["h.count"].as_u64(), Some(4));
        assert_eq!(v["metrics"]["h.max_micros"].as_u64(), Some(1000));
        let p50 = v["metrics"]["h.p50_micros"].as_u64().unwrap();
        assert!((18..=30).contains(&p50), "p50 {p50} should bracket 20 within bucket error");
    }

    #[test]
    fn json_flag_parses_all_forms() {
        let a = |s: &[&str]| s.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        assert_eq!(json_flag(&a(&[]), "D.json"), None);
        assert_eq!(json_flag(&a(&["--json"]), "D.json"), Some("D.json".into()));
        assert_eq!(json_flag(&a(&["--json", "out.json"]), "D.json"), Some("out.json".into()));
        assert_eq!(json_flag(&a(&["--json", "--quiet"]), "D.json"), Some("D.json".into()));
    }
}
