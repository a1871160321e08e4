//! Streaming summaries used to build catalog features in a single scan.
//!
//! The paper's architecture scans each dataset once and keeps only a summary
//! ("feature") per variable: these accumulators compute min/max/mean, null
//! counts, and a small value sample without a second pass.

use crate::value::Value;
use serde::{Deserialize, Serialize};

/// One-pass numeric summary: count, min, max and running mean.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct NumericSummary {
    /// Number of finite numeric observations.
    pub count: u64,
    /// Minimum observed value.
    pub min: f64,
    /// Maximum observed value.
    pub max: f64,
    /// Running mean.
    pub mean: f64,
}

impl NumericSummary {
    /// An empty summary.
    pub fn new() -> NumericSummary {
        NumericSummary { count: 0, min: f64::INFINITY, max: f64::NEG_INFINITY, mean: 0.0 }
    }

    /// Feeds one observation. Non-finite values are ignored.
    pub fn observe(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.count += 1;
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
        self.mean += (x - self.mean) / self.count as f64;
    }

    /// True when no observations were fed.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Applies the affine map `y = scale * x + offset` to the summary, as if
    /// every observation had been transformed before being fed (used for
    /// unit conversion of already-summarized variables). A negative scale
    /// swaps min and max.
    pub fn affine_transform(&mut self, scale: f64, offset: f64) {
        if self.count == 0 {
            return;
        }
        let (lo, hi) = (self.min * scale + offset, self.max * scale + offset);
        self.min = lo.min(hi);
        self.max = lo.max(hi);
        self.mean = self.mean * scale + offset;
    }

    /// Value range `(min, max)`; `None` when empty.
    pub fn range(&self) -> Option<(f64, f64)> {
        if self.count == 0 {
            None
        } else {
            Some((self.min, self.max))
        }
    }
}

/// Per-column accumulator: type tallies, null counts, numeric summary, and a
/// bounded sample of distinct text values (for clustering and curator review).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColumnSummary {
    /// Total cells observed (including nulls).
    pub total: u64,
    /// Null cells.
    pub nulls: u64,
    /// Cells that parsed as numbers.
    pub numeric_count: u64,
    /// Cells that were text.
    pub text_count: u64,
    /// Cells that parsed as timestamps.
    pub time_count: u64,
    /// Cells that parsed as booleans.
    pub bool_count: u64,
    /// Numeric summary over numeric cells.
    pub numeric: NumericSummary,
    /// Earliest/latest epoch seconds among time cells.
    pub time_min: Option<i64>,
    /// Latest epoch seconds among time cells.
    pub time_max: Option<i64>,
    /// Up to `sample_cap` distinct text values, in first-seen order.
    pub text_sample: Vec<String>,
    /// True once the distinct-text sample overflowed.
    pub text_sample_truncated: bool,
    sample_cap: usize,
}

/// Default number of distinct text values retained per column.
pub const DEFAULT_TEXT_SAMPLE_CAP: usize = 64;

impl Default for ColumnSummary {
    fn default() -> Self {
        ColumnSummary::new(DEFAULT_TEXT_SAMPLE_CAP)
    }
}

impl ColumnSummary {
    /// Creates a summary retaining at most `sample_cap` distinct text values.
    pub fn new(sample_cap: usize) -> ColumnSummary {
        ColumnSummary {
            total: 0,
            nulls: 0,
            numeric_count: 0,
            text_count: 0,
            time_count: 0,
            bool_count: 0,
            numeric: NumericSummary::new(),
            time_min: None,
            time_max: None,
            text_sample: Vec::new(),
            text_sample_truncated: false,
            sample_cap,
        }
    }

    /// Feeds one cell.
    pub fn observe(&mut self, v: &Value) {
        self.total += 1;
        match v {
            Value::Null => self.nulls += 1,
            Value::Bool(_) => self.bool_count += 1,
            Value::Int(i) => {
                self.numeric_count += 1;
                self.numeric.observe(*i as f64);
            }
            Value::Float(f) => {
                self.numeric_count += 1;
                self.numeric.observe(*f);
            }
            Value::Time(t) => {
                self.time_count += 1;
                self.time_min = Some(self.time_min.map_or(t.0, |m| m.min(t.0)));
                self.time_max = Some(self.time_max.map_or(t.0, |m| m.max(t.0)));
            }
            Value::Text(s) => {
                self.text_count += 1;
                if !self.text_sample.iter().any(|x| x == s) {
                    if self.text_sample.len() < self.sample_cap {
                        self.text_sample.push(s.clone());
                    } else {
                        self.text_sample_truncated = true;
                    }
                }
            }
        }
    }
}

/// Summarizes a column's cells in order, with the default text sample cap.
impl<'a> FromIterator<&'a Value> for ColumnSummary {
    fn from_iter<I: IntoIterator<Item = &'a Value>>(cells: I) -> ColumnSummary {
        let mut s = ColumnSummary::default();
        cells.into_iter().for_each(|v| s.observe(v));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Timestamp;

    #[test]
    fn numeric_basic() {
        let mut s = NumericSummary::new();
        for x in [2.0, 4.0, 6.0] {
            s.observe(x);
        }
        assert_eq!(s.count, 3);
        assert_eq!(s.range(), Some((2.0, 6.0)));
        assert!((s.mean - 4.0).abs() < 1e-12);
    }

    #[test]
    fn numeric_empty() {
        let s = NumericSummary::new();
        assert!(s.is_empty());
        assert_eq!(s.range(), None);
    }

    #[test]
    fn numeric_ignores_nonfinite() {
        let mut s = NumericSummary::new();
        s.observe(f64::NAN);
        s.observe(f64::INFINITY);
        assert!(s.is_empty());
    }

    #[test]
    fn affine_transform_matches_transformed_stream() {
        let xs = [32.0, 50.0, 212.0, 98.6];
        let mut f = NumericSummary::new();
        let mut c = NumericSummary::new();
        for &x in &xs {
            f.observe(x);
            c.observe((x - 32.0) * 5.0 / 9.0);
        }
        f.affine_transform(5.0 / 9.0, -32.0 * 5.0 / 9.0);
        assert_eq!(f.count, c.count);
        assert!((f.mean - c.mean).abs() < 1e-9);
        assert!((f.min - c.min).abs() < 1e-9);
        assert!((f.max - c.max).abs() < 1e-9);
    }

    #[test]
    fn affine_negative_scale_swaps_range() {
        let mut s = NumericSummary::new();
        s.observe(1.0);
        s.observe(3.0);
        s.affine_transform(-2.0, 0.0);
        assert_eq!(s.range(), Some((-6.0, -2.0)));
    }

    #[test]
    fn affine_on_empty_is_noop() {
        let mut s = NumericSummary::new();
        s.affine_transform(2.0, 1.0);
        assert!(s.is_empty());
    }

    #[test]
    fn column_type_tallies() {
        let mut c = ColumnSummary::default();
        c.observe(&Value::Int(1));
        c.observe(&Value::Float(2.5));
        c.observe(&Value::Null);
        c.observe(&Value::Text("x".into()));
        c.observe(&Value::Time(Timestamp(100)));
        c.observe(&Value::Bool(true));
        assert_eq!(c.total, 6);
        assert_eq!(c.nulls, 1);
        assert_eq!(c.numeric_count, 2);
        assert_eq!(c.text_count, 1);
        assert_eq!(c.time_count, 1);
        assert_eq!(c.bool_count, 1);
    }

    #[test]
    fn column_time_range() {
        let mut c = ColumnSummary::default();
        c.observe(&Value::Time(Timestamp(50)));
        c.observe(&Value::Time(Timestamp(10)));
        c.observe(&Value::Time(Timestamp(30)));
        assert_eq!(c.time_min, Some(10));
        assert_eq!(c.time_max, Some(50));
    }

    #[test]
    fn column_text_sample_dedup_and_cap() {
        let mut c = ColumnSummary::new(2);
        c.observe(&Value::Text("a".into()));
        c.observe(&Value::Text("a".into()));
        c.observe(&Value::Text("b".into()));
        c.observe(&Value::Text("c".into()));
        assert_eq!(c.text_sample, vec!["a".to_string(), "b".to_string()]);
        assert!(c.text_sample_truncated);
    }
}
