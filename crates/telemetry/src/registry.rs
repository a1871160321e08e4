//! The metrics registry: named counters, gauges, and histograms with
//! snapshot-on-read exposition.
//!
//! Registration (the first lookup of a name) takes a write lock; every
//! later lookup takes a read lock and clones an `Arc` handle. Hot paths
//! are expected to cache their handles (see the `OnceLock` pattern in the
//! instrumented crates), after which updates are single atomic operations.
//!
//! # Naming
//!
//! Metric names follow `metamess_<crate>_<name>` with an optional
//! Prometheus-style label set appended verbatim, e.g.
//! `metamess_pipeline_stage_micros{stage="scan-archive"}`. The
//! [`labeled`] helper builds such names; the Prometheus renderer folds the
//! embedded labels into bucket/sum/count series correctly.

use crate::metric::{Counter, Gauge, Histogram, HistogramSnapshot};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Builds a labeled metric name: `labeled("m", "stage", "scan")` →
/// `m{stage="scan"}`.
pub fn labeled(name: &str, key: &str, value: &str) -> String {
    format!("{name}{{{key}=\"{value}\"}}")
}

#[derive(Default)]
struct Families {
    counters: BTreeMap<String, Arc<Counter>>,
    gauges: BTreeMap<String, Arc<Gauge>>,
    histograms: BTreeMap<String, Arc<Histogram>>,
}

/// A registry of named metrics.
pub struct MetricsRegistry {
    enabled: AtomicBool,
    families: RwLock<Families>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new(true)
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new(enabled: bool) -> MetricsRegistry {
        MetricsRegistry { enabled: AtomicBool::new(enabled), families: RwLock::default() }
    }

    /// Whether instrumentation should record. The disabled fast path in
    /// every instrumented crate is this single relaxed load plus a branch.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off (existing values are kept).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    // A poisoned lock is taken over: every update under it is a single map
    // insert, so the families are valid at every step.
    fn read(&self) -> RwLockReadGuard<'_, Families> {
        self.families.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, Families> {
        self.families.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// The counter named `name`, registering it on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(c) = self.read().counters.get(name) {
            return c.clone();
        }
        self.write().counters.entry(name.to_string()).or_default().clone()
    }

    /// The gauge named `name`, registering it on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        if let Some(g) = self.read().gauges.get(name) {
            return g.clone();
        }
        self.write().gauges.entry(name.to_string()).or_default().clone()
    }

    /// The histogram named `name`, registering it on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        if let Some(h) = self.read().histograms.get(name) {
            return h.clone();
        }
        self.write().histograms.entry(name.to_string()).or_default().clone()
    }

    /// Zeroes every registered metric (handles stay valid; names stay
    /// registered).
    pub fn reset(&self) {
        let fam = self.read();
        for c in fam.counters.values() {
            c.reset();
        }
        for g in fam.gauges.values() {
            g.reset();
        }
        for h in fam.histograms.values() {
            h.reset();
        }
    }

    /// Copies the current value of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let fam = self.read();
        MetricsSnapshot {
            counters: fam.counters.iter().map(|(k, v)| (k.clone(), v.get())).collect(),
            gauges: fam.gauges.iter().map(|(k, v)| (k.clone(), v.get())).collect(),
            histograms: fam.histograms.iter().map(|(k, v)| (k.clone(), v.snapshot())).collect(),
        }
    }

    /// Renders the registry in the Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        self.snapshot().render_prometheus()
    }

    /// Renders the registry as a JSON object (see
    /// [`MetricsSnapshot::render_json`] for the schema).
    pub fn render_json(&self) -> String {
        self.snapshot().render_json()
    }
}

/// A point-in-time copy of a [`MetricsRegistry`], mergeable across
/// processes and renderable in three formats.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter name → value.
    pub counters: BTreeMap<String, u64>,
    /// Gauge name → value.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram name → snapshot.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

/// Splits `name{labels}` into `(name, Some(labels))`.
fn split_labels(name: &str) -> (&str, Option<&str>) {
    match name.split_once('{') {
        Some((base, rest)) => (base, rest.strip_suffix('}')),
        None => (name, None),
    }
}

/// `# HELP` text for a family, derived from the workspace naming scheme
/// (`_total` counters, `_micros` duration histograms).
fn help_text(base: &str, kind: &str) -> &'static str {
    if base.ends_with("_micros") {
        "Duration distribution in microseconds (log-bucketed, <=12.5% error)."
    } else if base.ends_with("_bytes") {
        "Size in bytes."
    } else {
        match kind {
            "counter" => "Monotonic count of events.",
            "gauge" => "Instantaneous value.",
            _ => "Distribution of recorded values.",
        }
    }
}

/// Escapes a string for inclusion in a JSON string literal.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

impl MetricsSnapshot {
    /// True when nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Adds `other` into `self`: counters and histograms accumulate,
    /// gauges take `other`'s (newer) value.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
    }

    /// Prometheus text exposition (text format 0.0.4): `# HELP` and
    /// `# TYPE` lines per family, histogram bucket series with cumulative
    /// `le` labels (embedded labels from the metric name are preserved),
    /// and — when a histogram carries an exemplar — a comment line linking
    /// its worst observation to a trace id (comments are ignored by 0.0.4
    /// parsers, so the output stays conformant).
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_family = String::new();
        let mut type_line = |out: &mut String, base: &str, kind: &str| {
            if last_family != base {
                let _ = writeln!(out, "# HELP {base} {}", help_text(base, kind));
                let _ = writeln!(out, "# TYPE {base} {kind}");
                last_family = base.to_string();
            }
        };
        for (name, v) in &self.counters {
            let (base, _) = split_labels(name);
            type_line(&mut out, base, "counter");
            let _ = writeln!(out, "{name} {v}");
        }
        for (name, v) in &self.gauges {
            let (base, _) = split_labels(name);
            type_line(&mut out, base, "gauge");
            let _ = writeln!(out, "{name} {v}");
        }
        for (name, h) in &self.histograms {
            let (base, labels) = split_labels(name);
            type_line(&mut out, base, "histogram");
            let series = |extra: &str| match labels {
                Some(l) if extra.is_empty() => format!("{{{l}}}"),
                Some(l) => format!("{{{l},{extra}}}"),
                None if extra.is_empty() => String::new(),
                None => format!("{{{extra}}}"),
            };
            let mut cumulative = 0u64;
            for &(bound, n) in &h.buckets {
                cumulative += n;
                let _ = writeln!(
                    out,
                    "{base}_bucket{} {cumulative}",
                    series(&format!("le=\"{bound}\""))
                );
            }
            let _ = writeln!(out, "{base}_bucket{} {}", series("le=\"+Inf\""), h.count);
            let _ = writeln!(out, "{base}_sum{} {}", series(""), h.sum);
            let _ = writeln!(out, "{base}_count{} {}", series(""), h.count);
            if let Some((val, id)) = h.exemplar {
                let _ =
                    writeln!(out, "# exemplar {base}{} value={val} trace_id={id:032x}", series(""));
            }
        }
        out
    }

    /// JSON exposition:
    ///
    /// ```json
    /// {"counters":{"name":1},
    ///  "gauges":{"name":-2},
    ///  "histograms":{"name":{"count":2,"sum":9,"min":4,"max":5,
    ///                        "buckets":[[4,1],[5,1]]}}}
    /// ```
    ///
    /// A histogram with an exemplar additionally carries
    /// `"exemplar":{"value":N,"trace_id":"<32 hex>"}` after `buckets`;
    /// the key is omitted entirely when no exemplar was recorded.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (ix, (k, v)) in self.counters.iter().enumerate() {
            if ix > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{v}", json_escape(k));
        }
        out.push_str("},\"gauges\":{");
        for (ix, (k, v)) in self.gauges.iter().enumerate() {
            if ix > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{v}", json_escape(k));
        }
        out.push_str("},\"histograms\":{");
        for (ix, (k, h)) in self.histograms.iter().enumerate() {
            if ix > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[",
                json_escape(k),
                h.count,
                h.sum,
                h.min,
                h.max
            );
            for (bx, &(bound, n)) in h.buckets.iter().enumerate() {
                if bx > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{bound},{n}]");
            }
            out.push(']');
            if let Some((val, id)) = h.exemplar {
                let _ = write!(out, ",\"exemplar\":{{\"value\":{val},\"trace_id\":\"{id:032x}\"}}");
            }
            out.push('}');
        }
        out.push_str("}}");
        out
    }

    /// A compact human-readable table (the `metamess stats` default view).
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (k, v) in &self.counters {
                let _ = writeln!(out, "  {k:<58} {v:>12}");
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (k, v) in &self.gauges {
                let _ = writeln!(out, "  {k:<58} {v:>12}");
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms (µs):\n");
            let _ = writeln!(
                out,
                "  {:<58} {:>8} {:>9} {:>9} {:>9} {:>9}",
                "name", "count", "mean", "p50", "p95", "p99"
            );
            for (k, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "  {k:<58} {:>8} {:>9.1} {:>9} {:>9} {:>9}",
                    h.count,
                    h.mean(),
                    h.quantile(0.50),
                    h.quantile(0.95),
                    h.quantile(0.99)
                );
            }
        }
        if out.is_empty() {
            out.push_str("no metrics recorded\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_once_then_shared() {
        let r = MetricsRegistry::new(true);
        let a = r.counter("metamess_test_total");
        let b = r.counter("metamess_test_total");
        a.inc();
        b.add(2);
        assert_eq!(r.counter("metamess_test_total").get(), 3);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn snapshot_and_reset() {
        let r = MetricsRegistry::new(true);
        r.counter("c").add(5);
        r.gauge("g").set(-2);
        r.histogram("h").record(10);
        let s = r.snapshot();
        assert_eq!(s.counters["c"], 5);
        assert_eq!(s.gauges["g"], -2);
        assert_eq!(s.histograms["h"].count, 1);
        r.reset();
        let s = r.snapshot();
        assert_eq!(s.counters["c"], 0);
        assert_eq!(s.gauges["g"], 0);
        assert_eq!(s.histograms["h"].count, 0);
    }

    #[test]
    fn enabled_flag_toggles() {
        let r = MetricsRegistry::new(true);
        assert!(r.enabled());
        r.set_enabled(false);
        assert!(!r.enabled());
    }

    #[test]
    fn prometheus_render_shapes() {
        let r = MetricsRegistry::new(true);
        r.counter("metamess_x_total").add(3);
        r.counter(&labeled("metamess_y_total", "kind", "a")).add(1);
        r.counter(&labeled("metamess_y_total", "kind", "b")).add(2);
        r.gauge("metamess_g").set(7);
        let h = r.histogram(&labeled("metamess_h_micros", "span", "s"));
        h.record(3);
        h.record(100);
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE metamess_x_total counter"), "{text}");
        assert!(text.contains("# HELP metamess_x_total Monotonic count of events."), "{text}");
        assert!(text.contains("metamess_x_total 3"));
        // one HELP/TYPE pair for the whole labeled family
        assert_eq!(text.matches("# TYPE metamess_y_total counter").count(), 1, "{text}");
        assert_eq!(text.matches("# HELP metamess_y_total").count(), 1, "{text}");
        assert!(text.contains("metamess_y_total{kind=\"a\"} 1"));
        assert!(text.contains("# TYPE metamess_g gauge"));
        // histogram series fold the name's labels in with le
        assert!(text.contains("metamess_h_micros_bucket{span=\"s\",le=\"3\"} 1"), "{text}");
        assert!(text.contains("metamess_h_micros_bucket{span=\"s\",le=\"+Inf\"} 2"));
        assert!(text.contains("# HELP metamess_h_micros Duration distribution"), "{text}");
        assert!(text.contains("metamess_h_micros_sum{span=\"s\"} 103"));
        assert!(text.contains("metamess_h_micros_count{span=\"s\"} 2"));
        // every HELP line directly precedes its TYPE line
        let lines: Vec<&str> = text.lines().collect();
        for (ix, line) in lines.iter().enumerate() {
            if line.starts_with("# HELP ") {
                assert!(lines[ix + 1].starts_with("# TYPE "), "{text}");
            }
        }
    }

    #[test]
    fn prometheus_exemplar_is_a_comment_line() {
        let r = MetricsRegistry::new(true);
        let h = r.histogram(&labeled("metamess_h_micros", "span", "s"));
        h.record_with_exemplar(500, 0xBEEF);
        let text = r.render_prometheus();
        let exemplar =
            text.lines().find(|l| l.contains("exemplar")).expect("exemplar line rendered");
        assert!(exemplar.starts_with('#'), "must be a comment for 0.0.4 parsers: {exemplar}");
        assert!(exemplar.contains("value=500"), "{exemplar}");
        assert!(exemplar.contains(&format!("trace_id={:032x}", 0xBEEFu128)), "{exemplar}");
    }

    #[test]
    fn json_render_includes_exemplar_only_when_present() {
        let r = MetricsRegistry::new(true);
        r.histogram("plain").record(4);
        let json = r.render_json();
        assert!(!json.contains("exemplar"), "{json}");
        r.histogram("plain").record_with_exemplar(9, 0xAB);
        let json = r.render_json();
        assert!(
            json.contains(&format!(
                "\"exemplar\":{{\"value\":9,\"trace_id\":\"{:032x}\"}}",
                0xABu128
            )),
            "{json}"
        );
    }

    #[test]
    fn json_render_escapes_label_quotes() {
        let r = MetricsRegistry::new(true);
        r.counter(&labeled("m", "k", "v")).inc();
        let json = r.render_json();
        assert!(json.contains("\"m{k=\\\"v\\\"}\":1"), "{json}");
    }

    #[test]
    fn merge_accumulates() {
        let mut a = MetricsSnapshot::default();
        a.counters.insert("c".into(), 1);
        a.gauges.insert("g".into(), 1);
        let mut b = MetricsSnapshot::default();
        b.counters.insert("c".into(), 2);
        b.counters.insert("d".into(), 5);
        b.gauges.insert("g".into(), 9);
        a.merge(&b);
        assert_eq!(a.counters["c"], 3);
        assert_eq!(a.counters["d"], 5);
        assert_eq!(a.gauges["g"], 9, "gauges take the newer value");
    }

    #[test]
    fn table_render_lists_everything() {
        let r = MetricsRegistry::new(true);
        r.counter("c").add(1);
        r.histogram("h").record(5);
        let t = r.snapshot().render_table();
        assert!(t.contains("counters:"));
        assert!(t.contains("histograms"));
        assert!(t.contains("p99"));
        assert_eq!(MetricsSnapshot::default().render_table(), "no metrics recorded\n");
    }
}
