//! Text rendering of the two poster UI figures: the ranked-results list
//! ("Data Near Here" search interface) and the dataset summary page.

use crate::engine::SearchHit;
use metamess_core::feature::{DatasetFeature, NameResolution};
use std::fmt::Write as _;

/// Renders a ranked result list the way the search interface presents it.
pub fn render_results(hits: &[SearchHit]) -> String {
    let mut out = String::new();
    if hits.is_empty() {
        out.push_str("no results\n");
        return out;
    }
    for (rank, h) in hits.iter().enumerate() {
        let _ = writeln!(out, "{:>2}. [{:.3}] {}", rank + 1, h.score, h.title);
        let b = &h.breakdown;
        let mut facets: Vec<String> = Vec::new();
        if let Some(s) = b.space {
            facets.push(format!("space {s:.2}"));
        }
        if let Some(s) = b.time {
            facets.push(format!("time {s:.2}"));
        }
        if let Some(s) = b.variables {
            facets.push(format!("variables {s:.2}"));
        }
        if !facets.is_empty() {
            let _ = writeln!(out, "      {}  ({})", facets.join(" · "), h.path);
        }
        for (term, matched, s) in &b.variable_matches {
            match matched {
                Some(var) => {
                    let _ = writeln!(out, "      '{term}' matched column '{var}' ({s:.2})");
                }
                None => {
                    let _ = writeln!(out, "      '{term}' matched nothing");
                }
            }
        }
    }
    out
}

/// Renders the dataset summary page: "displays dataset & variable
/// information from metadata catalog".
pub fn render_summary(d: &DatasetFeature) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "=== {} ===", d.title);
    let _ = writeln!(out, "path:      {}", d.path);
    if let Some(s) = &d.source {
        let _ = writeln!(out, "source:    {s}");
    }
    let _ = writeln!(out, "records:   {}", d.record_count);
    if let Some(b) = &d.bbox {
        let _ = writeln!(out, "location:  {b}");
    }
    if let Some(t) = &d.time {
        let _ = writeln!(out, "time:      {t}");
    }
    let _ = writeln!(out, "format:    {}", d.provenance.format);
    if !d.external.is_empty() {
        let _ = writeln!(out, "metadata:");
        for (k, v) in &d.external {
            let _ = writeln!(out, "  {k}: {v}");
        }
    }
    let _ = writeln!(out, "variables:");
    let _ = writeln!(
        out,
        "  {:<24} {:<28} {:<8} {:>9} {:>9} {:>9}  flags",
        "column", "canonical", "unit", "min", "max", "mean"
    );
    for v in &d.variables {
        let canonical = match (&v.canonical_name, &v.resolution) {
            (Some(c), NameResolution::DiscoveredTranslation { method }) => {
                format!("{c} (discovered: {method})")
            }
            (Some(c), _) => c.clone(),
            (None, _) => "—".to_string(),
        };
        let (min, max, mean) = match v.value_range() {
            Some((lo, hi)) => {
                (format!("{lo:.2}"), format!("{hi:.2}"), format!("{:.2}", v.summary.mean))
            }
            None => ("—".into(), "—".into(), "—".into()),
        };
        let mut flags: Vec<&str> = Vec::new();
        if v.flags.qa {
            flags.push("qa");
        }
        if v.flags.ambiguous {
            flags.push("ambiguous");
        }
        if v.flags.hidden {
            flags.push("hidden");
        }
        let _ = writeln!(
            out,
            "  {:<24} {:<28} {:<8} {:>9} {:>9} {:>9}  {}",
            v.name,
            canonical,
            v.unit.as_deref().unwrap_or("—"),
            min,
            max,
            mean,
            flags.join(",")
        );
        if !v.hierarchy.is_empty() {
            let _ = writeln!(out, "  {:<24} hierarchy: {}", "", v.hierarchy.join(" > "));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SearchEngine;
    use crate::query::Query;
    use metamess_core::catalog::Catalog;
    use metamess_core::feature::VariableFeature;
    use metamess_core::geo::{GeoBBox, GeoPoint};
    use metamess_core::time::{TimeInterval, Timestamp};
    use metamess_vocab::Vocabulary;

    fn dataset() -> DatasetFeature {
        let mut d = DatasetFeature::new("stations/saturn01/2010/06.csv");
        d.title = "Station saturn01, 2010-06".into();
        d.source = Some("saturn01".into());
        d.record_count = 96;
        d.bbox = Some(GeoBBox::point(GeoPoint::new(46.2, -123.9).unwrap()));
        d.time = Some(TimeInterval::new(
            Timestamp::from_ymd(2010, 6, 1).unwrap(),
            Timestamp::from_ymd(2010, 6, 28).unwrap(),
        ));
        d.external.insert("platform".into(), "buoy".into());
        let mut v = VariableFeature::new("wtemp");
        v.unit = Some("degC".into());
        v.resolve(
            "water_temperature",
            NameResolution::DiscoveredTranslation { method: "fingerprint".into() },
        );
        v.summary.observe(9.5);
        v.summary.observe(14.5);
        v.hierarchy =
            vec!["physical".into(), "temperature".into(), "water_temperature".into()].into();
        d.variables.push(v);
        let mut qa = VariableFeature::new("qa_level");
        qa.flags.qa = true;
        d.variables.push(qa);
        d
    }

    #[test]
    fn summary_contains_all_sections() {
        let s = render_summary(&dataset());
        assert!(s.contains("Station saturn01, 2010-06"));
        assert!(s.contains("source:    saturn01"));
        assert!(s.contains("records:   96"));
        assert!(s.contains("location:"));
        assert!(s.contains("2010-06-01T00:00:00Z"));
        assert!(s.contains("platform: buoy"));
        assert!(s.contains("wtemp"));
        assert!(s.contains("water_temperature (discovered: fingerprint)"));
        assert!(s.contains("degC"));
        assert!(s.contains("9.50"));
        assert!(s.contains("14.50"));
        assert!(s.contains("qa_level"));
        // QA flag shown in the detailed view (poster: "show in detailed
        // dataset views")
        assert!(s.lines().any(|l| l.contains("qa_level") && l.trim_end().ends_with("qa")));
        assert!(s.contains("physical > temperature > water_temperature"));
    }

    #[test]
    fn unresolved_variable_shows_dash() {
        let mut d = dataset();
        d.variables.push(VariableFeature::new("mystery"));
        let s = render_summary(&d);
        let line = s.lines().find(|l| l.contains("mystery")).unwrap();
        assert!(line.contains('—'));
    }

    #[test]
    fn results_rendering() {
        let mut c = Catalog::new();
        c.put(dataset());
        let e = SearchEngine::build(&c, Vocabulary::observatory_default());
        let q = Query::parse("near 46.2,-123.9 with water_temperature").unwrap();
        let hits = e.search(&q);
        let s = render_results(&hits);
        assert!(s.starts_with(" 1. ["));
        assert!(s.contains("Station saturn01"));
        assert!(s.contains("space 1.00"));
        assert!(s.contains("'water_temperature' matched column 'wtemp'"));
    }

    #[test]
    fn empty_results() {
        assert_eq!(render_results(&[]), "no results\n");
    }
}
