//! Seeded sweeps: write→parse round trips for every archive format, and
//! parser robustness on arbitrary input. Each property runs on `CASES`
//! generators; a failure names its seed.

#[path = "../../core/tests/common/mod.rs"]
mod common;

use common::{sweep, Rng, ALPHA, DIGITS, IDENT, LOWER};
use metamess_core::value::Value;
use metamess_formats::*;
use std::collections::{BTreeMap, BTreeSet};

const CASES: u64 = 256;

/// `first` then up to `rest_max` characters of `rest`.
fn name(rng: &mut Rng, first: &str, rest: &str, rest_max: usize) -> String {
    rng.string(first, 1, 1) + &rng.string(rest, 0, rest_max)
}

/// A cell value every format can round-trip.
fn value(rng: &mut Rng) -> Value {
    match rng.below(4) {
        0 => Value::Null,
        1 => Value::Int(rng.range(-1_000_000, 1_000_000)),
        2 => Value::Float((rng.float(-1e6, 1e6) * 1000.0).round() / 1000.0),
        _ => loop {
            // CSV and CDL must quote `,` and `"`; OBSLOG writes a space as
            // `_` (its documented rule)
            let s = name(rng, ALPHA, &format!("{ALPHA}{DIGITS}_ ,\""), 10);
            // sentinels like "na"/"NaN"/"true" sniff into other types, and
            // edge whitespace is trimmed: neither can round-trip as text —
            // that is by design, skip them
            if Value::sniff(&s) == Value::Text(s.clone()) {
                break Value::Text(s);
            }
        },
    }
}

/// 1..=`max_cols` columns (every other one with a unit), up to `max_rows`
/// rows, up to three header entries.
fn parsed_file(rng: &mut Rng, max_cols: usize, max_rows: usize) -> ParsedFile {
    // a column name the formats can all carry (OBSLOG cannot hold whitespace)
    let cols: BTreeSet<String> = rng
        .vec(1, max_cols + 1, |rng| name(rng, LOWER, &format!("{LOWER}{DIGITS}_"), 14))
        .into_iter()
        .collect();
    let mut out = ParsedFile::new(FormatKind::Csv);
    out.columns = cols
        .into_iter()
        .enumerate()
        .map(|(i, c)| if i % 2 == 0 { ColumnDef::with_unit(c, "degC") } else { ColumnDef::new(c) })
        .map(Column::from)
        .collect();
    for _ in 0..rng.size(0, max_rows) {
        for (i, c) in out.columns.iter_mut().enumerate() {
            // an entirely-blank CSV line is indistinguishable from no line
            // at all; keep the first cell non-null
            let v = match value(rng) {
                Value::Null if i == 0 => Value::Int(0),
                v => v,
            };
            c.cells.push(v);
        }
    }
    let mut metadata: BTreeMap<String, String> = rng
        .vec(0, 4, |rng| {
            (name(rng, LOWER, IDENT, 8), rng.string(&format!("{ALPHA}{DIGITS} ._-"), 0, 12))
        })
        .into_iter()
        .collect();
    // metadata values must survive trimming in headers
    metadata.retain(|_, v| !v.trim().is_empty() && v.trim() == v.as_str());
    out.metadata = metadata;
    out
}

/// Every column holds as many cells as the file has rows.
fn assert_rectangular(file: &ParsedFile) {
    for c in &file.columns {
        assert_eq!(c.cells.len(), file.row_count(), "column {}", c.def.name);
    }
}

#[test]
fn csv_round_trip() {
    sweep(CASES, |rng| {
        let file = parsed_file(rng, 5, 8);
        let back = parse_csv(&write_csv(&file, ','), &CsvOptions::default()).unwrap();
        assert_rectangular(&back);
        assert_eq!(back.columns, file.columns);
        assert_eq!(back.metadata, file.metadata);
    });
}

#[test]
fn cdl_round_trip() {
    sweep(CASES, |rng| {
        let mut file = parsed_file(rng, 4, 6);
        file.format = FormatKind::Cdl;
        file.metadata.insert("dataset_name".into(), "propfile".into());
        let back = parse_cdl(&write_cdl(&file)).unwrap();
        assert_rectangular(&back);
        assert_eq!(back.columns, file.columns);
    });
}

#[test]
fn obslog_round_trip() {
    sweep(CASES, |rng| {
        let mut file = parsed_file(rng, 4, 6);
        file.format = FormatKind::Obslog;
        let back = parse_obslog(&write_obslog(&file)).unwrap();
        // text is written with its whitespace as `_`
        for c in &mut file.columns {
            for v in &mut c.cells {
                if let Value::Text(s) = v {
                    *v = Value::sniff(&s.replace(char::is_whitespace, "_"));
                }
            }
        }
        assert_rectangular(&back);
        assert_eq!(back.columns, file.columns);
    });
}

#[test]
fn parsers_never_panic_on_arbitrary_text() {
    sweep(CASES, |rng| {
        let text = rng.text(0, 300);
        let _ = parse_csv(&text, &CsvOptions::default());
        let _ = parse_cdl(&text);
        let _ = parse_obslog(&text);
        let _ = sniff_content(&text);
    });
}

#[test]
fn sniffer_agrees_with_writer() {
    sweep(CASES, |rng| {
        let file = parsed_file(rng, 3, 4);
        // single-column CSVs have no delimiter; skip those
        if file.columns.len() > 1 {
            assert_eq!(sniff_content(&write_csv(&file, ',')), Some(FormatKind::Csv));
        }
        let mut cdl_file = file.clone();
        cdl_file.metadata.insert("dataset_name".into(), "x".into());
        assert_eq!(sniff_content(&write_cdl(&cdl_file)), Some(FormatKind::Cdl));
        assert_eq!(sniff_content(&write_obslog(&file)), Some(FormatKind::Obslog));
    });
}
