//! OBSLOG: the instrument cast-log format.
//!
//! Cruise CTD casts and glider missions in the synthetic archive use a
//! starred-header text format modelled on classic hydrographic exchange
//! files (Sea-Bird `.cnv`-style):
//!
//! ```text
//! *HEADER
//! *INSTRUMENT: CTD-7
//! *STATION: saturn02
//! *POSITION: 46.1840 -123.1870
//! *CAST: 20100615120000
//! *FIELDS: depth temp sal
//! *UNITS: m degC psu
//! *END
//! 1.0 12.5 28.1
//! 2.0 12.3 28.9
//! ```
//!
//! Data lines are whitespace-separated; `-9999` is the missing marker
//! (handled by [`Value::sniff`]).

use crate::model::{ColumnDef, FormatKind, ParsedFile};
use metamess_core::error::{Error, Result};
use metamess_core::value::Value;
use std::fmt::Write as _;

/// Parses OBSLOG text.
pub fn parse_obslog(text: &str) -> Result<ParsedFile> {
    let mut out = ParsedFile::new(FormatKind::Obslog);
    let mut lines = text.lines().enumerate();

    // Header block.
    let mut saw_header = false;
    let mut saw_end = false;
    let mut fields: Vec<String> = Vec::new();
    let mut units: Vec<String> = Vec::new();
    for (ln0, raw) in lines.by_ref() {
        let ln = ln0 + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if !saw_header {
            if line.eq_ignore_ascii_case("*HEADER") {
                saw_header = true;
                continue;
            }
            return Err(Error::parse_at("obslog", "expected '*HEADER'", ln));
        }
        if line.eq_ignore_ascii_case("*END") {
            saw_end = true;
            break;
        }
        let stmt = line
            .strip_prefix('*')
            .ok_or_else(|| Error::parse_at("obslog", "header line must start with '*'", ln))?;
        let (key, value) = stmt
            .split_once(':')
            .ok_or_else(|| Error::parse_at("obslog", "header line without ':'", ln))?;
        let key = key.trim().to_ascii_lowercase();
        let value = value.trim();
        match key.as_str() {
            "fields" => {
                fields = value.split_whitespace().map(str::to_string).collect();
            }
            "units" => {
                units = value.split_whitespace().map(str::to_string).collect();
            }
            "position" => {
                let mut it = value.split_whitespace();
                let lat = it.next().unwrap_or("");
                let lon = it.next().unwrap_or("");
                out.metadata.insert("lat".into(), lat.to_string());
                out.metadata.insert("lon".into(), lon.to_string());
            }
            other => {
                out.metadata.insert(other.to_string(), value.to_string());
            }
        }
    }
    if !saw_header {
        return Err(Error::parse("obslog", "empty file"));
    }
    if !saw_end {
        return Err(Error::parse("obslog", "missing '*END'"));
    }
    if fields.is_empty() {
        return Err(Error::parse("obslog", "missing '*FIELDS' header"));
    }
    for (i, name) in fields.into_iter().enumerate() {
        if out.column(&name).is_some() {
            return Err(Error::parse("obslog", format!("duplicate field '{name}'")));
        }
        let unit = units.get(i).filter(|u| *u != "-" && !u.is_empty()).cloned();
        out.columns.push(ColumnDef { name, unit, description: None }.into());
    }

    // Data block.
    let rows = text.bytes().filter(|&b| b == b'\n').count() + 1;
    out.columns.iter_mut().for_each(|c| c.cells.reserve_exact(rows));
    for (ln0, raw) in lines {
        let ln = ln0 + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        // a short or long line fails the whole file, so cells go straight
        // into their columns and are counted after
        let (mut cells, mut found) = (line.split_whitespace(), 0);
        for (col, cell) in out.columns.iter_mut().zip(cells.by_ref()) {
            col.cells.push(Value::sniff(cell));
            found += 1;
        }
        let found = found + cells.count();
        if found != out.columns.len() {
            return Err(Error::parse_at(
                "obslog",
                format!("expected {} fields, found {found}", out.columns.len()),
                ln,
            ));
        }
    }
    Ok(out)
}

/// Writes a [`ParsedFile`] as OBSLOG text (inverse of [`parse_obslog`]).
///
/// Text cells containing whitespace are not representable; they are written
/// with spaces replaced by underscores.
pub fn write_obslog(file: &ParsedFile) -> String {
    let mut out = String::from("*HEADER\n");
    for (k, v) in &file.metadata {
        match k.as_str() {
            "lat" | "lon" => continue, // folded into POSITION below
            _ => {
                let _ = writeln!(out, "*{}: {v}", k.to_ascii_uppercase());
            }
        }
    }
    if let (Some(lat), Some(lon)) = (file.meta("lat"), file.meta("lon")) {
        let _ = writeln!(out, "*POSITION: {lat} {lon}");
    }
    out.push_str("*FIELDS:");
    file.columns.iter().for_each(|c| out.extend([" ", &c.def.name]));
    if file.columns.iter().any(|c| c.def.unit.is_some()) {
        out.push_str("\n*UNITS:");
        file.columns.iter().for_each(|c| out.extend([" ", c.def.unit.as_deref().unwrap_or("-")]));
    }
    out.push_str("\n*END\n");
    for i in 0..file.row_count() {
        for (j, c) in file.columns.iter().enumerate() {
            if j > 0 {
                out.push(' ');
            }
            let start = out.len();
            match c.cells.get(i).unwrap_or(&Value::Null) {
                Value::Null => out.push_str("-9999"),
                other => other.render_into(&mut out),
            }
            if out[start..].contains(char::is_whitespace) {
                let cell = out.split_off(start);
                out.push_str(&cell.replace(char::is_whitespace, "_"));
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "*HEADER\n*INSTRUMENT: CTD-7\n*STATION: saturn02\n\
*POSITION: 46.1840 -123.1870\n*CAST: 20100615120000\n*FIELDS: depth temp sal\n\
*UNITS: m degC psu\n*END\n1.0 12.5 28.1\n2.0 12.3 28.9\n3.0 -9999 29.4\n";

    #[test]
    fn parse_sample() {
        let p = parse_obslog(SAMPLE).unwrap();
        assert_eq!(p.meta("instrument"), Some("CTD-7"));
        assert_eq!(p.meta("station"), Some("saturn02"));
        assert_eq!(p.meta_f64("lat"), Some(46.184));
        assert_eq!(p.meta_f64("lon"), Some(-123.187));
        assert_eq!(p.columns.len(), 3);
        assert_eq!(p.column("temp").unwrap().def.unit.as_deref(), Some("degC"));
        assert_eq!(p.row_count(), 3);
        assert!(p.cell("temp", 2).unwrap().is_null());
    }

    #[test]
    fn cast_timestamp_compact_form() {
        let p = parse_obslog(SAMPLE).unwrap();
        let ts = metamess_core::time::Timestamp::parse(p.meta("cast").unwrap()).unwrap();
        assert_eq!(ts.to_iso8601(), "2010-06-15T12:00:00Z");
    }

    #[test]
    fn units_dash_means_none() {
        let t = "*HEADER\n*FIELDS: a b\n*UNITS: m -\n*END\n1 2\n";
        let p = parse_obslog(t).unwrap();
        assert_eq!(p.column("a").unwrap().def.unit.as_deref(), Some("m"));
        assert!(p.column("b").unwrap().def.unit.is_none());
    }

    #[test]
    fn missing_units_row_ok() {
        let t = "*HEADER\n*FIELDS: a b\n*END\n1 2\n";
        let p = parse_obslog(t).unwrap();
        assert!(p.column("a").unwrap().def.unit.is_none());
        assert_eq!(p.row_count(), 1);
    }

    #[test]
    fn data_comments_skipped() {
        let t = "*HEADER\n*FIELDS: a\n*END\n1\n# comment\n2\n";
        let p = parse_obslog(t).unwrap();
        assert_eq!(p.row_count(), 2);
    }

    #[test]
    fn errors() {
        assert!(parse_obslog("").is_err());
        assert!(parse_obslog("data without header\n").is_err());
        assert!(parse_obslog("*HEADER\n*FIELDS: a\n1\n").is_err()); // no *END
        assert!(parse_obslog("*HEADER\n*END\n").is_err()); // no FIELDS
        assert!(parse_obslog("*HEADER\nBADLINE\n*END\n").is_err());
        assert!(parse_obslog("*HEADER\n*NOCOLON\n*END\n").is_err());
        assert!(parse_obslog("*HEADER\n*FIELDS: a a\n*END\n").is_err()); // dup
                                                                         // wrong field count in data
        assert!(parse_obslog("*HEADER\n*FIELDS: a b\n*END\n1\n").is_err());
    }

    #[test]
    fn round_trip() {
        let p = parse_obslog(SAMPLE).unwrap();
        let text = write_obslog(&p);
        let back = parse_obslog(&text).unwrap();
        assert_eq!(back.columns, p.columns);
        assert_eq!(back.meta("station"), p.meta("station"));
        assert_eq!(back.meta("lat"), p.meta("lat"));
    }
}
