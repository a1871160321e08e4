//! CDL-lite: a textual NetCDF-style format.
//!
//! Moored-sensor archives commonly publish NetCDF; its text rendering (CDL)
//! is what `ncdump` prints. This module parses and writes the subset the
//! synthetic archive uses:
//!
//! ```text
//! netcdf saturn01_201006 {
//! dimensions:
//!     time = 240 ;
//! variables:
//!     double water_temp(time) ;
//!         water_temp:units = "degC" ;
//!         water_temp:long_name = "water temperature" ;
//! // global attributes:
//!     :station = "saturn01" ;
//!     :latitude = 46.18 ;
//! data:
//!  water_temp = 10.1, 10.2, _ ;
//! }
//! ```
//!
//! `_` is the CDL fill/missing marker. A string is quoted, with `\` and `"`
//! escaped by a backslash; a comma inside one does not split a data list.

use crate::model::{ColumnDef, FormatKind, ParsedFile};
use metamess_core::error::{Error, Result};
use metamess_core::value::Value;
use std::borrow::Cow;
use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Section {
    Preamble,
    Dimensions,
    Variables,
    Data,
}

/// `s` trimmed, and without its quotes and escapes when it is a string.
fn unquote(s: &str) -> Cow<'_, str> {
    let s = s.trim();
    match s.strip_prefix('"').and_then(|s| s.strip_suffix('"')) {
        Some(inner) if inner.contains('\\') => {
            let mut out = String::with_capacity(inner.len());
            let mut chars = inner.chars().peekable();
            while let Some(c) = chars.next() {
                out.push(chars.next_if(|&n| c == '\\' && matches!(n, '\\' | '"')).unwrap_or(c));
            }
            out.into()
        }
        Some(inner) => inner.into(),
        None => s.into(),
    }
}

/// A string as CDL writes it: quoted, with `\` and `"` escaped.
fn quoted(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The comma-separated items of a data list; a comma inside a string does
/// not split it.
fn items(list: &str) -> impl Iterator<Item = &str> {
    let (mut quoted, mut escaped) = (false, false);
    list.split(move |c| {
        let split = c == ',' && !quoted;
        (quoted, escaped) = match c {
            _ if escaped => (quoted, false),
            '\\' => (quoted, quoted),
            '"' => (!quoted, false),
            _ => (quoted, false),
        };
        split
    })
}

/// Parses CDL-lite text.
pub fn parse_cdl(text: &str) -> Result<ParsedFile> {
    let mut out = ParsedFile::new(FormatKind::Cdl);
    let mut section = Section::Preamble;
    let mut name_seen = false;
    // Data statements can span lines until ';'. Accumulate.
    let mut pending = String::new();

    for (ln0, raw) in text.lines().enumerate() {
        let ln = ln0 + 1;
        let fail = |message: String| Err(Error::parse_at("cdl", message, ln));
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with("//") {
            continue; // comments, incl. "// global attributes:"
        }
        if !name_seen {
            let rest = line
                .strip_prefix("netcdf")
                .ok_or_else(|| Error::parse_at("cdl", "expected 'netcdf <name> {'", ln))?;
            let name = rest.trim().trim_end_matches('{').trim();
            if name.is_empty() {
                return fail("missing dataset name".into());
            }
            out.metadata.insert("dataset_name".into(), name.to_string());
            name_seen = true;
            continue;
        }
        let header = match line {
            "dimensions:" => Some(Section::Dimensions),
            "variables:" => Some(Section::Variables),
            "data:" => Some(Section::Data),
            "}" => break,
            _ => None,
        };
        if let Some(header) = header {
            section = header;
            continue;
        }
        match section {
            Section::Preamble => return fail(format!("unexpected line '{line}'")),
            Section::Dimensions => {
                // `time = 240 ;` — recorded as metadata for validation.
                let stmt = line.trim_end_matches(';').trim();
                if let Some((k, v)) = stmt.split_once('=') {
                    out.metadata
                        .insert(format!("dim_{}", k.trim().to_ascii_lowercase()), v.trim().into());
                }
            }
            Section::Variables => {
                let stmt = line.trim_end_matches(';').trim();
                if let Some((lhs, rhs)) = stmt.split_once('=') {
                    // attribute: `var:attr = value` or global `:attr = value`
                    let lhs = lhs.trim();
                    let rhs = unquote(rhs).into_owned();
                    let (var, attr) = lhs
                        .split_once(':')
                        .ok_or_else(|| Error::parse_at("cdl", "attribute without ':'", ln))?;
                    let var = var.trim();
                    let attr = attr.trim().to_ascii_lowercase();
                    if var.is_empty() {
                        out.metadata.insert(attr, rhs);
                    } else {
                        let Some(col) = out.columns.iter_mut().find(|c| c.def.name == var) else {
                            return fail(format!("attribute for undeclared variable '{var}'"));
                        };
                        match attr.as_str() {
                            "units" => col.def.unit = Some(rhs),
                            "long_name" => col.def.description = Some(rhs),
                            _ => {} // other attributes tolerated
                        }
                    }
                } else {
                    // declaration: `double water_temp(time)`
                    let mut parts = stmt.split_whitespace();
                    let _ty = parts
                        .next()
                        .ok_or_else(|| Error::parse_at("cdl", "empty declaration", ln))?;
                    let rest: String = parts.collect::<Vec<_>>().join(" ");
                    let name = rest.split('(').next().unwrap_or("").trim();
                    if name.is_empty() {
                        return fail("variable declaration without name".into());
                    }
                    if out.column(name).is_some() {
                        return fail(format!("duplicate variable '{name}'"));
                    }
                    out.columns.push(ColumnDef::new(name).into());
                }
            }
            Section::Data => {
                if !pending.is_empty() || !line.ends_with(';') {
                    pending.push(' ');
                    pending.push_str(line);
                    if !line.ends_with(';') {
                        continue;
                    }
                }
                let stmt = if pending.is_empty() { line } else { pending.as_str() };
                let (var, list) = stmt
                    .trim()
                    .trim_end_matches(';')
                    .split_once('=')
                    .ok_or_else(|| Error::parse_at("cdl", "data statement without '='", ln))?;
                let var = var.trim();
                let Some(col) = out.columns.iter_mut().find(|c| c.def.name == var) else {
                    return fail(format!("data for undeclared variable '{var}'"));
                };
                if !col.cells.is_empty() {
                    return fail(format!("second data for '{var}'"));
                }
                col.cells.reserve_exact(list.bytes().filter(|&b| b == b',').count() + 1);
                for item in items(list).map(str::trim) {
                    col.cells.push(if item == "_" {
                        Value::Null
                    } else {
                        Value::sniff(&unquote(item))
                    });
                }
                pending.clear();
            }
        }
    }
    if !name_seen {
        return Err(Error::parse("cdl", "empty file"));
    }
    if !pending.trim().is_empty() {
        return Err(Error::parse("cdl", "unterminated data statement"));
    }

    // Variables with fewer values (or none) are padded with nulls.
    let rows = out.columns.iter().map(|c| c.cells.len()).max().unwrap_or(0);
    for c in &mut out.columns {
        c.cells.resize(rows, Value::Null);
    }
    Ok(out)
}

/// Writes a [`ParsedFile`] as CDL-lite text (inverse of [`parse_cdl`]).
pub fn write_cdl(file: &ParsedFile) -> String {
    let name = file.meta("dataset_name").unwrap_or("dataset");
    let mut out = format!("netcdf {name} {{\n");
    let _ = write!(out, "dimensions:\n    time = {} ;\nvariables:\n", file.row_count());
    for c in &file.columns {
        let ColumnDef { name, unit, description } = &c.def;
        let _ = writeln!(out, "    double {name}(time) ;");
        if let Some(u) = unit {
            let _ = writeln!(out, "        {name}:units = {} ;", quoted(u));
        }
        if let Some(d) = description {
            let _ = writeln!(out, "        {name}:long_name = {} ;", quoted(d));
        }
    }
    out.push_str("// global attributes:\n");
    for (k, v) in &file.metadata {
        if k == "dataset_name" || k.starts_with("dim_") {
            continue;
        }
        let _ = match v.parse::<f64>() {
            Ok(_) => writeln!(out, "    :{k} = {v} ;"),
            Err(_) => writeln!(out, "    :{k} = {} ;", quoted(v)),
        };
    }
    out.push_str("data:\n");
    // a zero-row file writes no data statements (an empty list would read
    // back as one null cell)
    let columns: &[_] = if file.row_count() == 0 { &[] } else { &file.columns };
    for c in columns {
        let _ = write!(out, " {} = ", c.def.name);
        for (i, v) in c.cells.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            match v {
                Value::Null => out.push('_'),
                Value::Text(s) => out.push_str(&quoted(s)),
                other => other.render_into(&mut out),
            }
        }
        out.push_str(" ;\n");
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"netcdf saturn01_201006 {
dimensions:
    time = 3 ;
variables:
    double water_temp(time) ;
        water_temp:units = "degC" ;
        water_temp:long_name = "water temperature" ;
    double sal(time) ;
        sal:units = "PSU" ;
// global attributes:
    :station = "saturn01" ;
    :latitude = 46.18 ;
    :longitude = -123.18 ;
data:
 water_temp = 10.1, 10.2, _ ;
 sal = 28.0, 28.5,
       29.0 ;
}
"#;

    #[test]
    fn parse_sample() {
        let p = parse_cdl(SAMPLE).unwrap();
        assert_eq!(p.meta("dataset_name"), Some("saturn01_201006"));
        assert_eq!(p.meta("station"), Some("saturn01"));
        assert_eq!(p.meta_f64("latitude"), Some(46.18));
        assert_eq!(p.columns.len(), 2);
        assert_eq!(p.column("water_temp").unwrap().def.unit.as_deref(), Some("degC"));
        assert_eq!(
            p.column("water_temp").unwrap().def.description.as_deref(),
            Some("water temperature")
        );
        assert_eq!(p.row_count(), 3);
        assert!(p.cell("water_temp", 2).unwrap().is_null()); // the `_`
        assert_eq!(p.cell("sal", 2), Some(&Value::Float(29.0)));
    }

    #[test]
    fn multiline_data_statement() {
        let p = parse_cdl(SAMPLE).unwrap();
        assert_eq!(p.cell("sal", 1), Some(&Value::Float(28.5)));
    }

    #[test]
    fn dimension_recorded() {
        let p = parse_cdl(SAMPLE).unwrap();
        assert_eq!(p.meta("dim_time"), Some("3"));
    }

    #[test]
    fn round_trip() {
        let p = parse_cdl(SAMPLE).unwrap();
        let text = write_cdl(&p);
        let back = parse_cdl(&text).unwrap();
        assert_eq!(back.columns, p.columns);
        assert_eq!(back.meta("station"), Some("saturn01"));
    }

    #[test]
    fn errors() {
        assert!(parse_cdl("").is_err());
        assert!(parse_cdl("not a cdl file").is_err());
        assert!(parse_cdl("netcdf {\n}").is_err()); // missing name
                                                    // attribute for undeclared variable
        let bad = "netcdf x {\nvariables:\n    ghost:units = \"m\" ;\n}";
        assert!(parse_cdl(bad).is_err());
        // data for undeclared variable
        let bad2 = "netcdf x {\nvariables:\n    double a(time) ;\ndata:\n b = 1 ;\n}";
        assert!(parse_cdl(bad2).is_err());
        // duplicate variable
        let bad3 = "netcdf x {\nvariables:\n double a(t) ;\n double a(t) ;\n}";
        assert!(parse_cdl(bad3).is_err());
        // unterminated data
        let bad4 = "netcdf x {\nvariables:\n double a(t) ;\ndata:\n a = 1, 2\n}";
        assert!(parse_cdl(bad4).is_err());
        // a second data statement for one variable
        let bad5 = "netcdf x {\nvariables:\n double a(t) ;\ndata:\n a = 1 ;\n a = 2 ;\n}";
        assert!(parse_cdl(bad5).is_err());
    }

    #[test]
    fn global_attr_without_quotes() {
        let t =
            "netcdf x {\nvariables:\n    double a(t) ;\n    :depth_m = 12.5 ;\ndata:\n a = 1 ;\n}";
        let p = parse_cdl(t).unwrap();
        assert_eq!(p.meta_f64("depth_m"), Some(12.5));
    }

    #[test]
    fn ragged_data_padded_with_null() {
        let t = "netcdf x {\nvariables:\n double a(t) ;\n double b(t) ;\ndata:\n a = 1, 2, 3 ;\n b = 9 ;\n}";
        let p = parse_cdl(t).unwrap();
        assert_eq!(p.row_count(), 3);
        assert!(p.cell("b", 1).unwrap().is_null());
    }

    /// One row of one text column `a`, written and parsed back.
    fn text_round_trip(text: &str) -> (String, ParsedFile) {
        let mut p = ParsedFile::new(FormatKind::Cdl);
        p.columns.push(ColumnDef::new("a").into());
        p.columns[0].cells.push(Value::Text(text.into()));
        let written = write_cdl(&p);
        let back = parse_cdl(&written).unwrap();
        assert_eq!(back.columns, p.columns, "{written}");
        (written, back)
    }

    #[test]
    fn text_with_a_comma_stays_one_cell() {
        let (_, back) = text_round_trip("a, b");
        assert_eq!(back.row_count(), 1);
        let t = "netcdf x {\nvariables:\n double a(t) ;\ndata:\n a = \"x, y\", 2 ;\n}";
        let p = parse_cdl(t).unwrap();
        assert_eq!(p.cell("a", 0).unwrap().as_text(), Some("x, y"));
        assert_eq!(p.cell("a", 1), Some(&Value::Int(2)));
    }

    #[test]
    fn text_with_quotes_and_backslashes_is_escaped() {
        let (written, _) = text_round_trip(r#"say "hi", \ bye\"#);
        assert!(written.contains(r#" a = "say \"hi\", \\ bye\\" ;"#), "{written}");
    }

    #[test]
    fn text_values_quoted() {
        let t = "netcdf x {\nvariables:\n double a(t) ;\ndata:\n a = \"hi\", 2 ;\n}";
        let p = parse_cdl(t).unwrap();
        assert_eq!(p.cell("a", 0).unwrap().as_text(), Some("hi"));
    }
}
