//! Delimited-text parser with the observatory's header conventions.
//!
//! The dialect family covers what station archives actually contain:
//!
//! * comma, tab, or semicolon delimiters (auto-detected or configured);
//! * RFC-4180 quoting with embedded delimiters, quotes, and newlines;
//! * a `#`-comment preamble whose `key: value` lines are file metadata;
//! * an optional parenthesized **units row** right under the header,
//!   e.g. `(UTC),(degC),(PSU)`;
//! * inline unit suffixes in headers, e.g. `temp (degC)`.

use crate::model::{ColumnDef, FormatKind, ParsedFile};
use metamess_core::error::{Error, Result};
use metamess_core::value::Value;
use std::borrow::Cow;
use std::fmt::Write as _;

/// Parser configuration.
#[derive(Debug, Clone)]
pub struct CsvOptions {
    /// Field delimiter; `None` auto-detects among `,`, `\t`, `;`.
    pub delimiter: Option<char>,
    /// Treat lines starting with this as metadata/comment preamble.
    pub comment: char,
    /// Recognize a parenthesized units row under the header.
    pub units_row: bool,
    /// Maximum tolerated ragged rows (rows whose field count differs from
    /// the header) before the file is rejected; ragged rows are skipped.
    pub max_ragged_rows: usize,
}

impl Default for CsvOptions {
    fn default() -> Self {
        CsvOptions { delimiter: None, comment: '#', units_row: true, max_ragged_rows: 10 }
    }
}

/// Splits delimited text into rows of fields, honoring quotes. A field
/// borrows from the text unless it holds a doubled quote, a `\r`, or text
/// after its closing quote.
struct Rows<'a> {
    rest: &'a str,
    delim: char,
    line: usize,
}

impl<'a> Rows<'a> {
    /// Reads the next row into `row`; `false` once the text is used up.
    fn next_row(&mut self, row: &mut Vec<Cow<'a, str>>) -> Result<bool> {
        row.clear();
        if self.rest.is_empty() {
            return Ok(false);
        }
        loop {
            let (field, end) = self.field()?;
            row.push(field);
            if end != Some(self.delim) {
                return Ok(true);
            }
        }
    }

    /// Reads one field and what ended it: a newline, the delimiter, or
    /// `None` at the end of the text.
    fn field(&mut self) -> Result<(Cow<'a, str>, Option<char>)> {
        let mut field = Cow::Borrowed("");
        // a quote opens a quoted run while the field is still empty (a CR
        // outside quotes is dropped, so it does not count)
        while let Some(body) =
            self.rest.trim_start_matches('\r').strip_prefix('"').filter(|_| field.is_empty())
        {
            // the first quote that is not doubled closes the run
            let mut from = 0;
            let close = loop {
                let Some(q) = body[from..].find('"').map(|q| from + q) else {
                    self.line += body.matches('\n').count();
                    return Err(Error::parse_at("csv", "unterminated quoted field", self.line));
                };
                if !body[q + 1..].starts_with('"') {
                    break q;
                }
                from = q + 2;
            };
            let inner = &body[..close];
            field =
                if inner.contains('"') { inner.replace("\"\"", "\"").into() } else { inner.into() };
            self.line += inner.matches('\n').count();
            self.rest = &body[close + 1..];
        }
        let end = self.rest.find(['\n', self.delim, '"']).unwrap_or(self.rest.len());
        let (run, tail) = self.rest.split_at(end);
        let mut tail = tail.chars();
        let stop = tail.next();
        self.rest = tail.as_str();
        match stop {
            Some('"') => {
                return Err(Error::parse_at("csv", "quote inside unquoted field", self.line))
            }
            Some('\n') => self.line += 1,
            _ => {}
        }
        // CR is dropped outside quotes (CRLF line ends, mostly)
        let run = run.trim_end_matches('\r');
        let run = if run.contains('\r') { Cow::Owned(run.replace('\r', "")) } else { run.into() };
        if field.is_empty() {
            field = run;
        } else {
            field.to_mut().push_str(&run);
        }
        Ok((field, stop))
    }
}

/// Auto-detects the delimiter from the first non-comment line: the most
/// frequent of `,`, `\t`, `;` (the last of them on a tie).
fn detect_delimiter(text: &str, comment: char) -> char {
    let mut lines = text.lines().map(str::trim);
    let Some(l) = lines.find(|l| !l.is_empty() && !l.starts_with(comment)) else { return ',' };
    [',', '\t', ';'].into_iter().max_by_key(|d| l.matches(*d).count()).unwrap_or(',')
}

/// Extracts an inline unit from a header like `temp (degC)`.
fn split_inline_unit(header: &str) -> (String, Option<String>) {
    let h = header.trim();
    if let Some(open) = h.rfind('(') {
        if let Some(close) = h[open..].find(')') {
            let unit = h[open + 1..open + close].trim();
            let name = h[..open].trim();
            if !name.is_empty() && !unit.is_empty() {
                return (name.to_string(), Some(unit.to_string()));
            }
        }
    }
    (h.to_string(), None)
}

/// True when a row looks like a parenthesized units row: every non-empty
/// field is `(...)`.
fn is_units_row(fields: &[Cow<str>]) -> bool {
    let mut filled = fields.iter().map(|f| f.trim()).filter(|f| !f.is_empty()).peekable();
    filled.peek().is_some() && filled.all(|f| f.starts_with('(') && f.ends_with(')'))
}

/// Parses delimited text into a [`ParsedFile`].
pub fn parse_csv(text: &str, options: &CsvOptions) -> Result<ParsedFile> {
    let mut out = ParsedFile::new(FormatKind::Csv);

    // Preamble: comment lines before the header, `key: value` harvested.
    let mut body_start = 0usize;
    for raw in text.split_inclusive('\n') {
        let trimmed = raw.trim();
        if trimmed.starts_with(options.comment) {
            let line = trimmed.trim_start_matches(options.comment).trim();
            if let Some((k, v)) = line.split_once(':') {
                out.metadata.insert(k.trim().to_ascii_lowercase(), v.trim().to_string());
            }
            body_start += raw.len();
        } else if trimmed.is_empty() {
            body_start += raw.len();
        } else {
            break;
        }
    }
    let body = &text[body_start..];
    if body.trim().is_empty() {
        return Err(Error::parse("csv", "no header row"));
    }

    let delim = options.delimiter.unwrap_or_else(|| detect_delimiter(body, options.comment));
    let mut rows = Rows { rest: body, delim, line: 1 };
    let mut row = Vec::new();
    if !rows.next_row(&mut row)? || is_blank(&row) {
        return Err(Error::parse("csv", "no header row"));
    }
    for h in &row {
        let (name, unit) = split_inline_unit(h);
        if name.is_empty() {
            return Err(Error::parse("csv", "empty column name in header"));
        }
        if out.column(&name).is_some() {
            return Err(Error::parse("csv", format!("duplicate column '{name}'")));
        }
        out.columns.push(ColumnDef { name, unit, description: None }.into());
    }

    let lines = rows.rest.bytes().filter(|&b| b == b'\n').count() + 1;
    out.columns.iter_mut().for_each(|c| c.cells.reserve_exact(lines));
    let mut more = rows.next_row(&mut row)?;
    if options.units_row && more && is_units_row(&row) {
        for (c, u) in out.columns.iter_mut().zip(&row) {
            let u = u.trim().trim_start_matches('(').trim_end_matches(')').trim();
            if !u.is_empty() && c.def.unit.is_none() {
                c.def.unit = Some(u.to_string());
            }
        }
        more = rows.next_row(&mut row)?;
    }

    let mut ragged = 0usize;
    while more {
        if is_blank(&row) {
            // a blank line is no row
        } else if row.len() == out.columns.len() {
            for (c, f) in out.columns.iter_mut().zip(&row) {
                c.cells.push(Value::sniff(f));
            }
        } else {
            ragged += 1;
            if ragged > options.max_ragged_rows {
                return Err(Error::parse(
                    "csv",
                    format!("more than {} ragged rows", options.max_ragged_rows),
                ));
            }
        }
        more = rows.next_row(&mut row)?;
    }
    Ok(out)
}

/// True when every field of a row is blank.
fn is_blank(row: &[Cow<str>]) -> bool {
    row.iter().all(|f| f.trim().is_empty())
}

/// Quotes what `out` holds past `start` when that holds the delimiter, a
/// quote or a newline.
fn quote_from(out: &mut String, start: usize, delimiter: char) {
    if out[start..].contains([delimiter, '"', '\n']) {
        let raw = out.split_off(start);
        out.push('"');
        out.push_str(&raw.replace('"', "\"\""));
        out.push('"');
    }
}

/// Serializes a [`ParsedFile`] back to CSV (used by the archive generator).
/// Writes the comment preamble, header (with inline units when present), and
/// rows; quotes fields containing the delimiter, quotes, or newlines.
pub fn write_csv(file: &ParsedFile, delimiter: char) -> String {
    let mut out = String::new();
    for (k, v) in &file.metadata {
        let _ = writeln!(out, "# {k}: {v}");
    }
    for (j, c) in file.columns.iter().enumerate() {
        if j > 0 {
            out.push(delimiter);
        }
        let start = out.len();
        out.push_str(&c.def.name);
        if let Some(u) = &c.def.unit {
            let _ = write!(out, " ({u})");
        }
        quote_from(&mut out, start, delimiter);
    }
    out.push('\n');
    for i in 0..file.row_count() {
        for (j, c) in file.columns.iter().enumerate() {
            if j > 0 {
                out.push(delimiter);
            }
            let start = out.len();
            c.cells.get(i).unwrap_or(&Value::Null).render_into(&mut out);
            quote_from(&mut out, start, delimiter);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_csv() {
        let p = parse_csv("time,temp,sal\n1,10.5,28\n2,10.6,29\n", &CsvOptions::default()).unwrap();
        assert_eq!(p.columns.len(), 3);
        assert_eq!(p.row_count(), 2);
        assert_eq!(p.cell("temp", 0), Some(&Value::Float(10.5)));
        assert_eq!(p.cell("sal", 1), Some(&Value::Int(29)));
    }

    #[test]
    fn comment_preamble_metadata() {
        let text = "# station: saturn01\n# lat: 46.18\n# lon: -123.18\ntime,temp\n1,9.5\n";
        let p = parse_csv(text, &CsvOptions::default()).unwrap();
        assert_eq!(p.meta("station"), Some("saturn01"));
        assert_eq!(p.meta_f64("lat"), Some(46.18));
        assert_eq!(p.row_count(), 1);
    }

    #[test]
    fn units_row() {
        let text = "time,temp,sal\n(UTC),(degC),(PSU)\n2010-06-01T00:00:00Z,10.5,28\n";
        let p = parse_csv(text, &CsvOptions::default()).unwrap();
        assert_eq!(p.column("temp").unwrap().def.unit.as_deref(), Some("degC"));
        assert_eq!(p.column("sal").unwrap().def.unit.as_deref(), Some("PSU"));
        assert_eq!(p.row_count(), 1);
    }

    #[test]
    fn inline_header_units() {
        let text = "time (UTC),water temp (degC)\n2010-06-01,10.0\n";
        let p = parse_csv(text, &CsvOptions::default()).unwrap();
        assert_eq!(p.columns[1].def.name, "water temp");
        assert_eq!(p.columns[1].def.unit.as_deref(), Some("degC"));
    }

    #[test]
    fn quoted_fields() {
        let text = "name,note\n\"O'Hara, site\",\"said \"\"hi\"\"\"\nplain,\"multi\nline\"\n";
        let p = parse_csv(text, &CsvOptions::default()).unwrap();
        assert_eq!(p.cell("name", 0).unwrap().as_text(), Some("O'Hara, site"));
        assert_eq!(p.cell("note", 0).unwrap().as_text(), Some("said \"hi\""));
        assert_eq!(p.cell("note", 1).unwrap().as_text(), Some("multi\nline"));
    }

    #[test]
    fn tab_and_semicolon_autodetect() {
        let p = parse_csv("a\tb\n1\t2\n", &CsvOptions::default()).unwrap();
        assert_eq!(p.columns.len(), 2);
        let p2 = parse_csv("a;b\n1;2\n", &CsvOptions::default()).unwrap();
        assert_eq!(p2.columns.len(), 2);
    }

    #[test]
    fn explicit_delimiter_overrides() {
        let opts = CsvOptions { delimiter: Some(';'), ..CsvOptions::default() };
        let p = parse_csv("a,b;c\n1,2;3\n", &opts).unwrap();
        // split on ';' only
        assert_eq!(p.columns.len(), 2);
        assert_eq!(p.columns[0].def.name, "a,b");
    }

    #[test]
    fn ragged_rows_skipped_within_budget() {
        let text = "a,b\n1,2\n3\n4,5\n";
        let p = parse_csv(text, &CsvOptions::default()).unwrap();
        assert_eq!(p.row_count(), 2);
        let strict = CsvOptions { max_ragged_rows: 0, ..CsvOptions::default() };
        assert!(parse_csv(text, &strict).is_err());
    }

    #[test]
    fn null_sentinels_in_cells() {
        let p = parse_csv("a,b\nNA,-9999\n", &CsvOptions::default()).unwrap();
        assert!(p.cell("a", 0).unwrap().is_null());
        assert!(p.cell("b", 0).unwrap().is_null());
    }

    #[test]
    fn errors_on_garbage() {
        assert!(parse_csv("", &CsvOptions::default()).is_err());
        assert!(parse_csv("# only: comments\n", &CsvOptions::default()).is_err());
        assert!(parse_csv("a,a\n1,2\n", &CsvOptions::default()).is_err()); // dup column
        assert!(parse_csv("a,\"b\n1,2\n", &CsvOptions::default()).is_err()); // unterminated
        assert!(parse_csv("a,b\"c\n", &CsvOptions::default()).is_err()); // stray quote
    }

    #[test]
    fn write_parse_round_trip() {
        let text = "# station: ogi01\ntime,temp (degC),note\n1,10.5,ok\n2,,\"x,y\"\n";
        let p = parse_csv(text, &CsvOptions::default()).unwrap();
        let written = write_csv(&p, ',');
        let back = parse_csv(&written, &CsvOptions::default()).unwrap();
        assert_eq!(back.columns, p.columns);
        assert_eq!(back.metadata, p.metadata);
    }

    #[test]
    fn crlf_tolerated() {
        let p = parse_csv("a,b\r\n1,2\r\n", &CsvOptions::default()).unwrap();
        assert_eq!(p.row_count(), 1);
        assert_eq!(p.cell("b", 0), Some(&Value::Int(2)));
    }

    #[test]
    fn trailing_blank_lines_ignored() {
        let p = parse_csv("a,b\n1,2\n\n\n", &CsvOptions::default()).unwrap();
        assert_eq!(p.row_count(), 1);
    }
}
