//! The common parse result every format produces.
//!
//! Harvesting normalizes "many dataset shapes, sizes, formats" (the paper's
//! motivation) into one shape: file-level metadata and a list of columns,
//! each its definition (name, optional unit) and its cells in row order.

use metamess_core::value::Value;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Which parser read the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FormatKind {
    /// Delimited text with optional comment preamble and units row.
    Csv,
    /// Textual NetCDF-like CDL.
    Cdl,
    /// Instrument observation log.
    Obslog,
}

impl FormatKind {
    /// Stable lowercase name, used in provenance and validation reports.
    pub fn name(&self) -> &'static str {
        match self {
            FormatKind::Csv => "csv",
            FormatKind::Cdl => "cdl",
            FormatKind::Obslog => "obslog",
        }
    }
}

impl std::fmt::Display for FormatKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One column: harvested name plus the unit string the file declared, if any.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ColumnDef {
    /// Column name exactly as written in the file.
    pub name: String,
    /// Unit string exactly as written (e.g. `degC`), when declared.
    pub unit: Option<String>,
    /// Free-text description (CDL `long_name` etc.), when declared.
    pub description: Option<String>,
}

impl ColumnDef {
    /// Column with no unit.
    pub fn new(name: impl Into<String>) -> ColumnDef {
        ColumnDef { name: name.into(), unit: None, description: None }
    }

    /// Column with a unit.
    pub fn with_unit(name: impl Into<String>, unit: impl Into<String>) -> ColumnDef {
        ColumnDef { name: name.into(), unit: Some(unit.into()), description: None }
    }
}

/// One column of a parsed file: its definition and its cells.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Column {
    /// Name, unit and description.
    pub def: ColumnDef,
    /// The column's cells, in row order.
    pub cells: Vec<Value>,
}

impl From<ColumnDef> for Column {
    fn from(def: ColumnDef) -> Column {
        Column { def, cells: Vec::new() }
    }
}

/// A fully parsed archive file, stored column by column: cell `i` of every
/// column belongs to row `i`, and every column holds [`ParsedFile::row_count`]
/// cells.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParsedFile {
    /// Format that was parsed.
    pub format: FormatKind,
    /// File-level metadata (station, position, investigator, ...), keys
    /// lowercased.
    pub metadata: BTreeMap<String, String>,
    /// Columns in file order, all of the same length.
    pub columns: Vec<Column>,
}

impl ParsedFile {
    /// Creates an empty file of a format.
    pub fn new(format: FormatKind) -> ParsedFile {
        ParsedFile { format, metadata: BTreeMap::new(), columns: Vec::new() }
    }

    /// Number of data rows: the length of every column.
    pub fn row_count(&self) -> usize {
        self.columns.first().map_or(0, |c| c.cells.len())
    }

    /// Metadata value by (case-insensitive) key.
    pub fn meta(&self, key: &str) -> Option<&str> {
        self.metadata.get(&key.to_ascii_lowercase()).map(String::as_str)
    }

    /// Metadata value parsed as f64.
    pub fn meta_f64(&self, key: &str) -> Option<f64> {
        self.meta(key)?.trim().parse().ok()
    }

    /// The column named `name`.
    pub fn column(&self, name: &str) -> Option<&Column> {
        self.columns.iter().find(|c| c.def.name == name)
    }
}

#[cfg(test)]
impl ParsedFile {
    /// Cell `row` of the column named `name`.
    pub(crate) fn cell(&self, name: &str, row: usize) -> Option<&Value> {
        self.column(name)?.cells.get(row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_case_insensitive() {
        let mut p = ParsedFile::new(FormatKind::Csv);
        p.metadata.insert("station".into(), "saturn01".into());
        assert_eq!(p.meta("Station"), Some("saturn01"));
        assert_eq!(p.meta("STATION"), Some("saturn01"));
        assert_eq!(p.meta("missing"), None);
    }

    #[test]
    fn meta_f64_parses() {
        let mut p = ParsedFile::new(FormatKind::Cdl);
        p.metadata.insert("latitude".into(), " 46.18 ".into());
        p.metadata.insert("name".into(), "x".into());
        assert_eq!(p.meta_f64("latitude"), Some(46.18));
        assert_eq!(p.meta_f64("name"), None);
    }

    #[test]
    fn column_lookup() {
        let mut p = ParsedFile::new(FormatKind::Obslog);
        p.columns.push(ColumnDef::with_unit("temp", "degC").into());
        assert_eq!(p.column("temp").unwrap().def.unit.as_deref(), Some("degC"));
        assert!(p.column("sal").is_none());
        assert_eq!(p.row_count(), 0);
    }

    #[test]
    fn format_names() {
        assert_eq!(FormatKind::Csv.name(), "csv");
        assert_eq!(FormatKind::Cdl.to_string(), "cdl");
        assert_eq!(FormatKind::Obslog.name(), "obslog");
    }
}
