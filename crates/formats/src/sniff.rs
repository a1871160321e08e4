//! Format sniffing: decide which parser reads a file.
//!
//! The scan-archive stage is configured with "directories, file types,
//! naming conventions"; sniffing combines the filename extension with
//! content magic so misnamed files still parse (or are reported).

use crate::cdl::parse_cdl;
use crate::csv::{parse_csv, CsvOptions};
use crate::model::{FormatKind, ParsedFile};
use crate::obslog::parse_obslog;
use metamess_core::error::{Error, Result};
use std::path::Path;

/// Guesses the format from the filename extension alone.
pub fn sniff_extension(path: &Path) -> Option<FormatKind> {
    match path.extension()?.to_str()?.to_ascii_lowercase().as_str() {
        "csv" | "tsv" | "txt" => Some(FormatKind::Csv),
        "cdl" | "nc" => Some(FormatKind::Cdl),
        "obslog" | "cnv" | "cast" => Some(FormatKind::Obslog),
        _ => None,
    }
}

/// Guesses the format from content magic: CDL starts with `netcdf`, OBSLOG
/// with `*HEADER`; anything with a delimiter-bearing first line is CSV.
pub fn sniff_content(text: &str) -> Option<FormatKind> {
    let first = text.lines().find(|l| !l.trim().is_empty())?.trim();
    if first.starts_with("netcdf") {
        return Some(FormatKind::Cdl);
    }
    if first.eq_ignore_ascii_case("*HEADER") {
        return Some(FormatKind::Obslog);
    }
    if first.starts_with('#') || first.contains(',') || first.contains('\t') || first.contains(';')
    {
        return Some(FormatKind::Csv);
    }
    None
}

/// Sniffs using content first (authoritative), falling back to extension.
pub fn sniff(path: &Path, text: &str) -> Option<FormatKind> {
    sniff_content(text).or_else(|| sniff_extension(path))
}

/// Parses `text` as `format`.
pub fn parse_as(format: FormatKind, text: &str) -> Result<ParsedFile> {
    match format {
        FormatKind::Csv => parse_csv(text, &CsvOptions::default()),
        FormatKind::Cdl => parse_cdl(text),
        FormatKind::Obslog => parse_obslog(text),
    }
}

/// Sniffs and parses in one step.
pub fn sniff_and_parse(path: &Path, text: &str) -> Result<ParsedFile> {
    let format = sniff(path, text).ok_or_else(|| {
        Error::parse(format!("file {}", path.display()), "unrecognized format (not csv/cdl/obslog)")
    })?;
    parse_as(format, text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    #[test]
    fn extension_sniffing() {
        assert_eq!(sniff_extension(Path::new("a.csv")), Some(FormatKind::Csv));
        assert_eq!(sniff_extension(Path::new("a.CDL")), Some(FormatKind::Cdl));
        assert_eq!(sniff_extension(Path::new("a.cnv")), Some(FormatKind::Obslog));
        assert_eq!(sniff_extension(Path::new("a.bin")), None);
        assert_eq!(sniff_extension(Path::new("noext")), None);
    }

    #[test]
    fn content_sniffing() {
        assert_eq!(sniff_content("netcdf x {\n}"), Some(FormatKind::Cdl));
        assert_eq!(sniff_content("*HEADER\n"), Some(FormatKind::Obslog));
        assert_eq!(sniff_content("a,b\n1,2\n"), Some(FormatKind::Csv));
        assert_eq!(sniff_content("# station: x\na,b\n"), Some(FormatKind::Csv));
        assert_eq!(sniff_content("just a line"), None);
        assert_eq!(sniff_content("   \n\n"), None);
    }

    #[test]
    fn content_overrides_extension() {
        // a CDL file misnamed .csv is still parsed as CDL
        let p = PathBuf::from("misnamed.csv");
        assert_eq!(sniff(&p, "netcdf x {\n}"), Some(FormatKind::Cdl));
    }

    #[test]
    fn extension_fallback() {
        let p = PathBuf::from("plain.csv");
        // single-column CSV has no delimiter in line 1; extension decides
        assert_eq!(sniff(&p, "header\n1\n2\n"), Some(FormatKind::Csv));
    }

    #[test]
    fn sniff_and_parse_ok() {
        let p = PathBuf::from("x.csv");
        let parsed = sniff_and_parse(&p, "a,b\n1,2\n").unwrap();
        assert_eq!(parsed.format, FormatKind::Csv);
        assert_eq!(parsed.row_count(), 1);
    }

    #[test]
    fn sniff_and_parse_unknown() {
        let p = PathBuf::from("x.bin");
        let e = sniff_and_parse(&p, "\u{0}\u{1}garbage").unwrap_err();
        assert!(e.to_string().contains("unrecognized format"));
    }
}
