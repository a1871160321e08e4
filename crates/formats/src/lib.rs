//! # metamess-formats
//!
//! The archive file formats the synthetic observatory writes and the
//! harvester reads: delimited text with observatory header conventions
//! ([`parse_csv`]), a textual NetCDF-like CDL ([`parse_cdl`]), and the
//! starred instrument cast log ([`parse_obslog`]) — plus format sniffing and
//! the writers the archive generator uses.

#![forbid(unsafe_code)]

mod cdl;
mod csv;
mod model;
mod obslog;
mod sniff;

pub use cdl::{parse_cdl, write_cdl};
pub use csv::{parse_csv, write_csv, CsvOptions};
pub use model::{Column, ColumnDef, FormatKind, ParsedFile};
pub use obslog::{parse_obslog, write_obslog};
pub use sniff::{parse_as, sniff, sniff_and_parse, sniff_content, sniff_extension};
