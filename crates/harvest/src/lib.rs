//! # metamess-harvest
//!
//! Archive scanning and metadata harvesting: [`ArchiveInput::scan`] walks
//! the archive once (configured directories, file types, naming
//! conventions) and lists each accepted file with its content fingerprint;
//! [`harvest`] sniffs and parses the listed files and summarizes each into
//! a catalog [`DatasetFeature`] — with fingerprint-based incremental reruns
//! and per-file error reporting.
//!
//! [`DatasetFeature`]: metamess_core::feature::DatasetFeature

#![forbid(unsafe_code)]

mod extract;
mod harvester;
mod naming;
pub mod scan;

pub use extract::extract_feature;
pub use harvester::{harvest, HarvestConfig, HarvestError, HarvestReport};
pub use naming::{infer_path_facts, observatory_rules, NamingRule, PathFacts};
pub use scan::{archive_fingerprint, ArchiveInput, FileEntry, ScanConfig};
