//! # metamess-harvest
//!
//! Archive scanning and metadata harvesting: walks the archive (configured
//! directories, file types, naming conventions), sniffs and parses each
//! file, and summarizes it into a catalog [`DatasetFeature`] — with
//! fingerprint-based incremental reruns and per-file error reporting.
//!
//! [`DatasetFeature`]: metamess_core::feature::DatasetFeature

#![forbid(unsafe_code)]

mod extract;
mod harvester;
mod naming;
pub mod scan;

pub use extract::extract_feature;
pub use harvester::{
    harvest, ArchiveSource, DirSource, HarvestConfig, HarvestError, HarvestReport, MemorySource,
};
pub use naming::{infer_path_facts, observatory_rules, NamingRule, PathFacts};
pub use scan::{archive_fingerprint, scan_directory, scan_memory, FileEntry, ScanConfig};
