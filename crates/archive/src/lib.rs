//! # metamess-archive
//!
//! The simulated substrate: a deterministic synthetic observatory archive
//! standing in for the proprietary CMOP archive the paper wrangles.
//! Stations, cruises and gliders write realistic files in three formats;
//! every semantic-diversity category from the poster's table is injected
//! with machine-readable ground truth, so the experiments can score
//! resolution quality exactly.

#![forbid(unsafe_code)]

mod generator;
mod mess;
mod spec;

pub use generator::{generate, GeneratedArchive};
pub use mess::{
    abbreviate, adhoc_synonyms, ambiguous_form, case_variant, flag_column, misspell, MessCategory,
    MessIntensity, QA_COLUMNS,
};
pub use spec::{ArchiveSpec, GroundTruth, TrueDataset, TrueVariable};
