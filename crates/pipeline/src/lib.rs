//! # metamess-pipeline
//!
//! The paper's primary contribution: the **metadata wrangling process** — a
//! chain of composable components (scan archive, perform known
//! transformations, add external metadata, discover transformations,
//! perform discovered transformations, generate hierarchies, validate,
//! publish), a pipeline runner that records the shrinking "mess that's
//! left" after every stage, and a scripted curator implementing the
//! poster's four curatorial activities as an iterated run/improve/rerun
//! loop.
//!
//! A run executes every stage of the chain; the scan stage re-parses only
//! the files whose content moved. What is not re-done is decided once per
//! loop or cycle: the curation loop stops before a run its curator step
//! gave nothing new to do, and a watcher skips a cycle whose archive and
//! settings its last cycle already wrangled — including across processes,
//! via [`save_state`]/[`load_state`]. The pipeline holds one catalog; the
//! published one is the durable store, which a writer diffs against it to
//! publish and restores it from. The state holds no catalog: its ledger
//! resumes only over the catalog it names.
//!
//! The [`watch`] module turns the one-shot wrangle into **continuous
//! ingestion**: a polling loop that re-wrangles when the archive changes
//! and appends each cycle's catalog delta to the store's WAL with one
//! fsync, so a live `metamess serve` can apply it without reopening the
//! store.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod component;
mod context;
mod curator;
mod engine;
#[allow(clippy::module_inception)]
mod pipeline;
mod stages;
mod validate;
pub mod watch;

pub use component::{Component, StageReport};
pub use context::{PipelineContext, Severity, ValidationFinding};
pub use curator::{CurationLoop, CurationStep, CuratorPolicy};
pub use engine::{load_state, save_state};
pub use metamess_harvest::ArchiveInput;
pub use pipeline::{Pipeline, RunReport};
pub use stages::{
    detect_ambiguity, AddExternalMetadata, DiscoverTransformations, DiscoveryConfig,
    GenerateHierarchies, NormalizeUnits, PerformDiscoveredTransformations,
    PerformKnownTransformations, Publish, ScanArchive,
};
pub use validate::{
    ExpectedDatasets, FeatureSanity, FileTypeUniformity, NamesInVocabulary, Validate, Validator,
};
pub use watch::{CycleReport, WatchOptions, WatchReport, Watcher};
