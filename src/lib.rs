//! # metamess — Taming the Metadata Mess
//!
//! A full Rust implementation of the metadata-wrangling system described in
//! V.M. Megler, *"Taming the Metadata Mess"* (ICDE 2013) and the underlying
//! *Data Near Here* ranked search for scientific data (Megler & Maier,
//! 2011/2012).
//!
//! This facade crate re-exports the workspace:
//!
//! * [`core`] — value model, catalog features, durable snapshot+WAL store
//! * [`vocab`] — synonym tables, taxonomies, units, curation registry
//! * [`transform`] — Google-Refine-compatible rules + GREL expressions
//! * [`discover`] — clustering-based transformation discovery
//! * [`formats`] — archive file formats (CSV dialects, CDL-lite, OBSLOG)
//! * [`archive`] — deterministic synthetic observatory archive (ground truth)
//! * [`harvest`] — scanning, naming conventions, feature extraction
//! * [`search`] — "Data Near Here" ranked search + summary pages
//! * [`pipeline`] — the composable wrangling process and curation loop
//! * [`telemetry`] — metrics registry, spans, and exposition formats
//! * [`remote`] — the remote shard protocol: `shardd` processes hosting
//!   catalog shards and the scatter-gather coordinator dialing them
//! * [`server`] — embedded HTTP search service with bounded concurrency,
//!   load shedding, and hot catalog reload
//!
//! ## Quickstart
//!
//! ```
//! use metamess::prelude::*;
//!
//! // 1. a (synthetic) archive of scientific files
//! let archive = metamess::archive::generate(&ArchiveSpec::tiny());
//!
//! // 2. wrangle it: scan → transform → discover → validate → publish
//! let mut ctx = PipelineContext::new(
//!     ArchiveInput::Memory(archive.files),
//!     Vocabulary::observatory_default(),
//! );
//! let mut pipeline = Pipeline::standard();
//! let curator = CurationLoop::new(CuratorPolicy::default());
//! curator.run_to_fixpoint(&mut pipeline, &mut ctx).unwrap();
//!
//! // 3. search the catalog the run validated (a `Watcher` publishes it to a
//! //    durable store; here it is searched in memory)
//! let engine = SearchEngine::build(&ctx.catalog, ctx.vocab.clone());
//! let query = Query::parse("near 46.2,-123.9 with water_temperature").unwrap();
//! let hits = engine.search(&query);
//! assert!(!hits.is_empty());
//! ```

pub use metamess_archive as archive;
pub use metamess_core as core;
pub use metamess_discover as discover;
pub use metamess_formats as formats;
pub use metamess_harvest as harvest;
pub use metamess_pipeline as pipeline;
pub use metamess_remote as remote;
pub use metamess_search as search;
pub use metamess_server as server;
pub use metamess_telemetry as telemetry;
pub use metamess_transform as transform;
pub use metamess_vocab as vocab;

pub mod fsck;

/// The names most programs need, in one import.
pub mod prelude {
    pub use metamess_archive::{ArchiveSpec, GeneratedArchive, GroundTruth, MessCategory};
    pub use metamess_core::{
        Catalog, DatasetFeature, DatasetId, DurableCatalog, GeoBBox, GeoPoint, NameResolution,
        Record, StoreOptions, TimeInterval, Timestamp, Value, VariableFeature,
    };
    pub use metamess_harvest::{HarvestConfig, ScanConfig};
    pub use metamess_pipeline::{
        ArchiveInput, CurationLoop, CuratorPolicy, Pipeline, PipelineContext,
    };
    pub use metamess_search::{Query, SearchEngine, SearchHit};
    pub use metamess_transform::{parse_operations, Operation};
    pub use metamess_vocab::Vocabulary;
}
