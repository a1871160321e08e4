//! # metamess-core
//!
//! Core types for *Taming the Metadata Mess* (Megler, 2013): the dynamic
//! value model harvested from archive files, geospatial and temporal
//! primitives, one-pass summaries, the per-dataset **feature** record, the
//! metadata **catalog**, and a durable snapshot+WAL
//! store with crash recovery.
//!
//! Everything downstream — harvesting, transformation, discovery, ranked
//! search, the wrangling pipeline — builds on these types.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod catalog;
pub mod error;
pub mod feature;
pub mod geo;
pub mod id;
pub mod stats;
pub mod store;
pub mod text;
pub mod time;
pub mod value;

pub use catalog::{Catalog, Mutation};
pub use error::{Error, Result};
pub use feature::{
    DatasetFeature, ExternalMetadata, Hierarchy, NameResolution, Provenance, VariableFeature,
    VariableFlags,
};
pub use geo::{GeoBBox, GeoPoint};
pub use id::DatasetId;
pub use stats::{ColumnSummary, NumericSummary};
pub use store::{
    DurableCatalog, FaultKind, FaultPlan, FaultVfs, RecoveryReport, RunLedger, StageRecord, StdVfs,
    StoreOptions, Vfs,
};
pub use time::{TimeInterval, Timestamp};
pub use value::{Record, Value};
