//! # metamess-vocab
//!
//! The controlled vocabulary for *Taming the Metadata Mess*: synonym tables
//! (preferred/alternate terms), concept taxonomies with hierarchical
//! grouping, a unit registry with conversions, and the variable registry
//! carrying curation decisions (QA marking, ambiguity clarification, source
//! context rules).
//!
//! The poster's semantic-diversity table maps onto this crate as follows:
//!
//! | Category | Mechanism |
//! |---|---|
//! | Minor variations & misspellings | [`SynonymTable`] alternates |
//! | Synonyms (incl. units) | [`SynonymTable`], [`UnitRegistry`] |
//! | Abbreviations | [`SynonymTable`] alternates |
//! | Excessive (QA) variables | [`VariableRegistry`] QA patterns |
//! | Ambiguous usages | [`VariableRegistry`] ambiguity entries |
//! | Source-context variations | [`VariableRegistry`] context rules |
//! | Concepts at multiple levels | [`Taxonomy`] grouping |

#![forbid(unsafe_code)]

mod registry;
mod synonym;
mod taxonomy;
mod units;
mod vocabulary;

pub use registry::{
    AmbiguityDecision, AmbiguousEntry, ContextRule, QaPattern, RegistryVerdict, VariableRegistry,
};
pub use synonym::{MatchKind, SynonymTable, TermEntry};
pub use taxonomy::{Taxonomy, TaxonomyNode, TaxonomySet};
pub use units::{Dimension, UnitDef, UnitRegistry};
pub use vocabulary::{taxonomy_from_paths, VariableResolution, Vocabulary};
