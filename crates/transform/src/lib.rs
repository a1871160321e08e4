//! # metamess-transform
//!
//! Google-Refine-compatible metadata transformations: the operation JSON
//! format (`core/mass-edit`, `core/text-transform`, ...), a GREL expression
//! subset (lexer, parser, evaluator), and the engine that "runs rules
//! against metadata" with per-operation statistics.
//!
//! This reproduces the poster's round trip: *extract catalog entries →
//! discover transformations → export JSON rules → run rules against
//! metadata → working catalog*.

#![forbid(unsafe_code)]

mod engine;
pub mod grel;
mod ops;

pub use engine::{
    apply_operation, apply_operations, apply_operations_strict, ApplyReport, OpStats,
};
pub use ops::{
    operations_to_json, parse_operations, EngineConfig, Facet, FacetChoice, FacetChoiceValue,
    MassEdit, Operation,
};
