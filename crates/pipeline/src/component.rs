//! The composable component abstraction: "set of composable components,
//! compose into 'metadata processing chain'; details of process different
//! for each archive".
//!
//! A component takes the whole [`PipelineContext`] and borrows the fields it
//! needs directly. The pipeline runs every component of the chain on every
//! run; what is not re-done is decided once per curation loop or watch cycle
//! (see the `engine` module), and inside the scan stage, which re-parses
//! only the files whose content moved.

use crate::context::PipelineContext;
use metamess_core::error::Result;
use serde::{Deserialize, Serialize};

/// What one stage did, for the run report and the curator's review.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StageReport {
    /// Component name.
    pub component: String,
    /// Items examined (datasets, variables, values — stage-specific).
    pub processed: u64,
    /// Items changed.
    pub changed: u64,
    /// Non-fatal problems encountered.
    pub errors: Vec<String>,
    /// Free-form notes (counts of clusters found, rules applied, ...).
    pub notes: Vec<String>,
    /// Catalog-wide resolution fraction *after* this stage — the shrinking
    /// "mess that's left".
    pub resolution_after: f64,
    /// Wall-clock execution time in microseconds.
    #[serde(default)]
    pub micros: u64,
}

impl StageReport {
    /// Creates an empty report for a component.
    pub fn new(component: &str) -> StageReport {
        StageReport { component: component.to_string(), ..StageReport::default() }
    }

    /// Appends a note.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }
}

/// A pipeline component. Implementations are the boxes of the poster's
/// process figure.
pub trait Component {
    /// Stable component name (used in configuration, reports and the run
    /// ledger's per-stage timings).
    fn name(&self) -> &'static str;

    /// Runs the stage against the context.
    fn run(&mut self, ctx: &mut PipelineContext) -> Result<StageReport>;

    /// Runs the stage on its own, outside a pipeline run: the archive is
    /// walked first, so a scan harvests what the archive holds now. Used by
    /// tests and ad-hoc callers; [`crate::Pipeline::run`] walks once per run
    /// instead.
    fn run_standalone(&mut self, ctx: &mut PipelineContext) -> Result<StageReport> {
        ctx.rescan()?;
        ctx.harvest.pipeline_run = ctx.run_id;
        self.run(ctx)
    }
}
