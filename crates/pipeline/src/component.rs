//! The composable component abstraction: "set of composable components,
//! compose into 'metadata processing chain'; details of process different
//! for each archive".
//!
//! Since the typed-dataflow rework every component *declares* which
//! [`PipelineContext`](crate::context::PipelineContext) slots it reads and
//! writes, and runs against a [`CtxView`] scoped to that declaration. The
//! declarations drive the incremental engine: a stage whose read slots are
//! unchanged since the last run is skipped.

use crate::context::{CtxView, PipelineContext};
use metamess_core::error::Result;
use serde::{Deserialize, Serialize};

/// A named section of the shared [`PipelineContext`]. Components declare
/// the slots they read and write; the engine fingerprints slot contents to
/// decide which stages can be skipped.
///
/// [`PipelineContext`]: crate::context::PipelineContext
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Slot {
    /// The archive input plus the harvest (scan/naming) configuration.
    Archive,
    /// The working catalog.
    Working,
    /// The controlled vocabulary.
    Vocab,
    /// External metadata (source → key → value).
    External,
    /// Rule proposals awaiting curator review.
    Proposals,
    /// Proposals the curator accepted.
    Accepted,
    /// Validation findings.
    Findings,
    /// Discovery provenance of synonym-table entries.
    Provenance,
    /// Dataset paths the curator expects to exist.
    Expected,
}

impl Slot {
    /// Every slot, in declaration order.
    pub const ALL: [Slot; 9] = [
        Slot::Archive,
        Slot::Working,
        Slot::Vocab,
        Slot::External,
        Slot::Proposals,
        Slot::Accepted,
        Slot::Findings,
        Slot::Provenance,
        Slot::Expected,
    ];
}

/// Whether a stage executed or was skipped by the incremental engine.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum StageStatus {
    /// The stage executed.
    #[default]
    Ran,
    /// The engine skipped the stage.
    Skipped {
        /// Why the stage was skipped (e.g. "inputs unchanged").
        reason: String,
    },
}

/// What one stage did, for the run report and the curator's review.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StageReport {
    /// Component name.
    pub component: String,
    /// Whether the stage ran or was skipped by the incremental engine.
    #[serde(default)]
    pub status: StageStatus,
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
    /// Wall-clock execution time in microseconds (explicitly 0 when
    /// skipped — the skip itself costs only a digest check).
    #[serde(default)]
    pub micros: u64,
    /// For skipped stages: how long the stage took the last time it
    /// actually executed (from the run ledger). `None` for stages that ran
    /// this time or were never recorded.
    #[serde(default)]
    pub last_micros: Option<u64>,
}

impl StageReport {
    /// Creates an empty report for a component.
    pub fn new(component: &str) -> StageReport {
        StageReport { component: component.to_string(), ..StageReport::default() }
    }

    /// Creates a report for a stage the engine skipped.
    pub fn skipped(component: &str, reason: &str) -> StageReport {
        StageReport {
            component: component.to_string(),
            status: StageStatus::Skipped { reason: reason.to_string() },
            ..StageReport::default()
        }
    }

    /// True when the engine skipped this stage.
    pub fn is_skipped(&self) -> bool {
        matches!(self.status, StageStatus::Skipped { .. })
    }

    /// Appends a note.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }
}

/// A pipeline component. Implementations are the boxes of the poster's
/// process figure.
///
/// `reads`/`writes` declare the component's dataflow over the context
/// slots. The declarations must be honest: in debug builds every [`CtxView`]
/// accessor asserts it is covered by the declaration, and the incremental
/// engine skips a stage whenever the fingerprints of its declared read
/// slots are unchanged — an undeclared input would make the skip unsound.
pub trait Component {
    /// Stable component name (used in configuration and reports).
    fn name(&self) -> &'static str;

    /// Slots this component reads. A slot listed in `writes` may also be
    /// read without being declared here (read-modify-write).
    fn reads(&self) -> &'static [Slot];

    /// Slots this component writes.
    fn writes(&self) -> &'static [Slot];

    /// Runs the stage against a view scoped to the declared slots.
    fn run(&mut self, view: &mut CtxView<'_>) -> Result<StageReport>;

    /// Runs the stage directly against a context, outside the engine —
    /// declaration checks still apply. A stage that reads [`Slot::Archive`]
    /// gets a fresh rescan first. Used by tests and ad-hoc callers; the
    /// pipeline runner goes through the incremental engine instead.
    fn run_standalone(&mut self, ctx: &mut PipelineContext) -> Result<StageReport> {
        if self.reads().contains(&Slot::Archive) {
            ctx.rescan()?;
        }
        ctx.harvest.pipeline_run = ctx.run_id;
        let mut view = CtxView::scoped(ctx, self.name(), self.reads(), self.writes());
        self.run(&mut view)
    }
}
