//! Shared state flowing through the wrangling chain, and the scoped view
//! components access it through.

use crate::component::Slot;
use metamess_core::catalog::Catalog;
use metamess_core::error::Result;
use metamess_core::store::RunLedger;
use metamess_discover::RuleProposal;
use metamess_harvest::{archive_fingerprint, ArchiveInput, FileEntry, HarvestConfig};
use metamess_vocab::Vocabulary;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One validation finding (curatorial activity 4).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ValidationFinding {
    /// Validation rule name.
    pub rule: String,
    /// `"error"` or `"warning"`.
    pub severity: Severity,
    /// Affected dataset path, when specific.
    pub path: Option<String>,
    /// Human-readable message.
    pub message: String,
}

/// Finding severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Severity {
    /// Must be fixed before publish.
    Error,
    /// Curator should look, but publish may proceed.
    Warning,
}

/// The mutable state all components read and write.
pub struct PipelineContext {
    /// The archive being wrangled.
    pub archive: ArchiveInput,
    /// Harvest (scan-stage) configuration.
    pub harvest: HarvestConfig,
    /// The working catalog: what the stages wrangle, and what a publish
    /// diffs the store against.
    pub catalog: Catalog,
    /// The controlled vocabulary (grows as the curator improves it).
    pub vocab: Vocabulary,
    /// External metadata: source → key → value, merged by the
    /// add-external-metadata stage.
    pub external: BTreeMap<String, BTreeMap<String, String>>,
    /// Rule proposals produced by discovery, awaiting curator review.
    pub proposals: Vec<RuleProposal>,
    /// Proposals the curator accepted (consumed by the perform-discovered
    /// stage).
    pub accepted: Vec<RuleProposal>,
    /// Findings from the validation stage.
    pub findings: Vec<ValidationFinding>,
    /// Provenance of synonym-table entries that originated in discovery:
    /// normalized variant → clustering method. Lets the known-transformations
    /// stage stamp `DiscoveredTranslation` even after the curator folded the
    /// rule into the table.
    pub discovered_provenance: BTreeMap<String, String>,
    /// Dataset paths the curator expects to exist ("determining that
    /// expected datasets show up").
    pub expected_datasets: Vec<String>,
    /// Monotonic pipeline-run counter.
    pub run_id: u64,
    /// The incremental engine's memory of the previous run: per-stage input
    /// and output digests. Persist/restore it (see [`crate::save_state`])
    /// to resume incrementality across processes.
    pub ledger: RunLedger,
    /// The archive's listing from the last [`PipelineContext::rescan`]:
    /// what [`Slot::Archive`] digests and the scan stage harvests.
    pub(crate) listing: Vec<FileEntry>,
}

impl PipelineContext {
    /// Creates a context over an archive with the starter vocabulary.
    pub fn new(archive: ArchiveInput, vocab: Vocabulary) -> PipelineContext {
        PipelineContext {
            archive,
            harvest: HarvestConfig {
                naming: metamess_harvest::observatory_rules(),
                ..HarvestConfig::default()
            },
            catalog: Catalog::new(),
            vocab,
            external: BTreeMap::new(),
            proposals: Vec::new(),
            accepted: Vec::new(),
            findings: Vec::new(),
            discovered_provenance: BTreeMap::new(),
            expected_datasets: Vec::new(),
            run_id: 0,
            ledger: RunLedger::new(),
            listing: Vec::new(),
        }
    }

    /// Walks the archive once under the scan configuration and holds the
    /// listing for the stages that read [`Slot::Archive`]. Returns the
    /// listing's [`archive_fingerprint`]. [`crate::Pipeline::run`] and
    /// [`crate::CurationLoop::run_to_fixpoint`] call this at entry, so set
    /// `archive` or the scan configuration before either.
    pub fn rescan(&mut self) -> Result<u64> {
        self.listing = self.archive.scan(&self.harvest.scan)?;
        Ok(archive_fingerprint(&self.listing))
    }

    /// Errors among the findings.
    pub fn validation_errors(&self) -> impl Iterator<Item = &ValidationFinding> {
        self.findings.iter().filter(|f| f.severity == Severity::Error)
    }
}

/// A component's window onto the [`PipelineContext`], scoped to its
/// declared [`Slot`]s.
///
/// Every accessor checks (with `debug_assert!`) that the slot it touches is
/// covered by the component's declaration: reads must be declared in
/// `reads()` or `writes()`, writes in `writes()`. In release builds the
/// checks compile away and the view is a zero-cost reborrow. The paired
/// `*_mut_and_*` accessors exist so a stage can hold a mutable borrow of
/// one slot and shared borrows of others simultaneously (split borrows of
/// disjoint context fields).
pub struct CtxView<'a> {
    ctx: &'a mut PipelineContext,
    component: &'a str,
    reads: &'a [Slot],
    writes: &'a [Slot],
}

impl<'a> CtxView<'a> {
    /// Builds a view scoped to a declaration. The pipeline engine and
    /// [`Component::run_standalone`](crate::Component::run_standalone) call
    /// this with the component's own declaration.
    pub fn scoped(
        ctx: &'a mut PipelineContext,
        component: &'a str,
        reads: &'a [Slot],
        writes: &'a [Slot],
    ) -> CtxView<'a> {
        CtxView { ctx, component, reads, writes }
    }

    /// Builds an unrestricted view (every slot readable and writable).
    /// Meant for tests and for callers outside the engine, e.g. running a
    /// single validator by hand.
    pub fn full(ctx: &'a mut PipelineContext) -> CtxView<'a> {
        CtxView { ctx, component: "full-access", reads: &Slot::ALL, writes: &Slot::ALL }
    }

    #[track_caller]
    fn assert_read(&self, slot: Slot) {
        debug_assert!(
            self.reads.contains(&slot) || self.writes.contains(&slot),
            "component '{}' made an undeclared read of slot {slot:?}",
            self.component
        );
    }

    #[track_caller]
    fn assert_write(&self, slot: Slot) {
        debug_assert!(
            self.writes.contains(&slot),
            "component '{}' made an undeclared write to slot {slot:?}",
            self.component
        );
    }

    /// Identifier of the current pipeline run (not a slot; always visible).
    pub fn run_id(&self) -> u64 {
        self.ctx.run_id
    }

    /// The archive input. Reads [`Slot::Archive`].
    pub fn archive(&self) -> &ArchiveInput {
        self.assert_read(Slot::Archive);
        &self.ctx.archive
    }

    /// The archive's listing from the last rescan. Reads [`Slot::Archive`].
    pub fn scan(&self) -> &[FileEntry] {
        self.assert_read(Slot::Archive);
        &self.ctx.listing
    }

    /// The harvest configuration. Reads [`Slot::Archive`].
    pub fn harvest_config(&self) -> &HarvestConfig {
        self.assert_read(Slot::Archive);
        &self.ctx.harvest
    }

    /// The working catalog. Reads [`Slot::Working`].
    pub fn working(&self) -> &Catalog {
        self.assert_read(Slot::Working);
        &self.ctx.catalog
    }

    /// The working catalog, mutably. Writes [`Slot::Working`].
    pub fn working_mut(&mut self) -> &mut Catalog {
        self.assert_write(Slot::Working);
        &mut self.ctx.catalog
    }

    /// Split borrow: working catalog (mutable) plus vocabulary (shared).
    /// Writes [`Slot::Working`], reads [`Slot::Vocab`].
    pub fn working_mut_and_vocab(&mut self) -> (&mut Catalog, &Vocabulary) {
        self.assert_write(Slot::Working);
        self.assert_read(Slot::Vocab);
        (&mut self.ctx.catalog, &self.ctx.vocab)
    }

    /// Split borrow: working catalog (mutable), vocabulary and discovery
    /// provenance (shared). Writes [`Slot::Working`], reads [`Slot::Vocab`]
    /// and [`Slot::Provenance`].
    pub fn working_mut_vocab_provenance(
        &mut self,
    ) -> (&mut Catalog, &Vocabulary, &BTreeMap<String, String>) {
        self.assert_write(Slot::Working);
        self.assert_read(Slot::Vocab);
        self.assert_read(Slot::Provenance);
        (&mut self.ctx.catalog, &self.ctx.vocab, &self.ctx.discovered_provenance)
    }

    /// Split borrow: working catalog (mutable) plus external metadata
    /// (shared). Writes [`Slot::Working`], reads [`Slot::External`].
    pub fn working_mut_and_external(
        &mut self,
    ) -> (&mut Catalog, &BTreeMap<String, BTreeMap<String, String>>) {
        self.assert_write(Slot::Working);
        self.assert_read(Slot::External);
        (&mut self.ctx.catalog, &self.ctx.external)
    }

    /// The vocabulary. Reads [`Slot::Vocab`].
    pub fn vocab(&self) -> &Vocabulary {
        self.assert_read(Slot::Vocab);
        &self.ctx.vocab
    }

    /// The vocabulary, mutably. Writes [`Slot::Vocab`].
    pub fn vocab_mut(&mut self) -> &mut Vocabulary {
        self.assert_write(Slot::Vocab);
        &mut self.ctx.vocab
    }

    /// External metadata. Reads [`Slot::External`].
    pub fn external(&self) -> &BTreeMap<String, BTreeMap<String, String>> {
        self.assert_read(Slot::External);
        &self.ctx.external
    }

    /// Discovery proposals. Reads [`Slot::Proposals`].
    pub fn proposals(&self) -> &[RuleProposal] {
        self.assert_read(Slot::Proposals);
        &self.ctx.proposals
    }

    /// Discovery proposals, mutably. Writes [`Slot::Proposals`].
    pub fn proposals_mut(&mut self) -> &mut Vec<RuleProposal> {
        self.assert_write(Slot::Proposals);
        &mut self.ctx.proposals
    }

    /// Curator-accepted proposals. Reads [`Slot::Accepted`].
    pub fn accepted(&self) -> &[RuleProposal] {
        self.assert_read(Slot::Accepted);
        &self.ctx.accepted
    }

    /// Validation findings. Reads [`Slot::Findings`].
    pub fn findings(&self) -> &[ValidationFinding] {
        self.assert_read(Slot::Findings);
        &self.ctx.findings
    }

    /// Validation findings, mutably. Writes [`Slot::Findings`].
    pub fn findings_mut(&mut self) -> &mut Vec<ValidationFinding> {
        self.assert_write(Slot::Findings);
        &mut self.ctx.findings
    }

    /// Discovery provenance. Reads [`Slot::Provenance`].
    pub fn provenance(&self) -> &BTreeMap<String, String> {
        self.assert_read(Slot::Provenance);
        &self.ctx.discovered_provenance
    }

    /// Expected dataset paths. Reads [`Slot::Expected`].
    pub fn expected(&self) -> &[String] {
        self.assert_read(Slot::Expected);
        &self.ctx.expected_datasets
    }
}
