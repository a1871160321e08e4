//! Shared state flowing through the wrangling chain.

use metamess_core::catalog::Catalog;
use metamess_core::error::Result;
use metamess_core::store::RunLedger;
use metamess_discover::RuleProposal;
use metamess_harvest::{archive_fingerprint, ArchiveInput, FileEntry, HarvestConfig, HarvestError};
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
    /// What the pipeline remembers of its last run: the catalog it ended
    /// with, what the last watch cycle wrangled, per-stage timings.
    /// Persist/restore it (see [`crate::save_state`]) so a watcher in a new
    /// process skips an archive its last cycle already wrangled.
    pub ledger: RunLedger,
    /// The archive's listing from the last [`PipelineContext::rescan`]: what
    /// the scan stage harvests.
    pub(crate) listing: Vec<FileEntry>,
    /// The files of the listing the last scan stage could not harvest: one
    /// whose bytes failed to parse is reported from here, unread, while it
    /// is listed with the same bytes.
    pub(crate) failed: Vec<HarvestError>,
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
            failed: Vec::new(),
        }
    }

    /// Walks the archive once under the scan configuration and holds the
    /// listing for the scan stage. Returns the listing's
    /// [`archive_fingerprint`]. [`crate::Pipeline::run`] and
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
