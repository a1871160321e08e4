//! The pipeline runner: composes components into the metadata processing
//! chain and runs (and re-runs) it, recording the shrinking "mess that's
//! left" after every stage.

use crate::component::{Component, StageReport};
use crate::context::PipelineContext;
use crate::engine;
use crate::stages::{
    AddExternalMetadata, DiscoverTransformations, GenerateHierarchies, NormalizeUnits,
    PerformDiscoveredTransformations, PerformKnownTransformations, Publish, ScanArchive,
};
use crate::validate::Validate;
use metamess_core::error::Result;
use serde::{Deserialize, Serialize};

/// Report of one full pipeline run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Run identifier.
    pub run_id: u64,
    /// Per-stage reports, in execution order.
    pub stages: Vec<StageReport>,
}

impl RunReport {
    /// The resolution fraction trajectory across stages — the data behind
    /// the poster's two-panel process figure ("the mess that's left").
    pub fn resolution_trajectory(&self) -> Vec<(String, f64)> {
        self.stages.iter().map(|s| (s.component.clone(), s.resolution_after)).collect()
    }

    /// The report of a named stage.
    pub fn stage(&self, name: &str) -> Option<&StageReport> {
        self.stages.iter().find(|s| s.component == name)
    }

    /// Renders a compact text table of the run. The stage column is sized
    /// to the longest component name, so long names never break alignment.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let name_w =
            self.stages.iter().map(|s| s.component.len()).max().unwrap_or(0).max("stage".len());
        let mut out = String::new();
        let _ = writeln!(
            out,
            "run #{:<3} {:<name_w$} {:>9} {:>9} {:>7} {:>10} {:>9}",
            self.run_id, "stage", "processed", "changed", "errors", "resolved", "micros"
        );
        for s in &self.stages {
            let _ = writeln!(
                out,
                "         {:<name_w$} {:>9} {:>9} {:>7} {:>9.1}% {:>9}",
                s.component,
                s.processed,
                s.changed,
                s.errors.len(),
                100.0 * s.resolution_after,
                s.micros
            );
        }
        let micros: u64 = self.stages.iter().map(|s| s.micros).sum();
        let _ = writeln!(out, "         {} stage(s) ran in {micros}µs", self.stages.len());
        out
    }
}

/// A composed metadata processing chain.
pub struct Pipeline {
    components: Vec<Box<dyn Component>>,
}

impl Pipeline {
    /// Composes a pipeline from components, in execution order.
    pub fn new(components: Vec<Box<dyn Component>>) -> Pipeline {
        Pipeline { components }
    }

    /// The poster's standard chain: scan → known transforms → external
    /// metadata → discover → perform discovered → hierarchies → validate →
    /// publish.
    pub fn standard() -> Pipeline {
        Pipeline::new(vec![
            Box::new(ScanArchive),
            Box::new(PerformKnownTransformations),
            Box::new(NormalizeUnits),
            Box::new(AddExternalMetadata),
            Box::new(DiscoverTransformations::default()),
            Box::new(PerformDiscoveredTransformations),
            Box::new(GenerateHierarchies),
            Box::new(Validate::default()),
            Box::new(Publish::default()),
        ])
    }

    /// The first-run chain without discovery (the poster's left panel:
    /// known transformations only, leaving "the mess that's left").
    pub fn known_only() -> Pipeline {
        Pipeline::new(vec![
            Box::new(ScanArchive),
            Box::new(PerformKnownTransformations),
            Box::new(NormalizeUnits),
            Box::new(AddExternalMetadata),
            Box::new(GenerateHierarchies),
            Box::new(Validate::default()),
            Box::new(Publish::default()),
        ])
    }

    /// Component names, in order.
    pub fn component_names(&self) -> Vec<&'static str> {
        self.components.iter().map(|c| c.name()).collect()
    }

    /// Rescans the archive once, then runs every stage of the chain in
    /// order, stopping at the first hard error. The ledger then names the
    /// catalog the run ended with.
    pub fn run(&mut self, ctx: &mut PipelineContext) -> Result<RunReport> {
        ctx.rescan()?;
        let report = self.run_scanned(ctx)?;
        engine::name_catalog(ctx);
        Ok(report)
    }

    /// Runs the chain over the listing `ctx` already holds, reading no
    /// archive and naming no catalog.
    pub(crate) fn run_scanned(&mut self, ctx: &mut PipelineContext) -> Result<RunReport> {
        engine::run_chain(&mut self.components, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ArchiveInput;
    use metamess_archive::{generate, ArchiveSpec};
    use metamess_vocab::Vocabulary;

    fn ctx() -> PipelineContext {
        let archive = generate(&ArchiveSpec::tiny());
        PipelineContext::new(ArchiveInput::Memory(archive.files), Vocabulary::observatory_default())
    }

    #[test]
    fn standard_chain_runs_end_to_end() {
        let mut c = ctx();
        let report = Pipeline::standard().run(&mut c).unwrap();
        assert_eq!(report.run_id, 1);
        assert_eq!(report.stages.len(), 9);
        assert!(!c.catalog.is_empty());
        // resolution is monotone across resolution-affecting stages
        let traj = report.resolution_trajectory();
        for w in traj.windows(2) {
            assert!(
                w[1].1 >= w[0].1 - 1e-9,
                "resolution regressed {} -> {}: {:?}",
                w[0].0,
                w[1].0,
                traj
            );
        }
    }

    #[test]
    fn known_only_leaves_more_mess_than_standard() {
        let mut c1 = ctx();
        let r1 = Pipeline::known_only().run(&mut c1).unwrap();
        let mut c2 = ctx();
        let mut std_pipe = Pipeline::standard();
        let _first = std_pipe.run(&mut c2).unwrap();
        // accept high-confidence proposals whose pick is canonical, rerun
        c2.accepted =
            c2.proposals.iter().filter(|p| c2.vocab.synonyms.contains(&p.to)).cloned().collect();
        let r2 = std_pipe.run(&mut c2).unwrap();
        let known = r1.stages.last().unwrap().resolution_after;
        let with_discovery = r2.stages.last().unwrap().resolution_after;
        assert!(
            with_discovery > known,
            "discovery should resolve more: {with_discovery} vs {known}"
        );
    }

    #[test]
    fn rerun_is_stable_and_incremental() {
        let mut c = ctx();
        let mut p = Pipeline::standard();
        p.run(&mut c).unwrap();
        let snapshot = c.catalog.clone();
        let r2 = p.run(&mut c).unwrap();
        // rescan reuses everything
        assert_eq!(r2.stage("scan-archive").unwrap().changed, 0);
        // the catalog is stable when nothing was accepted in between
        assert_eq!(c.catalog.len(), snapshot.len());
        assert_eq!(r2.run_id, 2);
    }

    #[test]
    fn report_render_shows_stages() {
        let mut c = ctx();
        let r = Pipeline::standard().run(&mut c).unwrap();
        let text = r.render();
        assert!(text.contains("scan-archive"));
        assert!(text.contains("publish"));
        assert!(text.contains('%'));
        assert!(text.contains("micros"));
        assert!(text.contains("9 stage(s) ran in "));
    }

    #[test]
    fn render_width_adapts_to_long_stage_names() {
        let long = "a-stage-name-considerably-longer-than-thirty-six-characters";
        assert!(long.len() > 36);
        let report = RunReport {
            run_id: 7,
            stages: vec![
                StageReport::new("short"),
                StageReport::new(long),
                StageReport { micros: 12, ..StageReport::new("timed") },
            ],
        };
        let text = report.render();
        let lines: Vec<&str> = text.lines().collect();
        // header + one line per stage + summary
        assert_eq!(lines.len(), 5);
        // header and stage rows align: identical lengths, columns at the
        // same offsets even with a >36-char stage name
        assert_eq!(lines[0].len(), lines[1].len());
        assert_eq!(lines[1].len(), lines[2].len());
        assert_eq!(lines[2].len(), lines[3].len());
        assert!(lines[0].contains(" stage "));
        assert!(lines[2].contains(long));
        assert!(lines[3].contains("timed"));
        assert!(lines[4].contains("3 stage(s) ran in 12µs"));
    }

    #[test]
    fn custom_composition() {
        use crate::stages::{PerformKnownTransformations, ScanArchive};
        let mut p =
            Pipeline::new(vec![Box::new(ScanArchive), Box::new(PerformKnownTransformations)]);
        assert_eq!(p.component_names(), vec!["scan-archive", "perform-known-transformations"]);
        let mut c = ctx();
        let r = p.run(&mut c).unwrap();
        assert_eq!(r.stages.len(), 2);
    }
}
