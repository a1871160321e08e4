//! The pipeline runner: composes components into the metadata processing
//! chain and runs (and re-runs) it through the incremental engine,
//! recording the shrinking "mess that's left" after every stage.

use crate::component::{Component, Slot, StageReport, StageStatus};
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
    /// Per-stage reports, in execution order (skipped stages included).
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

    /// Number of stages that actually executed.
    pub fn executed_count(&self) -> usize {
        self.stages.iter().filter(|s| !s.is_skipped()).count()
    }

    /// Number of stages the engine skipped.
    pub fn skipped_count(&self) -> usize {
        self.stages.iter().filter(|s| s.is_skipped()).count()
    }

    /// Renders a compact text table of the run. The stage column is sized
    /// to the longest component name, so long names never break alignment.
    /// Skipped stages show 0 micros (the skip costs only a digest check)
    /// and carry the duration of their last actual execution in the `last`
    /// column.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let name_w =
            self.stages.iter().map(|s| s.component.len()).max().unwrap_or(0).max("stage".len());
        let mut out = String::new();
        let _ = writeln!(
            out,
            "run #{:<3} {:<name_w$} {:>8} {:>9} {:>9} {:>7} {:>10} {:>9} {:>9}",
            self.run_id,
            "stage",
            "status",
            "processed",
            "changed",
            "errors",
            "resolved",
            "micros",
            "last"
        );
        for s in &self.stages {
            let status = match &s.status {
                StageStatus::Ran => "ran",
                StageStatus::Skipped { .. } => "skipped",
            };
            let last = s.last_micros.map(|m| m.to_string()).unwrap_or_else(|| "-".to_string());
            let _ = writeln!(
                out,
                "         {:<name_w$} {:>8} {:>9} {:>9} {:>7} {:>9.1}% {:>9} {:>9}",
                s.component,
                status,
                s.processed,
                s.changed,
                s.errors.len(),
                100.0 * s.resolution_after,
                s.micros,
                last
            );
        }
        let _ = writeln!(
            out,
            "         {} stage(s) ran, {} skipped (inputs unchanged)",
            self.executed_count(),
            self.skipped_count()
        );
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

    /// Each component's declared dataflow: `(name, reads, writes)`.
    pub fn declarations(&self) -> Vec<(&'static str, &'static [Slot], &'static [Slot])> {
        self.components.iter().map(|c| (c.name(), c.reads(), c.writes())).collect()
    }

    /// Rescans the archive once, then runs the chain through the
    /// incremental engine: stages whose declared inputs are unchanged since
    /// the context's last run are skipped (and reported as such); the rest
    /// execute in order. Stops at the first hard error.
    pub fn run(&mut self, ctx: &mut PipelineContext) -> Result<RunReport> {
        ctx.rescan()?;
        self.run_scanned(ctx)
    }

    /// Runs the chain over the listing `ctx` already holds, reading no
    /// archive.
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
        assert_eq!(report.executed_count(), 9); // first run skips nothing
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
        assert!(text.contains("status"));
        assert!(text.contains("last"));
        assert!(text.contains("9 stage(s) ran, 0 skipped"));
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
                StageReport::skipped("skippy", "inputs unchanged"),
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
        assert!(lines[3].contains("skipped"));
        assert!(lines[4].contains("2 stage(s) ran, 1 skipped"));
    }

    #[test]
    fn every_stage_declares_nonempty_dataflow() {
        for pipeline in [Pipeline::standard(), Pipeline::known_only()] {
            let decls = pipeline.declarations();
            assert!(!decls.is_empty());
            let mut seen = std::collections::BTreeSet::new();
            for (name, reads, writes) in decls {
                assert!(!reads.is_empty(), "stage '{name}' declares no reads");
                // publish is a gate: the store write comes after the run
                assert!(
                    !writes.is_empty() || name == "publish",
                    "stage '{name}' declares no writes"
                );
                assert!(seen.insert(name), "duplicate stage name '{name}'");
                // declarations are duplicate-free
                for (ix, s) in reads.iter().enumerate() {
                    assert!(!reads[ix + 1..].contains(s), "'{name}' repeats read {s:?}");
                }
                for (ix, s) in writes.iter().enumerate() {
                    assert!(!writes[ix + 1..].contains(s), "'{name}' repeats write {s:?}");
                }
            }
        }
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
