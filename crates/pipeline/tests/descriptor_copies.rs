//! Counted work: how many variable descriptors curation makes
//! (`metamess_core_descriptor_copies_total`). The working catalog shares
//! each distinct descriptor, and a stage or a curator step rewrites
//! descriptors, not variables (`Catalog::map_descriptors`): it decides once
//! per distinct (descriptor, dataset context) key and makes one descriptor
//! for each key it changes, however many variables hold it. A cold wrangle
//! makes at most one per key each of its steps rewrote, an edit cycle at
//! most those of the rows it re-harvested, and stages re-run over an
//! unchanged archive make none.
//!
//! The counter lives in the global registry, so this file is its own test
//! binary and holds one test: nothing else moves the count between the
//! reads.

use metamess_archive::{generate, ArchiveSpec};
use metamess_core::catalog::Catalog;
use metamess_core::error::Result;
use metamess_core::feature::VariableDescriptor;
use metamess_core::store::RunLedger;
use metamess_core::DatasetId;
use metamess_pipeline::{
    AddExternalMetadata, ArchiveInput, Component, CurationLoop, CuratorPolicy,
    DiscoverTransformations, GenerateHierarchies, NormalizeUnits, PerformDiscoveredTransformations,
    PerformKnownTransformations, Pipeline, PipelineContext, Publish, ScanArchive, StageReport,
    Validate, WatchOptions, Watcher,
};
use metamess_vocab::Vocabulary;
use std::collections::HashSet;
use std::path::Path;
use std::sync::{Arc, Mutex};

fn copies() -> u64 {
    metamess_telemetry::global().counter("metamess_core_descriptor_copies_total").get()
}

/// Each dataset's variables: the descriptor each holds, and the dataset's
/// context.
type Layout = Vec<(DatasetId, Option<String>, Vec<Arc<VariableDescriptor>>)>;

fn layout(catalog: &Catalog) -> Layout {
    let descriptors = |f: &metamess_core::feature::DatasetFeature| {
        f.variables.iter().map(|v| Arc::clone(v.descriptor())).collect()
    };
    catalog.iter().map(|f| (f.id, f.context().map(str::to_owned), descriptors(f))).collect()
}

/// The distinct (descriptor, context) keys of `before` whose variables
/// hold another descriptor in `after`, a catalog of the same variables.
fn rewritten(before: &Layout, after: &Layout) -> u64 {
    assert_eq!(before.len(), after.len(), "only a scan puts or deletes datasets");
    let mut keys = HashSet::new();
    for ((id, context, was), (id2, _, now)) in before.iter().zip(after) {
        assert!(id == id2 && was.len() == now.len(), "only a scan puts or deletes variables");
        for (was, now) in was.iter().zip(now) {
            if !Arc::ptr_eq(was, now) {
                keys.insert((Arc::as_ptr(was), context.clone()));
            }
        }
    }
    keys.len() as u64
}

/// The keys rewritten so far, and the catalog as last seen.
#[derive(Default)]
struct Tally {
    rewritten: u64,
    last: Option<Layout>,
}

impl Tally {
    /// Counts what moved since the last look; a scan's puts are not
    /// rewrites.
    fn look(&mut self, catalog: &Catalog, after_a_scan: bool) {
        let now = layout(catalog);
        if let Some(last) = self.last.take().filter(|_| !after_a_scan) {
            self.rewritten += rewritten(&last, &now);
        }
        self.last = Some(now);
    }
}

/// A stage that tallies the keys it, and the curator before it, rewrote.
struct Tallied {
    stage: Box<dyn Component>,
    tally: Arc<Mutex<Tally>>,
}

impl Component for Tallied {
    fn name(&self) -> &'static str {
        self.stage.name()
    }

    fn run(&mut self, ctx: &mut PipelineContext) -> Result<StageReport> {
        self.tally.lock().unwrap().look(&ctx.catalog, false);
        let report = self.stage.run(ctx)?;
        let after_a_scan = self.stage.name() == "scan-archive";
        self.tally.lock().unwrap().look(&ctx.catalog, after_a_scan);
        Ok(report)
    }
}

/// The standard chain, each stage tallied into `tally`.
fn tallied(tally: &Arc<Mutex<Tally>>) -> Pipeline {
    let standard: [Box<dyn Component>; 9] = [
        Box::new(ScanArchive),
        Box::new(PerformKnownTransformations),
        Box::new(NormalizeUnits),
        Box::new(AddExternalMetadata),
        Box::new(DiscoverTransformations::default()),
        Box::new(PerformDiscoveredTransformations),
        Box::new(GenerateHierarchies),
        Box::new(Validate::default()),
        Box::new(Publish::default()),
    ];
    let stages = standard
        .map(|stage| Box::new(Tallied { stage, tally: Arc::clone(tally) }) as Box<dyn Component>);
    let pipeline = Pipeline::new(stages.into());
    assert_eq!(pipeline.component_names(), Pipeline::standard().component_names());
    pipeline
}

/// The first `.csv` under `<archive>/stations`, in path order.
fn a_station_file(archive: &Path) -> std::path::PathBuf {
    let mut stack = vec![archive.join("stations")];
    let mut found = Vec::new();
    while let Some(dir) = stack.pop() {
        for e in std::fs::read_dir(&dir).unwrap() {
            let p = e.unwrap().path();
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|x| x == "csv") {
                found.push(p);
            }
        }
    }
    found.into_iter().min().expect("the archive has a station csv file")
}

#[test]
fn curation_makes_a_descriptor_once_per_key_it_rewrites_and_a_rerun_none() {
    if !metamess_telemetry::enabled() {
        return; // METAMESS_TELEMETRY=0: no counter moves
    }
    let root = std::env::temp_dir().join(format!("mm-descriptor-copies-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let archive = root.join("archive");
    generate(&ArchiveSpec::tiny()).write_to(&archive).unwrap();
    let mut ctx =
        PipelineContext::new(ArchiveInput::Dir(archive.clone()), Vocabulary::observatory_default());
    let curator = CurationLoop::new(CuratorPolicy::default());

    let tally = Arc::new(Mutex::new(Tally::default()));
    let before = copies();
    let (history, _) = curator.run_to_fixpoint(&mut tallied(&tally), &mut ctx).unwrap();
    let cold = copies() - before;
    let keys = tally.lock().unwrap().rewritten;
    let variables = ctx.catalog.variable_count() as u64;
    assert!(variables > 0 && cold > 0, "{cold} descriptors over {variables} variables");
    assert!(
        cold <= keys,
        "a cold wrangle of {} runs made {cold} descriptors for {keys} rewritten keys",
        history.len() + 1
    );
    println!(
        "a cold wrangle made {cold} descriptors for {keys} rewritten keys, {variables} variables"
    );

    // every stage runs again, over what it wrangled: nothing moves
    ctx.ledger = RunLedger::new();
    let before = copies();
    let report = Pipeline::standard().run(&mut ctx).unwrap();
    assert_eq!(report.stages.len(), 9, "{}", report.render());
    assert_eq!(copies() - before, 0, "a re-run made descriptors");

    // a watcher's edit cycle: an appended row re-harvests one dataset, and
    // only its keys are rewritten, at most once by each stage that writes
    // descriptors (known and discovered names, units, hierarchies)
    let mut w = Watcher::new(&archive, root.join("store"), WatchOptions::default()).unwrap();
    assert!(w.run_cycle().unwrap().changed);
    let path = a_station_file(&archive);
    let text = std::fs::read_to_string(&path).unwrap();
    let last = text.lines().rev().find(|l| !l.trim().is_empty()).unwrap().to_string();
    std::fs::write(&path, format!("{text}{last}\n")).unwrap();
    let before = copies();
    let edit = w.run_cycle().unwrap();
    let made = copies() - before;
    assert!(edit.changed && edit.mutations > 0, "{edit:?}");
    let rel = path.strip_prefix(&archive).unwrap().to_str().unwrap();
    let edited = w.context().catalog.get_by_path(rel).expect("the edited dataset");
    // a harvested key: what curation leaves as harvested, and the context
    let harvested: HashSet<_> =
        edited.variables.iter().map(|v| (&v.name, &v.unit, &v.context)).collect();
    println!(
        "an edit cycle of {} curation iterations made {made} descriptors for {} keys of {} \
         variables",
        edit.history.len(),
        harvested.len(),
        edited.variables.len()
    );
    assert!(made <= 4 * harvested.len() as u64, "an edit cycle made {made} descriptors");
    assert!(made < cold, "an edit cycle made {made} descriptors, a cold wrangle {cold}");
    drop(w);
    let _ = std::fs::remove_dir_all(&root);
}
