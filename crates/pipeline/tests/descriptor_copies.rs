//! Counted work: how many variable descriptors the stages copy
//! (`metamess_core_descriptor_copies_total`). The working catalog shares
//! each distinct descriptor, so a stage's write through a variable copies
//! it first; a write happens only where a value changes, and a pipeline
//! run or a curation loop ends with the copies shared again. A cold
//! wrangle copies at most one descriptor per variable, and stages re-run
//! over an unchanged archive copy none.
//!
//! The counter lives in the global registry, so this file is its own test
//! binary and holds one test: nothing else moves the count between the
//! reads.

use metamess_archive::{generate, ArchiveSpec};
use metamess_core::store::RunLedger;
use metamess_pipeline::{ArchiveInput, CurationLoop, CuratorPolicy, Pipeline, PipelineContext};
use metamess_vocab::Vocabulary;

fn copies() -> u64 {
    metamess_telemetry::global().counter("metamess_core_descriptor_copies_total").get()
}

#[test]
fn a_cold_wrangle_copies_a_descriptor_at_most_once_per_variable_and_a_rerun_none() {
    if !metamess_telemetry::enabled() {
        return; // METAMESS_TELEMETRY=0: no counter moves
    }
    let root = std::env::temp_dir().join(format!("mm-descriptor-copies-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    generate(&ArchiveSpec::tiny()).write_to(&root).unwrap();
    let mut ctx =
        PipelineContext::new(ArchiveInput::Dir(root.clone()), Vocabulary::observatory_default());
    let curator = CurationLoop::new(CuratorPolicy::default());

    let before = copies();
    let (history, _) = curator.run_to_fixpoint(&mut Pipeline::standard(), &mut ctx).unwrap();
    let cold = copies() - before;
    let variables = ctx.catalog.variable_count() as u64;
    assert!(variables > 0 && cold > 0, "{cold} copies over {variables} variables");
    assert!(
        cold <= variables,
        "a cold wrangle of {} runs copied {cold} descriptors for {variables} variables",
        history.len() + 1
    );
    println!("a cold wrangle copied {cold} descriptors for {variables} variables");

    // every stage runs again, over what it wrangled: nothing moves
    ctx.ledger = RunLedger::new();
    let before = copies();
    let report = Pipeline::standard().run(&mut ctx).unwrap();
    assert_eq!(report.skipped_count(), 0, "{}", report.render());
    assert_eq!(copies() - before, 0, "a re-run copied descriptors");
    let _ = std::fs::remove_dir_all(&root);
}
