//! **E5 — Figure: The Metadata Wrangling Process.**
//!
//! Reproduces the poster's two-panel process figure as measurements:
//!
//! * left panel — the chain *without* discovery (known transformations
//!   only), showing how much mess the translation table leaves;
//! * right panel — the full chain with discover/perform-discovered,
//!   showing "the mess that's left" shrinking stage by stage;
//! * plus the rerun economics of curatorial activity 2 (full scan vs
//!   incremental rescan).
//!
//! ```text
//! cargo run --release -p metamess-bench --bin exp5_wrangling_process
//! ```

use metamess_archive::{generate, ArchiveSpec};
use metamess_bench::{domain_knowledge, pct};
use metamess_pipeline::{
    ArchiveInput, CurationLoop, CuratorPolicy, Pipeline, PipelineContext, RunReport,
};
use metamess_vocab::Vocabulary;
use std::time::Instant;

fn fresh_ctx(spec: &ArchiveSpec) -> PipelineContext {
    let archive = generate(spec);
    PipelineContext::new(ArchiveInput::Memory(archive.files), Vocabulary::observatory_default())
}

fn main() {
    let spec = ArchiveSpec::default();
    println!("E5: the metadata wrangling process, stage by stage\n");

    // Left panel: known transformations only.
    let mut ctx = fresh_ctx(&spec);
    let report = Pipeline::known_only().run(&mut ctx).expect("runs");
    println!("panel 1 — known transformations only:");
    print!("{}", report.render());
    let known_only_resolution = report.stages.last().unwrap().resolution_after;
    println!(
        "the mess that's left after known transformations: {}\n",
        pct(1.0 - known_only_resolution)
    );

    // Right panel: the full chain with discovery, curated to fixpoint.
    let mut ctx = fresh_ctx(&spec);
    let mut pipeline = Pipeline::standard();
    let policy = CuratorPolicy { manual_synonyms: domain_knowledge(), ..Default::default() };
    let curator = CurationLoop::new(policy);
    let (history, last) = curator.run_to_fixpoint(&mut pipeline, &mut ctx).expect("converges");
    println!("panel 2 — full chain with discovered transformations (final run):");
    print!("{}", last.render());
    println!("\nmess remaining per curation iteration:");
    println!("{:>6} {:>12} {:>12}", "iter", "unresolved", "mess left");
    for s in &history {
        println!(
            "{:>6} {:>12} {:>12}",
            s.iteration,
            s.unresolved_after,
            pct(1.0 - s.resolution_after)
        );
    }
    let full_resolution = history.last().unwrap().resolution_after;
    println!(
        "\nknown-only resolved {} vs full process {} — discovery + curation closed {} of the gap",
        pct(known_only_resolution),
        pct(full_resolution),
        pct((full_resolution - known_only_resolution) / (1.0 - known_only_resolution).max(1e-9))
    );

    // Rerun economics: full first run vs no-change rerun vs one-file change.
    println!("\nrerun cost (curatorial activity 2), on-disk archive:");
    let dir = std::env::temp_dir().join(format!("metamess-exp5-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let archive = generate(&spec);
    archive.write_to(&dir).expect("write archive");
    let mut ctx =
        PipelineContext::new(ArchiveInput::Dir(dir.clone()), Vocabulary::observatory_default());
    let mut pipeline = Pipeline::standard();
    let t0 = Instant::now();
    let r1 = pipeline.run(&mut ctx).expect("first run");
    let first = t0.elapsed();
    let t1 = Instant::now();
    let r2 = pipeline.run(&mut ctx).expect("rerun");
    let rerun = t1.elapsed();
    // touch one file
    let victim = &archive.truth.datasets[0].path;
    let full = dir.join(victim);
    let mut content = std::fs::read_to_string(&full).unwrap();
    content.push('\n');
    std::fs::write(&full, content).unwrap();
    let t2 = Instant::now();
    let r3 = pipeline.run(&mut ctx).expect("incremental");
    let incr = t2.elapsed();
    println!(
        "  first run:        {:>10.2?}  ({} files parsed)",
        first,
        r1.stage("scan-archive").unwrap().changed
    );
    println!(
        "  no-change rerun:  {:>10.2?}  ({} files parsed)",
        rerun,
        r2.stage("scan-archive").unwrap().changed
    );
    println!(
        "  one-file change:  {:>10.2?}  ({} files parsed)",
        incr,
        r3.stage("scan-archive").unwrap().changed
    );

    // Stage-level incrementality: the engine skips stages whose declared
    // inputs are unchanged, so the no-change rerun executes nothing and the
    // one-file edit re-runs only the dirty suffix.
    fn cell(r: &RunReport, name: &str) -> String {
        match r.stage(name) {
            Some(s) if s.is_skipped() => "skip".to_string(),
            Some(s) => s.micros.to_string(),
            None => "?".to_string(),
        }
    }
    println!("\nper-stage cold vs incremental (micros; 'skip' = inputs unchanged):");
    println!("  {:<34} {:>10} {:>12} {:>12}", "stage", "cold", "no-change", "one-file");
    for s in &r1.stages {
        println!(
            "  {:<34} {:>10} {:>12} {:>12}",
            s.component,
            cell(&r1, &s.component),
            cell(&r2, &s.component),
            cell(&r3, &s.component)
        );
    }
    println!(
        "  stages executed: cold {}/{}, no-change rerun {}/{}, one-file edit {}/{}",
        r1.executed_count(),
        r1.stages.len(),
        r2.executed_count(),
        r2.stages.len(),
        r3.executed_count(),
        r3.stages.len()
    );
}
