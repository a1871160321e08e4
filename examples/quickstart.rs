//! Quickstart: generate a messy archive, wrangle it, search it.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use metamess::prelude::*;
use metamess::search::render_results;

fn main() {
    // 1. A synthetic observatory archive (stands in for the CMOP archive):
    //    stations, cruises and gliders writing CSV/CDL/OBSLOG files with
    //    injected naming mess.
    let spec = ArchiveSpec::default();
    let archive = metamess::archive::generate(&spec);
    println!(
        "generated archive: {} files, {} datasets, {:.1} KiB",
        archive.files.len(),
        archive.truth.datasets.len(),
        archive.total_bytes() as f64 / 1024.0
    );

    // 2. Wrangle: compose the standard chain and let the scripted curator
    //    iterate run → review → improve → rerun to a fixpoint.
    let mut ctx = PipelineContext::new(
        ArchiveInput::Memory(archive.files),
        Vocabulary::observatory_default(),
    );
    let mut pipeline = Pipeline::standard();
    let curator = CurationLoop::new(CuratorPolicy::default());
    let (history, last_run) =
        curator.run_to_fixpoint(&mut pipeline, &mut ctx).expect("wrangling succeeds");

    println!("\nfinal pipeline run:");
    print!("{}", last_run.render());
    println!("curation iterations: {}", history.len());
    for step in &history {
        println!(
            "  iteration {}: {} rules accepted, {} ambiguities clarified, {:.1}% resolved",
            step.iteration,
            step.accepted,
            step.clarified,
            100.0 * step.resolution_after
        );
    }

    // 3. Search the published catalog — the poster's example information
    //    need: observations near (45.5, -124.4) in mid-2010 with
    //    temperature between 5 and 10 °C.
    let engine = SearchEngine::build(&ctx.catalog, ctx.vocab.clone());
    let query = Query::parse(
        "near 45.5,-124.4 within 50km from 2010-04-01 to 2010-09-30 \
         with temperature between 5 and 10 limit 5",
    )
    .expect("query parses");
    let hits = engine.search(&query);
    println!("\ntop results for the poster's query:");
    print!("{}", render_results(&hits));
}
