//! "Data Near Here": the poster's search-interface and dataset-summary
//! figures as a runnable scenario.
//!
//! Builds the catalog, runs several ranked searches over location, time and
//! variables, and renders the dataset summary page for the best hit.
//!
//! ```text
//! cargo run --example data_near_here
//! ```

use metamess::prelude::*;
use metamess::search::{browse_all, render_results, render_summary};

fn main() {
    let archive = metamess::archive::generate(&ArchiveSpec::default());
    let mut ctx = PipelineContext::new(
        ArchiveInput::Memory(archive.files),
        Vocabulary::observatory_default(),
    );
    let mut pipeline = Pipeline::standard();
    let curator = CurationLoop::new(CuratorPolicy::default());
    curator.run_to_fixpoint(&mut pipeline, &mut ctx).expect("wrangling succeeds");
    let engine = SearchEngine::build(&ctx.catalog, ctx.vocab.clone());
    println!("catalog: {} datasets published\n", ctx.catalog.len());

    let queries = [
        // the poster's example information need
        "near 45.5,-124.4 within 50km from 2010-04-01 to 2010-09-30 \
         with temperature between 5 and 10 limit 5",
        // estuary salinity in early summer
        "near 46.18,-123.18 within 20km during 2010-06 with salinity limit 5",
        // a broader-concept query: fluorescence matches the narrow channels
        "with fluorescence limit 5",
        // region query over the river mouth, any wind data
        "in 46.1,-124.2..46.4,-123.6 with wind_speed limit 5",
        // synonym query: 'sal' is a curated alternate of salinity
        "with sal between 20 and 35 limit 5",
    ];

    for q in queries {
        println!("query> {q}");
        let query = Query::parse(q).expect("query parses");
        let hits = engine.search(&query);
        print!("{}", render_results(&hits));
        println!();
    }

    // The dataset summary page for the top hit of the poster's query —
    // "search result leads to 'dataset summary'".
    let poster = Query::parse(
        "near 45.5,-124.4 within 50km from 2010-04-01 to 2010-09-30 \
         with temperature between 5 and 10",
    )
    .unwrap();
    let hits = engine.search(&poster);
    if let Some(best) = hits.first() {
        let dataset = engine.dataset(best.id).expect("hit resolves");
        println!("{}", render_summary(&dataset));
    }

    // Hierarchical menus: "collapse or expose as needed" — every concept
    // annotated with (datasets directly here / datasets at or below).
    println!("hierarchical browse menus:");
    for tree in browse_all(&ctx.catalog, &ctx.vocab) {
        print!("{}", tree.render());
    }
}
