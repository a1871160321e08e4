//! **E4 — Figure: Example Dataset Summary Page.**
//!
//! Renders dataset summary pages for the top search hits and verifies that
//! every field the poster's page displays — dataset info, per-variable
//! name/canonical/unit/range, QA marking, hierarchy — is populated from the
//! catalog.
//!
//! ```text
//! cargo run --release -p metamess-bench --bin exp4_dataset_summary
//! ```

use metamess_archive::ArchiveSpec;
use metamess_bench::wrangle_archive;
use metamess_search::{render_summary, Query, SearchEngine};

fn main() {
    println!("E4: dataset summary pages\n");
    let (ctx, _) = wrangle_archive(&ArchiveSpec::default());
    let engine = SearchEngine::build(&ctx.catalog, ctx.vocab.clone());
    let q = Query::parse(
        "near 45.5,-124.4 within 50km from 2010-04-01 to 2010-09-30 \
         with temperature between 5 and 10 limit 3",
    )
    .unwrap();
    let hits = engine.search(&q);
    for h in hits.iter() {
        let d = engine.dataset(h.id).expect("hit resolves");
        println!("{}", render_summary(&d));
    }

    // Field-coverage audit over the whole catalog: the poster's page shows
    // dataset & variable information from the metadata catalog — check the
    // catalog can actually populate it everywhere.
    let mut datasets = 0usize;
    let mut with_bbox = 0usize;
    let mut with_time = 0usize;
    let mut with_source = 0usize;
    let mut vars = 0usize;
    let mut vars_with_range = 0usize;
    let mut vars_with_unit = 0usize;
    let mut vars_with_canonical_unit = 0usize;
    let mut vars_with_hierarchy = 0usize;
    for d in ctx.catalog.iter() {
        datasets += 1;
        with_bbox += d.bbox.is_some() as usize;
        with_time += d.time.is_some() as usize;
        with_source += d.source.is_some() as usize;
        for v in &d.variables {
            vars += 1;
            vars_with_range += v.value_range().is_some() as usize;
            vars_with_unit += v.unit.is_some() as usize;
            vars_with_canonical_unit += v.canonical_unit.is_some() as usize;
            vars_with_hierarchy += (!v.hierarchy.is_empty()) as usize;
        }
    }
    println!("summary-page field coverage across the catalog:");
    println!("  datasets: {datasets}; with location {with_bbox}, with time {with_time}, with source {with_source}");
    println!(
        "  variables: {vars}; with value range {vars_with_range}, with unit {vars_with_unit}, \
         with canonical unit {vars_with_canonical_unit}, with hierarchy {vars_with_hierarchy}"
    );
    assert_eq!(datasets, with_bbox, "every dataset must render a location");
    assert_eq!(datasets, with_time, "every dataset must render a time range");
}
