//! End-to-end integration: archive → wrangling pipeline → curation loop →
//! published catalog → ranked search, scored against the generator's ground
//! truth.

use metamess::prelude::*;
use metamess::search::render_summary;

/// Curator domain knowledge (activity 3): the ad-hoc spellings a human
/// curator would enter into the synonym table by hand.
fn domain_knowledge() -> Vec<(String, String)> {
    [
        "air_temperature",
        "water_temperature",
        "sea_surface_temperature",
        "salinity",
        "specific_conductivity",
        "dissolved_oxygen",
        "turbidity",
        "chlorophyll_fluorescence",
        "wind_speed",
        "wind_direction",
        "air_pressure",
        "relative_humidity",
        "precipitation",
        "solar_radiation",
        "depth",
        "nitrate",
        "phosphate",
        "ph",
    ]
    .iter()
    .flat_map(|c| {
        metamess::archive::adhoc_synonyms(c).iter().map(move |v| (c.to_string(), v.to_string()))
    })
    .collect()
}

fn wrangled() -> (PipelineContext, GroundTruth) {
    let archive = metamess::archive::generate(&ArchiveSpec::default());
    let truth = archive.truth.clone();
    let mut ctx = PipelineContext::new(
        ArchiveInput::Memory(archive.files),
        Vocabulary::observatory_default(),
    );
    let mut pipeline = Pipeline::standard();
    let policy = CuratorPolicy { manual_synonyms: domain_knowledge(), ..Default::default() };
    let curator = CurationLoop::new(policy);
    curator.run_to_fixpoint(&mut pipeline, &mut ctx).expect("curation converges");
    (ctx, truth)
}

#[test]
fn pipeline_publishes_every_wellformed_dataset() {
    let (ctx, truth) = wrangled();
    assert_eq!(ctx.catalog.len(), truth.datasets.len());
    for t in &truth.datasets {
        assert!(
            ctx.catalog.get_by_path(&t.path).is_some(),
            "{} missing from published catalog",
            t.path
        );
    }
}

#[test]
fn search_finds_ground_truth_relevant_datasets() {
    let (ctx, truth) = wrangled();
    let engine = SearchEngine::build(&ctx.catalog, ctx.vocab.clone());

    // Query: salinity near the estuary during June 2010. Relevance oracle
    // from the truth manifest.
    let region = metamess::core::GeoBBox::new(45.9, 46.5, -124.3, -123.0).unwrap();
    let window = TimeInterval::new(
        Timestamp::from_ymd(2010, 6, 1).unwrap(),
        Timestamp::from_ymd(2010, 6, 30).unwrap(),
    );
    let relevant: Vec<&str> = truth
        .relevant(Some(&region), Some(&window), Some("salinity"))
        .map(|d| d.path.as_str())
        .collect();
    assert!(!relevant.is_empty(), "oracle found no relevant datasets");

    let q =
        Query::parse("in 45.9,-124.3..46.5,-123.0 during 2010-06 with salinity limit 10").unwrap();
    let hits = engine.search(&q);
    let k = relevant.len().min(5);
    let top: Vec<&str> = hits.iter().take(k).map(|h| h.path.as_str()).collect();
    let precision = top.iter().filter(|p| relevant.contains(p)).count() as f64 / k as f64;
    assert!(precision >= 0.8, "precision@{k} = {precision}; top = {top:?}");
}

#[test]
fn messy_names_are_searchable_after_wrangling() {
    let (ctx, truth) = wrangled();
    let engine = SearchEngine::build(&ctx.catalog, ctx.vocab.clone());
    // Find a dataset whose salinity column was injected with mess and got
    // resolved; it must be reachable through the canonical name.
    let messy: Vec<&metamess::archive::TrueDataset> = truth
        .datasets
        .iter()
        .filter(|d| {
            d.variables.iter().any(|v| {
                v.canonical == "salinity"
                    && v.harvested != "salinity"
                    && matches!(v.category, MessCategory::Misspelling | MessCategory::Synonym)
            })
        })
        .collect();
    if messy.is_empty() {
        return; // seed produced no messy salinity; other tests cover this
    }
    let q = Query::parse("with salinity limit 100").unwrap();
    let hits = engine.search(&q);
    for m in messy {
        let hit = hits.iter().find(|h| h.path == m.path).unwrap_or_else(|| {
            panic!("{} with messy salinity not found via canonical term", m.path)
        });
        assert!(hit.breakdown.variables.unwrap_or(0.0) > 0.5, "{}", m.path);
    }
}

#[test]
fn qa_variables_stay_out_of_search_but_in_summaries() {
    let (ctx, truth) = wrangled();
    let engine = SearchEngine::build(&ctx.catalog, ctx.vocab.clone());
    let qa_dataset = truth
        .datasets
        .iter()
        .find(|d| d.variables.iter().any(|v| v.qa))
        .expect("archive has QA columns");
    let qa_name = &qa_dataset.variables.iter().find(|v| v.qa).unwrap().harvested;

    // Search for the QA column name finds nothing variable-wise…
    let q = Query::new().with_variable(qa_name.clone(), None).limit(5);
    let hits = engine.search(&q);
    if let Some(best) = hits.first() {
        assert_eq!(best.breakdown.variables.unwrap_or(0.0), 0.0, "QA leaked into search");
    }
    // …but the dataset summary page still shows it.
    let d = ctx.catalog.get_by_path(&qa_dataset.path).unwrap();
    let summary = render_summary(d);
    assert!(summary.contains(qa_name.as_str()), "summary lacks {qa_name}");
}

#[test]
fn published_catalog_survives_durable_storage() {
    let (ctx, _) = wrangled();
    let dir = std::env::temp_dir().join(format!("metamess-e2e-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let mut store = DurableCatalog::open(&dir, StoreOptions::default()).unwrap();
        store.replace_with(&ctx.catalog).unwrap();
    }
    let stored = DurableCatalog::open(&dir, StoreOptions::default()).unwrap().catalog();
    assert_eq!(stored.len(), ctx.catalog.len());
    // spot-check a full feature round trip
    let original = ctx.catalog.iter().next().unwrap();
    let loaded = stored.get(original.id).unwrap();
    assert_eq!(loaded, original);
}

#[test]
fn search_results_and_summaries_render() {
    let (ctx, _) = wrangled();
    let engine = SearchEngine::build(&ctx.catalog, ctx.vocab.clone());
    let q = Query::parse(
        "near 45.5,-124.4 within 50km from 2010-04-01 to 2010-09-30 \
         with temperature between 5 and 10 limit 5",
    )
    .unwrap();
    let hits = engine.search(&q);
    assert!(!hits.is_empty());
    let rendered = metamess::search::render_results(&hits);
    assert!(rendered.contains("1. ["));
    let d = engine.dataset(hits[0].id).unwrap();
    let summary = render_summary(&d);
    assert!(summary.contains("variables:"));
    assert!(summary.contains(&d.path));
}
