//! Seeded sweeps over what holds of every search: scores stay bounded and
//! sorted, a cache hit equals a fresh rescore, and the query parser never
//! panics. That the indexes change no answer is the reference sweep's
//! (`reference_sweep.rs`), inside the regime where that is true. Each
//! property runs on its case count of generators; a failure names its seed.

mod common;

use common::{any_catalog, any_query, sweep};
use metamess_search::{Query, SearchEngine};
use metamess_vocab::Vocabulary;

const SEARCH_CASES: u64 = 64;
const PARSE_CASES: u64 = 256;

#[test]
fn scores_bounded_and_sorted() {
    sweep(SEARCH_CASES, |rng| {
        let (catalog, query) = (any_catalog(rng), any_query(rng));
        let engine = SearchEngine::build(&catalog, Vocabulary::observatory_default());
        let hits = engine.search(&query);
        assert!(hits.len() <= query.limit);
        for w in hits.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
        for h in hits.iter() {
            assert!((0.0..=1.0).contains(&h.score), "{}", h.score);
            for s in
                [h.breakdown.space, h.breakdown.time, h.breakdown.variables].into_iter().flatten()
            {
                assert!((0.0..=1.0).contains(&s), "{s}");
            }
        }
    });
}

#[test]
fn cached_result_equals_fresh_rescore() {
    sweep(SEARCH_CASES, |rng| {
        let (catalog, query) = (any_catalog(rng), any_query(rng));
        let engine = SearchEngine::build(&catalog, Vocabulary::observatory_default());
        let first = engine.search(&query); // miss: fills the cache
        let cached = engine.search(&query); // hit: served from the cache
        let stats = engine.cache_stats();
        assert_eq!(stats.misses, 1);
        assert!(stats.hits >= 1);
        assert_eq!(cached, first);
        // a cache hit must equal a fresh rescore, bit for bit
        assert_eq!(cached[..], engine.search_uncached(&query)[..]);
    });
}

#[test]
fn query_parser_never_panics() {
    sweep(PARSE_CASES, |rng| {
        let _ = Query::parse(&rng.text(0, 80));
    });
}

#[test]
fn parsed_queries_round_trip_fields() {
    sweep(PARSE_CASES, |rng| {
        let (lat, lon, r) =
            (rng.float(-89.0, 89.0), rng.float(-179.0, 179.0), rng.float(1.0, 500.0));
        let q = Query::parse(&format!("near {lat:.4},{lon:.4} within {r:.1}km")).unwrap();
        match q.spatial.unwrap() {
            metamess_search::SpatialTerm::Near { point, radius_km } => {
                assert!((point.lat - lat).abs() < 1e-3);
                assert!((point.lon - lon).abs() < 1e-3);
                assert!((radius_km - r).abs() < 0.2);
            }
            other => panic!("{other:?}"),
        }
    });
}
