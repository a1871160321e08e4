//! Property tests: index-accelerated search agrees with the linear scan,
//! scores stay bounded, and the query parser never panics.

use metamess_core::catalog::Catalog;
use metamess_core::feature::{DatasetFeature, NameResolution, VariableFeature};
use metamess_core::geo::{GeoBBox, GeoPoint};
use metamess_core::time::{TimeInterval, Timestamp};
use metamess_search::{Query, SearchEngine};
use metamess_vocab::Vocabulary;
use proptest::prelude::*;

const VAR_POOL: &[&str] =
    &["water_temperature", "salinity", "dissolved_oxygen", "turbidity", "nitrate", "wind_speed"];

fn arb_dataset(ix: usize) -> impl Strategy<Value = DatasetFeature> {
    (
        (45.0f64..47.0, -125.0f64..-122.0),
        (0u32..300, 1u32..200),
        prop::collection::btree_set(0usize..VAR_POOL.len(), 1..4),
        (0.0f64..20.0, 1.0f64..15.0),
    )
        .prop_map(move |((lat, lon), (day0, days), vars, (lo, span))| {
            let mut d = DatasetFeature::new(format!("ds/{ix}.csv"));
            d.bbox = Some(GeoBBox::point(GeoPoint::new(lat, lon).unwrap()));
            let start = Timestamp::from_ymd(2010, 1, 1).unwrap().plus_days(day0 as i64);
            d.time = Some(TimeInterval::new(start, start.plus_days(days as i64)));
            for v in vars {
                let mut vf = VariableFeature::new(VAR_POOL[v]);
                vf.resolve(VAR_POOL[v], NameResolution::AlreadyCanonical);
                vf.summary.observe(lo);
                vf.summary.observe(lo + span);
                d.variables.push(vf);
            }
            d
        })
}

fn arb_catalog() -> impl Strategy<Value = Catalog> {
    prop::collection::vec(Just(()), 1..40).prop_flat_map(|slots| {
        let n = slots.len();
        let strategies: Vec<_> = (0..n).map(arb_dataset).collect();
        strategies.prop_map(|datasets| {
            let mut c = Catalog::new();
            for d in datasets {
                c.put(d);
            }
            c
        })
    })
}

fn arb_query() -> impl Strategy<Value = Query> {
    (
        prop::option::of((45.0f64..47.0, -125.0f64..-122.0, 5.0f64..100.0)),
        prop::option::of((0u32..300, 1u32..120)),
        prop::collection::vec(
            (0usize..VAR_POOL.len(), prop::option::of((0.0f64..15.0, 0.1f64..10.0))),
            0..3,
        ),
        1usize..8,
    )
        .prop_map(|(spatial, time, vars, limit)| {
            let mut q = Query::new().limit(limit);
            if let Some((lat, lon, r)) = spatial {
                q = q.near(lat, lon, r).unwrap();
            }
            if let Some((day0, days)) = time {
                let start = Timestamp::from_ymd(2010, 1, 1).unwrap().plus_days(day0 as i64);
                q = q.between(start, start.plus_days(days as i64));
            }
            for (v, range) in vars {
                q = q.with_variable(VAR_POOL[v], range.map(|(a, b)| (a, a + b)));
            }
            q
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn indexed_search_agrees_with_linear(catalog in arb_catalog(), query in arb_query()) {
        let mut engine = SearchEngine::build(&catalog, Vocabulary::observatory_default());
        engine.use_indexes = true;
        let indexed = engine.search(&query);
        engine.use_indexes = false;
        let linear = engine.search(&query);
        // same top-k paths and scores (candidate fallback guarantees this
        // for catalogs of this size)
        let ip: Vec<&str> = indexed.iter().map(|h| h.path.as_str()).collect();
        let lp: Vec<&str> = linear.iter().map(|h| h.path.as_str()).collect();
        prop_assert_eq!(ip, lp);
        for (a, b) in indexed.iter().zip(linear.iter()) {
            prop_assert!((a.score - b.score).abs() < 1e-12);
        }
    }

    #[test]
    fn scores_bounded_and_sorted(catalog in arb_catalog(), query in arb_query()) {
        let engine = SearchEngine::build(&catalog, Vocabulary::observatory_default());
        let hits = engine.search(&query);
        prop_assert!(hits.len() <= query.limit);
        for w in hits.windows(2) {
            prop_assert!(w[0].score >= w[1].score);
        }
        for h in hits.iter() {
            prop_assert!((0.0..=1.0).contains(&h.score), "{}", h.score);
            for s in [h.breakdown.space, h.breakdown.time, h.breakdown.variables]
                .into_iter()
                .flatten()
            {
                prop_assert!((0.0..=1.0).contains(&s), "{s}");
            }
        }
    }

    #[test]
    fn cached_result_equals_fresh_rescore(catalog in arb_catalog(), query in arb_query()) {
        let engine = SearchEngine::build(&catalog, Vocabulary::observatory_default());
        let first = engine.search(&query); // miss: fills the cache
        let cached = engine.search(&query); // hit: served from the cache
        let stats = engine.cache_stats();
        prop_assert_eq!(stats.misses, 1);
        prop_assert!(stats.hits >= 1);
        prop_assert_eq!(&cached, &first);
        // a cache hit must equal a fresh rescore, bit for bit
        let fresh = engine.search_uncached(&query);
        prop_assert_eq!(&cached[..], &fresh[..]);
    }

    #[test]
    fn query_parser_never_panics(text in "\\PC{0,80}") {
        let _ = Query::parse(&text);
    }

    #[test]
    fn parsed_queries_round_trip_fields(
        lat in -89.0f64..89.0, lon in -179.0f64..179.0, r in 1.0f64..500.0) {
        let text = format!("near {lat:.4},{lon:.4} within {r:.1}km");
        let q = Query::parse(&text).unwrap();
        match q.spatial.unwrap() {
            metamess_search::SpatialTerm::Near { point, radius_km } => {
                prop_assert!((point.lat - lat).abs() < 1e-3);
                prop_assert!((point.lon - lon).abs() < 1e-3);
                prop_assert!((radius_km - r).abs() < 0.2);
            }
            other => prop_assert!(false, "{other:?}"),
        }
    }
}
