//! Property tests for the sharded engine: for random catalogs and queries,
//! sharded scatter-gather search is **bit-identical** to the unsharded
//! engine across shard counts {1, 2, 4, 8}, every partitioner (including
//! the pruning-enabled spatial/temporal layouts), empty shards (more
//! shards than datasets), datasets without bboxes or time intervals, and
//! both index modes.

use metamess_core::catalog::Catalog;
use metamess_core::feature::{DatasetFeature, NameResolution, VariableFeature};
use metamess_core::geo::{GeoBBox, GeoPoint};
use metamess_core::time::{TimeInterval, Timestamp};
use metamess_search::{Partitioner, Query, SearchEngine, ShardSpec};
use metamess_vocab::Vocabulary;
use proptest::prelude::*;

const VAR_POOL: &[&str] =
    &["water_temperature", "salinity", "dissolved_oxygen", "turbidity", "nitrate", "wind_speed"];

/// Datasets spread over two distant clusters (so spatial/temporal bounds
/// actually separate), with optional extents: a dataset may lack a bbox, a
/// time interval, or both — those must still shard and score correctly.
fn arb_dataset(ix: usize) -> impl Strategy<Value = DatasetFeature> {
    (
        prop::option::of((0usize..2, -0.5f64..0.5, -0.5f64..0.5)),
        prop::option::of((0u32..300, 1u32..200)),
        prop::collection::btree_set(0usize..VAR_POOL.len(), 0..3),
        (0.0f64..20.0, 1.0f64..15.0),
    )
        .prop_map(move |(cluster, time, vars, (lo, span))| {
            let mut d = DatasetFeature::new(format!("ds/{ix}.csv"));
            if let Some((c, dlat, dlon)) = cluster {
                let (lat, lon) = if c == 0 { (46.0, -124.0) } else { (-44.0, 150.0) };
                d.bbox = Some(GeoBBox::point(GeoPoint::new(lat + dlat, lon + dlon).unwrap()));
            }
            if let Some((day0, days)) = time {
                let start = Timestamp::from_ymd(2010, 1, 1).unwrap().plus_days(day0 as i64);
                d.time = Some(TimeInterval::new(start, start.plus_days(days as i64)));
            }
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
        prop::option::of((prop::bool::ANY, 5.0f64..100.0)),
        prop::option::of((0u32..300, 1u32..120)),
        prop::collection::vec(
            (0usize..VAR_POOL.len(), prop::option::of((0.0f64..15.0, 0.1f64..10.0))),
            0..3,
        ),
        1usize..8,
    )
        .prop_map(|(spatial, time, vars, limit)| {
            let mut q = Query::new().limit(limit);
            if let Some((north, r)) = spatial {
                let (lat, lon) = if north { (46.0, -124.0) } else { (-44.0, 150.0) };
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

fn arb_partitioner() -> impl Strategy<Value = Partitioner> {
    prop::sample::select(vec![Partitioner::Hash, Partitioner::Spatial, Partitioner::Temporal])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sharded_search_is_bit_identical_to_unsharded(
        catalog in arb_catalog(),
        query in arb_query(),
        partitioner in arb_partitioner(),
        full_scan in proptest::bool::ANY,
    ) {
        let vocab = Vocabulary::observatory_default();
        let mut reference = SearchEngine::build(&catalog, vocab.clone());
        reference.use_indexes = !full_scan;
        let expected = reference.search_uncached(&query);
        // shard counts beyond the catalog size leave shards empty — those
        // must contribute nothing, not break the merge
        for shards in [1usize, 2, 4, 8] {
            let mut engine = SearchEngine::build_sharded(
                &catalog,
                vocab.clone(),
                ShardSpec::new(shards, partitioner),
            );
            engine.use_indexes = !full_scan;
            let got = engine.search_uncached(&query);
            prop_assert_eq!(&got, &expected, "partitioner={:?} shards={}", partitioner, shards);
        }
    }

    #[test]
    fn sharded_cached_path_equals_uncached(
        catalog in arb_catalog(),
        query in arb_query(),
        partitioner in arb_partitioner(),
    ) {
        let engine = SearchEngine::build_sharded(
            &catalog,
            Vocabulary::observatory_default(),
            ShardSpec::new(4, partitioner),
        );
        let first = engine.search(&query); // miss: fills the cache
        let cached = engine.search(&query); // hit: shares the allocation
        prop_assert_eq!(&cached, &first);
        prop_assert_eq!(&cached[..], &engine.search_uncached(&query)[..]);
    }

    #[test]
    fn explain_shard_accounting_is_consistent(
        catalog in arb_catalog(),
        query in arb_query(),
        partitioner in arb_partitioner(),
        shards in 1usize..9,
    ) {
        let engine = SearchEngine::build_sharded(
            &catalog,
            Vocabulary::observatory_default(),
            ShardSpec::new(shards, partitioner),
        );
        let (_, ex) = engine.search_explain(&query);
        prop_assert_eq!(ex.shards, shards);
        let occupied = engine.shards().iter().filter(|s| !s.is_empty()).count();
        prop_assert_eq!(ex.shards_visited + ex.shards_pruned, occupied,
            "every non-empty shard is either visited or pruned");
        if ex.full_scan {
            prop_assert_eq!(ex.shards_pruned, 0, "full scans visit every occupied shard");
        }
        prop_assert!(ex.pruned_datasets <= engine.len());
        let shard_sum: usize = engine.shards().iter().map(|s| s.len()).sum();
        prop_assert_eq!(shard_sum, engine.len(), "partitioning covers every dataset once");
    }
}
