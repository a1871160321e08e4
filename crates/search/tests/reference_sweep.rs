//! Differential sweep, direct backend: for seeded catalogs and queries the
//! in-process coordinator returns the naive reference search's answer, bit
//! for bit, at shard counts {1, 2, 4, 8} × {hash, spatial, temporal}, with
//! the indexes on and off — including layouts with more shards than
//! datasets (empty shards), limits beyond the catalog size and the empty
//! query. `common` says which cases are drawn and why.

mod common;

use common::{assert_bit_equal, catalog, queries, reference_search, Rng};
use metamess_search::{Partitioner, SearchEngine, ShardSpec};
use metamess_vocab::Vocabulary;

#[test]
fn every_local_layout_agrees_with_the_reference() {
    let vocab = Vocabulary::observatory_default();
    // searches answered from candidates alone, and with a shard pruned
    let (mut indexed, mut pruned) = (0, 0);
    for seed in 0..60u64 {
        let mut rng = Rng(seed);
        let c = catalog(&mut rng);
        let qs = queries(&mut rng, c.len());
        let expected: Vec<_> = qs.iter().map(|q| reference_search(&c, &vocab, q)).collect();
        for partitioner in [Partitioner::Hash, Partitioner::Spatial, Partitioner::Temporal] {
            for shards in [1usize, 2, 4, 8] {
                let spec = ShardSpec::new(shards, partitioner);
                let mut engine = SearchEngine::build_sharded(&c, vocab.clone(), spec);
                for use_indexes in [true, false] {
                    engine.use_indexes = use_indexes;
                    for (q, want) in qs.iter().zip(&expected) {
                        let what = format!(
                            "seed {seed}, {shards} {partitioner:?} shards, indexes {use_indexes}, {q:?}"
                        );
                        // every (engine, mode, query) is new to the cache
                        let (hits, explain) = engine.search_explain(q);
                        assert!(!explain.cache_hit, "{what}");
                        assert_bit_equal(&hits, want, &what);
                        indexed += usize::from(!explain.full_scan);
                        pruned += usize::from(explain.shards_pruned > 0);
                    }
                }
            }
        }
    }
    assert!(
        indexed > 500 && pruned > 20,
        "the sweep left the index path idle: {indexed}, {pruned}"
    );
}
