//! Seeded sweeps over the sharded engine: for random catalogs and queries,
//! sharded scatter-gather search is **bit-identical** to the unsharded
//! engine across hashed shard counts {1, 2, 4, 8}, empty shards (more
//! shards than datasets), datasets without bboxes or time intervals, and
//! both index modes. Each property runs on `CASES` generators; a failure
//! names its seed.

mod common;

use common::{any_catalog, any_query, sweep};
use metamess_search::{Partitioner, SearchEngine, ShardSpec};
use metamess_vocab::Vocabulary;

const CASES: u64 = 48;

#[test]
fn sharded_search_is_bit_identical_to_unsharded() {
    let vocab = Vocabulary::observatory_default();
    sweep(CASES, |rng| {
        let (catalog, query) = (any_catalog(rng), any_query(rng));
        for use_indexes in [true, false] {
            let mut reference = SearchEngine::build(&catalog, vocab.clone());
            reference.use_indexes = use_indexes;
            let expected = reference.search_uncached(&query);
            // shard counts beyond the catalog size leave shards empty —
            // those must contribute nothing, not break the merge
            for shards in [1usize, 2, 4, 8] {
                let spec = ShardSpec::new(shards, Partitioner::Hash);
                let mut engine = SearchEngine::build_sharded(&catalog, vocab.clone(), spec);
                engine.use_indexes = use_indexes;
                let got = engine.search_uncached(&query);
                assert_eq!(got, expected, "shards={shards} indexes={use_indexes}");
            }
        }
    });
}

#[test]
fn sharded_cached_path_equals_uncached() {
    let vocab = Vocabulary::observatory_default();
    sweep(CASES, |rng| {
        let (catalog, query) = (any_catalog(rng), any_query(rng));
        let spec = ShardSpec::new(4, Partitioner::Hash);
        let engine = SearchEngine::build_sharded(&catalog, vocab.clone(), spec);
        let first = engine.search(&query); // miss: fills the cache
        let cached = engine.search(&query); // hit: shares the allocation
        assert_eq!(cached, first);
        assert_eq!(cached[..], engine.search_uncached(&query)[..]);
    });
}

#[test]
fn explain_shard_accounting_is_consistent() {
    let vocab = Vocabulary::observatory_default();
    sweep(CASES, |rng| {
        let (catalog, query) = (any_catalog(rng), any_query(rng));
        let shards = rng.size(1, 9);
        let spec = ShardSpec::new(shards, Partitioner::Hash);
        let engine = SearchEngine::build_sharded(&catalog, vocab.clone(), spec);
        let (_, ex) = engine.search_explain(&query);
        assert_eq!(ex.shards, shards);
        let occupied = engine.shards().iter().filter(|s| !s.is_empty()).count();
        assert_eq!(
            ex.shards_visited + ex.shards_pruned,
            occupied,
            "every non-empty shard is either visited or pruned"
        );
        if ex.full_scan {
            assert_eq!(ex.shards_pruned, 0, "full scans visit every occupied shard");
        }
        assert!(ex.pruned_datasets <= engine.len());
        let shard_sum: usize = engine.shards().iter().map(|s| s.len()).sum();
        assert_eq!(shard_sum, engine.len(), "partitioning covers every dataset once");
    });
}
