//! Differential sweep, direct backend: for seeded catalogs and queries the
//! in-process coordinator returns the naive reference search's answer, bit
//! for bit, at hashed shard counts {1, 2, 4, 8, 32}, with the indexes on and
//! off — including layouts with more shards than
//! datasets (empty shards), limits beyond the catalog size and the empty
//! query. `common` says which cases are drawn and why.
//!
//! Another sweep over the same cases pins down who holds the rows:
//! standalone shards cover the catalog exactly once, whether they encode
//! their members from a catalog or keep them from the rows a store read
//! returns. What a serving delta shares with the epoch before it is
//! `crates/server/tests/ownership.rs`'s to check.
//!
//! The last sweep holds browse menus to their oracle: an engine's menus,
//! however sharded, before and after a delta, count what
//! `reference_browse` counts.

mod common;

use common::{
    any_catalog, assert_bit_equal, browse_vocabulary, catalog, delta, queries, reference_browse,
    reference_search, respell, sole_holders, Rng,
};
use metamess_core::store::Image;
use metamess_search::fanout::{build_shard, build_shard_from};
use metamess_search::{browse_all, Partitioner, SearchEngine, ShardEngine, ShardSpec};
use metamess_vocab::Vocabulary;
use std::collections::BTreeSet;
use std::sync::Arc;

const SHARD_COUNTS: [usize; 5] = [1, 2, 4, 8, 32];

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
        for shards in SHARD_COUNTS {
            let spec = ShardSpec::new(shards, Partitioner::Hash);
            let mut engine = SearchEngine::build_sharded(&c, vocab.clone(), spec);
            for use_indexes in [true, false] {
                engine.use_indexes = use_indexes;
                for (q, want) in qs.iter().zip(&expected) {
                    let what =
                        format!("seed {seed}, {shards} shards, indexes {use_indexes}, {q:?}");
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
    // the hash layout's share of the cases: 505 indexed, 28 with a shard
    // pruned (404 and 8 before the 32-shard layout, whose shards hold a
    // dataset or two of a drawn catalog and often no candidate)
    assert!(
        indexed > 450 && pruned > 20,
        "the sweep left the index path idle: {indexed}, {pruned}"
    );
}

#[test]
fn standalone_shards_cover_the_catalog_exactly_once() {
    let vocab = Vocabulary::observatory_default();
    for seed in 0..40u64 {
        let c = catalog(&mut Rng(seed));
        // 5: a count that is not a power of two
        for shards in [1usize, 2, 5, 8] {
            let spec = ShardSpec::new(shards, Partitioner::Hash);
            let what = format!("seed {seed}, {shards} shards");
            let whole = SearchEngine::build_sharded(&c, vocab.clone(), spec);
            let image = Arc::new(Image::encode(&c.iter().collect::<Vec<_>>()));
            let mut seen = BTreeSet::new();
            for k in 0..shards {
                let encoded = build_shard(&c, &vocab, spec, k);
                let kept = build_shard_from(image.rows().collect(), &vocab, spec, k);
                let paths = |s: &ShardEngine| -> Vec<String> {
                    (0..s.len()).map(|l| s.path(l).to_string()).collect()
                };
                assert_eq!(paths(&encoded), paths(&whole.shards()[k]), "{what}, shard {k}");
                assert_eq!(paths(&kept), paths(&encoded), "{what}, shard {k}");
                assert!(sole_holders(encoded.rows().iter()), "{what}, shard {k}");
                for l in 0..encoded.len() {
                    let d = encoded.row(l).decode();
                    assert_eq!(Some(&d), c.get(d.id), "{what}: {}", d.path);
                    assert_eq!(kept.row(l).decode(), d, "{what}: {}", d.path);
                    assert!(seen.insert(d.id), "{what}: {} is in two shards", d.path);
                }
            }
            assert_eq!(seen.len(), c.len(), "{what}: a dataset is in no shard");
        }
    }
}

#[test]
fn browse_menus_count_what_the_reference_counts() {
    let vocab = browse_vocabulary();
    // concepts counted below themselves, and datasets counted at a concept
    let (mut rolled_up, mut counted) = (0, 0);
    for seed in 0..60u64 {
        let mut rng = Rng(seed);
        let drawn = any_catalog(&mut rng);
        let before = respell(&mut rng, drawn);
        let mutations = delta(&mut rng, &before);
        let mut after = before.clone();
        mutations.iter().cloned().for_each(|m| after.apply(m));
        let (want_before, want_after) =
            (reference_browse(&before, &vocab), reference_browse(&after, &vocab));
        assert_eq!(browse_all(&before, &vocab), want_before, "seed {seed}");
        for shards in [1usize, 2, 4] {
            let what = format!("seed {seed}, {shards} shards");
            let spec = ShardSpec::new(shards, Partitioner::Hash);
            let engine = SearchEngine::build_sharded(&before, vocab.clone(), spec);
            assert_eq!(engine.browse(), want_before, "{what}");
            let next = SearchEngine::build_sharded(&after, vocab.clone(), spec);
            assert_eq!(next.browse(), want_after, "{what}, after the delta");
        }
        for node in want_before.iter().flat_map(|t| &t.roots).flat_map(|r| r.iter()) {
            rolled_up += usize::from(node.cumulative > node.direct);
            counted += node.direct;
        }
    }
    assert!(
        rolled_up > 200 && counted > 500,
        "the sweep counted next to nothing: {rolled_up}, {counted}"
    );
}
