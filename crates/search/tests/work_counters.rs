//! Counted work in search: the rows an engine build files into its indexes
//! (`metamess_search_rows_indexed_total`) and the candidates uncached
//! searches score exactly (`metamess_search_candidates_scored_total`). A
//! build over N rows indexes N; a search scores what its explain reports as
//! scored, never more than its candidates; a cache hit scores nothing.
//!
//! The counters live in the global registry, so this file is its own test
//! binary and holds one test: nothing else moves the counts between the
//! reads.

mod common;

use common::{catalog, queries, Rng};
use metamess_search::{Partitioner, SearchEngine, ShardSpec};
use metamess_vocab::Vocabulary;

fn count(name: &str) -> u64 {
    metamess_telemetry::global().counter(name).get()
}

fn indexed() -> u64 {
    count("metamess_search_rows_indexed_total")
}

fn scored() -> u64 {
    count("metamess_search_candidates_scored_total")
}

#[test]
fn builds_count_their_rows_and_searches_their_candidates() {
    // the counters count only while telemetry records
    metamess_telemetry::global().set_enabled(true);
    let vocab = Vocabulary::observatory_default();
    let c = catalog(&mut Rng(7));
    for shards in [1usize, 2, 4, 8] {
        let before = indexed();
        let spec = ShardSpec::new(shards, Partitioner::Hash);
        let mut engine = SearchEngine::build_sharded(&c, vocab.clone(), spec);
        assert_eq!(indexed() - before, c.len() as u64, "{shards} shards: one add per row");

        let qs = queries(&mut Rng(shards as u64), c.len());
        for use_indexes in [true, false] {
            engine.use_indexes = use_indexes;
            let what = format!("{shards} shards, indexes {use_indexes}");
            let before = scored();
            let mut explained = 0;
            for q in &qs {
                let ex = engine.search_explain(q).1;
                assert!(ex.scored <= ex.candidates, "{what}: {q:?}: {ex:?}");
                explained += ex.scored;
            }
            assert!(explained > 0, "{what}: nothing was scored");
            assert_eq!(scored() - before, explained as u64, "{what}");
            // the same queries again: every one a cache hit
            let before = scored();
            for q in &qs {
                assert!(engine.search_explain(q).1.cache_hit, "{what}: {q:?}");
            }
            assert_eq!(scored(), before, "{what}: a cache hit scores nothing");
        }
    }
}
