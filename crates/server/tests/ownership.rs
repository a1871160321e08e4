//! Who holds the dataset features of a serving process, over the reference
//! sweeps' seeded cases (`crates/search/tests/common`): the epoch's engine
//! and nobody else after an open, and after a WAL-tail delta the new epoch
//! shares with the old one everything the delta left alone — while
//! answering exactly like a server that opened the store afresh.

#[path = "../../search/tests/common/mod.rs"]
mod common;

use common::{assert_bit_equal, catalog, delta, queries, reference_search, touched_ids, Rng};
use metamess_core::catalog::Catalog;
use metamess_core::{DurableCatalog, StoreOptions};
use metamess_search::{Partitioner, ShardSpec};
use metamess_server::{ReloadOutcome, ServeState};
use metamess_vocab::Vocabulary;
use std::path::PathBuf;
use std::sync::Arc;

fn open_store(dir: &std::path::Path) -> DurableCatalog {
    DurableCatalog::open(dir.join("catalog"), StoreOptions::default()).unwrap()
}

/// A store holding `catalog`, checkpointed, the way a publish leaves it.
fn published(name: &str, catalog: &Catalog) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("metamess-own-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = open_store(&dir);
    store.replace_with(catalog).unwrap();
    store.checkpoint().unwrap();
    dir
}

fn layout(seed: u64) -> ShardSpec {
    let partitioner = [Partitioner::Hash, Partitioner::Spatial, Partitioner::Temporal];
    ShardSpec::new(1 + seed as usize % 4, partitioner[seed as usize % 3])
}

#[test]
fn after_an_open_the_engine_is_the_only_holder_of_every_feature() {
    for seed in 0..20u64 {
        let c = catalog(&mut Rng(seed));
        let dir = published(&format!("open-{seed}"), &c);
        let state = ServeState::open_sharded(&dir, layout(seed)).unwrap();
        let epoch = state.epoch();
        assert_eq!(epoch.engine.features().count(), c.len(), "seed {seed}");
        for d in epoch.engine.features() {
            assert_eq!(Arc::strong_count(d), 1, "seed {seed}: {} has another holder", d.path);
        }
        // … and a full reload drops the old features with the old epoch
        let mut store = open_store(&dir);
        store.put(metamess_core::DatasetFeature::new("ds/late.csv")).unwrap();
        store.checkpoint().unwrap();
        drop(store);
        assert!(matches!(state.reload().unwrap(), ReloadOutcome::Reloaded { .. }));
        for d in state.epoch().engine.features() {
            assert_eq!(Arc::strong_count(d), 1, "seed {seed}: {} after a reload", d.path);
        }
    }
}

#[test]
fn a_delta_shares_what_it_left_alone_and_answers_like_a_reopened_store() {
    let vocab = Vocabulary::observatory_default();
    for seed in 0..20u64 {
        let mut rng = Rng(seed);
        let c = catalog(&mut rng);
        let mutations = delta(&mut rng, &c);
        let dir = published(&format!("delta-{seed}"), &c);
        let state = ServeState::open_sharded(&dir, layout(seed)).unwrap();
        let before = state.epoch();

        // A live writer appends to the WAL and does not checkpoint.
        let mut store = open_store(&dir);
        let touched = touched_ids(&mutations);
        for m in &mutations {
            store.apply(m.clone()).unwrap();
        }
        store.flush().unwrap();
        let expected = store.catalog().clone();
        drop(store);

        match state.poll_reload().unwrap() {
            ReloadOutcome::DeltaApplied { mutations: applied, .. } => {
                assert_eq!(applied, mutations.len(), "seed {seed}")
            }
            other => panic!("seed {seed}: expected a delta apply, got {other:?}"),
        }
        let after = state.epoch();
        for d in after.engine.features() {
            if !touched.contains(&d.id) {
                let old = before.engine.shared_dataset(d.id).expect("untouched, so it was there");
                assert!(Arc::ptr_eq(d, old), "seed {seed}: {} was copied", d.path);
                assert_eq!(Arc::strong_count(d), 2, "seed {seed}: the two epochs, nobody else");
            }
        }

        let reopened = ServeState::open_sharded(&dir, layout(seed)).unwrap().epoch();
        assert_eq!(after.generation, reopened.generation, "seed {seed}");
        assert_eq!(after.datasets, reopened.datasets, "seed {seed}");
        assert_eq!(after.datasets, expected.len(), "seed {seed}");
        assert_eq!(after.browse, reopened.browse, "seed {seed}");
        for q in queries(&mut rng, expected.len()) {
            let what = format!("seed {seed}, {q:?}");
            let want = reopened.engine.search_uncached(&q);
            assert_bit_equal(&after.engine.search_uncached(&q), &want, &what);
            assert_bit_equal(&want, &reference_search(&expected, &vocab, &q), &what);
        }

        // The old epoch goes, and with it the last other holder.
        drop(before);
        for d in after.engine.features() {
            assert_eq!(Arc::strong_count(d), 1, "seed {seed}: {} after the swap", d.path);
        }
    }
}
