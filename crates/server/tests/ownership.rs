//! Who holds the datasets of a serving process, over the reference sweeps'
//! seeded cases (`crates/search/tests/common`). The engine holds each
//! dataset as its encoded row — a shared image and a row number — and no
//! decoded feature: after an open every row is a row of the snapshot's image
//! or of a replayed WAL put's own image, and the epoch's engine is all that
//! holds them. After a live writer's WAL tail, the epoch a poll swaps in
//! answers exactly like a server that opened the store afresh, cached and
//! uncached, and the old epoch's images go with the old epoch. The poll
//! sweep runs `METAMESS_TORTURE_CASES` seeds (default 40) over 1, 2, 4, 8
//! and 32 shards, and its tails hold puts, deletes and a property record.

#[path = "../../search/tests/common/mod.rs"]
mod common;

use common::{
    assert_bit_equal, catalog, delta, images, queries, reference_search, sole_holders, Rng,
};
use metamess_core::catalog::Catalog;
use metamess_core::store::Image;
use metamess_core::{DatasetFeature, DatasetId, DurableCatalog, Mutation, StoreOptions};
use metamess_search::{Partitioner, ShardSpec};
use metamess_server::{ReloadOutcome, ServeState};
use metamess_vocab::Vocabulary;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::{Arc, Weak};

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
    ShardSpec::new([1, 2, 4, 8, 32][seed as usize % 5], Partitioner::Hash)
}

fn cases() -> u64 {
    std::env::var("METAMESS_TORTURE_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(40)
}

#[test]
fn after_an_open_the_engine_is_the_only_holder_of_every_feature() {
    for seed in 0..20u64 {
        let mut rng = Rng(seed);
        let c = catalog(&mut rng);
        let dir = published(&format!("open-{seed}"), &c);
        // … and a live writer's puts and deletes past the snapshot
        let mutations = delta(&mut rng, &c);
        let put: BTreeSet<DatasetId> = mutations
            .iter()
            .filter_map(|m| match m {
                Mutation::Put(f) => Some(f.id),
                _ => None,
            })
            .collect();
        let mut store = open_store(&dir);
        for m in &mutations {
            store.apply(m.clone()).unwrap();
        }
        store.flush().unwrap();
        let expected = store.catalog();
        drop(store);

        let state = ServeState::open_sharded(&dir, layout(seed)).unwrap();
        let epoch = state.epoch();
        assert_eq!(epoch.engine.rows().count(), expected.len(), "seed {seed}");
        let held = images(epoch.engine.rows());
        for row in epoch.engine.rows() {
            let d = row.decode();
            assert_eq!(Some(&d), expected.get(d.id), "seed {seed}: {}", d.path);
            if put.contains(&d.id) {
                // a replayed put: the one row of an image of its own
                assert_eq!(row.image().len(), 1, "seed {seed}: {}", d.path);
                assert_eq!(held[&Arc::as_ptr(row.image())].0, 1, "seed {seed}: {}", d.path);
            } else {
                // a row of the snapshot's image: one image for all of them
                assert_eq!(row.image().len(), c.len(), "seed {seed}: {}", d.path);
            }
        }
        assert_eq!(held.len(), 1 + put.len(), "seed {seed}: one snapshot image, one per put");
        drop(held);
        assert!(sole_holders(epoch.engine.rows()), "seed {seed}: an image has another holder");

        // … and a full reload drops the old rows with the old epoch
        drop(epoch);
        let mut store = open_store(&dir);
        store.put(DatasetFeature::new("ds/late.csv")).unwrap();
        store.checkpoint().unwrap();
        drop(store);
        assert!(matches!(state.reload().unwrap(), ReloadOutcome::Reloaded { .. }));
        let epoch = state.epoch();
        assert_eq!(images(epoch.engine.rows()).len(), 1, "seed {seed}: one snapshot image");
        assert!(sole_holders(epoch.engine.rows()), "seed {seed}: after a reload");
    }
}

#[test]
fn a_poll_after_a_live_writer_answers_like_a_reopened_store() {
    let vocab = Vocabulary::observatory_default();
    for seed in 0..cases() {
        let mut rng = Rng(seed);
        let c = catalog(&mut rng);
        let mut mutations = delta(&mut rng, &c);
        // a property record moves the generation and no row
        let value = format!("seed {seed}");
        mutations.push(Mutation::SetProperty { key: "delta".into(), value });
        let dir = published(&format!("delta-{seed}"), &c);
        let state = ServeState::open_sharded(&dir, layout(seed)).unwrap();
        let before = state.epoch();

        // A live writer appends to the WAL and does not checkpoint.
        let mut store = open_store(&dir);
        for m in &mutations {
            store.apply(m.clone()).unwrap();
        }
        store.flush().unwrap();
        let expected = store.catalog();
        drop(store);
        // The seed's queries are cached at the old generation.
        let queries = queries(&mut rng, expected.len());
        for q in &queries {
            before.engine.search(q);
        }

        let (from, to) = (before.generation, before.generation + mutations.len() as u64);
        let epoch = before.epoch + 1;
        let outcome = state.poll_reload().unwrap();
        assert_eq!(outcome, ReloadOutcome::Reloaded { from, to, epoch }, "seed {seed}");
        let after = state.epoch();
        for row in after.engine.rows() {
            let d = row.decode();
            assert_eq!(Some(&d), expected.get(d.id), "seed {seed}: {}", d.path);
        }
        let both = before.engine.rows().chain(after.engine.rows());
        assert!(sole_holders(both), "seed {seed}: the two epochs, nobody else");

        let reopened = ServeState::open_sharded(&dir, layout(seed)).unwrap().epoch();
        assert_eq!(after.generation, reopened.generation, "seed {seed}");
        assert_eq!(after.datasets, reopened.datasets, "seed {seed}");
        assert_eq!(after.datasets, expected.len(), "seed {seed}");
        assert_eq!(after.browse, reopened.browse, "seed {seed}");
        for q in &queries {
            let what = format!("seed {seed}, {q:?}");
            let want = reopened.engine.search_uncached(q);
            assert_bit_equal(&after.engine.search_uncached(q), &want, &what);
            assert_bit_equal(&after.engine.search(q), &want, &format!("{what}, cached"));
            assert_bit_equal(&want, &reference_search(&expected, &vocab, q), &what);
        }

        // The old epoch goes, and every image it read with it.
        let old: Vec<Weak<Image>> =
            images(before.engine.rows()).values().map(|(_, image)| Arc::downgrade(image)).collect();
        drop(before);
        assert!(old.iter().all(|image| image.upgrade().is_none()), "seed {seed}: an old image");
        assert!(sole_holders(after.engine.rows()), "seed {seed}: after the swap");
    }
}
