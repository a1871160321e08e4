//! A reader beside a writer that publishes whole catalogs: the writer
//! alternates `replace_with(A)` and `replace_with(B)` while a reader loops on
//! `read_published`. Every read is exactly A or exactly B — never a cleared
//! store, never A with part of B — because a replacement logs nothing and
//! commits by renaming one snapshot into place.

use metamess_core::store::read_published;
use metamess_core::{Catalog, DatasetFeature, DurableCatalog, StoreOptions, VariableFeature};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Replacements the writer makes.
const ROUNDS: usize = 60;

/// `n` datasets under `side/`, and a property naming the side: enough
/// records that logging them one by one would reach the file in pieces.
fn catalog(side: &str, n: usize) -> Catalog {
    let mut c = Catalog::new();
    for i in 0..n {
        let mut f = DatasetFeature::new(format!("{side}/2014/07/s{i:03}.csv"));
        f.title = format!("station {i} of side {side}");
        f.variables.push(VariableFeature::new("salinity"));
        c.put(f);
    }
    c.set_property("side", side);
    c
}

#[test]
fn a_reader_sees_one_whole_catalog_or_the_other() {
    let dir = std::env::temp_dir().join(format!("metamess-beside-publish-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let sides = [catalog("a", 200), catalog("b", 150)];
    let fingerprints = sides.each_ref().map(Catalog::content_fingerprint);
    let mut store = DurableCatalog::open(&dir, StoreOptions::default()).unwrap();
    store.replace_with(&sides[0]).unwrap();
    let reads = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let seen = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let mut seen = [0u64; 2];
            let mut generation = 0;
            while !done.load(Ordering::SeqCst) {
                let published = read_published(&dir).unwrap();
                let fingerprint = published.catalog().content_fingerprint();
                let Some(side) = fingerprints.iter().position(|&f| f == fingerprint) else {
                    panic!(
                        "read {} datasets with properties {:?}: neither whole catalog",
                        published.rows.len(),
                        published.properties
                    );
                };
                assert!(published.generation >= generation, "generations only move forward");
                generation = published.generation;
                seen[side] += 1;
                reads.fetch_add(1, Ordering::SeqCst);
            }
            seen
        });
        for round in 1..=ROUNDS {
            store.replace_with(&sides[round % 2]).unwrap();
            // the reader finishes a read between replacements, so the reads
            // interleave with them however the threads are scheduled
            let before = reads.load(Ordering::SeqCst);
            while reads.load(Ordering::SeqCst) == before && !reader.is_finished() {
                std::thread::yield_now();
            }
        }
        done.store(true, Ordering::SeqCst);
        reader.join().unwrap()
    });
    assert!(seen.iter().all(|&n| n > 0), "the reader saw both catalogs: {seen:?}");
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}
