//! Criterion bench: the durable catalog substrate — WAL append (buffered
//! and fsynced), snapshot write, and recovery replay.

use criterion::{criterion_group, criterion_main, Criterion};
use metamess_archive::{generate, ArchiveSpec};
use metamess_core::store::{write_snapshot, DurableCatalog, StoreOptions};
use metamess_core::Catalog;
use metamess_harvest::{harvest, observatory_rules, HarvestConfig, MemorySource, ScanConfig};
use std::hint::black_box;
use std::path::PathBuf;

fn sample_catalog() -> Catalog {
    let archive = generate(&ArchiveSpec::default());
    let source = MemorySource { files: &archive.files };
    let config =
        HarvestConfig { scan: ScanConfig::default(), naming: observatory_rules(), pipeline_run: 1 };
    let report = harvest(&source, &config, None).unwrap();
    let mut c = Catalog::new();
    for f in report.features {
        c.put(f);
    }
    c
}

fn fresh_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("metamess-bench-store-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn bench_wal_append(c: &mut Criterion) {
    let catalog = sample_catalog();
    let features: Vec<_> = catalog.iter().cloned().collect();

    c.bench_function("store/wal-append-buffered-53", |b| {
        b.iter_with_setup(
            || {
                let dir = fresh_dir("buffered");
                DurableCatalog::open(&dir, StoreOptions::default()).unwrap()
            },
            |mut store| {
                for f in &features {
                    store.put(f.clone()).unwrap();
                }
                store.flush().unwrap();
                black_box(store)
            },
        )
    });

    c.bench_function("store/wal-append-fsync-each-53", |b| {
        b.iter_with_setup(
            || {
                let dir = fresh_dir("fsync");
                DurableCatalog::open(&dir, StoreOptions { sync_on_append: true }).unwrap()
            },
            |mut store| {
                for f in &features {
                    store.put(f.clone()).unwrap();
                }
                black_box(store)
            },
        )
    });
}

fn bench_snapshot_and_recovery(c: &mut Criterion) {
    let catalog = sample_catalog();
    let dir = fresh_dir("snap");
    std::fs::create_dir_all(&dir).unwrap();
    let snap = dir.join("snapshot.bin");
    c.bench_function("store/snapshot-write", |b| {
        b.iter(|| write_snapshot(black_box(&snap), black_box(&catalog)).unwrap())
    });

    // Build a store with a snapshot plus a WAL tail, then time recovery.
    let dir2 = fresh_dir("recover");
    {
        let mut store = DurableCatalog::open(&dir2, StoreOptions::default()).unwrap();
        store.replace_with(&catalog).unwrap();
        store.checkpoint().unwrap();
        for f in catalog.iter().take(10) {
            let mut f = f.clone();
            f.record_count += 1;
            store.put(f).unwrap();
        }
        store.flush().unwrap();
    }
    c.bench_function("store/open-recover-snapshot+wal", |b| {
        b.iter(|| black_box(DurableCatalog::open(&dir2, StoreOptions::default()).unwrap()))
    });
}

criterion_group!(benches, bench_wal_append, bench_snapshot_and_recovery);
criterion_main!(benches);
