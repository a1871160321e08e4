//! The writer's rows against the catalog they decode to.
//!
//! A [`DurableCatalog`] holds its datasets as encoded rows and decodes none
//! of them to write a snapshot or to diff: a checkpoint transcodes the rows,
//! and `diff` compares each row with its feature in place. These sweeps
//! hold both to the decoded catalog as their oracle — the snapshot a
//! checkpoint writes is `encode_catalog(&store.catalog())` byte for byte,
//! and `store.diff(c)` is `store.catalog().diff(c)` — over seeded catalogs
//! with ±inf, −0.0 and NaN summaries, whose rows come from put records,
//! from a snapshot, and from both. A replacement, which logs nothing and
//! writes the new catalog as the snapshot, is held to the record-by-record
//! publish it replaced: a delete of each row held, each property, a put per
//! dataset and a checkpoint leave the same snapshot bytes, generation and
//! rows.
//!
//! Every reader lays WAL records over rows with `apply_records`, and a
//! serving delta lays the records past its offset over the rows it read
//! before: a log cut at any record boundary, read, and the records after
//! the cut laid over that read, gives what a read of the whole log gives.

mod catalogs;
mod common;

use catalogs::{seeded_catalog, seeded_dataset};
use common::{sweep, Rng};
use metamess_core::catalog::{Catalog, Mutation};
use metamess_core::id::DatasetId;
use metamess_core::store::codec::{encode_catalog, encode_mutation};
use metamess_core::store::{
    apply_records, read_published, std_vfs, DurableCatalog, Row, StoreOptions, Wal, WAL_MAGIC,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

const CASES: u64 = 60;

/// Fresh unique store directory per case.
fn fresh_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!("metamess-rows-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn open(dir: &Path) -> DurableCatalog {
    DurableCatalog::open(dir, StoreOptions::default()).unwrap()
}

/// Taken by every test here: the snapshot-write counter is process-wide, so
/// a test that reads it must not run beside one that checkpoints.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn snapshot_writes() -> u64 {
    let counters = metamess_telemetry::global().snapshot().counters;
    counters.get("metamess_core_snapshot_writes_total").copied().unwrap_or(0)
}

fn snapshot_file(store: &DurableCatalog) -> Vec<u8> {
    std::fs::read(store.dir().join("snapshot.bin")).unwrap()
}

/// Each mutation as its WAL record: what compares NaN and −0.0 by their
/// bits.
fn records(mutations: &[Mutation]) -> Vec<Vec<u8>> {
    mutations
        .iter()
        .map(|m| {
            let mut record = Vec::new();
            encode_mutation(m, &mut record);
            record
        })
        .collect()
}

/// Puts (new datasets and replacements), deletes and property sets.
fn edit_store(store: &mut DurableCatalog, rng: &mut Rng) {
    let ids: Vec<DatasetId> = store.catalog().iter().map(|f| f.id).collect();
    for _ in 0..rng.size(1, 12) {
        match rng.below(3) {
            0 => store.put(seeded_dataset(rng.size(0, 40), rng)).unwrap(),
            1 if !ids.is_empty() => store.delete(*rng.pick(&ids)).unwrap(),
            _ => store
                .set_property(format!("k{}", rng.below(4)), format!("v{}", rng.below(9)))
                .unwrap(),
        }
    }
}

/// Checkpoints `store`, and holds the snapshot it wrote, and the rows it
/// holds after, to the encoding of the catalog it decoded to before.
fn checkpoint_writes_the_decoded_catalog(store: &mut DurableCatalog, when: &str) {
    let want = encode_catalog(&store.catalog());
    store.checkpoint().unwrap();
    let file = snapshot_file(store);
    // the payload follows the magic, its length and its CRC
    assert_eq!(&file[16..], &want[..], "{when}");
    assert_eq!(encode_catalog(&store.catalog()), want, "{when}: the rows it holds after");
}

#[test]
fn a_checkpoint_writes_the_catalog_its_rows_decode_to() {
    let _serial = serial();
    sweep(CASES, |rng| {
        let dir = fresh_dir("checkpoint");
        let mut store = open(&dir);
        store.replace_with(&seeded_catalog(rng)).unwrap();
        checkpoint_writes_the_decoded_catalog(&mut store, "after replace_with");
        // rows of the snapshot beside rows of puts
        edit_store(&mut store, rng);
        checkpoint_writes_the_decoded_catalog(&mut store, "after puts, deletes and properties");
        // and as a reopen recovers them: the snapshot's, and the WAL's puts
        edit_store(&mut store, rng);
        drop(store);
        let mut store = open(&dir);
        checkpoint_writes_the_decoded_catalog(&mut store, "after a reopen");
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    });
}

/// `c` with, each by the toss of a coin and each to a dataset of its own: a
/// `record_count` bump, a changed canonical name, a new external pair, −0.0
/// for 0.0 (or back), a dataset added, one deleted, a property changed.
fn edited(c: &Catalog, rng: &mut Rng) -> Catalog {
    let mut next = c.clone();
    let mut ids: Vec<DatasetId> = c.iter().map(|f| f.id).collect();
    for i in (1..ids.len()).rev() {
        ids.swap(i, rng.size(0, i + 1));
    }
    // the flipped zero goes first, to a dataset that has one: `==` cannot
    // tell the two apart, so no other edit may touch it
    let zero = ids.iter().position(|id| {
        c.get(*id).unwrap().variables.iter().any(|v| v.summary.count > 0 && v.summary.min == 0.0)
    });
    if let Some(at) = zero.filter(|_| rng.coin()) {
        let f = next.get_mut(ids.swap_remove(at)).unwrap();
        for s in f.variables.iter_mut().map(|v| &mut v.summary).filter(|s| s.min == 0.0) {
            (s.min, s.max, s.mean) = (-s.min, -s.max, -s.mean);
        }
    }
    let mut targets = ids.into_iter();
    if rng.coin() {
        next.get_mut(targets.next().unwrap()).unwrap().record_count += 1;
    }
    if rng.coin() {
        let f = next.get_mut(targets.next().unwrap()).unwrap();
        let at = rng.size(0, f.variables.len());
        let v = &mut f.variables[at];
        v.canonical_name = Some(format!("{}_v2", v.search_name()));
    }
    if rng.coin() {
        let f = next.get_mut(targets.next().unwrap()).unwrap();
        f.external.insert("principal_investigator".into(), "Megler".into());
    }
    if rng.coin() {
        next.put(seeded_dataset(1000 + rng.size(0, 1000), rng));
    }
    if rng.coin() {
        next.delete(targets.next().unwrap());
    }
    if rng.coin() {
        next.set_property("archive", "sim2");
    }
    next
}

#[test]
fn diff_from_rows_is_the_diff_of_the_decoded_catalog() {
    let _serial = serial();
    let mut puts = 0;
    sweep(CASES, |rng| {
        let dir = fresh_dir("diff");
        let mut store = open(&dir);
        let published = seeded_catalog(rng);
        store.replace_with(&published).unwrap();
        if rng.coin() {
            store.checkpoint().unwrap();
        }
        let next = edited(&published, rng);
        let want = store.catalog().diff(&next);
        assert_eq!(records(&store.diff(&next)), records(&want));
        // the store itself moves away from `published` too
        edit_store(&mut store, rng);
        let want = store.catalog().diff(&next);
        assert_eq!(records(&store.diff(&next)), records(&want));
        puts += want.iter().filter(|m| matches!(m, Mutation::Put(_))).count();
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    });
    assert!(puts > 0, "no seed put anything");
}

/// The publish a replacement took the place of, driven through the public
/// API: a delete of each row the store holds, each property, a put per
/// dataset, then a checkpoint. No record removes a property, so this is that
/// publish only when `c` sets every property the store holds.
fn publish_record_by_record(store: &mut DurableCatalog, c: &Catalog) {
    for f in store.catalog().iter() {
        store.delete(f.id).unwrap();
    }
    for (key, value) in c.properties() {
        store.set_property(key.as_str(), value.as_str()).unwrap();
    }
    for f in c.iter() {
        store.put(f.clone()).unwrap();
    }
    store.checkpoint().unwrap();
}

#[test]
fn a_replacement_writes_what_its_records_would_have_folded_into() {
    let _serial = serial();
    sweep(CASES, |rng| {
        let mut published = seeded_catalog(rng);
        // every property `edit_store` sets, which only a replacement removes
        for k in 0..4 {
            published.set_property(format!("k{k}"), "published");
        }
        let earlier = seeded_catalog(rng);
        let tail = rng.next();
        for unfolded in [false, true] {
            let when = if unfolded { "over an unfolded tail" } else { "on a fresh store" };
            let dirs = [fresh_dir("swap"), fresh_dir("records")];
            let [mut swapped, mut logged] = dirs.clone().map(|dir| open(&dir));
            if unfolded {
                // the same snapshot, and the same records after it, in both
                for store in [&mut swapped, &mut logged] {
                    store.replace_with(&earlier).unwrap();
                    edit_store(store, &mut Rng(tail));
                    assert!(store.pending_wal_records() > 0);
                }
            }
            swapped.replace_with(&published).unwrap();
            publish_record_by_record(&mut logged, &published);
            assert_eq!(swapped.pending_wal_records(), 0, "{when}: nothing is logged");
            assert_eq!(snapshot_file(&swapped), snapshot_file(&logged), "{when}");
            assert_eq!(swapped.catalog().generation(), logged.catalog().generation(), "{when}");
            assert_eq!(
                encode_catalog(&swapped.catalog()),
                encode_catalog(&logged.catalog()),
                "{when}: the rows"
            );
            // a checkpoint straight after has nothing to fold, and writes nothing
            let (file, writes) = (snapshot_file(&swapped), snapshot_writes());
            swapped.checkpoint().unwrap();
            assert_eq!(snapshot_file(&swapped), file, "{when}");
            assert_eq!(snapshot_writes(), writes, "{when}: a checkpoint with nothing to fold");
            drop((swapped, logged));
            for dir in dirs {
                let _ = std::fs::remove_dir_all(dir);
            }
        }
    });
}

/// Where each record of the log `log` ends, after the magic's end.
fn record_boundaries(log: &[u8]) -> Vec<usize> {
    let mut ends = vec![WAL_MAGIC.len()];
    while let Some(&end) = ends.last().filter(|&&end| end < log.len()) {
        let len = u32::from_le_bytes(log[end..end + 4].try_into().unwrap());
        ends.push(end + 8 + len as usize);
    }
    ends
}

#[test]
fn records_laid_over_a_read_cut_at_any_record_give_the_read_of_the_whole_log() {
    let _serial = serial();
    let mut laid = 0;
    sweep(CASES, |rng| {
        let (dir, cut) = (fresh_dir("whole-log"), fresh_dir("cut-log"));
        let mut store = open(&dir);
        store.replace_with(&seeded_catalog(rng)).unwrap();
        edit_store(&mut store, rng);
        edit_store(&mut store, rng);
        store.flush().unwrap();
        drop(store);
        let whole = read_published(&dir).unwrap();
        let log = std::fs::read(dir.join("wal.log")).unwrap();
        std::fs::create_dir_all(&cut).unwrap();
        std::fs::copy(dir.join("snapshot.bin"), cut.join("snapshot.bin")).unwrap();
        for k in record_boundaries(&log) {
            let what = format!("the log cut at byte {k} of {}", log.len());
            std::fs::write(cut.join("wal.log"), &log[..k]).unwrap();
            let read = read_published(&cut).unwrap();
            assert_eq!(read.wal_offset, k as u64, "{what}");
            let tail =
                Wal::read_from(std_vfs().as_ref(), &dir.join("wal.log"), read.wal_offset).unwrap();
            laid += tail.records.len();
            let mut rows: BTreeMap<_, _> = read.rows.into_iter().map(|r| (r.id(), r)).collect();
            let mut properties = read.properties;
            let step = apply_records(&mut rows, &mut properties, tail.records);
            assert_eq!(read.generation + step, whole.generation, "{what}");
            assert_eq!(tail.new_offset, whole.wal_offset, "{what}");
            assert_eq!(properties, whole.properties, "{what}");
            assert!(rows.keys().copied().eq(whole.rows.iter().map(Row::id)), "{what}");
            // a row is the snapshot's, or the one row of its put's image
            for (row, want) in rows.values().zip(&whole.rows) {
                assert_eq!(row.image().payload(), want.image().payload(), "{what}: {row:?}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&cut);
    });
    assert!(laid > 0, "no seed logged a record");
}
