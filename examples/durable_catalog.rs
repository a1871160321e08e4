//! Durable catalog storage: WAL + snapshot + crash recovery.
//!
//! Wrangles an archive into a durable working catalog, checkpoints it,
//! simulates a crash by truncating the WAL mid-record, and shows recovery
//! salvaging the committed prefix.
//!
//! ```text
//! cargo run --example durable_catalog
//! ```

use metamess::prelude::*;
use std::fs::OpenOptions;

fn main() {
    let dir = std::env::temp_dir().join("metamess-durable-example");
    let _ = std::fs::remove_dir_all(&dir);

    // Wrangle an archive into features.
    let archive = metamess::archive::generate(&ArchiveSpec::tiny());
    let mut ctx = PipelineContext::new(
        ArchiveInput::Memory(archive.files),
        Vocabulary::observatory_default(),
    );
    Pipeline::standard().run(&mut ctx).expect("pipeline runs");

    // Persist the published catalog durably.
    {
        let mut store = DurableCatalog::open(&dir, StoreOptions::default()).expect("store opens");
        for f in ctx.catalog.iter() {
            store.put(f.clone()).expect("put");
        }
        store.set_property("archive", "cmop-sim").expect("property");
        store.checkpoint().expect("checkpoint");
        // two more datasets after the checkpoint, flushed but not checkpointed
        let mut extra = DatasetFeature::new("late/arrival_1.csv");
        extra.record_count = 10;
        store.put(extra).expect("put");
        let mut extra2 = DatasetFeature::new("late/arrival_2.csv");
        extra2.record_count = 20;
        store.put(extra2).expect("put");
        store.flush().expect("flush");
        println!(
            "stored {} datasets ({} WAL records pending after checkpoint)",
            store.catalog().len(),
            store.pending_wal_records()
        );
    }

    // Crash: chop bytes off the WAL tail, tearing the last record.
    let wal = dir.join("wal.log");
    let len = std::fs::metadata(&wal).expect("wal exists").len();
    let f = OpenOptions::new().write(true).open(&wal).expect("open wal");
    f.set_len(len - 9).expect("truncate");
    drop(f);
    println!("simulated crash: truncated WAL from {len} to {} bytes", len - 9);

    // Recover.
    let store = DurableCatalog::open(&dir, StoreOptions::default()).expect("recovery succeeds");
    let report = store.recovery_report();
    println!(
        "recovered: snapshot={} wal_mutations={} truncated_bytes={}",
        report.snapshot_loaded, report.wal_mutations, report.truncated_bytes
    );
    let catalog = store.catalog();
    println!("catalog now holds {} datasets", catalog.len());
    assert!(catalog.get_by_path("late/arrival_1.csv").is_some());
    assert!(catalog.get_by_path("late/arrival_2.csv").is_none()); // torn away
    assert_eq!(catalog.property("archive"), Some("cmop-sim"));
    println!("the committed prefix survived; the torn record was discarded");
}
