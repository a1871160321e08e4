//! Counted work: how many rows the writer encodes
//! (`metamess_core_rows_encoded_total`). A replacement encodes the catalog
//! it is handed, a put its one row, and a checkpoint every row it folds into
//! the snapshot; a checkpoint with nothing to fold and a reader encode none.
//!
//! The counter lives in the global registry, so this file is its own test
//! binary and holds one test: nothing else moves the count between the
//! reads.

use metamess_core::store::{read_published, DurableCatalog, StoreOptions};
use metamess_core::{Catalog, DatasetFeature, VariableFeature};

fn rows_encoded() -> u64 {
    metamess_telemetry::global().counter("metamess_core_rows_encoded_total").get()
}

/// The rows `step` encodes.
fn encoded(step: impl FnOnce()) -> u64 {
    let before = rows_encoded();
    step();
    rows_encoded() - before
}

fn dataset(i: usize) -> DatasetFeature {
    let mut f = DatasetFeature::new(format!("stations/s{i:03}.csv"));
    let mut v = VariableFeature::new("wtemp");
    v.summary.observe(i as f64 / 4.0);
    f.variables.push(v);
    f
}

#[test]
fn the_writer_encodes_each_row_once_per_payload_it_writes() {
    if !metamess_telemetry::enabled() {
        return; // METAMESS_TELEMETRY=0: no counter moves
    }
    let dir = std::env::temp_dir().join(format!("mm-rows-encoded-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = DurableCatalog::open(&dir, StoreOptions::default()).unwrap();

    let mut catalog = Catalog::new();
    (0..50).for_each(|i| catalog.put(dataset(i)));
    assert_eq!(encoded(|| store.replace_with(&catalog).unwrap()), 50, "a replacement");

    for i in 50..53 {
        assert_eq!(encoded(|| store.put(dataset(i)).unwrap()), 1, "a put");
    }
    assert_eq!(encoded(|| store.checkpoint().unwrap()), 53, "a checkpoint after 3 puts");
    assert_eq!(encoded(|| store.checkpoint().unwrap()), 0, "an idle checkpoint");

    let published = encoded(|| assert_eq!(read_published(&dir).unwrap().rows.len(), 53));
    assert_eq!(published, 0, "a reader");
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}
