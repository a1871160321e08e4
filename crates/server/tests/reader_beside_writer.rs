//! A reader beside a writer mid-append: `wal.log` ends in half a record —
//! a truncated copy of a real one, what `metamess watch` leaves between two
//! flushes of its buffer. Every way of reading the store serves the complete
//! prefix and leaves the file byte-identical (the half record is the
//! writer's, not damage to clear away); once the writer completes the
//! record, the next poll applies it as a delta from the stored offset.

use metamess_core::store::read_published;
use metamess_core::{DatasetFeature, DurableCatalog, StoreOptions, VariableFeature};
use metamess_server::{ReloadOutcome, ServeState};
use std::path::{Path, PathBuf};

fn dataset(path: &str) -> DatasetFeature {
    let mut f = DatasetFeature::new(path);
    f.variables.push(VariableFeature::new("salinity"));
    f
}

fn append(dir: &Path, path: &str) {
    let mut s = DurableCatalog::open(dir.join("catalog"), StoreOptions::default()).unwrap();
    s.put(dataset(path)).unwrap();
    s.flush().unwrap();
}

/// Two datasets in the snapshot, a third in the WAL.
fn store(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("metamess-beside-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut s = DurableCatalog::open(dir.join("catalog"), StoreOptions::default()).unwrap();
    s.put(dataset("2014/07/s1.csv")).unwrap();
    s.put(dataset("2014/07/s2.csv")).unwrap();
    s.checkpoint().unwrap();
    drop(s);
    append(&dir, "2014/07/s3.csv");
    dir
}

#[test]
fn every_reader_serves_the_prefix_and_leaves_a_half_written_record_alone() {
    let dir = store("half");
    let wal = dir.join("catalog").join("wal.log");
    let prefix = std::fs::metadata(&wal).unwrap().len();
    // The writer's next record, of which only the first half has reached
    // the file so far.
    append(&dir, "2014/08/s4.csv");
    let complete = std::fs::read(&wal).unwrap();
    let half = prefix as usize + (complete.len() - prefix as usize) / 2;
    std::fs::write(&wal, &complete[..half]).unwrap();
    let untouched = |what: &str| {
        assert_eq!(std::fs::read(&wal).unwrap(), complete[..half], "{what} modified wal.log");
    };

    let published = read_published(dir.join("catalog")).unwrap();
    assert_eq!(published.rows.len(), 3);
    assert_eq!(published.wal_offset, prefix);
    assert!(published.stopped_early.is_some());
    untouched("read_published");

    let state = ServeState::open(&dir).unwrap();
    let generation = state.epoch().generation;
    assert_eq!(state.epoch().datasets, 3);
    assert_eq!(generation, published.generation);
    untouched("ServeState::open");

    assert_eq!(state.reload().unwrap(), ReloadOutcome::Unchanged { generation });
    untouched("reload");
    assert_eq!(state.poll_reload().unwrap(), ReloadOutcome::Unchanged { generation });
    untouched("poll_reload");

    // The writer completes its record: the poll resumes where the load
    // stopped, without reading the snapshot again.
    std::fs::write(&wal, &complete).unwrap();
    match state.poll_reload().unwrap() {
        ReloadOutcome::DeltaApplied { from, to, mutations, .. } => {
            assert_eq!((from, to, mutations), (generation, generation + 1, 1));
        }
        other => panic!("expected the completed record as a delta, got {other:?}"),
    }
    assert_eq!(state.epoch().datasets, 4);
    assert!(state.epoch().engine.rows().any(|row| row.view().path() == ("2014/08/", "s4.csv")));
    assert_eq!(std::fs::read(&wal).unwrap(), complete);
}

#[test]
fn a_poll_that_finds_only_half_a_record_waits_for_the_rest() {
    let dir = store("poll-half");
    let wal = dir.join("catalog").join("wal.log");
    let state = ServeState::open(&dir).unwrap();
    let generation = state.epoch().generation;
    let prefix = std::fs::metadata(&wal).unwrap().len() as usize;
    // A second process (the handle above holds no file open) appends; the
    // poll catches the log with the record half written …
    append(&dir, "2014/08/s4.csv");
    let complete = std::fs::read(&wal).unwrap();
    let half = prefix + (complete.len() - prefix) / 2;
    std::fs::write(&wal, &complete[..half]).unwrap();
    for _ in 0..5 {
        assert_eq!(state.poll_reload().unwrap(), ReloadOutcome::Unchanged { generation });
        assert_eq!(std::fs::read(&wal).unwrap(), complete[..half]);
    }
    assert_eq!(state.reloads(), 0);
    // … and takes it once it is whole.
    std::fs::write(&wal, &complete).unwrap();
    assert!(matches!(
        state.poll_reload().unwrap(),
        ReloadOutcome::DeltaApplied { mutations: 1, .. }
    ));
    assert_eq!(state.epoch().datasets, 4);
}
