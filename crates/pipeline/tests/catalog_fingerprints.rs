//! Counted work: how many times a watch cycle fingerprints the working
//! catalog (`metamess_pipeline_catalog_fingerprints_total`), how many
//! stages it runs (`metamess_pipeline_stages_{ran,skipped}_total`), and
//! what its walk reads (`metamess_harvest_{files,bytes}_read_total`). Each
//! fingerprint encodes the whole catalog, so a cycle takes one, to name the
//! catalog it ended with, however many curation iterations it runs; an edit
//! that teaches the curator nothing runs the chain once; an unchanged
//! archive costs the walk and nothing else, in a running watcher and in a
//! reopened one.
//!
//! The counters live in the global registry, so this file is its own test
//! binary and holds one test: nothing else moves the counts between the
//! reads.

use metamess_archive::{generate, ArchiveSpec};
use metamess_harvest::ScanConfig;
use metamess_pipeline::{CycleReport, WatchOptions, Watcher};
use std::path::{Path, PathBuf};

fn count(name: &str) -> u64 {
    metamess_telemetry::global().counter(name).get()
}

fn fingerprints() -> u64 {
    count("metamess_pipeline_catalog_fingerprints_total")
}

/// Files and bytes the walks have read.
fn reads() -> (u64, u64) {
    (count("metamess_harvest_files_read_total"), count("metamess_harvest_bytes_read_total"))
}

/// Stages run and stages skipped so far.
fn stages() -> (u64, u64) {
    (count("metamess_pipeline_stages_ran_total"), count("metamess_pipeline_stages_skipped_total"))
}

/// What one cycle cost: the fingerprints it took, the stages it ran and
/// the stages it skipped.
struct Cost {
    fingerprints: u64,
    ran: u64,
    skipped: u64,
}

/// Runs one cycle; returns its report and what it cost.
fn cycle(w: &mut Watcher) -> (CycleReport, Cost) {
    let (fps, (ran, skipped)) = (fingerprints(), stages());
    let report = w.run_cycle().unwrap();
    let after = stages();
    let cost =
        Cost { fingerprints: fingerprints() - fps, ran: after.0 - ran, skipped: after.1 - skipped };
    (report, cost)
}

/// The files under `archive` a scan with the default configuration takes,
/// and their bytes, found by a walk of this test's own.
fn archive_files(archive: &Path) -> (u64, u64) {
    let (config, mut files, mut bytes) = (ScanConfig::default(), 0, 0);
    let mut stack = vec![archive.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for e in std::fs::read_dir(&dir).unwrap() {
            let p = e.unwrap().path();
            let rel = p.strip_prefix(archive).unwrap().to_str().unwrap();
            if p.is_dir() {
                stack.push(p);
            } else if config.accepts(rel) {
                files += 1;
                bytes += std::fs::metadata(&p).unwrap().len();
            }
        }
    }
    (files, bytes)
}

/// The first `.csv` under `<archive>/stations`, in path order.
fn a_station_file(archive: &Path) -> PathBuf {
    let mut stack = vec![archive.join("stations")];
    let mut found = Vec::new();
    while let Some(dir) = stack.pop() {
        for e in std::fs::read_dir(&dir).unwrap() {
            let p = e.unwrap().path();
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|x| x == "csv") {
                found.push(p);
            }
        }
    }
    found.into_iter().min().expect("the archive has a station csv file")
}

#[test]
fn a_watch_cycle_fingerprints_the_catalog_at_most_once() {
    if !metamess_telemetry::enabled() {
        return; // METAMESS_TELEMETRY=0: no counter moves
    }
    let root = std::env::temp_dir().join(format!("mm-catalog-fps-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let (archive, store) = (root.join("archive"), root.join("store"));
    generate(&ArchiveSpec::tiny()).write_to(&archive).unwrap();
    let mut w = Watcher::new(&archive, &store, WatchOptions::default()).unwrap();

    // a cold wrangle: the curation loop runs the chain once per iteration
    // that taught it something, and names the catalog once at the end
    let (cold, n) = cycle(&mut w);
    assert!(cold.changed && cold.datasets > 0);
    assert!(cold.history.len() >= 2, "the curator learned nothing: {:?}", cold.history);
    assert_eq!(n.fingerprints, 1, "cold cycle of {} iterations", cold.history.len());
    assert_eq!(n.ran, 9 * cold.history.len() as u64, "{:?}", cold.history);
    assert_eq!(n.skipped, 0);

    // an appended row teaches the curator nothing: the chain runs once to
    // re-curate the edited dataset, and the loop stops
    let path = a_station_file(&archive);
    let text = std::fs::read_to_string(&path).unwrap();
    let last = text.lines().rev().find(|l| !l.trim().is_empty()).unwrap().to_string();
    std::fs::write(&path, format!("{text}{last}\n")).unwrap();
    let (appended, n) = cycle(&mut w);
    assert!(appended.changed && appended.mutations > 0, "{appended:?}");
    assert_eq!(appended.history.len(), 1, "{:?}", appended.history);
    assert_eq!((n.fingerprints, n.ran, n.skipped), (1, 9, 0));

    // a file with headers the vocabulary does not know yet
    std::fs::create_dir_all(archive.join("extra")).unwrap();
    std::fs::write(
        archive.join("extra/messy.csv"),
        "time,wtemp,Salinity,tmp_h2o\n2010-01-01T00:00:00Z,9.5,28.1,9.4\n",
    )
    .unwrap();
    let (messy, n) = cycle(&mut w);
    assert!(messy.changed);
    assert_eq!(n.fingerprints, 1, "new file, {} iterations", messy.history.len());
    assert!(n.ran <= 9 * messy.history.len() as u64, "{:?}", messy.history);

    // an unchanged archive runs no stage: the skipped cycle counts the
    // nine it did not run; its walk reads every file the scan takes, whole
    let before = reads();
    let (idle, n) = cycle(&mut w);
    assert!(!idle.changed);
    assert_eq!((n.fingerprints, n.ran, n.skipped), (0, 0, 9));
    let after = reads();
    let (files, bytes) = archive_files(&archive);
    assert!(files > 0);
    assert_eq!((after.0 - before.0, after.1 - before.1), (files, bytes));
    drop(w);

    // nor does a reopened watcher: the state's ledger names the archive and
    // the settings its last cycle wrangled, so the state stays as it was
    let state = store.join("state").join("state.bin");
    let written = std::fs::read(&state).unwrap();
    let mut w = Watcher::new(&archive, &store, WatchOptions::default()).unwrap();
    let run_id = w.context().run_id;
    let (reopened, n) = cycle(&mut w);
    assert!(!reopened.changed, "{reopened:?}");
    assert_eq!((n.fingerprints, n.ran, n.skipped), (0, 0, 9));
    assert_eq!(w.context().run_id, run_id);
    assert!(std::fs::read(&state).unwrap() == written, "the state was rewritten");
    drop(w);
    let _ = std::fs::remove_dir_all(&root);
}
