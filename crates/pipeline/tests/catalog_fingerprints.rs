//! Counted work: how many times a watch cycle fingerprints the working
//! catalog (`metamess_pipeline_catalog_fingerprints_total`). Each such
//! fingerprint encodes the whole catalog, so the count is what a cycle pays
//! for its digests in catalog-sized units.
//!
//! The counter lives in the global registry, so this file is its own test
//! binary and holds one test: nothing else moves the count between the
//! reads.

use metamess_archive::{generate, ArchiveSpec};
use metamess_pipeline::{CycleReport, WatchOptions, Watcher};
use std::path::{Path, PathBuf};

fn fingerprints() -> u64 {
    metamess_telemetry::global().counter("metamess_pipeline_catalog_fingerprints_total").get()
}

/// Runs one cycle; returns its report and the fingerprints it took.
fn cycle(w: &mut Watcher) -> (CycleReport, u64) {
    let before = fingerprints();
    let report = w.run_cycle().unwrap();
    (report, fingerprints() - before)
}

/// The pipeline runs of a cycle: the first, then one per curation step.
fn runs(report: &CycleReport) -> u64 {
    1 + report.history.len() as u64
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
fn a_changed_cycle_fingerprints_the_catalog_at_most_twice_per_run() {
    if !metamess_telemetry::enabled() {
        return; // METAMESS_TELEMETRY=0: no counter moves
    }
    let root = std::env::temp_dir().join(format!("mm-catalog-fps-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let (archive, store) = (root.join("archive"), root.join("store"));
    generate(&ArchiveSpec::tiny()).write_to(&archive).unwrap();
    let mut w = Watcher::new(&archive, &store, WatchOptions::default()).unwrap();

    // a cold wrangle: the curation loop runs the pipeline several times
    let (cold, n) = cycle(&mut w);
    assert!(cold.changed && cold.datasets > 0);
    assert!(n <= 2 * runs(&cold), "cold cycle: {n} fingerprints over {} runs", runs(&cold));

    // an appended row teaches the curator nothing: one run re-curates the
    // edited dataset, one confirms the fixpoint
    let path = a_station_file(&archive);
    let text = std::fs::read_to_string(&path).unwrap();
    let last = text.lines().rev().find(|l| !l.trim().is_empty()).unwrap().to_string();
    std::fs::write(&path, format!("{text}{last}\n")).unwrap();
    let (appended, n) = cycle(&mut w);
    assert!(appended.changed && appended.mutations > 0, "{appended:?}");
    assert!(n <= 2, "an appended row took {n} fingerprints over {} runs", runs(&appended));

    // a file with headers the vocabulary does not know yet
    std::fs::create_dir_all(archive.join("extra")).unwrap();
    std::fs::write(
        archive.join("extra/messy.csv"),
        "time,wtemp,Salinity,tmp_h2o\n2010-01-01T00:00:00Z,9.5,28.1,9.4\n",
    )
    .unwrap();
    let (messy, n) = cycle(&mut w);
    assert!(messy.changed);
    assert!(n <= 2 * runs(&messy), "new file: {n} fingerprints over {} runs", runs(&messy));

    // an unchanged archive runs no pipeline at all
    let (idle, n) = cycle(&mut w);
    assert!(!idle.changed);
    assert_eq!(n, 0);
    drop(w);
    let _ = std::fs::remove_dir_all(&root);
}
