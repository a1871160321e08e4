//! Counted work: a file that never parsed is read once per content. The
//! scan stage keeps each failed file's path, length, fingerprint and
//! message beside the listing, and a later harvest of the same bytes
//! reports the remembered failure without reading the file, so
//! `metamess_harvest_parse_errors_total` counts each failing content once.
//!
//! The counters live in the global registry, so this file is its own test
//! binary and holds one test: nothing else moves the counts between the
//! reads.

use metamess_archive::{generate, ArchiveSpec};
use metamess_pipeline::{CycleReport, WatchOptions, Watcher};

fn count(name: &str) -> u64 {
    metamess_telemetry::global().counter(name).get()
}

/// Runs one changed cycle; returns the scan stage's errors and the files it
/// failed to read or parse, and parsed, on the way.
fn cycle(w: &mut Watcher) -> (Vec<String>, u64, u64) {
    let errors = count("metamess_harvest_parse_errors_total");
    let parsed = count("metamess_harvest_files_parsed_total");
    let report: CycleReport = w.run_cycle().unwrap();
    assert!(report.changed, "{report:?}");
    let scan = report.run.stage("scan-archive").expect("the chain ran").errors.clone();
    let errors = count("metamess_harvest_parse_errors_total") - errors;
    (scan, errors, count("metamess_harvest_files_parsed_total") - parsed)
}

#[test]
fn a_file_that_never_parsed_is_read_once_per_content() {
    if !metamess_telemetry::enabled() {
        return; // METAMESS_TELEMETRY=0: no counter moves
    }
    let root = std::env::temp_dir().join(format!("mm-harvest-failures-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let (archive, store) = (root.join("archive"), root.join("store"));
    let generated = generate(&ArchiveSpec::tiny());
    generated.write_to(&archive).unwrap();
    let malformed = &generated.truth.malformed;
    assert_eq!(malformed.len(), 3);
    let mut w = Watcher::new(&archive, &store, WatchOptions::default()).unwrap();

    // a cold wrangle reads each malformed file once, however many times
    // the curation loop runs the chain
    let (cold, errors, _) = cycle(&mut w);
    assert_eq!(cold.len(), 3, "{cold:?}");
    for path in malformed {
        assert!(cold.iter().any(|e| e.starts_with(&format!("{path}: "))), "{path}: {cold:?}");
    }
    assert_eq!(errors, 3);

    // an edit that touches no malformed file reads none of them, and the
    // scan lists the same errors
    let station = generated
        .files
        .iter()
        .map(|(path, _)| path)
        .find(|path| path.starts_with("stations/") && path.ends_with(".csv"))
        .expect("a station file");
    let text = std::fs::read_to_string(archive.join(station)).unwrap();
    let last = text.lines().rev().find(|l| !l.trim().is_empty()).unwrap().to_string();
    std::fs::write(archive.join(station), format!("{text}{last}\n")).unwrap();
    let (edited, errors, parsed) = cycle(&mut w);
    assert_eq!(edited, cold);
    assert_eq!((errors, parsed), (0, 1), "only the edited station file is read");

    // editing one malformed file reads that file, and only it
    let junk = malformed.iter().find(|p| p.ends_with(".bin")).expect("a junk file");
    let mut bytes = std::fs::read(archive.join(junk)).unwrap();
    bytes.extend_from_slice(b" still not data");
    std::fs::write(archive.join(junk), bytes).unwrap();
    let (touched, errors, parsed) = cycle(&mut w);
    assert_eq!(touched.len(), 3, "{touched:?}");
    assert_eq!((errors, parsed), (1, 0));
    drop(w);
    let _ = std::fs::remove_dir_all(&root);
}
