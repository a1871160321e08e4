//! An incremental `watch` publishes what a cold wrangle of the same archive
//! publishes, given the same curated knowledge.
//!
//! Each case writes a seeded archive to disk and runs a [`Watcher`] over
//! it: one cold cycle, then 1–3 cycles of 1–3 edits each (append a row,
//! copy a file under a new name, rename, delete, or add a file with a messy
//! header). Before a cycle's edits, a seeded third of the cycles first
//! crash and resume: the watcher is dropped, the state image the previous
//! cycle started from is put back (or removed, when there was none), as if
//! the process died between the store's fsync and the state's rename, and
//! a new watcher opens the store. After every cycle the store's catalog
//! must equal what a fresh context publishes over the same archive. That
//! context loads the watcher's saved state, so it knows the vocabulary and
//! curation the watcher learned, then drops the ledger, findings and
//! proposals and runs the curation loop to fixpoint from an empty catalog.
//!
//! The knowledge is held equal on purpose: a watcher keeps synonyms it
//! learned from files that were later edited away, and a wrangle that never
//! saw those files does not learn them.
//!
//! `METAMESS_TORTURE_CASES` sets the number of seeds (default 40). A
//! failure prints `failing seed: N`.

#[path = "../../core/tests/common/mod.rs"]
mod common;

use common::{sweep, Rng};
use metamess_archive::{generate, ArchiveSpec, MessIntensity};
use metamess_core::catalog::Catalog;
use metamess_core::feature::DatasetFeature;
use metamess_core::store::{read_published, RunLedger};
use metamess_harvest::ScanConfig;
use metamess_pipeline::{
    load_state, ArchiveInput, CurationLoop, CuratorPolicy, Pipeline, PipelineContext, WatchOptions,
    Watcher,
};
use metamess_vocab::Vocabulary;
use std::path::{Path, PathBuf};

fn cases() -> u64 {
    std::env::var("METAMESS_TORTURE_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(40)
}

/// Header spellings a field tech might use: some the starter vocabulary
/// knows, some only discovery or no one resolves.
const MESSY: &[&str] = &["wtemp", "sal", "Salinity", "temp", "WaterTemp", "sal_psu", "tmp_h2o"];

fn spec(rng: &mut Rng) -> ArchiveSpec {
    ArchiveSpec {
        seed: rng.below(10_000),
        stations: rng.size(1, 4),
        cruises: rng.size(0, 3),
        glider_missions: 1,
        months: rng.size(1, 4),
        rows_per_file: 8,
        mess: MessIntensity {
            misspelling: rng.float(0.0, 0.4),
            synonym: rng.float(0.0, 0.4),
            abbreviation: rng.float(0.0, 0.3),
            excessive: rng.float(0.0, 1.0),
            ambiguous: rng.float(0.0, 0.4),
        },
        include_malformed: true,
    }
}

/// The archive's scanned files, path-sorted.
fn files(archive: &Path) -> Vec<String> {
    let listing = ArchiveInput::Dir(archive.to_path_buf()).scan(&ScanConfig::default()).unwrap();
    listing.into_iter().map(|e| e.rel_path).collect()
}

/// Applies one seeded edit to the archive on disk.
fn edit(rng: &mut Rng, archive: &Path, n: usize) {
    let files = files(archive);
    let path = archive.join(rng.pick(&files));
    match rng.below(5) {
        0 => {
            // append a copy of the last row
            let text = std::fs::read_to_string(&path).unwrap();
            let last = text.lines().rev().find(|l| !l.trim().is_empty()).unwrap_or("");
            let sep = if text.ends_with('\n') { "" } else { "\n" };
            std::fs::write(&path, format!("{text}{sep}{last}\n")).unwrap();
        }
        1 => {
            let stem = path.file_stem().unwrap().to_string_lossy();
            let ext = path.extension().unwrap().to_string_lossy();
            std::fs::copy(&path, path.with_file_name(format!("{stem}_copy{n}.{ext}"))).unwrap();
        }
        2 => {
            let name = path.file_name().unwrap().to_string_lossy();
            std::fs::rename(&path, path.with_file_name(format!("renamed{n}_{name}"))).unwrap();
        }
        3 if files.len() > 1 => std::fs::remove_file(&path).unwrap(),
        _ => {
            let (a, b) = (rng.pick(MESSY), rng.pick(MESSY));
            let dir = archive.join("extra");
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(
                dir.join(format!("messy_{n}.csv")),
                format!(
                    "time,{a},{b}\n2010-01-01T00:00:00Z,9.5,28.1\n2010-01-01T01:00:00Z,9.7,28.3\n"
                ),
            )
            .unwrap();
        }
    }
}

/// Entries with the run-dependent provenance stamp zeroed, path-sorted.
fn normalized(c: &Catalog) -> Vec<DatasetFeature> {
    let mut out: Vec<DatasetFeature> = c.iter().cloned().collect();
    for f in &mut out {
        f.provenance.pipeline_run = 0;
    }
    out.sort_by(|a, b| a.path.cmp(&b.path));
    out
}

/// What a cold wrangle of `archive` publishes, knowing what the watcher
/// saved under `store`.
fn cold_wrangle(archive: &Path, store: &Path) -> Vec<DatasetFeature> {
    let mut ctx = PipelineContext::new(
        ArchiveInput::Dir(archive.to_path_buf()),
        Vocabulary::observatory_default(),
    );
    assert!(load_state(&mut ctx, store.join("state")).unwrap(), "the watcher saved no state");
    ctx.ledger = RunLedger::new();
    ctx.findings.clear();
    ctx.proposals.clear();
    CurationLoop::new(CuratorPolicy::default())
        .run_to_fixpoint(&mut Pipeline::standard(), &mut ctx)
        .unwrap();
    normalized(&ctx.catalog)
}

fn assert_store_matches_cold_wrangle(archive: &Path, store: &Path, cycle: usize) {
    let watched = normalized(&read_published(store.join("catalog")).unwrap().catalog());
    let cold = cold_wrangle(archive, store);
    let paths = |c: &[DatasetFeature]| c.iter().map(|f| f.path.clone()).collect::<Vec<_>>();
    assert_eq!(paths(&watched), paths(&cold), "cycle {cycle}: published paths");
    for (w, c) in watched.iter().zip(&cold) {
        assert_eq!(w, c, "cycle {cycle}: {}", w.path);
    }
}

#[test]
fn an_incremental_watch_publishes_what_a_cold_wrangle_publishes() {
    let base = std::env::temp_dir().join(format!("mm-watch-oracle-{}", std::process::id()));
    sweep(cases(), |rng| {
        let _ = std::fs::remove_dir_all(&base);
        let (archive, store): (PathBuf, PathBuf) = (base.join("archive"), base.join("store"));
        generate(&spec(rng)).write_to(&archive).unwrap();
        let state = store.join("state").join("state.bin");
        let mut watcher = Watcher::new(&archive, &store, WatchOptions::default()).unwrap();
        let mut previous = std::fs::read(&state).ok();
        watcher.run_cycle().unwrap();
        assert_store_matches_cold_wrangle(&archive, &store, 1);
        let mut n = 0;
        for cycle in 2..2 + rng.size(1, 4) {
            if rng.below(3) == 0 {
                drop(watcher);
                match &previous {
                    Some(bytes) => std::fs::write(&state, bytes).unwrap(),
                    None => std::fs::remove_file(&state).unwrap(),
                }
                watcher = Watcher::new(&archive, &store, WatchOptions::default()).unwrap();
            }
            previous = std::fs::read(&state).ok();
            for _ in 0..rng.size(1, 4) {
                n += 1;
                edit(rng, &archive, n);
            }
            watcher.run_cycle().unwrap();
            assert_store_matches_cold_wrangle(&archive, &store, cycle);
        }
    });
    let _ = std::fs::remove_dir_all(&base);
}
