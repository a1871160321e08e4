//! An incremental `watch` publishes what a cold wrangle of the same archive
//! publishes, given the same curated knowledge.
//!
//! Each case writes a seeded archive to disk and runs a [`Watcher`] over
//! it: one cold cycle, then 1–3 cycles of 1–3 edits each (append a row,
//! copy a file under a new name, rename, delete, or add a file with a messy
//! header). Before a cycle's edits, a seeded third of the cycles first
//! crash and resume: the watcher is dropped, the state image the previous
//! cycle started from is put back (or removed, when there was none), so the
//! state is a cycle behind the store (a watcher writes its state before the
//! store's fsync, so a crash cannot leave that, but a restored backup can),
//! and a new watcher opens the store. A seeded third of the edit cycles,
//! drawn up front from a generator of their own, fail instead: a directory
//! sits where the temporary file of one of the cycle's writes goes — the
//! state image, written before the store's flush, or the vocabulary file,
//! written after it — and the cycle returns an error; with the obstacle
//! gone, a new watcher runs one more cycle over the same archive. Its
//! store (datasets and vocabulary file) must then equal the store of a
//! twin watcher that got the same archive, edits and crashes on a copy and
//! never failed; after a failed vocabulary write, whose state was saved,
//! the twin restarts too, so the two watchers' run ids stay in step. Only
//! a seed that meets a fault builds a twin. After every cycle
//! the store's catalog must equal what a fresh context publishes over the
//! same archive. That context loads the watcher's saved state, so it knows
//! the vocabulary and curation the watcher learned, then drops the ledger,
//! findings and proposals and runs the curation loop to fixpoint from an
//! empty catalog.
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

/// Asserts that two dataset lists in the same order are equal, naming the
/// first dataset that differs.
fn assert_same_datasets(ours: &[DatasetFeature], theirs: &[DatasetFeature], what: &str) {
    let paths = |c: &[DatasetFeature]| c.iter().map(|f| f.path.clone()).collect::<Vec<_>>();
    assert_eq!(paths(ours), paths(theirs), "{what}: published paths");
    for (a, b) in ours.iter().zip(theirs) {
        assert_eq!(a, b, "{what}: {}", a.path);
    }
}

fn assert_store_matches_cold_wrangle(archive: &Path, store: &Path, cycle: usize) {
    let watched = normalized(&read_published(store.join("catalog")).unwrap().catalog());
    assert_same_datasets(&watched, &cold_wrangle(archive, store), &format!("cycle {cycle}"));
}

/// A watcher over its own archive and store.
struct Side {
    archive: PathBuf,
    store: PathBuf,
    watcher: Option<Watcher>,
    /// The state image the last cycle started from, if there was one.
    previous: Option<Vec<u8>>,
}

impl Side {
    /// Writes `spec`'s archive under `dir` and opens a watcher over it.
    fn new(dir: &Path, spec: &ArchiveSpec) -> Side {
        let (archive, store) = (dir.join("archive"), dir.join("store"));
        generate(spec).write_to(&archive).unwrap();
        let mut side = Side { archive, store, watcher: None, previous: None };
        side.reopen();
        side
    }

    fn state(&self) -> PathBuf {
        self.store.join("state").join("state.bin")
    }

    /// Drops the watcher, then opens a new one over the same store.
    fn reopen(&mut self) {
        self.watcher = None;
        self.watcher =
            Some(Watcher::new(&self.archive, &self.store, WatchOptions::default()).unwrap());
    }

    fn cycle(&mut self) {
        self.previous = std::fs::read(self.state()).ok();
        self.watcher.as_mut().unwrap().run_cycle().unwrap();
    }

    /// The state falls a cycle behind the store: the image the last cycle
    /// started from is put back (or removed, when there was none) and a new
    /// watcher opens the store.
    fn crash(&mut self) {
        self.watcher = None;
        match &self.previous {
            Some(bytes) => std::fs::write(self.state(), bytes).unwrap(),
            None => std::fs::remove_file(self.state()).unwrap(),
        }
        self.reopen();
    }

    /// A cycle whose `fault` write fails — a directory sits where the
    /// file's temporary copy goes — returns an error; with the obstacle
    /// gone, a new watcher runs one more cycle over the same archive.
    /// Says whether the cycle failed and a new watcher took over.
    fn fail_then_resume(&mut self, fault: Fault) -> bool {
        let obstacle = match fault {
            Fault::State => self.state(),
            Fault::Vocabulary => self.store.join("vocabulary.json"),
        }
        .with_extension("tmp");
        std::fs::create_dir_all(&obstacle).unwrap();
        self.previous = std::fs::read(self.state()).ok();
        let failed = self.watcher.as_mut().unwrap().run_cycle();
        std::fs::remove_dir_all(&obstacle).unwrap();
        match failed {
            // edits that cancel out (a copy, then its deletion) leave
            // nothing to wrangle and no state to write; a cycle that
            // teaches the curator nothing leaves no vocabulary to write
            Ok(report) => {
                assert!(fault == Fault::Vocabulary || !report.changed, "the state write must fail");
                false
            }
            Err(_) => {
                self.reopen();
                self.watcher.as_mut().unwrap().run_cycle().unwrap();
                true
            }
        }
    }

    /// The store's datasets, in id order.
    fn published(&self) -> Vec<DatasetFeature> {
        read_published(self.store.join("catalog")).unwrap().catalog().into_features().collect()
    }

    /// The store's vocabulary file.
    fn vocabulary(&self) -> Vec<u8> {
        std::fs::read(self.store.join("vocabulary.json")).unwrap()
    }
}

/// The write an edit cycle fails.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Fault {
    /// The state image's, before the store's flush.
    State,
    /// The vocabulary file's, after the store's flush.
    Vocabulary,
}

/// A third of the draws fail a write, half of those the state's.
fn fault(rng: &mut Rng) -> Option<Fault> {
    match rng.below(6) {
        0 => Some(Fault::State),
        1 => Some(Fault::Vocabulary),
        _ => None,
    }
}

#[test]
fn an_incremental_watch_publishes_what_a_cold_wrangle_publishes() {
    let base = std::env::temp_dir().join(format!("mm-watch-oracle-{}", std::process::id()));
    sweep(cases(), |rng| {
        // the faults draw from a generator of their own, so each seed keeps
        // the archive, edits and crashes it drew without them
        let mut faults = Rng(rng.0 ^ 0xFA_0175);
        let _ = std::fs::remove_dir_all(&base);
        let spec = spec(rng);
        let schedule: Vec<Option<Fault>> =
            (0..rng.size(1, 4)).map(|_| fault(&mut faults)).collect();
        let mut side = Side::new(&base, &spec);
        // only a seed that meets a fault pays for a twin: it gets the same
        // archive, edits and crashes, and no fault
        let mut twin =
            schedule.iter().any(Option::is_some).then(|| Side::new(&base.join("twin"), &spec));
        side.cycle();
        twin.iter_mut().for_each(Side::cycle);
        assert_store_matches_cold_wrangle(&side.archive, &side.store, 1);
        let mut n = 0;
        for (cycle, fault) in (2..).zip(schedule) {
            if rng.below(3) == 0 {
                side.crash();
                twin.iter_mut().for_each(Side::crash);
            }
            for _ in 0..rng.size(1, 4) {
                n += 1;
                if let Some(twin) = &twin {
                    edit(&mut Rng(rng.0), &twin.archive, n);
                }
                edit(rng, &side.archive, n);
            }
            match (fault, &mut twin) {
                (Some(fault), Some(twin)) => {
                    let resumed = side.fail_then_resume(fault);
                    // a second twin cycle would see no edit and publish nothing
                    twin.cycle();
                    if resumed && fault == Fault::Vocabulary {
                        // the side's new watcher resumed the state the failed
                        // cycle saved and ran one more cycle, which that state
                        // skips; the twin restarts too, so their run ids, and
                        // the stamps later cycles give, stay in step
                        twin.reopen();
                        twin.cycle();
                    }
                    let what = format!("cycle {cycle}, after a failed {fault:?} write");
                    assert_same_datasets(&side.published(), &twin.published(), &what);
                    assert!(side.vocabulary() == twin.vocabulary(), "{what}: the vocabulary");
                }
                _ => {
                    side.cycle();
                    twin.iter_mut().for_each(Side::cycle);
                }
            }
            assert_store_matches_cold_wrangle(&side.archive, &side.store, cycle);
        }
    });
    let _ = std::fs::remove_dir_all(&base);
}
