//! Continuous ingestion: poll an archive, re-wrangle what changed, and
//! publish each cycle's catalog delta to the durable store inline.
//!
//! A [`Watcher`] owns everything one `metamess watch` process needs: the
//! pipeline context (with its ledger, which names what the last cycle
//! wrangled), the standard pipeline, the curation loop, and the
//! [`DurableCatalog`] it publishes to. Each **cycle**:
//!
//! 1. walks the archive once ([`PipelineContext::rescan`]) and compares
//!    its content fingerprint, with the watcher's settings, against the
//!    previous cycle's — in a new `Watcher`, against what the resumed
//!    ledger names ([`cycle_input`](metamess_core::RunLedger::cycle_input))
//!    — and an unchanged archive skips the pipeline entirely;
//! 2. runs the curation loop, under [`WatchOptions::curator`], to
//!    fixpoint over that same listing: the chain once, then once more after
//!    each curator step that changed something the chain reads, each run
//!    recorded as a wrangle trace. No run walks the archive again, and the
//!    scan stage re-parses only the files whose content moved. The ledger
//!    then names the catalog the loop ended with — the cycle's one
//!    whole-catalog fingerprint;
//! 3. diffs the store's rows against the context's catalog, in place —
//!    that diff is the publish — and persists the pipeline state for
//!    resume as one state image, with one fsync and one rename. That state
//!    holds no catalog: the store is the only other copy, and a new
//!    `Watcher` takes its catalog from the store's rows;
//! 4. applies the diff's mutations to the WAL and flushes once — the
//!    cycle's one store fsync, so the delta is durable when the cycle
//!    returns — then compacts when the WAL has outgrown the snapshot;
//! 5. saves the vocabulary *only when its version moved* (a rewritten
//!    vocabulary file forces live readers into a full reload — see the
//!    delta-publication signature check in `metamess-server`), atomically.
//!    A new `Watcher` takes the version from the file, so a file a crash
//!    left behind the state is rewritten by its first cycle.
//!
//! The state is written before the store, so what a cycle learned is never
//! behind what the store holds: a crash between the two leaves a state
//! whose ledger names a catalog the store does not hold. The ledger resumes
//! only when the store's rows are the catalog it was recorded against.
//! When none survives — no state, a crash between the state's rename and
//! the store's fsync, rows the store lost — the next cycle is a cold
//! wrangle with the restored knowledge: it starts from an empty catalog,
//! because the store's rows may have been curated with knowledge the state
//! does not hold. A dataset it rebuilds equal to its row but for
//! `provenance.pipeline_run` keeps the row's stamp, so such a cycle
//! publishes only what changed.
//!
//! A store nested in the archive, under any name, is kept out of the walk
//! ([`ScanConfig::exclude_dir`](metamess_harvest::ScanConfig::exclude_dir)):
//! its files change every cycle and would never let one be skipped.
//!
//! Because publishes append to the WAL without checkpointing, a live
//! `metamess serve` follows them via its WAL-tail delta path without
//! reopening the store; compaction folds the WAL into a fresh snapshot
//! when it outgrows the configured ratio.
//!
//! `metamess wrangle` is one cycle of a fresh `Watcher`, under a policy
//! that folds the WAL into the snapshot whenever a cycle published
//! anything; so a re-wrangle of an unchanged archive writes only the
//! state image, and this is the one path from the pipeline to a store.
//!
//! Cycle telemetry lands in the `metamess_ingest_*` families (see
//! `README.md § Running metamess as a live service`).

use crate::context::PipelineContext;
use crate::curator::{CurationLoop, CurationStep, CuratorPolicy};
use crate::engine::{load_state, name_catalog, save_state};
use crate::pipeline::{Pipeline, RunReport};
use metamess_core::id::fnv1a;
use metamess_core::store::CompactionPolicy;
use metamess_core::{Catalog, DurableCatalog, Error, Mutation, Result, StoreOptions};
use metamess_harvest::ArchiveInput;
use metamess_telemetry::{global, Stopwatch};
use metamess_vocab::Vocabulary;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tuning for a [`Watcher`].
#[derive(Debug, Clone)]
pub struct WatchOptions {
    /// Pause between polling cycles.
    pub interval: Duration,
    /// Stop after this many cycles (`None` = run until stopped).
    pub max_cycles: Option<u64>,
    /// When a publish goes on to fold the store's WAL into a snapshot.
    pub compaction: CompactionPolicy,
    /// What the curation loop accepts between pipeline runs.
    pub curator: CuratorPolicy,
}

impl Default for WatchOptions {
    fn default() -> WatchOptions {
        WatchOptions {
            interval: Duration::from_millis(1000),
            max_cycles: None,
            compaction: CompactionPolicy::default(),
            curator: CuratorPolicy::default(),
        }
    }
}

/// What one polling cycle did.
#[derive(Debug, Clone)]
pub struct CycleReport {
    /// 1-based cycle number.
    pub cycle: u64,
    /// Whether the archive fingerprint moved since the previous cycle
    /// (`false` means the pipeline was skipped entirely).
    pub changed: bool,
    /// Mutations published to the store this cycle.
    pub mutations: usize,
    /// Datasets in the context's catalog after the cycle: what the store
    /// holds once the cycle published.
    pub datasets: usize,
    /// The vocabulary's version after the cycle.
    pub vocab_version: u64,
    /// End-to-end cycle latency in µs (scan through durable publish).
    pub micros: u64,
    /// The curation loop's iterations (empty when the pipeline was skipped).
    pub history: Vec<CurationStep>,
    /// The loop's final pipeline run (empty when the pipeline was skipped).
    pub run: RunReport,
}

/// Aggregate of a whole [`Watcher::run`].
#[derive(Debug, Clone, Default)]
pub struct WatchReport {
    /// Cycles executed.
    pub cycles: u64,
    /// Cycles that skipped the pipeline (unchanged archive).
    pub skipped: u64,
    /// Total mutations published across all cycles.
    pub mutations: usize,
    /// Datasets in the published catalog at exit.
    pub datasets: usize,
}

/// The continuous-ingestion loop: archive in, catalog deltas out.
pub struct Watcher {
    vocab_path: PathBuf,
    state_dir: PathBuf,
    options: WatchOptions,
    ctx: PipelineContext,
    pipeline: Pipeline,
    curator: CurationLoop,
    store: DurableCatalog,
    /// The first failed append, fsync or compaction. The files may then no
    /// longer match what `store` holds, so every later publish is refused
    /// with it.
    failed: Option<String>,
    stop: Arc<AtomicBool>,
    /// Digest of the scan configuration, the naming rules and the curator
    /// policy: with the archive's fingerprint, what a cycle wrangles.
    settings: u64,
    /// What the last wrangled cycle's input was ([`Watcher::input`]).
    last_input: Option<u64>,
    last_vocab_version: Option<u64>,
    cycle: u64,
    resumed: bool,
}

impl Watcher {
    /// Opens the store under `store_dir` (creating it if needed), takes the
    /// context's catalog from it and restores pipeline state from a
    /// previous wrangle or watch. Nothing runs until [`Watcher::run`] or
    /// [`Watcher::run_cycle`].
    pub fn new(
        archive_dir: impl Into<PathBuf>,
        store_dir: impl Into<PathBuf>,
        options: WatchOptions,
    ) -> Result<Watcher> {
        let (archive_dir, store_dir) = (archive_dir.into(), store_dir.into());
        let store = DurableCatalog::open(store_dir.join("catalog"), StoreOptions::default())?;
        let mut ctx = PipelineContext::new(
            ArchiveInput::Dir(archive_dir.clone()),
            Vocabulary::observatory_default(),
        );
        // keep the store out of the scan when it nests inside the archive
        ctx.harvest.scan.exclude_dir(&archive_dir, &store_dir);
        // the store is what was published; the state's ledger resumes only
        // if it was recorded against these rows
        ctx.catalog = store.catalog();
        let state_dir = store_dir.join("state");
        let resumed = load_state(&mut ctx, &state_dir)?;
        let vocab_path = store_dir.join("vocabulary.json");
        // the version the file holds, not the state's: a crash after the
        // state's write and before the file's leaves the file behind, and
        // the next cycle, changed or not, must rewrite it
        let last_vocab_version = Vocabulary::load(&vocab_path).ok().map(|v| v.version);
        let settings =
            serde_json::to_vec(&(&ctx.harvest.scan, &ctx.harvest.naming, &options.curator))
                .map_err(|e| Error::invalid(format!("unencodable watch settings: {e}")))?;
        // a ledger that describes the store's rows names the input its last
        // cycle wrangled: the same input again needs no cycle
        let last_input = ctx.ledger.cycle_input;
        Ok(Watcher {
            vocab_path,
            state_dir,
            ctx,
            pipeline: Pipeline::standard(),
            curator: CurationLoop::new(options.curator.clone()),
            options,
            store,
            failed: None,
            stop: Arc::new(AtomicBool::new(false)),
            settings: fnv1a(&settings),
            last_input,
            last_vocab_version,
            cycle: 0,
            resumed,
        })
    }

    /// Whether [`Watcher::new`] restored state from a previous run.
    pub fn resumed(&self) -> bool {
        self.resumed
    }

    /// A flag that stops [`Watcher::run`] after the current cycle — hand
    /// it to a signal handler.
    pub fn stop_handle(&self) -> Arc<AtomicBool> {
        self.stop.clone()
    }

    /// Runs one polling cycle: scan, (maybe) wrangle, publish, persist.
    pub fn run_cycle(&mut self) -> Result<CycleReport> {
        let started = Instant::now();
        self.cycle += 1;
        let archive = self.ctx.rescan()?;
        let input = self.input(archive);
        if self.last_input == Some(input) {
            self.save_vocabulary()?;
            let report = CycleReport {
                cycle: self.cycle,
                changed: false,
                mutations: 0,
                datasets: self.ctx.catalog.len(),
                vocab_version: self.ctx.vocab.version,
                micros: started.elapsed().as_micros() as u64,
                history: Vec::new(),
                run: RunReport::default(),
            };
            record_cycle(&report, 0, self.pipeline.component_names().len());
            return Ok(report);
        }
        // A ledger that names no catalog — none survived, or the last run
        // failed — describes none: drop it and wrangle cold (see the module
        // docs), keeping the rows aside for their stamps.
        let previous = self.ctx.ledger.catalog_fingerprint.is_none().then(|| {
            self.ctx.ledger.clear();
            std::mem::take(&mut self.ctx.catalog)
        });
        let (history, run) = self.curator.fixpoint(&mut self.pipeline, &mut self.ctx)?;
        if let Some(previous) = previous {
            keep_stamps(&mut self.ctx.catalog, &previous);
        }
        name_catalog(&mut self.ctx);
        self.ctx.ledger.cycle_input = Some(input);
        // The store holds the previously published catalog, as rows; the
        // diff compares them with the context's catalog in place and is
        // exactly the delta to publish, rows the store lost included.
        let delta = self.store.diff(&self.ctx.catalog);
        let mutations = delta.len();
        // The state goes first, so what the cycle learned is never behind
        // the store: after a crash before the flush, its ledger names a
        // catalog the store does not hold, and the next cycle wrangles cold
        // with this cycle's knowledge.
        save_state(&self.ctx, &self.state_dir)?;
        let wait = Stopwatch::start_if(metamess_telemetry::enabled());
        if mutations > 0 {
            self.publish(delta)?;
        }
        let wait_micros = wait.micros();
        self.save_vocabulary()?;
        self.last_input = Some(input);
        let report = CycleReport {
            cycle: self.cycle,
            changed: true,
            mutations,
            datasets: self.ctx.catalog.len(),
            vocab_version: self.ctx.vocab.version,
            micros: started.elapsed().as_micros() as u64,
            history,
            run,
        };
        record_cycle(&report, wait_micros, 0);
        Ok(report)
    }

    /// Saves the vocabulary when the file holds another version: the
    /// curator moved it, or a crash left the file behind the state.
    /// Rewriting it forces live readers into a full reload, so nothing else
    /// does.
    fn save_vocabulary(&mut self) -> Result<()> {
        if self.last_vocab_version != Some(self.ctx.vocab.version) {
            self.ctx.vocab.save(&self.vocab_path)?;
            self.last_vocab_version = Some(self.ctx.vocab.version);
        }
        Ok(())
    }

    /// What a cycle over an archive with the content fingerprint
    /// `archive` wrangles, under this watcher's settings.
    fn input(&self, archive: u64) -> u64 {
        let mut bytes = [0u8; 16];
        bytes[..8].copy_from_slice(&archive.to_le_bytes());
        bytes[8..].copy_from_slice(&self.settings.to_le_bytes());
        fnv1a(&bytes)
    }

    /// Appends `delta` to the WAL and flushes it with one fsync, then
    /// compacts when the policy trips. A failed append or fsync is returned.
    /// A failed compaction is not: the batch is already durable, so this
    /// cycle reports, and the failure surfaces at the next publish or at the
    /// end of [`Watcher::run`]. Either way every later publish is refused.
    fn publish(&mut self, delta: Vec<Mutation>) -> Result<()> {
        self.check_failed()?;
        let appended = delta.into_iter().try_for_each(|m| self.store.apply(m));
        if let Err(e) = appended.and_then(|()| self.store.flush()) {
            self.failed = Some(e.to_string());
            return Err(e);
        }
        if let Err(e) = self.store.maybe_compact(&self.options.compaction) {
            self.failed = Some(format!("compaction failed: {e}"));
        }
        Ok(())
    }

    /// The sticky failure, if any, as an error.
    fn check_failed(&self) -> Result<()> {
        match &self.failed {
            Some(reason) => Err(Error::io("publish", std::io::Error::other(reason.clone()))),
            None => Ok(()),
        }
    }

    /// Runs cycles until the stop flag is raised or `max_cycles` is
    /// reached, sleeping `interval` between cycles (interruptibly), then
    /// returns a compaction failure no later publish has. `on_cycle`
    /// observes every cycle — print progress, persist telemetry, or ignore
    /// it.
    pub fn run(mut self, mut on_cycle: impl FnMut(&CycleReport)) -> Result<WatchReport> {
        let mut report = WatchReport::default();
        while !self.stop.load(Ordering::Relaxed) {
            let cycle = self.run_cycle()?;
            report.cycles += 1;
            report.mutations += cycle.mutations;
            report.datasets = cycle.datasets;
            if !cycle.changed {
                report.skipped += 1;
            }
            on_cycle(&cycle);
            if self.options.max_cycles.is_some_and(|max| report.cycles >= max) {
                break;
            }
            let deadline = Instant::now() + self.options.interval;
            while !self.stop.load(Ordering::Relaxed) {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                std::thread::sleep((deadline - now).min(Duration::from_millis(50)));
            }
        }
        self.check_failed().map(|()| report)
    }

    /// The pipeline context: at [`Watcher::new`] the resumed state with the
    /// store's rows as its catalog, then what each cycle left.
    pub fn context(&self) -> &PipelineContext {
        &self.ctx
    }
}

/// Gives each dataset of `catalog` that equals its entry in `previous` but
/// for `provenance.pipeline_run` that entry's stamp: a cold cycle rebuilds
/// what the store already holds, and must not republish it.
fn keep_stamps(catalog: &mut Catalog, previous: &Catalog) {
    for f in catalog.iter_mut() {
        let Some(old) = previous.get(f.id) else { continue };
        let run = std::mem::replace(&mut f.provenance.pipeline_run, old.provenance.pipeline_run);
        if f != old {
            f.provenance.pipeline_run = run;
        }
    }
}

/// Records one cycle into the `metamess_ingest_*` telemetry families, and
/// the `stages_not_run` stages a skipped cycle did not run into
/// `metamess_pipeline_stages_skipped_total`.
fn record_cycle(report: &CycleReport, publish_wait_micros: u64, stages_not_run: usize) {
    if !metamess_telemetry::enabled() {
        return;
    }
    let g = global();
    g.counter("metamess_pipeline_stages_skipped_total").add(stages_not_run as u64);
    g.counter("metamess_ingest_cycles_total").add(1);
    if !report.changed {
        g.counter("metamess_ingest_cycles_skipped_total").add(1);
    }
    g.counter("metamess_ingest_published_mutations_total").add(report.mutations as u64);
    g.histogram("metamess_ingest_cycle_micros").record(report.micros);
    if report.changed {
        g.histogram("metamess_ingest_publish_wait_micros").record(publish_wait_micros);
    }
    g.gauge("metamess_ingest_datasets").set(report.datasets as i64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use metamess_archive::{generate, ArchiveSpec};
    use std::path::Path;

    fn fixture(name: &str) -> (PathBuf, PathBuf) {
        let root = std::env::temp_dir().join(format!("mm-watch-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let archive = root.join("archive");
        generate(&ArchiveSpec::tiny()).write_to(&archive).unwrap();
        (archive, root.join("store"))
    }

    /// Copies the first station file in the archive to a new name, the way
    /// a station upload lands a fresh observation file. Only `stations/` is
    /// walked: the archive also has `malformed/*.csv`, which can never
    /// become a dataset.
    fn add_one_file(archive: &Path) -> PathBuf {
        let mut stack = vec![archive.join("stations")];
        while let Some(dir) = stack.pop() {
            for e in std::fs::read_dir(&dir).unwrap() {
                let p = e.unwrap().path();
                if p.is_dir() {
                    stack.push(p);
                } else if p.extension().is_some_and(|x| x == "csv") {
                    let dest = p.with_file_name("fresh_upload.csv");
                    std::fs::copy(&p, &dest).unwrap();
                    return dest;
                }
            }
        }
        panic!("archive has no station csv files");
    }

    /// Copies the flat directory `from` to `to`, replacing what `to` held.
    fn copy_dir(from: &Path, to: &Path) {
        let _ = std::fs::remove_dir_all(to);
        std::fs::create_dir_all(to).unwrap();
        for e in std::fs::read_dir(from).unwrap() {
            let p = e.unwrap().path();
            std::fs::copy(&p, to.join(p.file_name().unwrap())).unwrap();
        }
    }

    /// Lands a file of headers the vocabulary does not know yet: the same
    /// edit, byte for byte, in whichever archive it is made.
    fn add_messy_file(archive: &Path) {
        std::fs::create_dir_all(archive.join("extra")).unwrap();
        std::fs::write(
            archive.join("extra/messy.csv"),
            "time,wtemp,Salinity,tmp_h2o\n2010-01-01T00:00:00Z,9.5,28.1,9.4\n",
        )
        .unwrap();
    }

    fn store_len(store: &Path) -> usize {
        DurableCatalog::open(store.join("catalog"), StoreOptions::default())
            .unwrap()
            .catalog()
            .len()
    }

    fn quick_options(cycles: Option<u64>) -> WatchOptions {
        WatchOptions {
            interval: Duration::from_millis(1),
            max_cycles: cycles,
            ..WatchOptions::default()
        }
    }

    #[test]
    fn first_cycle_publishes_then_unchanged_cycles_skip() {
        let (archive, store) = fixture("skip");
        let mut w = Watcher::new(&archive, &store, quick_options(None)).unwrap();
        assert!(!w.resumed());
        let r1 = w.run_cycle().unwrap();
        assert!(r1.changed);
        assert!(r1.datasets > 0, "tiny archive must publish datasets");
        assert!(r1.mutations > 0, "first cycle publishes everything");
        let r2 = w.run_cycle().unwrap();
        assert!(!r2.changed, "unchanged archive must skip the pipeline");
        assert_eq!(r2.mutations, 0);
        assert_eq!(r2.datasets, r1.datasets);
    }

    #[test]
    fn a_store_nested_in_the_archive_under_any_name_is_not_scanned() {
        let (archive, _) = fixture("nested");
        let store = archive.join("mystore");
        let w = Watcher::new(&archive, &store, quick_options(Some(4))).unwrap();
        let mut cycles = Vec::new();
        w.run(|c| cycles.push(c.clone())).unwrap();
        assert_eq!(cycles.len(), 4);
        assert!(cycles[0].changed && cycles[0].datasets > 0);
        for c in &cycles[1..] {
            assert!(!c.changed, "cycle {}: the store's own files moved the archive", c.cycle);
        }
    }

    #[test]
    fn a_new_file_flows_to_the_durable_store() {
        let (archive, store) = fixture("delta");
        let mut w = Watcher::new(&archive, &store, quick_options(None)).unwrap();
        let r1 = w.run_cycle().unwrap();
        add_one_file(&archive);
        let r2 = w.run_cycle().unwrap();
        assert!(r2.changed, "new file must change the archive fingerprint");
        assert!(r2.mutations > 0, "the new dataset must be published as a delta");
        assert_eq!(r2.datasets, r1.datasets + 1);
        drop(w);
        // The store on disk agrees with what the watcher reported.
        let s = DurableCatalog::open(store.join("catalog"), StoreOptions::default()).unwrap();
        assert_eq!(s.catalog().len(), r2.datasets);
        assert!(
            s.catalog().iter().any(|d| d.path.contains("fresh_upload")),
            "the uploaded file must be durably cataloged"
        );
    }

    #[test]
    fn a_publish_is_on_disk_when_the_cycle_returns() {
        let (archive, store) = fixture("inline");
        let mut w = Watcher::new(&archive, &store, quick_options(None)).unwrap();
        w.run_cycle().unwrap();
        add_one_file(&archive);
        let r = w.run_cycle().unwrap();
        // The watcher is still alive: only the cycle's own fsync put the
        // delta where a reader finds it.
        let on_disk = metamess_core::store::read_published(store.join("catalog")).unwrap();
        assert_eq!(on_disk.rows.len(), r.datasets);
        assert!(
            on_disk.rows.iter().any(|row| row.view().path().1.contains("fresh_upload")),
            "the uploaded file must be published before the cycle returns"
        );
    }

    #[test]
    fn run_honors_max_cycles_and_reports_totals() {
        let (archive, store) = fixture("run");
        let w = Watcher::new(&archive, &store, quick_options(Some(3))).unwrap();
        let mut seen = 0;
        let report = w.run(|_| seen += 1).unwrap();
        assert_eq!(report.cycles, 3);
        assert_eq!(seen, 3);
        assert_eq!(report.skipped, 2, "cycles 2 and 3 see an unchanged archive");
        assert!(report.datasets > 0);
    }

    #[test]
    fn stop_handle_ends_the_run() {
        let (archive, store) = fixture("stop");
        let w = Watcher::new(&archive, &store, quick_options(None)).unwrap();
        let stop = w.stop_handle();
        let report = w.run(move |_| stop.store(true, Ordering::Relaxed)).unwrap();
        assert_eq!(report.cycles, 1, "raising the flag stops after the current cycle");
    }

    #[test]
    fn a_second_watcher_resumes_from_saved_state() {
        let (archive, store) = fixture("resume");
        let mut w = Watcher::new(&archive, &store, quick_options(None)).unwrap();
        let r1 = w.run_cycle().unwrap();
        drop(w);
        let mut w2 = Watcher::new(&archive, &store, quick_options(None)).unwrap();
        assert!(w2.resumed(), "state saved by the first watcher must be restored");
        assert_eq!(w2.context().catalog.len(), r1.datasets);
        // Nothing changed on disk, and the resumed ledger names what the
        // first watcher wrangled: the cycle publishes nothing.
        let r2 = w2.run_cycle().unwrap();
        assert_eq!(r2.mutations, 0, "an unchanged archive re-wrangle publishes nothing");
        assert_eq!(r2.datasets, r1.datasets);
    }

    #[test]
    fn a_crash_between_publish_and_save_state_resumes_what_the_store_holds() {
        let (archive, store) = fixture("crash");
        let state = store.join("state");
        let saved = store.with_file_name("state-before");
        let mut w = Watcher::new(&archive, &store, quick_options(None)).unwrap();
        let r1 = w.run_cycle().unwrap();
        copy_dir(&state, &saved);
        add_one_file(&archive);
        let r2 = w.run_cycle().unwrap();
        assert_eq!(r2.datasets, r1.datasets + 1);
        drop(w);
        // The second cycle's delta is in the store, but its state is not:
        // the process died between the fsync and save_state.
        copy_dir(&saved, &state);
        let mut w2 = Watcher::new(&archive, &store, quick_options(None)).unwrap();
        assert!(w2.resumed());
        assert_eq!(w2.context().catalog.len(), r2.datasets, "resume reports what the store serves");
        let r3 = w2.run_cycle().unwrap();
        assert_eq!(r3.mutations, 0, "the store already holds the second cycle");
        assert_eq!(r3.datasets, r2.datasets);
        drop(w2);
        assert_eq!(store_len(&store), r2.datasets);
    }

    #[test]
    fn a_vocabulary_a_cycle_failed_to_write_is_written_by_the_next_watcher() {
        let (archive, store) = fixture("vocab");
        let vocab = store.join("vocabulary.json");
        let mut w = Watcher::new(&archive, &store, quick_options(None)).unwrap();
        w.run_cycle().unwrap();
        let published = Vocabulary::load(&vocab).unwrap().version;
        let extra = archive.join("extra");
        std::fs::create_dir_all(&extra).unwrap();
        std::fs::write(
            extra.join("messy.csv"),
            "time,phospate,salinty\n2010-01-01T00:00:00Z,9.5,28.1\n2010-01-01T01:00:00Z,9.7,28.3\n",
        )
        .unwrap();
        // a directory where the file's temporary copy goes fails the write,
        // after the state and the store took the cycle
        let obstacle = vocab.with_extension("tmp");
        std::fs::create_dir(&obstacle).unwrap();
        assert!(w.run_cycle().is_err(), "the vocabulary write must fail");
        std::fs::remove_dir(&obstacle).unwrap();
        drop(w);
        let mut w2 = Watcher::new(&archive, &store, quick_options(None)).unwrap();
        let learned = w2.context().vocab.to_json();
        assert!(w2.context().vocab.version > published, "the new file taught the curator");
        // the state names the archive as it is, so the cycle runs no stage
        let r = w2.run_cycle().unwrap();
        assert!(!r.changed && r.mutations == 0, "{r:?}");
        assert_eq!(std::fs::read_to_string(&vocab).unwrap(), learned);
    }

    #[test]
    fn a_store_that_lost_a_dataset_is_made_whole_by_the_next_watcher() {
        let (archive, store) = fixture("lost");
        let mut w = Watcher::new(&archive, &store, quick_options(None)).unwrap();
        let r1 = w.run_cycle().unwrap();
        drop(w);
        let mut s = DurableCatalog::open(store.join("catalog"), StoreOptions::default()).unwrap();
        let lost = s.catalog().iter().next().unwrap().id;
        s.delete(lost).unwrap();
        s.flush().unwrap();
        drop(s);
        assert_eq!(store_len(&store), r1.datasets - 1);

        // The store no longer holds the catalog the ledger describes, so the
        // ledger is dropped and every stage re-runs over the store's rows.
        let mut w2 = Watcher::new(&archive, &store, quick_options(None)).unwrap();
        let r2 = w2.run_cycle().unwrap();
        assert_eq!(r2.mutations, 1, "exactly the lost dataset is republished");
        assert_eq!(r2.datasets, r1.datasets);
        drop(w2);
        assert_eq!(store_len(&store), r1.datasets);
    }

    #[test]
    fn a_ledger_never_resumes_against_a_catalog_it_does_not_describe() {
        let (archive, store) = fixture("stale");
        let state = store.join("state");
        let saved = store.with_file_name("stale-state-before");
        let mut w = Watcher::new(&archive, &store, quick_options(None)).unwrap();
        let r1 = w.run_cycle().unwrap();
        copy_dir(&state, &saved);
        let upload = add_one_file(&archive);
        assert_eq!(w.run_cycle().unwrap().datasets, r1.datasets + 1);
        drop(w);
        // The store is at the second cycle; the state and the archive are
        // back at the first. The first cycle's ledger would skip the scan,
        // which reads only the archive, and keep the upload published.
        copy_dir(&saved, &state);
        std::fs::remove_file(&upload).unwrap();
        let mut w2 = Watcher::new(&archive, &store, quick_options(None)).unwrap();
        assert!(w2.resumed(), "the knowledge is restored");
        assert!(w2.context().ledger.is_empty(), "the ledger describes another catalog");
        let r3 = w2.run_cycle().unwrap();
        assert_eq!(r3.mutations, 1, "the upload's deletion is published");
        assert_eq!(r3.datasets, r1.datasets);
        drop(w2);

        let mut cold = PipelineContext::new(
            ArchiveInput::Dir(archive.clone()),
            Vocabulary::observatory_default(),
        );
        assert!(load_state(&mut cold, &state).unwrap());
        CurationLoop::new(CuratorPolicy::default())
            .run_to_fixpoint(&mut Pipeline::standard(), &mut cold)
            .unwrap();
        let unstamped = |c: Catalog| {
            c.into_features()
                .map(|mut f| {
                    f.provenance.pipeline_run = 0;
                    f
                })
                .collect::<Vec<_>>()
        };
        let published =
            DurableCatalog::open(store.join("catalog"), StoreOptions::default()).unwrap().catalog();
        assert_eq!(unstamped(published), unstamped(cold.catalog), "the store is a cold wrangle");
    }

    #[test]
    fn a_watcher_reopened_over_an_unchanged_archive_runs_no_cycle() {
        let (archive, store) = fixture("reopened");
        let state = store.join("state").join("state.bin");
        let mut w = Watcher::new(&archive, &store, quick_options(None)).unwrap();
        w.run_cycle().unwrap();
        drop(w);
        let written = std::fs::read(&state).unwrap();
        let mut w2 = Watcher::new(&archive, &store, quick_options(None)).unwrap();
        let run_id = w2.context().run_id;
        let r = w2.run_cycle().unwrap();
        assert!(!r.changed && r.run.stages.is_empty(), "{r:?}");
        assert_eq!(w2.context().run_id, run_id);
        assert_eq!(std::fs::read(&state).unwrap(), written, "the state was rewritten");
        drop(w2);
        // a curator policy the state was not curated under wrangles anew
        let expert = WatchOptions {
            curator: CuratorPolicy {
                manual_synonyms: vec![("salinity".into(), "salinty".into())],
                ..CuratorPolicy::default()
            },
            ..quick_options(None)
        };
        let mut w3 = Watcher::new(&archive, &store, expert).unwrap();
        assert!(w3.run_cycle().unwrap().changed);
        drop(w3);
        // and so does an archive the state has not seen
        add_one_file(&archive);
        let mut w4 = Watcher::new(&archive, &store, quick_options(None)).unwrap();
        assert_eq!(w4.run_cycle().unwrap().mutations, 1);
    }

    #[test]
    fn a_watcher_resumed_over_an_intact_store_runs_no_stage() {
        let (archive, store) = fixture("intact");
        let mut w = Watcher::new(&archive, &store, quick_options(None)).unwrap();
        w.run_cycle().unwrap();
        let ledger = w.context().ledger.clone();
        drop(w);
        // the store holds the catalog the ledger names: the ledger resumes
        // whole, and its cycle input skips the cycle before any stage
        let mut w2 = Watcher::new(&archive, &store, quick_options(None)).unwrap();
        assert!(w2.resumed());
        assert_eq!(w2.context().ledger, ledger);
        let r = w2.run_cycle().unwrap();
        assert!(!r.changed && r.run.stages.is_empty() && r.history.is_empty(), "{r:?}");
    }

    #[test]
    fn a_resumed_watcher_reports_the_findings_of_a_twin_that_never_stopped() {
        let (archive, store) = fixture("findings-twin");
        let (resumed_archive, resumed_store) = fixture("findings-resumed");
        let mut twin = Watcher::new(&archive, &store, quick_options(None)).unwrap();
        let mut w = Watcher::new(&resumed_archive, &resumed_store, quick_options(None)).unwrap();
        twin.run_cycle().unwrap();
        w.run_cycle().unwrap();
        drop(w);
        // the state image holds no findings: the resumed watcher starts
        // with none, and its first changed cycle validates afresh
        let mut w = Watcher::new(&resumed_archive, &resumed_store, quick_options(None)).unwrap();
        assert!(w.resumed());
        add_messy_file(&archive);
        add_messy_file(&resumed_archive);
        let (r, resumed) = (twin.run_cycle().unwrap(), w.run_cycle().unwrap());
        assert!(r.changed && resumed.changed);
        assert!(!twin.context().findings.is_empty(), "the tiny archive validates clean");
        assert_eq!(w.context().findings, twin.context().findings);
        assert_eq!(resumed.history.len(), r.history.len());
    }

    /// `state/state.bin` of the tiny archive after a cold cycle and an edit
    /// cycle, at the most: 11 471 bytes measured, and a margin of 529 for
    /// the vocabulary and the ledger to grow. The image was 12 935 bytes
    /// while it held that cycle's 8 validation findings.
    const STATE_BUDGET: u64 = 12_000;

    #[test]
    fn the_state_image_of_an_edit_cycle_stays_small() {
        let (archive, store) = fixture("state-size");
        let mut w = Watcher::new(&archive, &store, quick_options(None)).unwrap();
        w.run_cycle().unwrap();
        add_messy_file(&archive);
        assert!(w.run_cycle().unwrap().changed);
        let bytes = std::fs::metadata(store.join("state").join("state.bin")).unwrap().len();
        assert!(bytes <= STATE_BUDGET, "the state image is {bytes} bytes");
    }
}
