//! The pipeline runner's engine, and the pipeline state that outlives a
//! process.
//!
//! # Running the chain
//!
//! [`run_chain`] runs every stage of the chain, in order, on every run. It
//! times each stage, records the time in the ledger
//! (`metamess_pipeline_stage_last_micros`) and in
//! `metamess_pipeline_stage_micros{stage=…}`, and records the run as one
//! wrangle trace with a child span per stage. What is not re-done is
//! decided once per curation loop or watch cycle, not per stage:
//!
//! * a [`crate::Watcher`] skips a whole cycle when the archive and its
//!   settings are what its last cycle wrangled
//!   ([`RunLedger::cycle_input`]);
//! * [`crate::CurationLoop`] stops before running the chain again when its
//!   curator step changed nothing the chain reads; every stage is
//!   idempotent on its own output, so that run could change nothing.
//!
//! Inside the chain, the scan stage re-parses only the files whose content
//! moved, and a stage that decides nothing new moves no descriptor and
//! leaves [`Catalog::generation`] alone.
//!
//! [`Catalog::generation`]: metamess_core::Catalog::generation
//!
//! # The resume check
//!
//! The ledger names the content fingerprint of the catalog it describes
//! ([`RunLedger::catalog_fingerprint`]). That fingerprint encodes the whole
//! catalog, so it is taken once per [`crate::Pipeline::run`],
//! [`crate::CurationLoop::run_to_fixpoint`] or watch cycle, when it ends
//! ([`name_catalog`]), and once by [`load_state`] to compare against it.
//! `metamess_pipeline_catalog_fingerprints_total` counts them and
//! `metamess_pipeline_fingerprint_micros` times them. A run clears the name
//! when it starts, so a run that fails leaves a ledger naming no catalog.
//!
//! # Durability
//!
//! [`save_state`]/[`load_state`] persist the ledger together with the
//! vocabulary and curation side-state as one CRC-framed state image
//! (`<store>/state/state.bin`, [`metamess_core::store::write_state`]),
//! written whole with one fsync and one rename, so a fresh process resumes
//! what was learned, and never from parts of two runs. The image is a
//! cache: one that is damaged, or written in an older format, is
//! quarantined and costs one cold wrangle.
//!
//! The image holds no catalog. The pipeline holds one, the working catalog,
//! and after a successful publish the durable store holds the same rows,
//! so a writer takes its working catalog from its `DurableCatalog`.
//! [`load_state`] keeps the ledger only when the context holds the catalog
//! it names. A store that does not hold it — a crash between a watcher's
//! state rename and its store fsync, rows lost to `fsck --repair` — is
//! wrangled cold, never skipped on the strength of a catalog it does not
//! have.
//!
//! # The one walk
//!
//! The archive is walked once per pipeline run, curation loop or watch
//! cycle, by [`PipelineContext::rescan`]: [`crate::Pipeline::run`] and
//! [`crate::CurationLoop::run_to_fixpoint`] call it at entry, and
//! [`crate::Watcher::run_cycle`] calls it for its skip check. The scan
//! stage harvests the listing the context holds, so the skip check and the
//! harvest always describe one walk.
//!
//! # Caveats
//!
//! * Stage names must be unique within a pipeline: the ledger's timings are
//!   keyed by name.

use crate::component::Component;
use crate::context::PipelineContext;
use crate::pipeline::RunReport;
use metamess_core::error::{Error, IoContext, Result};
use metamess_core::store::{
    quarantine_file, read_state, std_vfs, write_state, QuarantineReason, RunLedger, StageRecord,
};
use metamess_core::Catalog;
use metamess_discover::RuleProposal;
use metamess_telemetry::{event, labeled, Level, Stopwatch};
use metamess_vocab::Vocabulary;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Closes the wrangle trace if `run_chain` unwinds through a `?` — an
/// abandoned trace would otherwise occupy the thread-local slot and make
/// every later `trace::begin` on this thread refuse.
struct TraceGuard(bool);

impl Drop for TraceGuard {
    fn drop(&mut self) {
        if self.0 {
            let _ = metamess_telemetry::trace::end(u64::MAX);
        }
    }
}

/// Runs a component chain over the listing the context holds: every stage,
/// in order, stopping at the first hard error. Called by
/// [`crate::Pipeline::run`].
pub(crate) fn run_chain(
    components: &mut [Box<dyn Component>],
    ctx: &mut PipelineContext,
) -> Result<RunReport> {
    ctx.run_id += 1;
    ctx.harvest.pipeline_run = ctx.run_id;
    // named again when the loop or cycle ends: a run that fails leaves the
    // ledger naming no catalog; a watch cycle names its input once done
    ctx.ledger.catalog_fingerprint = None;
    ctx.ledger.cycle_input = None;
    let on = metamess_telemetry::enabled();
    // Every wrangle run gets its own trace (never head-sampled away: runs
    // are rare and each one matters). Stages become child spans; the
    // finished trace id is persisted in the ledger so `metamess trace` can
    // show the span tree that produced a published generation.
    let trace_ctx = metamess_telemetry::TraceContext::start(1.0);
    let mut trace_guard = TraceGuard(metamess_telemetry::trace::begin(&trace_ctx, "wrangle"));
    let mut report = RunReport { run_id: ctx.run_id, stages: Vec::new() };
    for c in components.iter_mut() {
        let name = c.name();
        let started = Instant::now();
        let mut sr = c.run(ctx)?;
        sr.micros = started.elapsed().as_micros() as u64;
        ctx.ledger.record(name, StageRecord { micros: sr.micros });
        if on {
            metamess_telemetry::global()
                .histogram(&labeled("metamess_pipeline_stage_micros", "stage", name))
                .record(sr.micros);
            metamess_telemetry::trace::record_span(name, sr.micros, None);
        }
        event!(Level::Info, "pipeline", "{name}: ran in {}µs", sr.micros);
        report.stages.push(sr);
    }
    ctx.ledger.run_id = ctx.run_id;
    if on {
        let r = metamess_telemetry::global();
        r.counter("metamess_pipeline_stages_ran_total").add(report.stages.len() as u64);
        r.gauge("metamess_pipeline_last_run_id").set(ctx.run_id as i64);
    }
    if trace_guard.0 {
        trace_guard.0 = false;
        // never routed to the slow-query log: a wrangle run is expected to
        // take as long as it takes
        if let Some(fin) = metamess_telemetry::trace::end(u64::MAX) {
            ctx.ledger.trace_id = fin.trace_id_hex();
        }
    }
    Ok(report)
}

/// The catalog's content fingerprint: one whole-catalog encode, counted
/// and timed.
fn fingerprint(catalog: &Catalog) -> u64 {
    let on = metamess_telemetry::enabled();
    let timer = Stopwatch::start_if(on);
    let fp = catalog.content_fingerprint();
    if on {
        let r = metamess_telemetry::global();
        r.counter("metamess_pipeline_catalog_fingerprints_total").add(1);
        r.histogram("metamess_pipeline_fingerprint_micros").record(timer.micros());
    }
    fp
}

/// Names the working catalog in the ledger, as the catalog the ledger
/// describes. Called once when a pipeline run, curation loop or watch
/// cycle ends.
pub(crate) fn name_catalog(ctx: &mut PipelineContext) {
    ctx.ledger.catalog_fingerprint = Some(fingerprint(&ctx.catalog));
}

/// The state image under the state dir.
const STATE_FILE: &str = "state.bin";

/// The context state that is neither the catalog nor the ledger: the
/// curation bytes of the state image, as compact JSON. Validation findings
/// are not in it: every run validates afresh before anything reads them,
/// and the `findings` an older image holds are skipped as an unknown key.
#[derive(Serialize, Deserialize)]
struct Sidecar {
    run_id: u64,
    vocab: Vocabulary,
    external: BTreeMap<String, BTreeMap<String, String>>,
    proposals: Vec<RuleProposal>,
    accepted: Vec<RuleProposal>,
    discovered_provenance: BTreeMap<String, String>,
    expected_datasets: Vec<String>,
}

impl Sidecar {
    /// Decodes curation bytes. Bytes that do not decode are corrupt.
    fn decode(bytes: &[u8]) -> Result<Sidecar> {
        serde_json::from_slice(bytes)
            .map_err(|e| Error::corrupt(format!("curation state undecodable: {e}")))
    }
}

/// Persists the pipeline state (run ledger, vocabulary, curation
/// side-state) into `dir` as one state image, creating `dir` if needed. A
/// context that holds the same catalog again — a writer takes it from its
/// store — and restores the image with [`load_state`] resumes its ledger:
/// a watcher in a fresh process over an unchanged archive runs no cycle.
pub fn save_state(ctx: &PipelineContext, dir: impl AsRef<Path>) -> Result<()> {
    let dir = dir.as_ref();
    let vfs = std_vfs();
    vfs.create_dir_all(dir).io_ctx(format!("create state dir {}", dir.display()))?;
    let sidecar = Sidecar {
        run_id: ctx.run_id,
        vocab: ctx.vocab.clone(),
        external: ctx.external.clone(),
        proposals: ctx.proposals.clone(),
        accepted: ctx.accepted.clone(),
        discovered_provenance: ctx.discovered_provenance.clone(),
        expected_datasets: ctx.expected_datasets.clone(),
    };
    let curation = serde_json::to_vec(&sidecar)
        .map_err(|e| Error::invalid(format!("unencodable curation state: {e}")))?;
    let path = dir.join(STATE_FILE);
    write_state(vfs.as_ref(), &path, &ctx.ledger, &curation)
}

/// Moves a corrupt state image into `<dir>/quarantine` with a structured
/// reason sidecar (best-effort) and reports "no resumable state". A damaged
/// resume cache costs one full re-run — never a crash or a wrong resume.
fn quarantine_state_file(dir: &Path, path: &Path, detail: String) -> Result<bool> {
    let reason = QuarantineReason {
        source: path.display().to_string(),
        detail,
        quarantined_by: "load_state".to_string(),
    };
    match quarantine_file(std_vfs().as_ref(), path, &dir.join("quarantine"), &reason) {
        Ok(dest) => event!(
            Level::Warn,
            "pipeline",
            "quarantined corrupt state file {} to {} ({})",
            path.display(),
            dest.display(),
            reason.detail
        ),
        Err(e) => event!(
            Level::Warn,
            "pipeline",
            "corrupt state file {} could not be quarantined: {e}",
            path.display()
        ),
    }
    Ok(false)
}

/// Restores state saved by [`save_state`] into `ctx`, whose catalog the
/// caller has set: a writer sets the store's. Returns `false` (leaving
/// `ctx` untouched) when `dir` holds no state image. An image that fails
/// verification, whose curation bytes do not decode, or that an older
/// build wrote is quarantined into `<dir>/quarantine` (with a
/// `*.reason.json` sidecar) and the function returns `false`, so the next
/// run starts fresh instead of erroring. Otherwise the vocabulary and
/// curation side-state are restored and the function returns `true`; the
/// ledger is restored only when `ctx.catalog` is the catalog it names, and
/// cleared when it is not, so a watcher's next cycle wrangles cold.
/// The archive input and configuration are *not* restored — they describe
/// where to wrangle, not what was wrangled — so callers keep whatever they
/// constructed the context with.
pub fn load_state(ctx: &mut PipelineContext, dir: impl AsRef<Path>) -> Result<bool> {
    let dir = dir.as_ref();
    let path = dir.join(STATE_FILE);
    let read = read_state(std_vfs().as_ref(), &path).and_then(|state| match state {
        Some(state) => Ok(Some((Sidecar::decode(&state.curation)?, state.ledger))),
        None => Ok(None),
    });
    let (sidecar, ledger) = match read {
        Ok(Some(read)) => read,
        Ok(None) => return Ok(false),
        Err(e) if e.is_corrupt() => return quarantine_state_file(dir, &path, e.to_string()),
        Err(e) => return Err(e),
    };
    ctx.vocab = sidecar.vocab;
    ctx.external = sidecar.external;
    ctx.proposals = sidecar.proposals;
    ctx.accepted = sidecar.accepted;
    ctx.discovered_provenance = sidecar.discovered_provenance;
    ctx.expected_datasets = sidecar.expected_datasets;
    ctx.run_id = sidecar.run_id;
    let describes_catalog =
        ledger.catalog_fingerprint.is_some_and(|fp| fp == fingerprint(&ctx.catalog));
    ctx.ledger = if describes_catalog { ledger } else { RunLedger::new() };
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Pipeline;
    use crate::stages::ScanArchive;
    use crate::validate::Validate;
    use crate::{ArchiveInput, Publish};
    use metamess_archive::{generate, ArchiveSpec};
    use metamess_core::{DurableCatalog, StoreOptions};

    fn ctx() -> PipelineContext {
        let archive = generate(&ArchiveSpec::tiny());
        PipelineContext::new(ArchiveInput::Memory(archive.files), Vocabulary::observatory_default())
    }

    /// Replaces the store's snapshot under `store` with `c`'s catalog and
    /// saves its state beside it: the files a writer leaves, without the
    /// store diff a `Watcher` cycle publishes through.
    fn publish_and_save(c: &PipelineContext, store: &Path) {
        let mut s = DurableCatalog::open(store.join("catalog"), StoreOptions::default()).unwrap();
        s.replace_with(&c.catalog).unwrap();
        save_state(c, store.join("state")).unwrap();
    }

    /// Takes the catalog from the store under `store` and restores the
    /// state beside it, as a writer does when it opens.
    fn resume(c: &mut PipelineContext, store: &Path) -> bool {
        let s = DurableCatalog::open(store.join("catalog"), StoreOptions::default()).unwrap();
        c.catalog = s.catalog();
        load_state(c, store.join("state")).unwrap()
    }

    #[test]
    fn wrangle_run_records_a_trace_id_in_the_ledger() {
        let mut c = ctx();
        let mut p = Pipeline::standard();
        p.run(&mut c).unwrap();
        if !metamess_telemetry::enabled() {
            assert_eq!(c.ledger.trace_id, "", "no trace id under METAMESS_TELEMETRY=0");
            return;
        }
        let tid = c.ledger.trace_id.clone();
        assert_eq!(tid.len(), 32, "ledger carries the 128-bit hex trace id: {tid:?}");
        // The wrangle trace sits in the flight recorder with one child
        // span per stage.
        let id = metamess_telemetry::trace::parse_trace_id(&tid).unwrap();
        let rec = metamess_telemetry::trace::flight().find(id).expect("wrangle trace in the ring");
        let names: Vec<&str> = rec.spans().iter().map(|s| s.name).collect();
        assert_eq!(names[0], "wrangle");
        assert!(names.contains(&"scan-archive"), "{names:?}");
        assert!(names.contains(&"publish"), "{names:?}");
        // Every run is its own trace.
        p.run(&mut c).unwrap();
        assert_ne!(c.ledger.trace_id, tid);
    }

    #[test]
    fn archive_edit_dirties_the_scan() {
        let archive = generate(&ArchiveSpec::tiny());
        let mut files = archive.files;
        let mut c = PipelineContext::new(
            ArchiveInput::Memory(files.clone()),
            Vocabulary::observatory_default(),
        );
        let mut p = Pipeline::standard();
        p.run(&mut c).unwrap();
        // modify one harvested file's values
        let ix = files
            .iter()
            .position(|(p, _)| c.catalog.get_by_path(p).is_some())
            .expect("a harvested file");
        files[ix].1 = files[ix].1.replace("10.", "11.");
        c.archive = ArchiveInput::Memory(files);
        let r = p.run(&mut c).unwrap();
        let scan = r.stage("scan-archive").unwrap();
        // per-file incrementality inside the stage: only the edited file
        // was re-parsed
        assert_eq!(scan.changed, 1, "{:?}", scan.notes);
    }

    #[test]
    fn failed_run_recovers_without_wrong_skips() {
        let mut p = Pipeline::new(vec![
            Box::new(ScanArchive),
            Box::new(Validate::default()),
            Box::new(Publish { strict: true }),
        ]);
        let mut c = ctx();
        c.expected_datasets.push("missing/ghost.csv".into());
        let err = p.run(&mut c).unwrap_err();
        assert!(err.to_string().contains("block publish"), "{err}");
        assert_eq!(c.ledger.catalog_fingerprint, None, "a failed run names no catalog");
        // fix the expectation and re-run: every stage runs, publish goes
        // through, and the ledger names the catalog and times each stage
        c.expected_datasets.clear();
        let r = p.run(&mut c).unwrap();
        assert_eq!(r.stages.len(), 3);
        assert_eq!(c.ledger.catalog_fingerprint, Some(c.catalog.content_fingerprint()));
        for s in &r.stages {
            assert_eq!(c.ledger.get(&s.component), Some(&StageRecord { micros: s.micros }));
        }
    }

    #[test]
    fn state_roundtrip_resumes_incrementality() {
        let store =
            std::env::temp_dir().join(format!("metamess-engine-state-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&store);

        let archive = generate(&ArchiveSpec::tiny());
        let fresh_ctx = || {
            PipelineContext::new(
                ArchiveInput::Memory(archive.files.clone()),
                Vocabulary::observatory_default(),
            )
        };
        let mut c = fresh_ctx();
        let mut p = Pipeline::standard();
        p.run(&mut c).unwrap();
        publish_and_save(&c, &store);

        // a fresh process: new context over the same archive, holding the
        // catalog the ledger names, resumes the ledger whole
        let mut c2 = fresh_ctx();
        assert!(resume(&mut c2, &store));
        assert_eq!(c2.run_id, c.run_id);
        assert_eq!(c2.catalog.content_fingerprint(), c.catalog.content_fingerprint());
        assert_eq!(c2.ledger, c.ledger);
        // the vocabulary comes back with its synonym index rebuilt
        assert_eq!(c2.vocab, c.vocab);

        // state beside a catalog its ledger does not describe keeps its
        // knowledge and drops the ledger
        let mut bare = fresh_ctx();
        assert!(load_state(&mut bare, store.join("state")).unwrap());
        assert!(bare.ledger.is_empty());
        assert_eq!(bare.ledger.catalog_fingerprint, None);
        assert_eq!((bare.run_id, &bare.vocab), (c.run_id, &c.vocab));

        // loading from an empty dir is a clean miss
        let empty =
            std::env::temp_dir().join(format!("metamess-engine-empty-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&empty);
        std::fs::create_dir_all(&empty).unwrap();
        let mut c3 = ctx();
        assert!(!load_state(&mut c3, &empty).unwrap());
        assert_eq!(c3.run_id, 0);
    }

    #[test]
    fn saved_state_is_byte_identical_across_two_reopen_cycles() {
        let base =
            std::env::temp_dir().join(format!("metamess-engine-bytes-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let dirs = [base.join("save0"), base.join("save1"), base.join("save2")];

        let archive = generate(&ArchiveSpec::tiny());
        let mut c = PipelineContext::new(
            ArchiveInput::Memory(archive.files.clone()),
            Vocabulary::observatory_default(),
        );
        Pipeline::standard().run(&mut c).unwrap();
        save_state(&c, &dirs[0]).unwrap();

        // Two load→save cycles in "fresh processes": persisting restored
        // state must reproduce every artifact bit for bit — any drift here
        // would drop the ledger on resume and make it lossy.
        for cycle in 1..3 {
            let mut fresh = PipelineContext::new(
                ArchiveInput::Memory(archive.files.clone()),
                Vocabulary::observatory_default(),
            );
            fresh.catalog = c.catalog.clone();
            assert!(load_state(&mut fresh, &dirs[cycle - 1]).unwrap());
            save_state(&fresh, &dirs[cycle]).unwrap();
            let before = std::fs::read(dirs[cycle - 1].join(STATE_FILE)).unwrap();
            let after = std::fs::read(dirs[cycle].join(STATE_FILE)).unwrap();
            assert_eq!(
                before, after,
                "cycle {cycle}: the state image drifted across save/load/save"
            );
        }
    }

    #[test]
    fn empty_delta_publish_survives_reopen() {
        let store =
            std::env::temp_dir().join(format!("metamess-engine-emptydelta-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&store);
        let archive = generate(&ArchiveSpec::tiny());
        let fresh_ctx = || {
            PipelineContext::new(
                ArchiveInput::Memory(archive.files.clone()),
                Vocabulary::observatory_default(),
            )
        };

        let mut c = fresh_ctx();
        Pipeline::standard().run(&mut c).unwrap();
        let published_fp = c.catalog.content_fingerprint();
        publish_and_save(&c, &store);

        // Second process: nothing changed, so the re-run rebuilds the
        // catalog it resumed. Publishing that and reopening a third time
        // must preserve the published catalog exactly.
        let mut c2 = fresh_ctx();
        assert!(resume(&mut c2, &store));
        Pipeline::standard().run(&mut c2).unwrap();
        assert_eq!(c2.catalog.content_fingerprint(), published_fp);
        publish_and_save(&c2, &store);

        let mut c3 = fresh_ctx();
        assert!(resume(&mut c3, &store));
        assert_eq!(c3.catalog.content_fingerprint(), published_fp);
        assert_eq!(c3.ledger.catalog_fingerprint, Some(published_fp));
    }

    #[test]
    fn a_state_image_that_holds_findings_still_resumes() {
        let dir =
            std::env::temp_dir().join(format!("metamess-engine-findings-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut c = ctx();
        Pipeline::standard().run(&mut c).unwrap();
        assert!(!c.findings.is_empty(), "the tiny archive validates clean");
        save_state(&c, &dir).unwrap();
        // the image an older build wrote: the same, and the run's findings
        let (vfs, path) = (std_vfs(), dir.join(STATE_FILE));
        let state = read_state(vfs.as_ref(), &path).unwrap().unwrap();
        let rest = std::str::from_utf8(&state.curation[1..]).unwrap();
        let findings = serde_json::to_string(&c.findings).unwrap();
        let older = format!("{{\"findings\":{findings},{rest}");
        write_state(vfs.as_ref(), &path, &state.ledger, older.as_bytes()).unwrap();
        let mut c2 = ctx();
        c2.catalog = c.catalog.clone();
        assert!(load_state(&mut c2, &dir).unwrap());
        assert_eq!((c2.run_id, &c2.vocab, &c2.ledger), (c.run_id, &c.vocab, &c.ledger));
        assert!(c2.findings.is_empty(), "findings are the next run's to compute");
    }

    #[test]
    fn corrupt_state_is_quarantined_and_load_reports_no_state() {
        let dir =
            std::env::temp_dir().join(format!("metamess-engine-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut c = ctx();
        Pipeline::standard().run(&mut c).unwrap();
        save_state(&c, &dir).unwrap();

        // flip a payload byte inside the CRC-framed image
        let state = dir.join(STATE_FILE);
        let mut bytes = std::fs::read(&state).unwrap();
        let ix = bytes.len() - 2;
        bytes[ix] ^= 0x01;
        std::fs::write(&state, &bytes).unwrap();

        let mut c2 = ctx();
        assert!(!load_state(&mut c2, &dir).unwrap(), "a corrupt image must not resume");
        assert_eq!(c2.run_id, 0, "context untouched");
        assert!(!state.exists(), "corrupt image moved away");
        let qdir = dir.join("quarantine");
        assert!(qdir.join("state.bin.0").exists());
        assert!(qdir.join("state.bin.0.reason.json").exists());

        // with the damage quarantined, a re-run + save works again
        save_state(&c, &dir).unwrap();
        let mut c3 = ctx();
        assert!(load_state(&mut c3, &dir).unwrap());
        assert_eq!(c3.run_id, c.run_id);

        // a CRC-valid image whose curation bytes are not JSON is
        // quarantined the same way
        let vfs = std_vfs();
        write_state(vfs.as_ref(), &state, &c.ledger, b"]{ not json").unwrap();
        let mut c4 = ctx();
        assert!(!load_state(&mut c4, &dir).unwrap());
        assert_eq!(c4.run_id, 0, "context untouched");
        assert!(!state.exists());
        assert!(qdir.join("state.bin.1").exists());
        let reason = std::fs::read_to_string(qdir.join("state.bin.1.reason.json")).unwrap();
        assert!(reason.contains("curation state undecodable"), "{reason}");
    }
}
