//! The incremental pipeline engine: fingerprint-based skip-unchanged-stage
//! execution over the declared dataflow.
//!
//! # Model
//!
//! Every [`Slot`] of the [`PipelineContext`] gets a stable 64-bit **content
//! fingerprint**: catalogs hash their entries and properties (generation
//! counters excluded), the archive slot hashes the per-file
//! `(path, len, content-hash)` triples of the context's held listing plus
//! the scan/naming configuration (via
//! [`metamess_harvest::archive_fingerprint`]), and every other slot hashes
//! its canonical JSON serialization. All of these are
//! deterministic: the underlying collections are ordered (`BTreeMap`s,
//! sorted scans), so equal content always yields an equal fingerprint.
//!
//! Before running a stage the engine combines the fingerprints of the
//! stage's declared read slots into an **input digest**. If the digest
//! matches what the [`RunLedger`] recorded for that stage, the stage is
//! skipped and reported as [`StageStatus::Skipped`]; otherwise it runs
//! against a [`CtxView`] scoped to its declaration, its written slots drop
//! out of the run's fingerprint memo, and the ledger is updated. Dirtiness
//! cascades automatically: a stage that changes a written slot moves that
//! slot's fingerprint, which changes the input digest of every downstream
//! reader — and a stage that rewrites a slot with identical content does
//! *not* (early cutoff).
//!
//! # Asking the catalog, not re-encoding it
//!
//! The working catalog's fingerprint encodes the whole catalog, so the
//! engine takes it only where it can change a decision. The catalog counts
//! its own mutations ([`Catalog::generation`]), and the run notes that
//! count when it starts:
//!
//! * once a stage of the run has moved the generation, a later stage that
//!   reads the catalog runs without a digest. An edit that happens to
//!   rebuild the previous run's catalog exactly then costs a re-run the
//!   digest would have skipped; stages are idempotent, so the re-run is
//!   only work;
//! * a stage that declares a catalog write but leaves the generation where
//!   it was keeps the memoized fingerprint (in debug builds the engine
//!   checks that the catalog's content did not move either).
//!
//! A run therefore fingerprints the catalog at most twice: once for the
//! first stage that reads it unedited, and once at the end-of-run
//! projection. `metamess_pipeline_catalog_fingerprints_total` counts them.
//!
//! [`Catalog::generation`]: metamess_core::Catalog::generation
//!
//! # End-of-run digest projection
//!
//! Read-write slots (the working catalog, the vocabulary) evolve *during*
//! a run, so a stage's as-seen input digest would never match on the next
//! run even when nothing external changed. After a successful chain run
//! the engine therefore records, for each stage that executed, the input
//! digest computed against the **final** slot state, and names that
//! catalog's fingerprint in the ledger. This is sound because every stage
//! is idempotent on its own output — re-running any stage on end-of-run
//! state is a no-op (the seed's idempotence tests assert exactly this) —
//! and it is what makes an unchanged re-run skip every stage immediately.
//! Stages that were skipped keep their previous ledger entries. A stage
//! that ran without a digest keeps no record until the projection, and a
//! run that fails mid-chain performs no projection, so stale digests only
//! ever cause a redundant (idempotent) re-run, never a wrongly skipped one.
//!
//! # Durability
//!
//! [`save_state`]/[`load_state`] persist the ledger together with the
//! vocabulary and curation side-state as one CRC-framed state image
//! (`<store>/state/state.bin`, [`metamess_core::store::write_state`]),
//! written whole with one fsync and one rename — so a fresh process resumes
//! incrementality instead of re-running the world, and never from parts of
//! two runs. The image is a cache: one that is damaged, or written in an
//! older format, is quarantined and costs one full re-run.
//!
//! The image holds no catalog. The pipeline holds one, the working catalog,
//! and after a successful publish the durable store holds the same rows,
//! so a writer takes its working catalog from its `DurableCatalog`. The
//! ledger names the content fingerprint of the catalog it was recorded
//! against (set at the end-of-run projection, cleared when a run starts,
//! so a run that fails leaves none), and [`load_state`] keeps the ledger
//! only when the context holds that catalog. A store that does not hold
//! what the ledger describes — a crash between a watcher's state rename
//! and its store fsync, rows lost to `fsck --repair` — therefore re-runs every
//! stage, and never skips one on the strength of a catalog it does not
//! have.
//!
//! # The one walk
//!
//! The archive is walked once per pipeline run, curation loop or watch
//! cycle, by [`PipelineContext::rescan`]: [`crate::Pipeline::run`] and
//! [`crate::CurationLoop::run_to_fixpoint`] call it at entry, and
//! [`crate::Watcher::run_cycle`] calls it for its skip check. The archive
//! slot's fingerprint hashes the held listing without touching the
//! archive, and the scan stage harvests that same listing, so the digest
//! and the harvest always describe one walk.
//!
//! # Caveats
//!
//! * Stage names must be unique within a pipeline: the ledger is keyed by
//!   name. Composing the same component twice makes the second occurrence
//!   share (and clobber) the first one's record.

use crate::component::{Component, Slot, StageReport};
use crate::context::{CtxView, PipelineContext, ValidationFinding};
use crate::pipeline::RunReport;
use metamess_core::error::{Error, IoContext, Result};
use metamess_core::id::fnv1a;
use metamess_core::store::{
    quarantine_file, read_state, std_vfs, write_state, QuarantineReason, RunLedger, StageRecord,
};
use metamess_discover::RuleProposal;
use metamess_harvest::archive_fingerprint;
use metamess_telemetry::{event, labeled, Level, Stopwatch};
use metamess_vocab::Vocabulary;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Bumped when the digest scheme changes, so persisted ledgers from an
/// older scheme never cause a wrong skip — every digest mismatches and the
/// chain re-runs once.
const ENGINE_VERSION: u8 = 2;

/// Fingerprints any serializable slot content via its canonical JSON form.
fn json_fp<T: Serialize>(value: &T) -> Result<u64> {
    let bytes = serde_json::to_vec(value)
        .map_err(|e| Error::invalid(format!("unencodable slot content: {e}")))?;
    Ok(fnv1a(&bytes))
}

/// Computes one slot's content fingerprint from the live context.
fn slot_fingerprint(slot: Slot, ctx: &PipelineContext) -> Result<u64> {
    Ok(match slot {
        Slot::Archive => {
            // the configuration is part of the input: widening the scan or
            // changing naming conventions must dirty the scan stage
            // (pipeline_run deliberately excluded — it never changes what
            // a scan produces, only provenance stamps)
            let config = json_fp(&(&ctx.harvest.scan, &ctx.harvest.naming))?;
            let mut buf = [0u8; 16];
            buf[..8].copy_from_slice(&archive_fingerprint(&ctx.listing).to_le_bytes());
            buf[8..].copy_from_slice(&config.to_le_bytes());
            fnv1a(&buf)
        }
        Slot::Working => {
            if metamess_telemetry::enabled() {
                metamess_telemetry::global()
                    .counter("metamess_pipeline_catalog_fingerprints_total")
                    .add(1);
            }
            ctx.catalog.content_fingerprint()
        }
        Slot::Vocab => json_fp(&ctx.vocab)?,
        Slot::External => json_fp(&ctx.external)?,
        Slot::Proposals => json_fp(&ctx.proposals)?,
        Slot::Accepted => json_fp(&ctx.accepted)?,
        Slot::Findings => json_fp(&ctx.findings)?,
        Slot::Provenance => json_fp(&ctx.discovered_provenance)?,
        Slot::Expected => json_fp(&ctx.expected_datasets)?,
    })
}

/// Per-run memo of slot fingerprints, invalidated as stages write slots.
#[derive(Default)]
struct SlotFps {
    cached: BTreeMap<Slot, u64>,
}

impl SlotFps {
    fn get(&mut self, slot: Slot, ctx: &PipelineContext) -> Result<u64> {
        if let Some(fp) = self.cached.get(&slot) {
            return Ok(*fp);
        }
        let fp = slot_fingerprint(slot, ctx)?;
        self.cached.insert(slot, fp);
        Ok(fp)
    }

    fn invalidate(&mut self, slot: Slot) {
        self.cached.remove(&slot);
    }
}

/// Combines a stage's slot fingerprints into a digest.
fn digest(name: &str, slots: &[Slot], fps: &mut SlotFps, ctx: &PipelineContext) -> Result<u64> {
    let mut buf = Vec::with_capacity(name.len() + 2 + slots.len() * 9);
    buf.push(ENGINE_VERSION);
    buf.extend_from_slice(name.as_bytes());
    buf.push(0);
    for s in slots {
        buf.push(*s as u8);
        buf.extend_from_slice(&fps.get(*s, ctx)?.to_le_bytes());
    }
    Ok(fnv1a(&buf))
}

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

/// Runs a component chain incrementally: skips stages whose input digest
/// matches the context ledger's record, executes the rest through scoped
/// views, and updates the ledger. Called by [`crate::Pipeline::run`] over
/// the listing the context holds.
pub(crate) fn run_chain(
    components: &mut [Box<dyn Component>],
    ctx: &mut PipelineContext,
) -> Result<RunReport> {
    ctx.run_id += 1;
    ctx.harvest.pipeline_run = ctx.run_id;
    // set again at the end-of-run projection: a run that fails leaves the
    // ledger naming no catalog; a watch cycle names its input once done
    ctx.ledger.catalog_fingerprint = None;
    ctx.ledger.cycle_input = None;
    // the catalog as the ledger last saw it; once a stage of this run has
    // edited it, a stage that reads it runs without asking the ledger
    let unedited = ctx.catalog.generation();
    let on = metamess_telemetry::enabled();
    // Every wrangle run gets its own trace (never head-sampled away: runs
    // are rare and each one matters). Executed stages become child spans;
    // the finished trace id is persisted in the ledger so `metamess trace`
    // can show the span tree that produced a published generation.
    let trace_ctx = metamess_telemetry::TraceContext::start(1.0);
    let mut trace_guard = TraceGuard(metamess_telemetry::trace::begin(&trace_ctx, "wrangle"));
    let mut fingerprint_micros = 0u64;
    let mut fps = SlotFps::default();
    let mut report = RunReport { run_id: ctx.run_id, stages: Vec::new() };
    let mut executed: Vec<(usize, u64)> = Vec::new();
    for (ix, c) in components.iter_mut().enumerate() {
        let name = c.name();
        let reads = c.reads();
        let writes = c.writes();
        let edited = ctx.catalog.generation() != unedited;
        let input = if edited && reads.contains(&Slot::Working) {
            None
        } else {
            let fp_timer = Stopwatch::start_if(on);
            let input = digest(name, reads, &mut fps, ctx)?;
            fingerprint_micros += fp_timer.micros();
            Some(input)
        };
        if input.is_some() && ctx.ledger.get(name).map(|r| r.input_digest) == input {
            let mut sr = StageReport::skipped(name, "inputs unchanged since last run");
            // micros stays an explicit 0 — the skip cost only the digest
            // check above; what the stage cost when it last executed rides
            // along from the ledger.
            sr.micros = 0;
            sr.last_micros = ctx.ledger.get(name).map(|r| r.micros);
            sr.resolution_after = ctx.catalog.resolution_fraction();
            event!(Level::Debug, "pipeline", "{name}: skipped (inputs unchanged)");
            report.stages.push(sr);
            continue;
        }
        let generation = ctx.catalog.generation();
        // the debug check below fingerprints outside the engine's count
        let before = (cfg!(debug_assertions) && writes.contains(&Slot::Working))
            .then(|| ctx.catalog.content_fingerprint());
        let started = Instant::now();
        let mut sr = {
            let mut view = CtxView::scoped(ctx, name, reads, writes);
            c.run(&mut view)?
        };
        sr.micros = started.elapsed().as_micros() as u64;
        let same_catalog = ctx.catalog.generation() == generation;
        debug_assert!(
            !same_catalog || before.is_none_or(|fp| fp == ctx.catalog.content_fingerprint()),
            "{name} changed the catalog without moving its generation"
        );
        for w in writes {
            if !(*w == Slot::Working && same_catalog) {
                fps.invalidate(*w);
            }
        }
        match input {
            Some(input_digest) => ctx.ledger.record(
                name,
                StageRecord { input_digest, micros: sr.micros, last_run: ctx.run_id },
            ),
            // digested at the projection; until then no record of it may
            // match, so a run that fails first re-runs it
            None => {
                ctx.ledger.stages.remove(name);
            }
        }
        if on {
            metamess_telemetry::global()
                .histogram(&labeled("metamess_pipeline_stage_micros", "stage", name))
                .record(sr.micros);
            // a child span per executed stage under the wrangle root
            metamess_telemetry::trace::record_span(name, sr.micros, None);
        }
        event!(Level::Info, "pipeline", "{name}: ran in {}µs", sr.micros);
        executed.push((ix, sr.micros));
        report.stages.push(sr);
    }
    // End-of-run projection (see module docs): stages that ran get their
    // input digest recorded against the final slot state, so an unchanged
    // re-run skips them immediately. Skipped stages keep their previous
    // entries.
    for &(ix, micros) in &executed {
        let name = components[ix].name();
        let fp_timer = Stopwatch::start_if(on);
        let input_digest = digest(name, components[ix].reads(), &mut fps, ctx)?;
        fingerprint_micros += fp_timer.micros();
        ctx.ledger.record(name, StageRecord { input_digest, micros, last_run: ctx.run_id });
    }
    ctx.ledger.catalog_fingerprint = Some(fps.get(Slot::Working, ctx)?);
    ctx.ledger.run_id = ctx.run_id;
    if on {
        let r = metamess_telemetry::global();
        r.counter("metamess_pipeline_stages_ran_total").add(executed.len() as u64);
        r.counter("metamess_pipeline_stages_skipped_total")
            .add((report.stages.len() - executed.len()) as u64);
        r.histogram("metamess_pipeline_fingerprint_micros").record(fingerprint_micros);
        r.gauge("metamess_pipeline_last_run_id").set(ctx.run_id as i64);
        metamess_telemetry::trace::record_span("fingerprint", fingerprint_micros, None);
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

/// The state image under the state dir.
const STATE_FILE: &str = "state.bin";

/// The context state that is neither the catalog nor the ledger: the
/// curation bytes of the state image, as compact JSON.
#[derive(Serialize, Deserialize)]
struct Sidecar {
    run_id: u64,
    vocab: Vocabulary,
    external: BTreeMap<String, BTreeMap<String, String>>,
    proposals: Vec<RuleProposal>,
    accepted: Vec<RuleProposal>,
    findings: Vec<ValidationFinding>,
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
/// store — and restores the image with [`load_state`] resumes
/// incrementality: an unchanged archive re-run in a fresh process skips
/// every stage.
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
        findings: ctx.findings.clone(),
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
/// ledger is restored only when `ctx.catalog` is the catalog it was
/// recorded against, and cleared when it is not, so every stage re-runs.
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
    ctx.findings = sidecar.findings;
    ctx.discovered_provenance = sidecar.discovered_provenance;
    ctx.expected_datasets = sidecar.expected_datasets;
    ctx.run_id = sidecar.run_id;
    let describes_catalog = ledger.catalog_fingerprint == Some(ctx.catalog.content_fingerprint());
    ctx.ledger = if describes_catalog { ledger } else { RunLedger::new() };
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Pipeline;
    use crate::stages::{PerformKnownTransformations, ScanArchive};
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
    fn digests_are_stable_and_name_scoped() {
        let c = ctx();
        let mut fps1 = SlotFps::default();
        let mut fps2 = SlotFps::default();
        let slots = [Slot::Working, Slot::Vocab];
        let a = digest("stage-a", &slots, &mut fps1, &c).unwrap();
        let b = digest("stage-a", &slots, &mut fps2, &c).unwrap();
        assert_eq!(a, b, "same state must digest identically across memos");
        let other = digest("stage-b", &slots, &mut fps1, &c).unwrap();
        assert_ne!(a, other, "digests are scoped by stage name");
        let fewer = digest("stage-a", &slots[..1], &mut fps1, &c).unwrap();
        assert_ne!(a, fewer, "digests depend on the slot set");
    }

    #[test]
    fn unchanged_rerun_skips_every_stage() {
        let mut c = ctx();
        let mut p = Pipeline::standard();
        let r1 = p.run(&mut c).unwrap();
        assert_eq!(r1.skipped_count(), 0);
        let fp = c.catalog.content_fingerprint();
        let generation = c.catalog.generation();
        let r2 = p.run(&mut c).unwrap();
        assert_eq!(r2.executed_count(), 0, "{}", r2.render());
        assert_eq!(r2.skipped_count(), 9);
        for s in &r2.stages {
            assert!(s.is_skipped(), "{} should be skipped", s.component);
        }
        assert_eq!(c.catalog.content_fingerprint(), fp);
        assert_eq!(c.catalog.generation(), generation);
        assert_eq!(c.ledger.catalog_fingerprint, Some(fp));
        assert_eq!(r2.run_id, 2);
    }

    #[test]
    fn skipped_stage_carries_last_execution_timing() {
        let mut c = ctx();
        let mut p = Pipeline::standard();
        let r1 = p.run(&mut c).unwrap();
        let scan1 = r1.stage("scan-archive").unwrap();
        assert!(scan1.last_micros.is_none(), "a stage that ran reports its own micros");
        let r2 = p.run(&mut c).unwrap();
        let scan2 = r2.stage("scan-archive").unwrap();
        assert!(scan2.is_skipped());
        assert_eq!(scan2.micros, 0, "a skip costs only the digest check");
        assert_eq!(scan2.last_micros, Some(scan1.micros), "ledger timing rides along");
        // the ledger remembers which run last *executed* each stage
        assert_eq!(c.ledger.get("scan-archive").unwrap().last_run, 1);
        assert_eq!(c.ledger.run_id, 2);
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
        // span per executed stage.
        let id = metamess_telemetry::trace::parse_trace_id(&tid).unwrap();
        let rec = metamess_telemetry::trace::flight().find(id).expect("wrangle trace in the ring");
        let names: Vec<&str> = rec.spans().iter().map(|s| s.name).collect();
        assert_eq!(names[0], "wrangle");
        assert!(names.contains(&"scan-archive"), "{names:?}");
        assert!(names.contains(&"publish"), "{names:?}");
        // Every run is its own trace, even an all-skipped one.
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
        assert!(!scan.is_skipped());
        // per-file incrementality inside the stage: only the edited file
        // was re-parsed
        assert_eq!(scan.changed, 1, "{:?}", scan.notes);
    }

    #[test]
    fn expected_change_reruns_only_validate() {
        let mut c = ctx();
        let mut p = Pipeline::standard();
        p.run(&mut c).unwrap();
        // expect a dataset that exists: validate must re-run, but its
        // findings are unchanged, so publish early-cuts-off and skips
        let existing = c.catalog.iter().next().unwrap().path.clone();
        c.expected_datasets.push(existing);
        let r = p.run(&mut c).unwrap();
        let executed: Vec<&str> =
            r.stages.iter().filter(|s| !s.is_skipped()).map(|s| s.component.as_str()).collect();
        assert_eq!(executed, vec!["validate"], "{}", r.render());
    }

    #[test]
    fn vocab_improvement_dirties_dependents_but_not_scan() {
        let mut c = ctx();
        let mut p = Pipeline::standard();
        p.run(&mut c).unwrap();
        c.vocab.bump_version();
        let r = p.run(&mut c).unwrap();
        assert!(r.stage("scan-archive").unwrap().is_skipped(), "{}", r.render());
        assert!(!r.stage("perform-known-transformations").unwrap().is_skipped());
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
        // fix the expectation and re-run: the completed scan skips, the
        // dirty validate/publish suffix runs, and publish goes through
        c.expected_datasets.clear();
        let r = p.run(&mut c).unwrap();
        assert!(r.stage("scan-archive").unwrap().is_skipped());
        assert!(!r.stage("validate").unwrap().is_skipped());
        assert!(!r.stage("publish").unwrap().is_skipped());
        assert_eq!(c.ledger.catalog_fingerprint, Some(c.catalog.content_fingerprint()));
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

        // a fresh process: new context over the same archive
        let mut c2 = fresh_ctx();
        assert!(resume(&mut c2, &store));
        assert_eq!(c2.run_id, c.run_id);
        assert_eq!(c2.catalog.content_fingerprint(), c.catalog.content_fingerprint());
        // the vocabulary comes back with its synonym index rebuilt
        assert_eq!(c2.vocab, c.vocab);
        let r = Pipeline::standard().run(&mut c2).unwrap();
        assert_eq!(r.executed_count(), 0, "restored state must skip everything: {}", r.render());

        // state beside a catalog its ledger does not describe keeps its
        // knowledge and drops the ledger: every stage re-runs
        let mut bare = fresh_ctx();
        assert!(load_state(&mut bare, store.join("state")).unwrap());
        assert!(bare.ledger.is_empty());
        assert_eq!((bare.run_id, &bare.vocab), (c.run_id, &c.vocab));
        let r = Pipeline::standard().run(&mut bare).unwrap();
        assert_eq!(r.skipped_count(), 0, "{}", r.render());

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
        // would defeat fingerprint-based skipping and make resume lossy.
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

        // Second process: nothing changed, so publish has an empty delta
        // (it is skipped). Publishing that and reopening a third time must
        // preserve the published catalog exactly.
        let mut c2 = fresh_ctx();
        assert!(resume(&mut c2, &store));
        let r = Pipeline::standard().run(&mut c2).unwrap();
        assert!(r.stage("publish").unwrap().is_skipped(), "{}", r.render());
        publish_and_save(&c2, &store);

        let mut c3 = fresh_ctx();
        assert!(resume(&mut c3, &store));
        assert_eq!(c3.catalog.content_fingerprint(), published_fp);
        let r = Pipeline::standard().run(&mut c3).unwrap();
        assert_eq!(r.executed_count(), 0, "{}", r.render());
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

    struct Misdeclared;

    impl Component for Misdeclared {
        fn name(&self) -> &'static str {
            "misdeclared"
        }
        fn reads(&self) -> &'static [Slot] {
            &[Slot::Working]
        }
        fn writes(&self) -> &'static [Slot] {
            &[Slot::Working]
        }
        fn run(&mut self, view: &mut CtxView<'_>) -> Result<StageReport> {
            let _ = view.vocab(); // not declared: must trip the debug assert
            Ok(StageReport::new(self.name()))
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "undeclared read")]
    fn misdeclared_access_panics_in_debug() {
        let mut c = ctx();
        let _ = Misdeclared.run_standalone(&mut c);
    }

    #[test]
    fn declared_superset_access_is_allowed() {
        // reading a slot you declared as a write (read-modify-write) is fine
        let mut c = ctx();
        let r = PerformKnownTransformations.run_standalone(&mut c).unwrap();
        assert_eq!(r.component, "perform-known-transformations");
    }
}
