//! Seeded sweeps of the wrangling pipeline over randomized mess
//! intensities and archive shapes: each property runs on `CASES`
//! generators; a failure names its seed.

#[path = "../../core/tests/common/mod.rs"]
mod common;

use common::{sweep, Rng};
use metamess_archive::{generate, ArchiveSpec, MessIntensity};
use metamess_pipeline::{ArchiveInput, Pipeline, PipelineContext};
use metamess_vocab::Vocabulary;

const CASES: u64 = 24;

/// One random archive edit between incremental pipeline runs.
#[derive(Debug, Clone)]
enum Edit {
    /// Append junk to the file at (index % len) — may also make it
    /// unparseable, which must drop it from the catalog on both paths.
    Modify(usize),
    /// Remove the file at (index % len), keeping at least one file.
    Remove(usize),
    /// Add a fresh small CSV under `extra/`.
    Add(u32),
}

fn edits(rng: &mut Rng) -> Vec<Edit> {
    rng.vec(1, 5, |rng| match rng.below(3) {
        0 => Edit::Modify(rng.size(0, 64)),
        1 => Edit::Remove(rng.size(0, 64)),
        _ => Edit::Add(rng.below(1000) as u32),
    })
}

fn apply_edit(files: &mut Vec<(String, String)>, edit: &Edit) {
    match edit {
        Edit::Modify(ix) => {
            let ix = ix % files.len();
            files[ix].1.push_str("\njunk-appended-line");
        }
        Edit::Remove(ix) => {
            if files.len() > 1 {
                let ix = ix % files.len();
                files.remove(ix);
            }
        }
        Edit::Add(n) => files.push((
            format!("extra/added_{n}.csv"),
            "time,temp,sal\n2010-01-01T00:00:00Z,9.5,28.1\n2010-01-01T01:00:00Z,9.7,28.3\n"
                .to_string(),
        )),
    }
}

/// Published entries with the run-dependent provenance stamp normalized
/// away (`pipeline_run` is the only wall-clock-like field; content
/// fingerprints, lengths and formats must match exactly).
fn normalized_entries(
    c: &metamess_core::catalog::Catalog,
) -> Vec<metamess_core::feature::DatasetFeature> {
    let mut out: Vec<_> = c.iter().cloned().collect();
    for f in &mut out {
        f.provenance.pipeline_run = 0;
    }
    out.sort_by(|a, b| a.path.cmp(&b.path));
    out
}

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

#[test]
fn pipeline_never_fails_and_resolution_is_monotone() {
    sweep(CASES, |rng| {
        let spec = spec(rng);
        let archive = generate(&spec);
        let n_datasets = archive.truth.datasets.len();
        let mut ctx = PipelineContext::new(
            ArchiveInput::Memory(archive.files),
            Vocabulary::observatory_default(),
        );
        let mut pipeline = Pipeline::standard();
        let report = pipeline.run(&mut ctx).unwrap();

        // every well-formed dataset published, malformed reported not fatal
        assert_eq!(ctx.catalog.len(), n_datasets);
        assert_eq!(
            report.stage("scan-archive").unwrap().errors.len(),
            archive.truth.malformed.len()
        );
        // resolution monotone across the chain
        let traj = report.resolution_trajectory();
        for w in traj.windows(2) {
            assert!(w[1].1 >= w[0].1 - 1e-9, "{traj:?}");
        }
        // QA flags only on QA-truth columns (marking never misfires)
        for td in &archive.truth.datasets {
            let d = ctx.catalog.get_by_path(&td.path).unwrap();
            for tv in &td.variables {
                if let Some(v) = d.variable(&tv.harvested) {
                    if v.flags.qa {
                        assert!(
                            tv.qa || tv.harvested.ends_with("_flag"),
                            "false QA mark on {} in {}",
                            tv.harvested,
                            td.path
                        );
                    }
                }
            }
        }
    });
}

#[test]
fn rerun_is_idempotent() {
    sweep(CASES, |rng| {
        let spec = spec(rng);
        let archive = generate(&spec);
        let mut ctx = PipelineContext::new(
            ArchiveInput::Memory(archive.files),
            Vocabulary::observatory_default(),
        );
        let mut pipeline = Pipeline::standard();
        pipeline.run(&mut ctx).unwrap();
        let first = ctx.catalog.clone();
        let r2 = pipeline.run(&mut ctx).unwrap();
        // nothing rescanned, published catalog entries unchanged
        assert_eq!(r2.stage("scan-archive").unwrap().changed, 0);
        let ids1: Vec<_> = first.iter().map(|d| d.id).collect();
        let ids2: Vec<_> = ctx.catalog.iter().map(|d| d.id).collect();
        assert_eq!(ids1, ids2);
        for d in first.iter() {
            let d2 = ctx.catalog.get(d.id).unwrap();
            assert_eq!(d, d2);
        }
    });
}

#[test]
fn incremental_run_matches_scratch_run() {
    sweep(CASES, |rng| {
        let (spec, edits) = (spec(rng), edits(rng));
        let archive = generate(&spec);
        let mut files = archive.files;
        let mut inc = PipelineContext::new(
            ArchiveInput::Memory(files.clone()),
            Vocabulary::observatory_default(),
        );
        let mut pipeline = Pipeline::standard();
        pipeline.run(&mut inc).unwrap();
        // evolve the archive one edit at a time, re-running incrementally
        for e in &edits {
            apply_edit(&mut files, e);
            inc.archive = ArchiveInput::Memory(files.clone());
            pipeline.run(&mut inc).unwrap();
        }
        // a from-scratch run over the final archive must publish the same
        // catalog (modulo the pipeline_run provenance stamp)
        let mut scratch =
            PipelineContext::new(ArchiveInput::Memory(files), Vocabulary::observatory_default());
        Pipeline::standard().run(&mut scratch).unwrap();
        assert_eq!(normalized_entries(&inc.catalog), normalized_entries(&scratch.catalog));
    });
}

#[test]
fn zero_mess_resolves_completely() {
    sweep(CASES, |rng| {
        let spec = ArchiveSpec {
            seed: rng.below(5_000),
            stations: 2,
            cruises: 1,
            glider_missions: 1,
            months: 2,
            rows_per_file: 6,
            mess: MessIntensity {
                misspelling: 0.0,
                synonym: 0.0,
                abbreviation: 0.0,
                excessive: 0.0,
                ambiguous: 0.0,
            },
            include_malformed: false,
        };
        let archive = generate(&spec);
        let mut ctx = PipelineContext::new(
            ArchiveInput::Memory(archive.files),
            Vocabulary::observatory_default(),
        );
        Pipeline::standard().run(&mut ctx).unwrap();
        // all names are canonical; resolution is total
        assert!(
            (ctx.catalog.resolution_fraction() - 1.0).abs() < 1e-12,
            "{}",
            ctx.catalog.resolution_fraction()
        );
    });
}
