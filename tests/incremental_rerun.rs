//! Rerunning the process over a changing on-disk archive: curatorial
//! activity 2 with real files.

use metamess::prelude::*;
use std::path::PathBuf;

fn disk_archive(name: &str) -> (PathBuf, GroundTruth) {
    let dir = std::env::temp_dir().join(format!("metamess-rerun-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let archive = metamess::archive::generate(&ArchiveSpec::tiny());
    archive.write_to(&dir).unwrap();
    (dir, archive.truth)
}

#[test]
fn rerun_after_file_edit_updates_only_that_dataset() {
    let (dir, truth) = disk_archive("edit");
    let mut ctx =
        PipelineContext::new(ArchiveInput::Dir(dir.clone()), Vocabulary::observatory_default());
    let mut pipeline = Pipeline::standard();
    let r1 = pipeline.run(&mut ctx).unwrap();
    assert_eq!(r1.stage("scan-archive").unwrap().changed as usize, truth.datasets.len());

    // Touch one station file: append a data row.
    let target = truth
        .datasets
        .iter()
        .find(|d| d.path.ends_with(".csv") && d.path.starts_with("stations"))
        .unwrap();
    let full = dir.join(&target.path);
    let mut content = std::fs::read_to_string(&full).unwrap();
    let last_line = content.trim_end().rsplit('\n').next().unwrap().to_string();
    content.push_str(&last_line);
    content.push('\n');
    std::fs::write(&full, content).unwrap();

    let before_records = ctx.catalog.get_by_path(&target.path).unwrap().record_count;
    let r2 = pipeline.run(&mut ctx).unwrap();
    assert_eq!(r2.stage("scan-archive").unwrap().changed, 1, "only the edited file rescans");
    let after_records = ctx.catalog.get_by_path(&target.path).unwrap().record_count;
    assert_eq!(after_records, before_records + 1);
}

#[test]
fn new_directory_appears_after_scan_config_improvement() {
    let (dir, _) = disk_archive("newdir");
    let mut ctx =
        PipelineContext::new(ArchiveInput::Dir(dir.clone()), Vocabulary::observatory_default());
    // Process initially scoped to stations only.
    ctx.harvest.scan.roots = vec!["stations".into()];
    let mut pipeline = Pipeline::standard();
    pipeline.run(&mut ctx).unwrap();
    let stations_only = ctx.catalog.len();
    assert!(ctx.catalog.iter().all(|d| d.path.starts_with("stations/")));

    // Curator improvement: "specifying an additional directory to scan".
    ctx.harvest.scan.roots.push("cruises".into());
    pipeline.run(&mut ctx).unwrap();
    assert!(ctx.catalog.len() > stations_only);
    assert!(ctx.catalog.iter().any(|d| d.path.starts_with("cruises/")));
}

#[test]
fn deleted_file_reported_by_expected_datasets_validator() {
    let (dir, truth) = disk_archive("delete");
    let mut ctx =
        PipelineContext::new(ArchiveInput::Dir(dir.clone()), Vocabulary::observatory_default());
    ctx.expected_datasets = truth.datasets.iter().map(|d| d.path.clone()).collect();
    let mut pipeline = Pipeline::standard();
    pipeline.run(&mut ctx).unwrap();
    assert_eq!(ctx.validation_errors().count(), 0);

    // The file vanishes from the archive; the catalog entry lingers until a
    // curator removes it, but... the validator still passes (entry exists).
    // Wipe the catalog entry too, then the validator fires.
    let victim = &truth.datasets[0].path;
    std::fs::remove_file(dir.join(victim)).unwrap();
    let id = metamess::core::DatasetId::from_path(victim);
    ctx.catalog.delete(id);
    pipeline.run(&mut ctx).unwrap();
    let errors: Vec<_> = ctx.validation_errors().collect();
    assert_eq!(errors.len(), 1, "{errors:?}");
    assert!(errors[0].message.contains(victim.as_str()));
}

#[test]
fn malformed_files_reported_every_run_but_never_fatal() {
    let (dir, truth) = disk_archive("malformed");
    let mut ctx = PipelineContext::new(ArchiveInput::Dir(dir), Vocabulary::observatory_default());
    let mut pipeline = Pipeline::standard();
    let r1 = pipeline.run(&mut ctx).unwrap();
    let scan = r1.stage("scan-archive").unwrap();
    assert_eq!(scan.errors.len(), truth.malformed.len());
    for m in &truth.malformed {
        assert!(scan.errors.iter().any(|e| e.contains(m.as_str())), "{m} not reported");
    }
    // the wrangled catalog still publishes
    assert_eq!(ctx.catalog.len(), truth.datasets.len());
}
