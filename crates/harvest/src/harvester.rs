//! The harvester: sniff → parse → extract over a scan's listing, with
//! incremental reruns.
//!
//! Running and *re*-running the process is curatorial activity 2; the
//! harvester skips files whose length and content fingerprint match what the
//! previous catalog recorded, reusing the stored feature, and files whose
//! length and fingerprint match a parse failure it is handed, reporting
//! that failure again: a file is read once per content, parsed or not.

use crate::extract::extract_feature;
use crate::naming::{infer_path_facts, NamingRule};
use crate::scan::{ArchiveInput, FileEntry, ScanConfig};
use metamess_core::catalog::Catalog;
use metamess_core::feature::DatasetFeature;
use metamess_core::id::DatasetId;
use metamess_formats::sniff_and_parse;
use metamess_telemetry::{event, Counter, Histogram, Level, Stopwatch};
use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, OnceLock};

pub(crate) struct HarvestMetrics {
    /// `metamess_harvest_files_read_total` — files the archive walk read
    /// (and fingerprinted), one add per file.
    pub(crate) files_read: Arc<Counter>,
    /// `metamess_harvest_bytes_read_total` — the bytes of those files.
    pub(crate) bytes_read: Arc<Counter>,
    /// `metamess_harvest_files_scanned_total` — files the scan listed.
    files_scanned: Arc<Counter>,
    /// `metamess_harvest_files_parsed_total` — files sniffed, parsed and
    /// feature-extracted (cache misses).
    files_parsed: Arc<Counter>,
    /// `metamess_harvest_files_reused_total` — unchanged files whose stored
    /// feature was reused.
    files_reused: Arc<Counter>,
    /// `metamess_harvest_parse_errors_total` — unreadable or unparseable
    /// files read (reported, never fatal); a remembered failure, reported
    /// without a read, is not counted again.
    parse_errors: Arc<Counter>,
    /// `metamess_harvest_extract_micros` — read + sniff + parse + extract
    /// latency per processed file.
    extract_micros: Arc<Histogram>,
}

pub(crate) fn harvest_metrics() -> &'static HarvestMetrics {
    static METRICS: OnceLock<HarvestMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = metamess_telemetry::global();
        HarvestMetrics {
            files_read: r.counter("metamess_harvest_files_read_total"),
            bytes_read: r.counter("metamess_harvest_bytes_read_total"),
            files_scanned: r.counter("metamess_harvest_files_scanned_total"),
            files_parsed: r.counter("metamess_harvest_files_parsed_total"),
            files_reused: r.counter("metamess_harvest_files_reused_total"),
            parse_errors: r.counter("metamess_harvest_parse_errors_total"),
            extract_micros: r.histogram("metamess_harvest_extract_micros"),
        }
    })
}

/// Harvest configuration.
#[derive(Debug, Clone, Default)]
pub struct HarvestConfig {
    /// Scan-stage configuration.
    pub scan: ScanConfig,
    /// Naming conventions, first match wins.
    pub naming: Vec<NamingRule>,
    /// Identifier of this pipeline run (stamped into provenance).
    pub pipeline_run: u64,
}

/// One file the harvester could not read or parse — reported, never fatal:
/// a single bad file must not stop an archive scan.
#[derive(Debug, Clone, PartialEq)]
pub struct HarvestError {
    /// Archive-relative path.
    pub rel_path: String,
    /// What went wrong.
    pub message: String,
    /// The listed length and fingerprint of a file whose bytes did not
    /// parse: a harvest handed this error reports it for the same bytes
    /// without reading them. `None` for a file that could not be read.
    pub unparsable: Option<(u64, u64)>,
}

/// Outcome of a harvest pass.
#[derive(Debug, Default)]
pub struct HarvestReport {
    /// Newly extracted features (changed or new files).
    pub features: Vec<DatasetFeature>,
    /// Ids of the features reused unchanged from the previous catalog,
    /// which still holds them.
    pub reused: Vec<DatasetId>,
    /// Files that failed to parse.
    pub errors: Vec<HarvestError>,
    /// Files scanned in total.
    pub scanned: usize,
}

/// Processes one scanned file into `report`: reused, extracted, or an
/// error — remembered in `failed` (by path), or met reading or parsing it.
fn process_entry(
    archive: &ArchiveInput,
    config: &HarvestConfig,
    previous: Option<&Catalog>,
    failed: &HashMap<&str, &HarvestError>,
    entry: &FileEntry,
    report: &mut HarvestReport,
) {
    let on = metamess_telemetry::enabled();
    if let Some(prev) = previous {
        if let Some(existing) = prev.get_by_path(&entry.rel_path) {
            if existing.provenance.content_fingerprint == entry.fingerprint
                && existing.provenance.file_len == entry.len
            {
                if on {
                    harvest_metrics().files_reused.inc();
                }
                report.reused.push(existing.id);
                return;
            }
        }
    }
    let listed = (entry.len, entry.fingerprint);
    if let Some(&e) = failed.get(entry.rel_path.as_str()) {
        if e.unparsable == Some(listed) {
            report.errors.push(e.clone());
            return;
        }
    }
    let error = |e: metamess_core::error::Error, unparsable| {
        if on {
            harvest_metrics().parse_errors.inc();
        }
        let message = e.to_string();
        HarvestError { rel_path: entry.rel_path.clone(), message, unparsable }
    };
    let timer = Stopwatch::start_if(on);
    let content = match archive.read(&entry.rel_path) {
        Ok(c) => c,
        Err(e) => {
            report.errors.push(error(e, None));
            return;
        }
    };
    match sniff_and_parse(Path::new(&entry.rel_path), &content) {
        Ok(parsed) => {
            let facts = infer_path_facts(&config.naming, &entry.rel_path);
            let feature = extract_feature(
                &entry.rel_path,
                &parsed,
                &facts,
                entry.fingerprint,
                entry.len,
                config.pipeline_run,
            );
            if on {
                let m = harvest_metrics();
                m.files_parsed.inc();
                m.extract_micros.record(timer.micros());
            }
            report.features.push(feature);
        }
        Err(e) => {
            event!(Level::Debug, "harvest", "unparseable {}: {e}", entry.rel_path);
            report.errors.push(error(e, Some(listed)));
        }
    }
}

/// Harvests the listed files of `archive`. `entries` is the listing
/// [`ArchiveInput::scan`] returned; the harvester never lists on its own.
/// When `previous` is given, unchanged files (same length and fingerprint)
/// reuse their stored feature instead of re-parsing. `failed` are the
/// errors of an earlier harvest: a file listed with the length and
/// fingerprint its bytes failed to parse at is reported as it was, unread.
pub fn harvest(
    archive: &ArchiveInput,
    entries: &[FileEntry],
    config: &HarvestConfig,
    previous: Option<&Catalog>,
    failed: &[HarvestError],
) -> HarvestReport {
    if metamess_telemetry::enabled() {
        harvest_metrics().files_scanned.add(entries.len() as u64);
    }
    let failed: HashMap<&str, &HarvestError> =
        failed.iter().map(|e| (e.rel_path.as_str(), e)).collect();
    let mut report = HarvestReport { scanned: entries.len(), ..HarvestReport::default() };
    for entry in entries {
        process_entry(archive, config, previous, &failed, entry, &mut report);
    }
    event!(
        Level::Info,
        "harvest",
        "scanned {}: {} parsed, {} reused, {} errors",
        report.scanned,
        report.features.len(),
        report.reused.len(),
        report.errors.len()
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naming::observatory_rules;
    use metamess_archive::{generate, ArchiveSpec};

    fn config() -> HarvestConfig {
        HarvestConfig { scan: ScanConfig::default(), naming: observatory_rules(), pipeline_run: 1 }
    }

    /// Scans `archive` with `config`'s scan settings and harvests the listing.
    fn scan_and_harvest(
        archive: &ArchiveInput,
        config: &HarvestConfig,
        previous: Option<&Catalog>,
    ) -> HarvestReport {
        let entries = archive.scan(&config.scan).unwrap();
        harvest(archive, &entries, config, previous, &[])
    }

    fn tiny() -> (ArchiveInput, metamess_archive::GeneratedArchive) {
        let archive = generate(&ArchiveSpec::tiny());
        (ArchiveInput::Memory(archive.files.clone()), archive)
    }

    #[test]
    fn harvest_generated_archive() {
        let (source, archive) = tiny();
        let report = scan_and_harvest(&source, &config(), None);
        // every truth dataset harvested; every malformed file reported
        assert_eq!(report.features.len(), archive.truth.datasets.len());
        assert_eq!(report.errors.len(), archive.truth.malformed.len());
        for t in &archive.truth.datasets {
            let f = report.features.iter().find(|f| f.path == t.path).unwrap();
            assert_eq!(f.source.as_deref(), Some(t.source.as_str()), "{}", t.path);
            assert_eq!(
                f.external.get("context").map(String::as_str),
                Some(t.context.as_str()),
                "{}",
                t.path
            );
            let b = f.bbox.expect("bbox");
            assert!((b.min_lat - t.bbox.min_lat).abs() < 0.01, "{}", t.path);
            let time = f.time.expect("time");
            assert_eq!(time.start, t.time.start, "{}", t.path);
        }
    }

    #[test]
    fn harvested_variables_match_truth() {
        let (source, archive) = tiny();
        let report = scan_and_harvest(&source, &config(), None);
        for t in &archive.truth.datasets {
            let f = report.features.iter().find(|f| f.path == t.path).unwrap();
            for tv in &t.variables {
                if ["time", "lat", "lon"].contains(&tv.harvested.as_str()) {
                    continue; // coordinates fold into bbox/interval
                }
                assert!(f.variable(&tv.harvested).is_some(), "{} missing {}", t.path, tv.harvested);
            }
        }
    }

    #[test]
    fn rerun_with_unchanged_archive_reuses_everything() {
        let (source, _) = tiny();
        let first = scan_and_harvest(&source, &config(), None);
        let mut catalog = Catalog::new();
        for f in &first.features {
            catalog.put(f.clone());
        }
        let second = scan_and_harvest(&source, &config(), Some(&catalog));
        assert!(second.features.is_empty());
        assert_eq!(second.reused.len(), first.features.len());
    }

    #[test]
    fn rerun_reparses_only_changed_files() {
        let archive = generate(&ArchiveSpec::tiny());
        let mut files = archive.files.clone();
        let first = scan_and_harvest(&ArchiveInput::Memory(files.clone()), &config(), None);
        let mut catalog = Catalog::new();
        for f in &first.features {
            catalog.put(f.clone());
        }
        // modify one station file
        let ix = files
            .iter()
            .position(|(p, _)| p.ends_with(".csv") && p.starts_with("stations"))
            .unwrap();
        files[ix].1.push('\n');
        files[ix].1 = files[ix].1.replace("10.", "11.");
        let changed_path = files[ix].0.clone();
        let second = scan_and_harvest(&ArchiveInput::Memory(files), &config(), Some(&catalog));
        assert_eq!(second.features.len(), 1);
        assert_eq!(second.features[0].path, changed_path);
    }

    #[test]
    fn disk_source_equivalent_to_memory() {
        let (mem_source, archive) = tiny();
        let dir = std::env::temp_dir().join(format!("metamess-harv-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        archive.write_to(&dir).unwrap();
        let disk = scan_and_harvest(&ArchiveInput::Dir(dir), &config(), None);
        let mem = scan_and_harvest(&mem_source, &config(), None);
        assert_eq!(disk.features.len(), mem.features.len());
        // features identical modulo nothing — paths and summaries match
        for (d, m) in disk.features.iter().zip(mem.features.iter()) {
            assert_eq!(d, m);
        }
    }

    #[test]
    fn scoped_scan_only_sees_its_root() {
        let (source, _) = tiny();
        let mut cfg = config();
        cfg.scan.roots = vec!["cruises".into()];
        let report = scan_and_harvest(&source, &cfg, None);
        assert!(report.features.iter().all(|f| f.path.starts_with("cruises/")));
        assert!(!report.features.is_empty());
    }
}
