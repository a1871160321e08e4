//! Offline consistency checking ("fsck") primitives for store files.
//!
//! These are the layout-agnostic building blocks behind the `metamess fsck`
//! CLI subcommand: each function verifies one kind of on-disk artifact
//! (catalog snapshot, WAL, the pipeline's state image) and appends structured
//! [`FsckFinding`]s to a report. Damage is never destroyed — findings carry
//! a [`RepairAction`] proposal, and [`apply_repairs`] either truncates a
//! damaged WAL tail (keeping the valid prefix) or moves the file into
//! quarantine with a reason sidecar. A file in an older store format is
//! reported as such and proposed nothing: it is whole, and the build that
//! wrote it can still read it.

use super::codec::{Image, Row, FORMAT_VERSION};
use super::durable::{apply_records, snapshot_state};
use super::quarantine::{quarantine_file, QuarantineReason};
use super::snapshot::read_image_with;
use super::state::read_state;
use super::vfs::Vfs;
use super::wal::{TailRead, Wal};
use crate::error::{Error, Result};
use crate::id::DatasetId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
#[serde(rename_all = "lowercase")]
pub enum FsckSeverity {
    /// Informational: the artifact is present and healthy (or legitimately
    /// absent).
    Info,
    /// Suspicious but not fatal: the store opens, but something is off.
    Warn,
    /// Verification failed: the artifact is damaged.
    Error,
}

/// What `--repair` would do (or did) about a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case", tag = "action")]
pub enum RepairAction {
    /// Truncate the file to `len` bytes, keeping the valid prefix.
    TruncateTo {
        /// Length of the valid prefix, in bytes.
        len: u64,
    },
    /// Move the whole file into quarantine with a reason sidecar.
    Quarantine,
}

/// One verified fact about one file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FsckFinding {
    /// Which artifact this concerns (`"catalog/snapshot"`, `"state/wal"`…).
    pub component: String,
    /// The file that was checked.
    pub path: PathBuf,
    /// Severity of the finding.
    pub severity: FsckSeverity,
    /// Human-readable description of what was found.
    pub detail: String,
    /// Proposed repair, present only on repairable `Error` findings.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub proposed: Option<RepairAction>,
    /// What [`apply_repairs`] actually did (e.g. the quarantine path);
    /// `None` until a repair ran.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub repaired: Option<String>,
    /// The format generation a whole file declares that this build does
    /// not read; present only on such a file's `Error` finding.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub format: Option<u8>,
}

/// Aggregated outcome of an fsck run, serializable as `--json` output.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FsckReport {
    /// Everything fsck noticed, in check order.
    pub findings: Vec<FsckFinding>,
    /// Number of files examined (present or legitimately absent).
    pub files_checked: usize,
    /// Number of repairs [`apply_repairs`] performed.
    pub repairs_applied: usize,
}

impl FsckReport {
    /// Appends a finding.
    pub fn push(
        &mut self,
        component: &str,
        path: &Path,
        severity: FsckSeverity,
        detail: impl Into<String>,
        proposed: Option<RepairAction>,
    ) {
        self.findings.push(FsckFinding {
            component: component.to_string(),
            path: path.to_path_buf(),
            severity,
            detail: detail.into(),
            proposed,
            repaired: None,
            format: None,
        });
    }

    /// Appends the `Error` finding of a file that could not be read: a
    /// damaged one proposes quarantine, and one in a format this build
    /// does not read names that format and proposes nothing.
    fn push_unreadable(&mut self, component: &str, path: &Path, e: &Error) {
        let proposed = e.is_corrupt().then_some(RepairAction::Quarantine);
        self.push(component, path, FsckSeverity::Error, e.to_string(), proposed);
        if let Error::UnsupportedFormat { found, .. } = e {
            self.findings.last_mut().expect("just pushed").format = Some(*found);
        }
    }

    /// Number of `Error`-severity findings.
    pub fn error_count(&self) -> usize {
        self.findings.iter().filter(|f| f.severity == FsckSeverity::Error).count()
    }

    /// Number of `Warn`-severity findings.
    pub fn warn_count(&self) -> usize {
        self.findings.iter().filter(|f| f.severity == FsckSeverity::Warn).count()
    }

    /// True when nothing worse than `Info` was found.
    pub fn is_clean(&self) -> bool {
        self.error_count() == 0 && self.warn_count() == 0
    }

    /// The format of the files this build does not read, when those are
    /// all that stands unrepaired: the oldest one, if every unrepaired
    /// `Error` finding names a format, else `None`.
    pub fn unsupported_format(&self) -> Option<u8> {
        let unrepaired = self
            .findings
            .iter()
            .filter(|f| f.severity == FsckSeverity::Error && f.repaired.is_none());
        unrepaired.map(|f| f.format).collect::<Option<Vec<u8>>>()?.into_iter().min()
    }

    /// True when every `Error` finding was repaired.
    pub fn fully_repaired(&self) -> bool {
        self.findings
            .iter()
            .filter(|f| f.severity == FsckSeverity::Error)
            .all(|f| f.repaired.is_some())
    }
}

/// Counts one file and records what reading it found: `ok` describes a
/// healthy file, an absent one is legitimate, and a damaged one proposes
/// quarantine. Returns what was read.
fn record<T>(
    report: &mut FsckReport,
    component: &str,
    path: &Path,
    read: Result<Option<T>>,
    ok: impl FnOnce(&T) -> String,
) -> Option<T> {
    report.files_checked += 1;
    match read {
        Ok(Some(read)) => {
            report.push(component, path, FsckSeverity::Info, ok(&read), None);
            Some(read)
        }
        Ok(None) => {
            report.push(component, path, FsckSeverity::Info, "absent", None);
            None
        }
        Err(e) => {
            report.push_unreadable(component, path, &e);
            None
        }
    }
}

/// Checks a catalog snapshot file. Returns its image, checked in full and
/// not decoded, when the file is present and healthy.
pub fn check_snapshot(
    vfs: &dyn Vfs,
    path: &Path,
    component: &str,
    report: &mut FsckReport,
) -> Option<Image> {
    record(report, component, path, read_image_with(vfs, path), |image| {
        format!(
            "ok: format {FORMAT_VERSION}, {} datasets at generation {}, {} table entries, {} \
             descriptors, {} bytes per dataset",
            image.len(),
            image.generation(),
            image.table_entries(),
            image.descriptors(),
            image.payload().len() / image.len().max(1)
        )
    })
}

/// Checks the pipeline's state image: its frame and run ledger (the
/// curation bytes are the pipeline's, checked by the CRC).
pub fn check_state(vfs: &dyn Vfs, path: &Path, component: &str, report: &mut FsckReport) {
    record(report, component, path, read_state(vfs, path), |s| {
        format!(
            "ok: run #{}, {} stages, {} curation bytes",
            s.ledger.run_id,
            s.ledger.len(),
            s.curation.len()
        )
    });
}

/// Checks a WAL file record by record, in one read that leaves it as it
/// is. A read that stops before end of file yields an `Error` finding
/// proposing truncation to where it stopped (the records before are still
/// returned); a log that cannot be read at all (bad magic) proposes
/// quarantine, and one in an older format proposes nothing. Returns the
/// parsed records when anything was readable.
pub fn check_wal(
    vfs: &dyn Vfs,
    path: &Path,
    component: &str,
    report: &mut FsckReport,
) -> Option<TailRead> {
    report.files_checked += 1;
    if !vfs.exists(path) {
        report.push(component, path, FsckSeverity::Info, "absent", None);
        return None;
    }
    match Wal::read_from(vfs, path, 0) {
        Ok(tail) => {
            match &tail.stopped_early {
                None => report.push(
                    component,
                    path,
                    FsckSeverity::Info,
                    format!("ok: {} records", tail.records.len()),
                    None,
                ),
                Some(reason) => {
                    let total = vfs.file_len(path).unwrap_or(tail.new_offset);
                    report.push(
                        component,
                        path,
                        FsckSeverity::Error,
                        format!(
                            "damaged tail ({reason}): {} of {total} bytes invalid after {} good \
                             records",
                            total.saturating_sub(tail.new_offset),
                            tail.records.len()
                        ),
                        Some(RepairAction::TruncateTo { len: tail.new_offset }),
                    );
                }
            }
            Some(tail)
        }
        Err(e) => {
            report.push_unreadable(component, path, &e);
            None
        }
    }
}

/// Checks one durable-catalog directory (`snapshot.bin` + `wal.log`):
/// each file's integrity, then recovery — the WAL's records laid over the
/// snapshot's rows as a store load lays them. Returns the recovered rows
/// when the WAL could be read.
pub fn check_catalog_dir(
    vfs: &dyn Vfs,
    dir: &Path,
    report: &mut FsckReport,
) -> Option<BTreeMap<DatasetId, Row>> {
    let snapshot = check_snapshot(vfs, &dir.join("snapshot.bin"), "catalog/snapshot", report);
    let tail = check_wal(vfs, &dir.join("wal.log"), "catalog/wal", report)?;
    let (mut rows, mut properties, generation) = snapshot_state(snapshot);
    let wal_records = tail.records.len();
    let generation = generation + apply_records(&mut rows, &mut properties, tail.records);
    report.push(
        "catalog",
        dir,
        FsckSeverity::Info,
        format!(
            "recovered: {} entries at generation {generation} ({wal_records} wal records past \
             the snapshot)",
            rows.len()
        ),
        None,
    );
    Some(rows)
}

/// Applies the proposed repair of every unrepaired `Error` finding:
/// truncations keep the valid prefix in place, quarantines move the file
/// into `quarantine_dir` with a `"fsck"` reason sidecar. Updates each
/// finding's `repaired` field and the report's `repairs_applied` count.
pub fn apply_repairs(vfs: &dyn Vfs, report: &mut FsckReport, quarantine_dir: &Path) -> Result<()> {
    for ix in 0..report.findings.len() {
        let (path, proposed, detail) = {
            let f = &report.findings[ix];
            if f.repaired.is_some() {
                continue;
            }
            match f.proposed {
                Some(p) => (f.path.clone(), p, f.detail.clone()),
                None => continue,
            }
        };
        let done = match proposed {
            RepairAction::TruncateTo { len } => {
                vfs.truncate(&path, len).map_err(|e| {
                    crate::error::Error::io(format!("truncate {}", path.display()), e)
                })?;
                format!("truncated to {len} bytes")
            }
            RepairAction::Quarantine => {
                let reason = QuarantineReason {
                    source: path.display().to_string(),
                    detail,
                    quarantined_by: "fsck".to_string(),
                };
                let dest = quarantine_file(vfs, &path, quarantine_dir, &reason)?;
                format!("quarantined to {}", dest.display())
            }
        };
        report.findings[ix].repaired = Some(done);
        report.repairs_applied += 1;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature::DatasetFeature;
    use crate::store::durable::{DurableCatalog, StoreOptions};
    use crate::store::vfs::std_vfs;
    use std::fs::{self, OpenOptions};

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("metamess-fsck-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn populated_store(dir: &Path) {
        let mut s = DurableCatalog::open(dir, StoreOptions { sync_on_append: true }).unwrap();
        s.put(DatasetFeature::new("a.csv")).unwrap();
        s.checkpoint().unwrap();
        s.put(DatasetFeature::new("b.csv")).unwrap();
    }

    #[test]
    fn clean_store_reports_only_info() {
        let dir = tmpdir("clean");
        populated_store(&dir);
        let mut report = FsckReport::default();
        let recovered = check_catalog_dir(std_vfs().as_ref(), &dir, &mut report).unwrap();
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(recovered.len(), 2);
        assert_eq!(report.files_checked, 2);
        let snapshot = &report.findings.iter().find(|f| f.component == "catalog/snapshot");
        let detail = &snapshot.unwrap().detail;
        assert!(detail.starts_with("ok: format 6, 1 datasets at generation "), "{detail}");
        assert!(detail.contains(" table entries, 0 descriptors, "), "{detail}");
    }

    #[test]
    fn damaged_wal_tail_is_truncate_repairable() {
        let dir = tmpdir("tail");
        populated_store(&dir);
        let wal = dir.join("wal.log");
        let len = fs::metadata(&wal).unwrap().len();
        let f = OpenOptions::new().write(true).open(&wal).unwrap();
        f.set_len(len - 5).unwrap();
        drop(f);
        let damaged = fs::read(&wal).unwrap();

        let vfs = std_vfs();
        let mut report = FsckReport::default();
        check_catalog_dir(vfs.as_ref(), &dir, &mut report);
        assert_eq!(report.error_count(), 1);
        let finding = report.findings.iter().find(|f| f.proposed.is_some()).unwrap();
        let Some(RepairAction::TruncateTo { len: valid }) = finding.proposed else {
            panic!("expected a truncation proposal, got {:?}", finding.proposed);
        };
        assert!(valid < damaged.len() as u64);
        // A check only reads: it may run under the shared lock, beside a
        // writer whose half-written record this tail could be.
        assert_eq!(fs::read(&wal).unwrap(), damaged, "a check must leave the log as it is");

        apply_repairs(vfs.as_ref(), &mut report, &dir.join("quarantine")).unwrap();
        assert_eq!(report.repairs_applied, 1);
        assert!(report.fully_repaired());
        assert_eq!(fs::read(&wal).unwrap(), damaged[..valid as usize], "the repair shortens it");
        // After repair the store is strict-clean again.
        let mut after = FsckReport::default();
        check_catalog_dir(vfs.as_ref(), &dir, &mut after);
        assert!(after.is_clean(), "{after:?}");
    }

    #[test]
    fn corrupt_snapshot_is_quarantine_repairable() {
        let dir = tmpdir("snap");
        populated_store(&dir);
        let snap = dir.join("snapshot.bin");
        let mut bytes = fs::read(&snap).unwrap();
        let ix = bytes.len() - 4;
        bytes[ix] ^= 0x40;
        fs::write(&snap, &bytes).unwrap();

        let vfs = std_vfs();
        let mut report = FsckReport::default();
        check_catalog_dir(vfs.as_ref(), &dir, &mut report);
        assert_eq!(report.error_count(), 1);
        let qdir = dir.join("quarantine");
        apply_repairs(vfs.as_ref(), &mut report, &qdir).unwrap();
        assert!(!snap.exists());
        assert!(qdir.join("snapshot.bin.0").exists());
        assert!(qdir.join("snapshot.bin.0.reason.json").exists());
    }

    #[test]
    fn bad_wal_magic_is_quarantine_repairable() {
        let dir = tmpdir("magic");
        populated_store(&dir);
        fs::write(dir.join("wal.log"), b"NOTMAGICxxxx").unwrap();
        let vfs = std_vfs();
        let mut report = FsckReport::default();
        check_catalog_dir(vfs.as_ref(), &dir, &mut report);
        let finding = report.findings.iter().find(|f| f.component == "catalog/wal").unwrap();
        assert_eq!(finding.severity, FsckSeverity::Error);
        assert_eq!(finding.proposed, Some(RepairAction::Quarantine));
        apply_repairs(vfs.as_ref(), &mut report, &dir.join("quarantine")).unwrap();
        assert!(!dir.join("wal.log").exists());
    }

    #[test]
    fn an_older_format_is_a_mismatch_with_nothing_to_repair() {
        use crate::store::codec::tests::{
            format_1_snapshot, format_3_snapshot, format_4_snapshot, format_5_snapshot,
        };
        for (format, snapshot, wal) in [
            (1, format_1_snapshot(), b"MMWAL001"),
            (3, format_3_snapshot(), b"MMWAL003"),
            (4, format_4_snapshot(), b"MMWAL004"),
            (5, format_5_snapshot(), b"MMWAL005"),
        ] {
            let dir = tmpdir(&format!("v{format}"));
            fs::write(dir.join("snapshot.bin"), &snapshot).unwrap();
            fs::write(dir.join("wal.log"), wal).unwrap();
            let vfs = std_vfs();
            let mut report = FsckReport::default();
            assert!(check_catalog_dir(vfs.as_ref(), &dir, &mut report).is_none());
            assert_eq!(report.error_count(), 2);
            for f in &report.findings {
                let named = format!("store format {format}; re-wrangle");
                assert!(f.detail.contains(&named), "{}", f.detail);
                assert_eq!(f.proposed, None);
            }
            apply_repairs(vfs.as_ref(), &mut report, &dir.join("quarantine")).unwrap();
            assert_eq!(report.repairs_applied, 0);
            assert_eq!(fs::read(dir.join("snapshot.bin")).unwrap(), snapshot);
            assert_eq!(fs::read(dir.join("wal.log")).unwrap(), wal);
        }
    }

    #[test]
    fn state_check_round_trips_and_detects_corruption() {
        use crate::store::ledger::RunLedger;
        use crate::store::state::write_state;
        let dir = tmpdir("state");
        let p = dir.join("state.bin");
        let mut l = RunLedger::new();
        l.run_id = 7;
        let vfs = std_vfs();
        write_state(vfs.as_ref(), &p, &l, b"{}").unwrap();
        let mut report = FsckReport::default();
        check_state(vfs.as_ref(), &p, "state", &mut report);
        assert!(report.is_clean());
        let detail = &report.findings[0].detail;
        assert_eq!(detail, "ok: run #7, 0 stages, 2 curation bytes");

        let mut bytes = fs::read(&p).unwrap();
        bytes[9] ^= 0xff; // length field
        fs::write(&p, &bytes).unwrap();
        let mut report = FsckReport::default();
        check_state(vfs.as_ref(), &p, "state", &mut report);
        assert_eq!(report.error_count(), 1);
        assert_eq!(report.findings[0].proposed, Some(RepairAction::Quarantine));
        apply_repairs(vfs.as_ref(), &mut report, &dir.join("quarantine")).unwrap();
        assert!(dir.join("quarantine").join("state.bin.0").exists());
        let mut report = FsckReport::default();
        check_state(vfs.as_ref(), &p, "state", &mut report);
        assert_eq!(report.findings[0].detail, "absent");
        assert_eq!(report.files_checked, 1);
    }

    #[test]
    fn report_serializes_to_json() {
        let mut report = FsckReport::default();
        report.push(
            "catalog/wal",
            Path::new("/tmp/wal.log"),
            FsckSeverity::Error,
            "damaged tail",
            Some(RepairAction::TruncateTo { len: 42 }),
        );
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("\"severity\":\"error\""), "{json}");
        assert!(json.contains("\"truncate_to\""), "{json}");
        let back: FsckReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }
}
