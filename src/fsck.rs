//! Store-layout-aware consistency checking behind `metamess fsck`.
//!
//! The layout-agnostic primitives (frame/CRC/WAL verification, repair
//! application) live in `metamess_core::store::fsck`; this module knows how
//! a `metamess` store directory is laid out:
//!
//! ```text
//! <store>/catalog/snapshot.bin      catalog snapshot (MMSNAP06)
//! <store>/catalog/wal.log           catalog WAL (MMWAL006)
//! <store>/vocabulary.json           published vocabulary (JSON)
//! <store>/state/state.bin           pipeline state image (MMSTATE2): run
//!                                   ledger, curation state
//! <store>/state/quarantine/         damaged files + reason sidecars
//! ```
//!
//! The catalog directory is the only copy of the published catalog: the
//! state image holds none, and its ledger names the catalog it describes
//! by fingerprint. Beyond per-file integrity it checks that snapshot + WAL
//! recover to a consistent generation. A catalog file of an older format
//! (1 to 5: format 5 rows still wrote their ids, whole paths and every
//! variable's total) is whole, so it is reported by its format, with
//! nothing to repair, and left as it is.

use metamess_core::store::fsck::{
    apply_repairs, check_catalog_dir, check_state, FsckReport, FsckSeverity, RepairAction,
};
use metamess_core::store::{lock_path, std_vfs, StoreLock, Vfs};
use metamess_core::{Error, Result};
use std::fmt::Write as _;
use std::path::Path;

/// Where `fsck --repair` puts damaged files, relative to the store root.
pub fn quarantine_dir(store_dir: &Path) -> std::path::PathBuf {
    store_dir.join("state").join("quarantine")
}

/// Verifies the published vocabulary: a present file must parse. Damage
/// proposes quarantine (JSON carries no CRC, so parse failure is the
/// signal).
fn check_json(vfs: &dyn Vfs, path: &Path, component: &str, report: &mut FsckReport) {
    report.files_checked += 1;
    if !vfs.exists(path) {
        report.push(component, path, FsckSeverity::Info, "absent", None);
        return;
    }
    match vfs.read(path) {
        Ok(bytes) => match serde_json::from_slice::<serde_json::Value>(&bytes) {
            Ok(_) => report.push(
                component,
                path,
                FsckSeverity::Info,
                format!("ok: {} bytes of valid json", bytes.len()),
                None,
            ),
            Err(e) => report.push(
                component,
                path,
                FsckSeverity::Error,
                format!("invalid json: {e}"),
                Some(RepairAction::Quarantine),
            ),
        },
        Err(e) => {
            report.push(component, path, FsckSeverity::Error, format!("unreadable: {e}"), None)
        }
    }
}

/// Runs every check over `store_dir`. With `repair`, damaged WAL tails are
/// truncated to their valid prefix and otherwise-damaged files are moved
/// into `<store>/state/quarantine` with reason sidecars.
///
/// Checks take a shared advisory lock (they only read, so they coexist with
/// a live `metamess serve`); `--repair` truncates and quarantines files out
/// from under other processes, so it demands the exclusive lock and fails
/// with a clear conflict while the store has any user.
pub fn run_fsck(store_dir: &Path, repair: bool) -> Result<FsckReport> {
    if !store_dir.exists() {
        return Err(Error::not_found("store directory", store_dir.display().to_string()));
    }
    let lock = lock_path(&store_dir.join("catalog"));
    let _lock = if repair { StoreLock::exclusive(&lock)? } else { StoreLock::shared(&lock)? };
    let vfs = std_vfs();
    let vfs = vfs.as_ref();
    let mut report = FsckReport::default();

    check_catalog_dir(vfs, &store_dir.join("catalog"), &mut report);
    check_json(vfs, &store_dir.join("vocabulary.json"), "vocabulary", &mut report);
    check_state(vfs, &store_dir.join("state").join("state.bin"), "state", &mut report);

    if repair {
        apply_repairs(vfs, &mut report, &quarantine_dir(store_dir))?;
    }
    Ok(report)
}

/// Renders a report as the human-readable `fsck` output.
pub fn render_report(report: &FsckReport) -> String {
    let mut out = String::new();
    for f in &report.findings {
        let tag = match f.severity {
            FsckSeverity::Info => "ok   ",
            FsckSeverity::Warn => "WARN ",
            FsckSeverity::Error => "ERROR",
        };
        let _ = write!(out, "[{tag}] {:<18} {}: {}", f.component, f.path.display(), f.detail);
        if let Some(done) = &f.repaired {
            let _ = write!(out, " — repaired: {done}");
        } else if f.proposed.is_some() {
            let _ = write!(out, " — repairable with --repair");
        }
        out.push('\n');
    }
    let _ = writeln!(
        out,
        "{} files checked: {} error(s), {} warning(s), {} repair(s) applied",
        report.files_checked,
        report.error_count(),
        report.warn_count(),
        report.repairs_applied
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use metamess_core::feature::DatasetFeature;
    use metamess_core::{DurableCatalog, StoreOptions};

    fn store(name: &str) -> std::path::PathBuf {
        let d =
            std::env::temp_dir().join(format!("metamess-fsckfac-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        let mut s = DurableCatalog::open(d.join("catalog"), StoreOptions::default()).unwrap();
        s.put(DatasetFeature::new("a.csv")).unwrap();
        s.checkpoint().unwrap();
        d
    }

    #[test]
    fn clean_store_is_clean() {
        let dir = store("clean");
        let report = run_fsck(&dir, false).unwrap();
        assert!(report.is_clean(), "{}", render_report(&report));
    }

    #[test]
    fn missing_store_errors() {
        assert!(run_fsck(Path::new("/nonexistent/metamess-store"), false).is_err());
    }

    #[test]
    fn invalid_vocab_json_is_flagged_and_quarantined() {
        let dir = store("vocab");
        std::fs::write(dir.join("vocabulary.json"), b"{not json").unwrap();
        let report = run_fsck(&dir, false).unwrap();
        assert_eq!(report.error_count(), 1);
        assert_eq!(report.repairs_applied, 0);

        let report = run_fsck(&dir, true).unwrap();
        assert_eq!(report.repairs_applied, 1);
        assert!(!dir.join("vocabulary.json").exists());
        assert!(quarantine_dir(&dir).join("vocabulary.json.0.reason.json").exists());
    }

    #[test]
    fn a_check_leaves_a_damaged_wal_tail_for_repair_to_shorten() {
        let dir = store("tail");
        let mut s = DurableCatalog::open(dir.join("catalog"), StoreOptions::default()).unwrap();
        s.put(DatasetFeature::new("b.csv")).unwrap();
        s.flush().unwrap();
        drop(s);
        let wal = dir.join("catalog").join("wal.log");
        let whole = std::fs::read(&wal).unwrap();
        let damaged = &whole[..whole.len() - 5];
        std::fs::write(&wal, damaged).unwrap();

        // Under the shared lock a check only reads: the tail may be a live
        // writer's half-written record.
        let report = run_fsck(&dir, false).unwrap();
        assert_eq!(report.error_count(), 1, "{}", render_report(&report));
        assert_eq!(report.repairs_applied, 0);
        assert_eq!(std::fs::read(&wal).unwrap(), damaged);

        let report = run_fsck(&dir, true).unwrap();
        assert!(report.fully_repaired(), "{}", render_report(&report));
        assert!(std::fs::metadata(&wal).unwrap().len() < damaged.len() as u64);
        assert!(run_fsck(&dir, false).unwrap().is_clean());
    }

    #[cfg(unix)]
    #[test]
    fn repair_refused_while_store_is_open() {
        let dir = store("locked");
        let live = DurableCatalog::open(dir.join("catalog"), StoreOptions::default()).unwrap();
        // Read-only checks coexist with the live user…
        run_fsck(&dir, false).unwrap();
        // …but --repair demands exclusivity.
        let e = run_fsck(&dir, true).unwrap_err();
        assert!(e.to_string().contains("locked"), "{e}");
        drop(live);
        run_fsck(&dir, true).unwrap();
    }
}
