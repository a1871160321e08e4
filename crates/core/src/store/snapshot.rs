//! Point-in-time catalog snapshots.
//!
//! Layout: `MMSNAP01` magic, u32 payload length, u32 CRC-32, JSON payload
//! (the framing shared with the run ledger — see `frame.rs`). Snapshots are
//! written to a temporary file, fsynced, then atomically renamed into place
//! so an interrupted checkpoint never damages the previous snapshot.

use super::frame::{read_framed, write_framed};
use super::vfs::{std_vfs, Vfs};
use crate::catalog::Catalog;
use crate::error::{Error, Result};
use std::path::Path;

/// The eight magic bytes opening every snapshot file.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"MMSNAP01";

/// Writes `catalog` as a snapshot at `path`, atomically, via the standard
/// file system.
pub fn write_snapshot(path: impl AsRef<Path>, catalog: &Catalog) -> Result<()> {
    write_snapshot_with(std_vfs().as_ref(), path, catalog)
}

/// Writes `catalog` as a snapshot at `path`, atomically, through an
/// explicit [`Vfs`].
pub fn write_snapshot_with(vfs: &dyn Vfs, path: impl AsRef<Path>, catalog: &Catalog) -> Result<()> {
    let payload = serde_json::to_vec(catalog)
        .map_err(|e| Error::invalid(format!("unencodable catalog: {e}")))?;
    write_framed(vfs, path.as_ref(), SNAPSHOT_MAGIC, &payload, "snapshot")
}

/// Reads a snapshot via the standard file system. Returns `Ok(None)` when
/// the file does not exist, `Err(Corrupt)` when it exists but fails
/// verification.
pub fn read_snapshot(path: impl AsRef<Path>) -> Result<Option<Catalog>> {
    read_snapshot_with(std_vfs().as_ref(), path)
}

/// Reads a snapshot through an explicit [`Vfs`]. Returns `Ok(None)` when
/// the file does not exist, `Err(Corrupt)` when it exists but fails
/// verification.
pub fn read_snapshot_with(vfs: &dyn Vfs, path: impl AsRef<Path>) -> Result<Option<Catalog>> {
    let path = path.as_ref();
    let Some(framed) = read_framed(vfs, path, SNAPSHOT_MAGIC, "snapshot")? else {
        return Ok(None);
    };
    let catalog: Catalog = serde_json::from_slice(framed.payload())
        .map_err(|e| Error::corrupt(format!("snapshot {}: undecodable: {e}", path.display())))?;
    Ok(Some(catalog))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature::DatasetFeature;
    use std::fs;
    use std::path::PathBuf;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("metamess-snap-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn sample_catalog() -> Catalog {
        let mut c = Catalog::new();
        c.put(DatasetFeature::new("a.csv"));
        c.put(DatasetFeature::new("b.cdl"));
        c.set_property("archive", "sim");
        c
    }

    #[test]
    fn round_trip() {
        let dir = tmpdir("rt");
        let p = dir.join("snapshot.bin");
        let c = sample_catalog();
        write_snapshot(&p, &c).unwrap();
        let back = read_snapshot(&p).unwrap().unwrap();
        // Generation is part of the snapshot too.
        assert_eq!(back, c);
    }

    #[test]
    fn missing_is_none() {
        let dir = tmpdir("miss");
        assert!(read_snapshot(dir.join("none.bin")).unwrap().is_none());
    }

    #[test]
    fn corrupt_payload_detected() {
        let dir = tmpdir("corrupt");
        let p = dir.join("snapshot.bin");
        write_snapshot(&p, &sample_catalog()).unwrap();
        let mut bytes = fs::read(&p).unwrap();
        let ix = bytes.len() - 3;
        bytes[ix] ^= 0x10;
        fs::write(&p, &bytes).unwrap();
        assert!(read_snapshot(&p).unwrap_err().is_corrupt());
    }

    #[test]
    fn truncated_detected() {
        let dir = tmpdir("trunc");
        let p = dir.join("snapshot.bin");
        write_snapshot(&p, &sample_catalog()).unwrap();
        let bytes = fs::read(&p).unwrap();
        fs::write(&p, &bytes[..bytes.len() - 8]).unwrap();
        assert!(read_snapshot(&p).unwrap_err().is_corrupt());
    }

    #[test]
    fn overwrite_replaces_atomically() {
        let dir = tmpdir("ow");
        let p = dir.join("snapshot.bin");
        write_snapshot(&p, &sample_catalog()).unwrap();
        let mut c2 = sample_catalog();
        c2.put(DatasetFeature::new("c.obslog"));
        write_snapshot(&p, &c2).unwrap();
        let back = read_snapshot(&p).unwrap().unwrap();
        assert_eq!(back.len(), 3);
        assert!(!dir.join("snapshot.tmp").exists());
    }

    #[test]
    fn failed_rename_preserves_previous_snapshot() {
        use crate::store::vfs::{FaultKind, FaultPlan, FaultVfs};
        let dir = tmpdir("renamefault");
        let p = dir.join("snapshot.bin");
        write_snapshot(&p, &sample_catalog()).unwrap();
        let vfs = FaultVfs::new(FaultPlan { crash_at: 1, kind: FaultKind::RenameFail, seed: 2 });
        let mut c2 = sample_catalog();
        c2.put(DatasetFeature::new("c.obslog"));
        assert!(write_snapshot_with(&vfs, &p, &c2).is_err());
        // The previous snapshot is intact; only the tmp file was touched.
        let back = read_snapshot(&p).unwrap().unwrap();
        assert_eq!(back.len(), 2);
    }
}
