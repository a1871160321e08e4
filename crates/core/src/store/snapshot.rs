//! Point-in-time catalog snapshots.
//!
//! Layout: `MMSNAP06` magic, u32 payload length, u32 CRC-32, payload (the
//! framing shared with the state image — see `frame.rs`); the payload is the
//! binary catalog encoding of [`codec`](super::codec). Snapshots are
//! written to a temporary file, fsynced, then atomically renamed into place
//! so an interrupted checkpoint never damages the previous snapshot.

use super::codec::{Image, FORMAT_VERSION};
use super::frame::{read_framed, write_framed};
use super::vfs::Vfs;
use crate::error::{Error, Result};
use std::path::Path;

/// The eight magic bytes opening every snapshot file. Its last digit is the
/// format.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"MMSNAP06";

/// Writes a catalog payload as a snapshot at `path`, atomically.
pub(crate) fn write_payload_with(vfs: &dyn Vfs, path: &Path, payload: &[u8]) -> Result<()> {
    write_framed(vfs, path, SNAPSHOT_MAGIC, &[payload], "snapshot")
}

/// A snapshot's payload as an [`Image`], checked in full and not decoded:
/// the file's bytes as they were read, frame and all.
pub(crate) fn read_image_with(vfs: &dyn Vfs, path: impl AsRef<Path>) -> Result<Option<Image>> {
    let path = path.as_ref();
    let framed = match read_framed(vfs, path, SNAPSHOT_MAGIC, "snapshot") {
        // Looked at again only once the read has failed, so the good path
        // reads the file once.
        Err(e) if e.is_corrupt() => {
            let bytes = vfs.read(path).unwrap_or_default();
            return Err(older_format("snapshot", path, &bytes, SNAPSHOT_MAGIC).unwrap_or(e));
        }
        read => read?,
    };
    let Some(framed) = framed else {
        return Ok(None);
    };
    let (bytes, start) = framed.into_parts();
    let image = Image::catalog_at(bytes, start).map_err(|e| match e {
        Error::Corrupt { message } => {
            Error::corrupt(format!("snapshot {}: undecodable: {message}", path.display()))
        }
        other => other,
    })?;
    Ok(Some(image))
}

/// The refusal of the `what` at `path`, which opens with `bytes`, when its
/// magic is `magic` with the digit of an older format. Such a file is
/// recognised only to be refused by name: it is whole, so it must not read
/// as damage.
pub(crate) fn older_format(
    what: &str,
    path: &Path,
    bytes: &[u8],
    magic: &[u8; 8],
) -> Option<Error> {
    let found = bytes.get(7)?.checked_sub(b'0')?;
    (bytes.starts_with(&magic[..7]) && (1..FORMAT_VERSION).contains(&found)).then(|| {
        Error::unsupported_format(format!("{what} {}", path.display()), found, FORMAT_VERSION)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::feature::DatasetFeature;
    use crate::store::codec::encode_catalog;
    use crate::store::vfs::std_vfs;
    use std::fs;
    use std::path::PathBuf;

    fn write_snapshot(path: &Path, catalog: &Catalog) -> Result<()> {
        write_payload_with(std_vfs().as_ref(), path, &encode_catalog(catalog))
    }

    fn read_snapshot(path: impl AsRef<Path>) -> Result<Option<Catalog>> {
        Ok(read_image_with(std_vfs().as_ref(), path)?.map(|image| image.catalog()))
    }

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
        c.put(crate::store::codec::tests::odd_floats());
        c.set_property("archive", "sim");
        c
    }

    #[test]
    fn round_trip() {
        let dir = tmpdir("rt");
        let p = dir.join("snapshot.bin");
        let mut c = sample_catalog();
        write_snapshot(&p, &c).unwrap();
        let back = read_snapshot(&p).unwrap().unwrap();
        // Generation is part of the snapshot too, and so is a summary that
        // never saw a number (+inf/−inf): what a store hands back is what
        // publish compares with.
        assert_eq!(back, c);
        assert_eq!(c.diff(&back), []);
        // A NaN equals nothing, itself included, and −0.0 equals 0.0: those
        // are compared by their bits, through the encoding.
        let odd = c.iter_mut().find(|f| f.path == "odd.csv").unwrap();
        odd.variables[0].summary.mean = f64::NAN;
        write_snapshot(&p, &c).unwrap();
        let back = read_snapshot(&p).unwrap().unwrap();
        assert_eq!(encode_catalog(&back), encode_catalog(&c));
    }

    #[test]
    fn format_1_is_refused_by_name_not_as_damage() {
        let dir = tmpdir("v1");
        let p = dir.join("snapshot.bin");
        fs::write(&p, crate::store::codec::tests::format_1_snapshot()).unwrap();
        let e = read_snapshot(&p).unwrap_err();
        assert!(matches!(e, Error::UnsupportedFormat { found: 1, supported: 6, .. }), "{e}");
        assert!(!e.is_corrupt());
    }

    #[test]
    fn format_2_is_refused_by_name_not_as_damage() {
        let dir = tmpdir("v2");
        let p = dir.join("snapshot.bin");
        let file = crate::store::codec::tests::format_2_snapshot();
        fs::write(&p, &file).unwrap();
        let e = read_snapshot(&p).unwrap_err();
        assert!(matches!(e, Error::UnsupportedFormat { found: 2, supported: 6, .. }), "{e}");
        assert!(!e.is_corrupt());
        assert!(e.to_string().contains("store format 2; re-wrangle, this build reads format 6"));
        assert_eq!(fs::read(&p).unwrap(), file);
        // a digit that names no older format is damage
        fs::write(&p, [&b"MMSNAP09"[..], &file[8..]].concat()).unwrap();
        assert!(read_snapshot(&p).unwrap_err().is_corrupt());
    }

    #[test]
    fn format_3_is_refused_by_name_not_as_damage() {
        let dir = tmpdir("v3");
        let p = dir.join("snapshot.bin");
        let file = crate::store::codec::tests::format_3_snapshot();
        fs::write(&p, &file).unwrap();
        let e = read_snapshot(&p).unwrap_err();
        assert!(matches!(e, Error::UnsupportedFormat { found: 3, supported: 6, .. }), "{e}");
        assert!(!e.is_corrupt());
        assert!(e.to_string().contains("store format 3; re-wrangle, this build reads format 6"));
        assert_eq!(fs::read(&p).unwrap(), file);
    }

    #[test]
    fn format_4_is_refused_by_name_not_as_damage() {
        let dir = tmpdir("v4");
        let p = dir.join("snapshot.bin");
        let file = crate::store::codec::tests::format_4_snapshot();
        fs::write(&p, &file).unwrap();
        let e = read_snapshot(&p).unwrap_err();
        assert!(matches!(e, Error::UnsupportedFormat { found: 4, supported: 6, .. }), "{e}");
        assert!(!e.is_corrupt());
        assert!(e.to_string().contains("store format 4; re-wrangle, this build reads format 6"));
        assert_eq!(fs::read(&p).unwrap(), file);
    }

    #[test]
    fn format_5_is_refused_by_name_not_as_damage() {
        let dir = tmpdir("v5");
        let p = dir.join("snapshot.bin");
        let file = crate::store::codec::tests::format_5_snapshot();
        fs::write(&p, &file).unwrap();
        let e = read_snapshot(&p).unwrap_err();
        assert!(matches!(e, Error::UnsupportedFormat { found: 5, supported: 6, .. }), "{e}");
        assert!(!e.is_corrupt());
        assert!(e.to_string().contains("store format 5; re-wrangle, this build reads format 6"));
        assert_eq!(fs::read(&p).unwrap(), file);
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
        assert_eq!(back.len(), 4);
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
        assert!(write_payload_with(&vfs, &p, &encode_catalog(&c2)).is_err());
        // The previous snapshot is intact; only the tmp file was touched.
        let back = read_snapshot(&p).unwrap().unwrap();
        assert_eq!(back.len(), 3);
    }
}
