//! The shared single-record file framing used by snapshots and the
//! pipeline's state image, and the one atomic whole-file write under it.
//!
//! ```text
//! file := magic:[u8; 8] len:u32 crc:u32 payload:[u8; len]
//! ```
//!
//! `crc` is the CRC-32 of the payload. [`write_atomic`] stages the file in a
//! `<path>.tmp` sibling, fsyncs it, atomically renames it into place, and
//! best-effort fsyncs the parent directory so the rename itself is durable.

use super::crc::{crc32, Crc32};
use super::vfs::Vfs;
use crate::error::{Error, IoContext, Result};
use std::io::Write;
use std::path::Path;

/// Replaces the file at `path` with `parts`, written in order, so that a
/// crash at any point leaves the previous file or the new one whole, never
/// a prefix: tmp file → one fsync → rename → directory fsync. `kind` names
/// the file in errors.
pub fn write_atomic(vfs: &dyn Vfs, path: &Path, parts: &[&[u8]], kind: &str) -> Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f =
            vfs.open_truncate(&tmp).io_ctx(format!("create {kind} tmp {}", tmp.display()))?;
        for part in parts {
            f.write_all(part).io_ctx(format!("write {kind} tmp {}", tmp.display()))?;
        }
        f.sync_all().io_ctx(format!("sync {kind} tmp"))?;
    }
    vfs.rename(&tmp, path).io_ctx(format!("rename {kind} into {}", path.display()))?;
    // Best-effort directory sync so the rename itself is durable.
    if let Some(dir) = path.parent() {
        let _ = vfs.sync_dir(dir);
    }
    Ok(())
}

/// Writes the concatenation of `payload` framed under `magic` at `path`,
/// through [`write_atomic`]. A payload whose length outgrows a `u32` is
/// refused, and with it any part that would.
pub(crate) fn write_framed(
    vfs: &dyn Vfs,
    path: &Path,
    magic: &[u8; 8],
    payload: &[&[u8]],
    kind: &str,
) -> Result<()> {
    let mut crc = Crc32::new();
    payload.iter().for_each(|part| crc.update(part));
    let len = payload.iter().map(|part| part.len()).sum::<usize>();
    let len = u32::try_from(len)
        .map_err(|_| Error::invalid(format!("{kind} payload of {len} bytes outgrows its frame")))?;
    let (len, crc) = (len.to_le_bytes(), crc.finish().to_le_bytes());
    let parts: Vec<&[u8]> =
        [&magic[..], &len, &crc].into_iter().chain(payload.iter().copied()).collect();
    write_atomic(vfs, path, &parts, kind)
}

/// Bytes before the payload: magic, length, CRC.
const HEADER_LEN: usize = 16;

/// A framed file that passed verification. It keeps the file's bytes as
/// they were read, so a 64 MB snapshot is not copied a second time just to
/// drop its 16-byte header.
#[derive(Debug)]
pub(crate) struct Framed(Vec<u8>);

impl Framed {
    /// The file's bytes and where in them the payload starts.
    pub(crate) fn into_parts(self) -> (Vec<u8>, usize) {
        (self.0, HEADER_LEN)
    }
}

/// Reads and verifies a framed file. Returns `Ok(None)` when the file does
/// not exist, `Err(Corrupt)` when it exists but fails verification
/// (bad magic, wrong length, CRC mismatch).
pub(crate) fn read_framed(
    vfs: &dyn Vfs,
    path: &Path,
    magic: &[u8; 8],
    kind: &str,
) -> Result<Option<Framed>> {
    let bytes = match vfs.read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(Error::io(format!("open {kind} {}", path.display()), e)),
    };
    if bytes.len() < HEADER_LEN || &bytes[..8] != magic {
        return Err(Error::corrupt(format!("{kind} {}: bad magic/header", path.display())));
    }
    let len = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
    if bytes.len() != HEADER_LEN + len {
        return Err(Error::corrupt(format!(
            "{kind} {}: expected {} payload bytes, file has {}",
            path.display(),
            len,
            bytes.len() - HEADER_LEN
        )));
    }
    if crc32(&bytes[HEADER_LEN..]) != crc {
        return Err(Error::corrupt(format!("{kind} {}: crc mismatch", path.display())));
    }
    Ok(Some(Framed(bytes)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::vfs::std_vfs;
    use std::path::PathBuf;

    const MAGIC: &[u8; 8] = b"MMTEST01";

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("metamess-frame-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn round_trip_and_no_tmp_left_behind() {
        let dir = tmpdir("rt");
        let p = dir.join("x.bin");
        let vfs = std_vfs();
        write_framed(vfs.as_ref(), &p, MAGIC, &[&b"payload"[..]], "test").unwrap();
        let (bytes, start) =
            read_framed(vfs.as_ref(), &p, MAGIC, "test").unwrap().unwrap().into_parts();
        assert_eq!(&bytes[start..], b"payload");
        assert!(!dir.join("x.tmp").exists());
    }

    /// A replacement that crashes at any write, fsync or rename leaves the
    /// previous file byte for byte; one that does not crash leaves the new
    /// one whole. Never a prefix of either.
    #[test]
    fn a_crash_anywhere_in_an_atomic_write_leaves_the_old_file_or_the_new_one() {
        use crate::store::vfs::{FaultKind, FaultPlan, FaultVfs};
        let dir = tmpdir("atomic");
        let p = dir.join("vocabulary.json");
        let old = b"{\"version\":1}".to_vec();
        let new: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        let parts = [&new[..1000], &new[1000..1001], &new[1001..]];
        let kinds = [
            FaultKind::TornWrite,
            FaultKind::BitFlip,
            FaultKind::FsyncError,
            FaultKind::RenameFail,
        ];
        for kind in kinds {
            for crash_at in 1.. {
                std::fs::write(&p, &old).unwrap();
                let vfs = FaultVfs::new(FaultPlan { crash_at, kind, seed: crash_at });
                let wrote = write_atomic(&vfs, &p, &parts, "test");
                let after = std::fs::read(&p).unwrap();
                if !vfs.crashed() {
                    assert!(crash_at > 1, "{kind:?}: no site reached");
                    wrote.unwrap();
                    assert_eq!(after, new, "{kind:?}: the write that did not crash");
                    break;
                }
                assert!(wrote.is_err(), "{kind:?} at site {crash_at}");
                assert_eq!(after, old, "{kind:?} at site {crash_at}");
            }
        }
    }

    #[test]
    fn missing_is_none_and_damage_is_corrupt() {
        let dir = tmpdir("bad");
        let vfs = std_vfs();
        assert!(read_framed(vfs.as_ref(), &dir.join("none"), MAGIC, "test").unwrap().is_none());
        let p = dir.join("x.bin");
        write_framed(vfs.as_ref(), &p, MAGIC, &[&b"payload"[..]], "test").unwrap();
        let good = std::fs::read(&p).unwrap();
        let rejects = |bytes: &[u8], why: &str| {
            std::fs::write(&p, bytes).unwrap();
            let e = read_framed(vfs.as_ref(), &p, MAGIC, "test").unwrap_err();
            assert!(e.is_corrupt() && e.to_string().contains(why), "{why}: {e}");
        };
        // a payload byte flipped
        let mut bytes = good.clone();
        *bytes.last_mut().unwrap() ^= 0x01;
        rejects(&bytes, "crc mismatch");
        // somebody else's file
        let mut bytes = good.clone();
        bytes[0] ^= 0x01;
        rejects(&bytes, "bad magic");
        // shorter than a header
        rejects(b"short", "bad magic/header");
        // a byte short of, and a byte past, the declared length
        rejects(&good[..good.len() - 1], "expected 7 payload bytes, file has 6");
        let mut bytes = good.clone();
        bytes.push(0);
        rejects(&bytes, "expected 7 payload bytes, file has 8");
        // and the undamaged bytes still read back
        std::fs::write(&p, &good).unwrap();
        let (bytes, start) =
            read_framed(vfs.as_ref(), &p, MAGIC, "test").unwrap().unwrap().into_parts();
        assert_eq!(&bytes[start..], b"payload");
    }
}
