//! The shared single-record file framing used by snapshots and ledgers.
//!
//! ```text
//! file := magic:[u8; 8] len:u32 crc:u32 payload:[u8; len]
//! ```
//!
//! `crc` is the CRC-32 of the payload. Writers stage the frame in a
//! `<path>.tmp` sibling, fsync it, atomically rename it into place, and
//! best-effort fsync the parent directory so the rename itself is durable.

use super::crc::crc32;
use super::vfs::Vfs;
use crate::error::{Error, IoContext, Result};
use std::io::Write;
use std::path::Path;

/// Writes `payload` framed under `magic` at `path`, atomically
/// (tmp file → fsync → rename → directory fsync).
pub(crate) fn write_framed(
    vfs: &dyn Vfs,
    path: &Path,
    magic: &[u8; 8],
    payload: &[u8],
    kind: &str,
) -> Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f =
            vfs.open_truncate(&tmp).io_ctx(format!("create {kind} tmp {}", tmp.display()))?;
        f.write_all(magic).io_ctx(format!("write {kind} magic"))?;
        f.write_all(&(payload.len() as u32).to_le_bytes()).io_ctx(format!("write {kind} len"))?;
        f.write_all(&crc32(payload).to_le_bytes()).io_ctx(format!("write {kind} crc"))?;
        f.write_all(payload).io_ctx(format!("write {kind} payload"))?;
        f.sync_all().io_ctx(format!("sync {kind} tmp"))?;
    }
    vfs.rename(&tmp, path).io_ctx(format!("rename {kind} into {}", path.display()))?;
    // Best-effort directory sync so the rename itself is durable.
    if let Some(dir) = path.parent() {
        let _ = vfs.sync_dir(dir);
    }
    Ok(())
}

/// Bytes before the payload: magic, length, CRC.
const HEADER_LEN: usize = 16;

/// A framed file that passed verification. It keeps the file's bytes as
/// they were read, so a 64 MB snapshot is not copied a second time just to
/// drop its 16-byte header.
#[derive(Debug)]
pub(crate) struct Framed(Vec<u8>);

impl Framed {
    /// The verified payload.
    pub(crate) fn payload(&self) -> &[u8] {
        &self.0[HEADER_LEN..]
    }

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
        write_framed(vfs.as_ref(), &p, MAGIC, b"payload", "test").unwrap();
        let framed = read_framed(vfs.as_ref(), &p, MAGIC, "test").unwrap().unwrap();
        assert_eq!(framed.payload(), b"payload");
        assert!(!dir.join("x.tmp").exists());
    }

    #[test]
    fn missing_is_none_and_damage_is_corrupt() {
        let dir = tmpdir("bad");
        let vfs = std_vfs();
        assert!(read_framed(vfs.as_ref(), &dir.join("none"), MAGIC, "test").unwrap().is_none());
        let p = dir.join("x.bin");
        write_framed(vfs.as_ref(), &p, MAGIC, b"payload", "test").unwrap();
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
        assert_eq!(
            read_framed(vfs.as_ref(), &p, MAGIC, "test").unwrap().unwrap().payload(),
            b"payload"
        );
    }
}
