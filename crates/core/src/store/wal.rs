//! Append-only write-ahead log of catalog mutations.
//!
//! Record layout (little-endian):
//!
//! ```text
//! file   := MAGIC record*
//! MAGIC  := b"MMWAL006"                       (8 bytes)
//! record := len:u32 crc:u32 payload:[u8; len]
//! ```
//!
//! `crc` is the CRC-32 of the payload. The payload is the binary encoding
//! of a [`Mutation`](crate::catalog::Mutation), with a string table of its
//! own ([`codec`](super::codec)), so a record parses from any record
//! boundary. Every reader — recovery, a server's load, fsck — reads it here
//! as a [`WalRecord`], a put still encoded. A record that fails its length,
//! CRC or parse check stops the read there — the decoder never looks past
//! it, so damage anywhere reads as a damaged tail (a crash or a writer
//! mid-append is the usual cause). What happens next is the caller's
//! policy: [`DurableCatalog::open`](super::DurableCatalog::open), the one
//! writer, truncates the log to the valid prefix; every reader serves the
//! prefix and leaves the file alone. Only a bad magic is
//! [`Error::Corrupt`], and the magic of an older format is not damage at
//! all but [`Error::UnsupportedFormat`]: the log is left where it is.
//!
//! All file I/O flows through a [`Vfs`], so the same code path can run
//! against the real file system or the fault-injecting
//! [`FaultVfs`](super::FaultVfs) used by the crash-torture suite.

use super::codec::{encode_mutation, parse_record, WalRecord};
use super::crc::crc32;
use super::metrics::store_metrics;
use super::snapshot::older_format;
use super::vfs::{std_vfs, Vfs, VfsFile};
use crate::catalog::Mutation;
use crate::error::{Error, IoContext, Result};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The eight magic bytes opening every WAL file. Its last digit is the
/// format.
pub const WAL_MAGIC: &[u8; 8] = b"MMWAL006";
/// Refuse to read a single record larger than this (corruption guard).
const MAX_RECORD_LEN: u32 = 64 * 1024 * 1024;

/// Outcome of a [`Wal::read_from`] read.
///
/// A tail read never mutates the log: a reader beside a WAL that another
/// process is appending to must not truncate bytes the writer's buffer
/// still holds, or the two would corrupt each other. Damage here therefore
/// only *stops* the read; what to do about it is the caller's policy (a
/// reader serves the prefix, the one writer truncates to `new_offset`).
#[derive(Debug, Clone, Default)]
pub struct TailRead {
    /// Complete, CRC-valid records parsed from `offset` onwards.
    pub records: Vec<WalRecord>,
    /// Byte offset just past the last valid record — pass this back as the
    /// next poll's `offset`.
    pub new_offset: u64,
    /// Why the read stopped before end of file (`None` when it consumed
    /// everything). A torn tail here usually means an append is in flight;
    /// callers should re-poll from `new_offset` rather than assume
    /// corruption.
    pub stopped_early: Option<String>,
}

/// An open write-ahead log.
pub struct Wal {
    path: PathBuf,
    writer: BufWriter<Box<dyn VfsFile>>,
    /// Records appended since open/replay (for telemetry and checkpoints).
    appended: u64,
    /// Synchronous durability: fsync after every append.
    sync_on_append: bool,
    /// The payload of the mutation being appended; kept so that a run of
    /// appends allocates for it once.
    scratch: Vec<u8>,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("path", &self.path)
            .field("appended", &self.appended)
            .field("sync_on_append", &self.sync_on_append)
            .finish()
    }
}

impl Wal {
    /// Opens (creating if needed) the log at `path` for appending, using the
    /// standard file system.
    pub fn open(path: impl AsRef<Path>, sync_on_append: bool) -> Result<Wal> {
        Wal::open_with(std_vfs(), path, sync_on_append)
    }

    /// Opens (creating if needed) the log at `path` for appending through
    /// an explicit [`Vfs`].
    pub fn open_with(
        vfs: Arc<dyn Vfs>,
        path: impl AsRef<Path>,
        sync_on_append: bool,
    ) -> Result<Wal> {
        let path = path.as_ref().to_path_buf();
        let mut file = vfs.open_append(&path).io_ctx(format!("open wal {}", path.display()))?;
        let len = file.len().io_ctx(format!("stat wal {}", path.display()))?;
        if len == 0 {
            file.write_all(WAL_MAGIC).io_ctx("write wal magic")?;
            file.sync_all().io_ctx("sync wal magic")?;
        } else if let Some(e) =
            vfs.read(&path).ok().and_then(|bytes| older_format("wal", &path, &bytes, WAL_MAGIC))
        {
            // Records of this format after an older header would be read by
            // neither build. (A `Vfs` reads whole files; a log is its eight
            // magic bytes after every checkpoint.)
            return Err(e);
        }
        let writer = BufWriter::new(file);
        Ok(Wal { path, writer, appended: 0, sync_on_append, scratch: Vec::new() })
    }

    /// Reads complete records from byte `offset` onwards through `vfs`,
    /// without opening the log for writing and without ever truncating it.
    /// Every reader of a WAL — recovery, serving, fsck — parses its records
    /// here.
    ///
    /// An incomplete or invalid record merely stops the read — a writer may
    /// still be mid-append — and a later read resumes from
    /// [`TailRead::new_offset`]. Passing `offset = 0` starts after the magic
    /// header; an `offset` beyond the current file length (the log shrank,
    /// i.e. was reset or compacted underneath us) is an [`Error::Invalid`]
    /// so the caller can fall back to a full reload.
    pub fn read_from(vfs: &dyn Vfs, path: &Path, offset: u64) -> Result<TailRead> {
        let bytes = match vfs.read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(TailRead { new_offset: offset, ..TailRead::default() })
            }
            Err(e) => return Err(Error::io(format!("open wal {}", path.display()), e)),
        };
        if offset > bytes.len() as u64 {
            return Err(Error::invalid(format!(
                "wal {}: tail offset {offset} beyond file length {} (log was reset)",
                path.display(),
                bytes.len()
            )));
        }
        let mut pos = offset as usize;
        if pos < WAL_MAGIC.len() {
            if bytes.is_empty() {
                return Ok(TailRead::default());
            }
            if let Some(e) = older_format("wal", path, &bytes, WAL_MAGIC) {
                return Err(e);
            }
            if !bytes.starts_with(WAL_MAGIC) {
                return Err(Error::corrupt(format!("wal {}: bad magic", path.display())));
            }
            pos = WAL_MAGIC.len();
        }
        let mut records = Vec::new();
        let mut stopped_early = None;
        while pos < bytes.len() {
            if pos + 8 > bytes.len() {
                stopped_early = Some("torn record header".into());
                break;
            }
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
            let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
            if len > MAX_RECORD_LEN {
                stopped_early = Some(format!("record length {len} exceeds cap"));
                break;
            }
            let start = pos + 8;
            let end = start + len as usize;
            if end > bytes.len() {
                stopped_early = Some("torn record payload".into());
                break;
            }
            let payload = &bytes[start..end];
            if crc32(payload) != crc {
                stopped_early = Some("crc mismatch".into());
                break;
            }
            match parse_record(payload) {
                Ok(record) => records.push(record),
                Err(e) => {
                    stopped_early = Some(format!("undecodable mutation: {e}"));
                    break;
                }
            }
            pos = end;
        }
        Ok(TailRead { records, new_offset: pos as u64, stopped_early })
    }

    /// Appends one mutation. The record is durable after this call when the
    /// log was opened with `sync_on_append`.
    pub fn append(&mut self, m: &Mutation) -> Result<()> {
        let mut payload = std::mem::take(&mut self.scratch);
        encode_mutation(m, &mut payload);
        let appended = self.append_payload(&payload);
        self.scratch = payload;
        appended
    }

    /// Appends one record whose payload is already encoded: a mutation as
    /// [`encode_mutation`] writes it, such as a put's
    /// [`put_image`](super::codec::put_image), which its writer keeps.
    pub(crate) fn append_payload(&mut self, payload: &[u8]) -> Result<()> {
        if payload.len() as u64 > MAX_RECORD_LEN as u64 {
            return Err(Error::invalid(format!("mutation of {} bytes exceeds cap", payload.len())));
        }
        let len = (payload.len() as u32).to_le_bytes();
        let crc = crc32(payload).to_le_bytes();
        self.writer.write_all(&len).io_ctx("append wal len")?;
        self.writer.write_all(&crc).io_ctx("append wal crc")?;
        self.writer.write_all(payload).io_ctx("append wal payload")?;
        self.appended += 1;
        if metamess_telemetry::enabled() {
            let m = store_metrics();
            m.wal_appends.inc();
            m.wal_bytes.add(8 + payload.len() as u64);
        }
        if self.sync_on_append {
            self.flush_and_sync()?;
        }
        Ok(())
    }

    /// Flushes buffered records and fsyncs the file.
    ///
    /// Successful and failed fsyncs are counted separately
    /// (`metamess_core_wal_fsyncs_total` vs
    /// `metamess_core_wal_fsync_failures_total`), and only after the result
    /// is known — a failed fsync is never reported as a durable one.
    pub fn flush_and_sync(&mut self) -> Result<()> {
        let res = self
            .writer
            .flush()
            .io_ctx("flush wal")
            .and_then(|()| self.writer.get_mut().sync_all().io_ctx("sync wal"));
        if metamess_telemetry::enabled() {
            let m = store_metrics();
            match &res {
                Ok(()) => m.wal_fsyncs.inc(),
                Err(_) => m.wal_fsync_failures.inc(),
            }
        }
        res
    }

    /// Truncates the log back to just the magic header (after a checkpoint).
    pub fn reset(&mut self) -> Result<()> {
        self.writer.flush().io_ctx("flush wal before reset")?;
        let file = self.writer.get_mut();
        file.set_len(WAL_MAGIC.len() as u64).io_ctx("truncate wal")?;
        file.seek_to_end().io_ctx("seek wal end")?;
        file.sync_all().io_ctx("sync wal after reset")?;
        self.appended = 0;
        Ok(())
    }

    /// Records appended since this handle was opened or last reset.
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Path of the log file.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature::DatasetFeature;
    use crate::store::codec::tests::mutation;
    use crate::store::{DurableCatalog, StoreOptions};
    use std::fs::{self, OpenOptions};

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("metamess-wal-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn put(path: &str) -> Mutation {
        Mutation::Put(Box::new(DatasetFeature::new(path)))
    }

    /// Everything the log holds, and whether the read reached its end.
    fn read_all(path: &Path) -> TailRead {
        Wal::read_from(std_vfs().as_ref(), path, 0).unwrap()
    }

    #[test]
    fn append_and_replay() {
        let dir = tmpdir("basic");
        let wal = dir.join("wal.log");
        let mut odd = crate::store::codec::tests::odd_floats();
        let mut written = vec![
            put("a.csv"),
            put("b.csv"),
            Mutation::Delete(crate::id::DatasetId::from_path("a.csv")),
            Mutation::SetProperty { key: "archive".into(), value: "sim".into() },
            // a summary that never saw a number (+inf/−inf) comes back equal
            Mutation::Put(Box::new(odd.clone())),
        ];
        // … and a NaN, which equals nothing, comes back with the same bits
        odd.variables[0].summary.mean = f64::NAN;
        written.push(Mutation::Put(Box::new(odd)));
        {
            let mut w = Wal::open(&wal, true).unwrap();
            for m in &written {
                w.append(m).unwrap();
            }
            assert_eq!(w.appended(), 6);
        }
        let r = read_all(&wal);
        assert!(r.stopped_early.is_none());
        let read: Vec<Mutation> = r.records.into_iter().map(mutation).collect();
        assert_eq!(read[..5], written[..5]);
        let (mut back, mut original) = (Vec::new(), Vec::new());
        encode_mutation(&read[5], &mut back);
        encode_mutation(&written[5], &mut original);
        assert_eq!(back, original);
        // every record carries its own string table: the last one decodes
        // without the five before it
        let last = r.new_offset - 8 - original.len() as u64;
        assert_eq!(Wal::read_from(std_vfs().as_ref(), &wal, last).unwrap().records.len(), 1);
    }

    #[test]
    fn format_1_log_is_refused_by_name_and_never_appended_to() {
        let dir = tmpdir("v1");
        let wal = dir.join("wal.log");
        let mut v1 = b"MMWAL001".to_vec();
        let payload = br#"{"Delete":7}"#;
        v1.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        v1.extend_from_slice(&crc32(payload).to_le_bytes());
        v1.extend_from_slice(payload);
        fs::write(&wal, &v1).unwrap();
        for e in [
            Wal::read_from(std_vfs().as_ref(), &wal, 0).unwrap_err(),
            Wal::open(&wal, true).unwrap_err(),
        ] {
            assert!(matches!(e, Error::UnsupportedFormat { found: 1, supported: 6, .. }), "{e}");
            assert!(!e.is_corrupt());
        }
        assert_eq!(fs::read(&wal).unwrap(), v1);
    }

    #[test]
    fn format_2_log_is_refused_by_name_and_never_appended_to() {
        let dir = tmpdir("v2");
        let wal = dir.join("wal.log");
        // a format 2 delete record: version 2, kind 2, no table, the id
        let mut v2 = b"MMWAL002".to_vec();
        let payload = [&[2u8, 2, 0][..], &7u64.to_le_bytes()].concat();
        v2.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        v2.extend_from_slice(&crc32(&payload).to_le_bytes());
        v2.extend_from_slice(&payload);
        fs::write(&wal, &v2).unwrap();
        for e in [
            Wal::read_from(std_vfs().as_ref(), &wal, 0).unwrap_err(),
            Wal::open(&wal, true).unwrap_err(),
        ] {
            assert!(matches!(e, Error::UnsupportedFormat { found: 2, supported: 6, .. }), "{e}");
            assert!(!e.is_corrupt());
        }
        assert_eq!(fs::read(&wal).unwrap(), v2);
        // the bare magic a checkpoint leaves is refused alike
        fs::write(&wal, b"MMWAL002").unwrap();
        assert!(matches!(Wal::open(&wal, true).unwrap_err(), Error::UnsupportedFormat { .. }));
        assert_eq!(fs::read(&wal).unwrap(), b"MMWAL002");
    }

    #[test]
    fn format_3_log_is_refused_by_name_and_never_appended_to() {
        let dir = tmpdir("v3");
        let wal = dir.join("wal.log");
        // a format 3 delete record: version 3, kind 2, no table, the id
        let mut v3 = b"MMWAL003".to_vec();
        let payload = [&[3u8, 2, 0][..], &7u64.to_le_bytes()].concat();
        v3.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        v3.extend_from_slice(&crc32(&payload).to_le_bytes());
        v3.extend_from_slice(&payload);
        fs::write(&wal, &v3).unwrap();
        for e in [
            Wal::read_from(std_vfs().as_ref(), &wal, 0).unwrap_err(),
            Wal::open(&wal, true).unwrap_err(),
        ] {
            assert!(matches!(e, Error::UnsupportedFormat { found: 3, supported: 6, .. }), "{e}");
            assert!(!e.is_corrupt());
        }
        assert_eq!(fs::read(&wal).unwrap(), v3);
        // the bare magic a checkpoint leaves is refused alike
        fs::write(&wal, b"MMWAL003").unwrap();
        assert!(matches!(Wal::open(&wal, true).unwrap_err(), Error::UnsupportedFormat { .. }));
        assert_eq!(fs::read(&wal).unwrap(), b"MMWAL003");
    }

    #[test]
    fn format_4_log_is_refused_by_name_and_never_appended_to() {
        let dir = tmpdir("v4");
        let wal = dir.join("wal.log");
        // a format 4 delete record: version 4, kind 2, no table, no
        // descriptors, the id
        let mut v4 = b"MMWAL004".to_vec();
        let payload = [&[4u8, 2, 0, 0][..], &7u64.to_le_bytes()].concat();
        v4.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        v4.extend_from_slice(&crc32(&payload).to_le_bytes());
        v4.extend_from_slice(&payload);
        fs::write(&wal, &v4).unwrap();
        for e in [
            Wal::read_from(std_vfs().as_ref(), &wal, 0).unwrap_err(),
            Wal::open(&wal, true).unwrap_err(),
        ] {
            assert!(matches!(e, Error::UnsupportedFormat { found: 4, supported: 6, .. }), "{e}");
            assert!(!e.is_corrupt());
        }
        assert_eq!(fs::read(&wal).unwrap(), v4);
        // the bare magic a checkpoint leaves is refused alike
        fs::write(&wal, b"MMWAL004").unwrap();
        assert!(matches!(Wal::open(&wal, true).unwrap_err(), Error::UnsupportedFormat { .. }));
        assert_eq!(fs::read(&wal).unwrap(), b"MMWAL004");
    }

    #[test]
    fn format_5_log_is_refused_by_name_and_never_appended_to() {
        let dir = tmpdir("v5");
        let wal = dir.join("wal.log");
        // a format 5 delete record: version 5, kind 2, no table, no
        // descriptors, the id
        let mut v5 = b"MMWAL005".to_vec();
        let payload = [&[5u8, 2, 0, 0][..], &7u64.to_le_bytes()].concat();
        v5.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        v5.extend_from_slice(&crc32(&payload).to_le_bytes());
        v5.extend_from_slice(&payload);
        fs::write(&wal, &v5).unwrap();
        for e in [
            Wal::read_from(std_vfs().as_ref(), &wal, 0).unwrap_err(),
            Wal::open(&wal, true).unwrap_err(),
        ] {
            assert!(matches!(e, Error::UnsupportedFormat { found: 5, supported: 6, .. }), "{e}");
            assert!(!e.is_corrupt());
        }
        assert_eq!(fs::read(&wal).unwrap(), v5);
        // the bare magic a checkpoint leaves is refused alike
        fs::write(&wal, b"MMWAL005").unwrap();
        assert!(matches!(Wal::open(&wal, true).unwrap_err(), Error::UnsupportedFormat { .. }));
        assert_eq!(fs::read(&wal).unwrap(), b"MMWAL005");
    }

    #[test]
    fn replay_missing_file_is_empty() {
        let dir = tmpdir("missing");
        let r = read_all(&dir.join("nope.log"));
        assert!(r.records.is_empty() && r.stopped_early.is_none());
        assert_eq!(r.new_offset, 0);
    }

    #[test]
    fn reopen_appends_after_existing() {
        let dir = tmpdir("reopen");
        let wal = dir.join("wal.log");
        {
            let mut w = Wal::open(&wal, true).unwrap();
            w.append(&put("a.csv")).unwrap();
        }
        {
            let mut w = Wal::open(&wal, true).unwrap();
            w.append(&put("b.csv")).unwrap();
        }
        let r = read_all(&wal);
        assert_eq!(r.records.len(), 2);
        assert!(r.stopped_early.is_none());
    }

    #[test]
    fn torn_tail_truncated() {
        let dir = tmpdir("torn");
        let wal = dir.join("wal.log");
        {
            let mut w = Wal::open(&wal, true).unwrap();
            w.append(&put("a.csv")).unwrap();
            w.append(&put("b.csv")).unwrap();
        }
        // Chop ten bytes off the end: the final record is torn.
        let len = fs::metadata(&wal).unwrap().len();
        let f = OpenOptions::new().write(true).open(&wal).unwrap();
        f.set_len(len - 10).unwrap();
        drop(f);

        // A read salvages the first record and says where it stopped.
        let r = read_all(&wal);
        assert_eq!(r.records.len(), 1);
        assert!(r.stopped_early.is_some());
        // The writer's open truncates there …
        let store = DurableCatalog::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(store.recovery_report().truncated_bytes, len - 10 - r.new_offset);
        drop(store);
        assert_eq!(fs::metadata(&wal).unwrap().len(), r.new_offset);
        // … after which the log is clean again and appendable.
        let mut w = Wal::open(&wal, true).unwrap();
        w.append(&put("c.csv")).unwrap();
        drop(w);
        let r2 = read_all(&wal);
        assert_eq!(r2.records.len(), 2);
        assert!(r2.stopped_early.is_none());
    }

    #[test]
    fn bitflip_detected() {
        let dir = tmpdir("bitflip");
        let wal = dir.join("wal.log");
        {
            let mut w = Wal::open(&wal, true).unwrap();
            w.append(&put("a.csv")).unwrap();
        }
        let mut bytes = fs::read(&wal).unwrap();
        let ix = bytes.len() - 5;
        bytes[ix] ^= 0x40;
        fs::write(&wal, &bytes).unwrap();
        let r = read_all(&wal);
        assert!(r.records.is_empty());
        assert_eq!(r.stopped_early.as_deref(), Some("crc mismatch"));
        assert_eq!(r.new_offset, WAL_MAGIC.len() as u64);
    }

    #[test]
    fn undecodable_record_with_valid_crc_is_damage() {
        let dir = tmpdir("undecodable");
        let wal = dir.join("wal.log");
        {
            let mut w = Wal::open(&wal, true).unwrap();
            w.append(&put("a.csv")).unwrap();
        }
        // Append a record whose CRC verifies but whose payload is not a
        // Mutation: framing is intact, decoding fails.
        let mut bytes = fs::read(&wal).unwrap();
        let junk = br#"{"not":"a mutation"}"#;
        bytes.extend_from_slice(&(junk.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&crc32(junk).to_le_bytes());
        bytes.extend_from_slice(junk);
        fs::write(&wal, &bytes).unwrap();
        let r = read_all(&wal);
        assert_eq!(r.records.len(), 1, "the valid prefix survives");
        assert!(r.stopped_early.unwrap().starts_with("undecodable mutation"));
        assert!(r.new_offset < bytes.len() as u64);
    }

    #[test]
    fn bad_magic_rejected() {
        let dir = tmpdir("magic");
        let wal = dir.join("wal.log");
        fs::write(&wal, b"NOTAWAL0rest").unwrap();
        assert!(Wal::read_from(std_vfs().as_ref(), &wal, 0).unwrap_err().is_corrupt());
    }

    #[test]
    fn reset_empties_log() {
        let dir = tmpdir("reset");
        let wal = dir.join("wal.log");
        let mut w = Wal::open(&wal, true).unwrap();
        w.append(&put("a.csv")).unwrap();
        w.reset().unwrap();
        assert_eq!(w.appended(), 0);
        w.append(&put("b.csv")).unwrap();
        drop(w);
        let r = read_all(&wal);
        assert_eq!(r.records.len(), 1);
        assert!(matches!(&r.records[0], WalRecord::Put(row) if row.decode().path == "b.csv"));
    }

    #[test]
    fn absurd_length_field_is_damage_not_allocation() {
        let dir = tmpdir("hugelen");
        let wal = dir.join("wal.log");
        let mut bytes = WAL_MAGIC.to_vec();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(b"junk");
        fs::write(&wal, &bytes).unwrap();
        let r = read_all(&wal);
        assert!(r.records.is_empty());
        assert!(r.stopped_early.unwrap().contains("exceeds cap"));
    }

    #[test]
    fn read_tail_follows_a_growing_log() {
        let dir = tmpdir("tail");
        let wal = dir.join("wal.log");
        let mut w = Wal::open(&wal, true).unwrap();
        w.append(&put("a.csv")).unwrap();
        let first = Wal::read_from(std_vfs().as_ref(), &wal, 0).unwrap();
        assert_eq!(first.records.len(), 1);
        assert!(first.stopped_early.is_none());
        // Nothing new: same offset comes back, no mutations.
        let idle = Wal::read_from(std_vfs().as_ref(), &wal, first.new_offset).unwrap();
        assert!(idle.records.is_empty());
        assert_eq!(idle.new_offset, first.new_offset);
        // The writer appends; the reader picks up only the new records.
        w.append(&put("b.csv")).unwrap();
        w.append(&put("c.csv")).unwrap();
        let next = Wal::read_from(std_vfs().as_ref(), &wal, first.new_offset).unwrap();
        assert_eq!(next.records.len(), 2);
        assert!(matches!(&next.records[0], WalRecord::Put(row) if row.decode().path == "b.csv"));
    }

    #[test]
    fn read_tail_stops_at_torn_tail_without_truncating() {
        let dir = tmpdir("tail-torn");
        let wal = dir.join("wal.log");
        {
            let mut w = Wal::open(&wal, true).unwrap();
            w.append(&put("a.csv")).unwrap();
            w.append(&put("b.csv")).unwrap();
        }
        let full = fs::metadata(&wal).unwrap().len();
        let f = OpenOptions::new().write(true).open(&wal).unwrap();
        f.set_len(full - 10).unwrap();
        drop(f);
        let r = Wal::read_from(std_vfs().as_ref(), &wal, 0).unwrap();
        assert_eq!(r.records.len(), 1, "complete prefix parsed");
        assert!(r.stopped_early.is_some());
        // Crucially the file is untouched: a live writer could still be
        // holding the rest of that record.
        assert_eq!(fs::metadata(&wal).unwrap().len(), full - 10);
        // Re-polling after the "writer" completes the tail sees the record.
        let mut bytes = fs::read(&wal).unwrap();
        bytes.truncate(r.new_offset as usize);
        let mut payload = Vec::new();
        encode_mutation(&put("b.csv"), &mut payload);
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        fs::write(&wal, &bytes).unwrap();
        let r2 = Wal::read_from(std_vfs().as_ref(), &wal, r.new_offset).unwrap();
        assert_eq!(r2.records.len(), 1);
        assert!(r2.stopped_early.is_none());
    }

    #[test]
    fn read_tail_offset_beyond_len_is_invalid() {
        let dir = tmpdir("tail-shrunk");
        let wal = dir.join("wal.log");
        {
            let mut w = Wal::open(&wal, true).unwrap();
            w.append(&put("a.csv")).unwrap();
        }
        let len = fs::metadata(&wal).unwrap().len();
        assert!(Wal::read_from(std_vfs().as_ref(), &wal, len + 1).is_err());
        // Missing file with a zero offset is benign (nothing yet).
        let r = Wal::read_from(std_vfs().as_ref(), &dir.join("nope.log"), 0).unwrap();
        assert!(r.records.is_empty());
    }

    #[test]
    fn append_through_fault_vfs_torn_write_is_salvaged_on_read() {
        use crate::store::vfs::{FaultKind, FaultPlan, FaultVfs};
        let dir = tmpdir("fault");
        let wal = dir.join("wal.log");
        // Site 1 is the magic header; site 2 the first record; tear the 3rd
        // write (the second record).
        let vfs =
            Arc::new(FaultVfs::new(FaultPlan { crash_at: 3, kind: FaultKind::TornWrite, seed: 9 }));
        {
            let mut w = Wal::open_with(vfs.clone(), &wal, true).unwrap();
            w.append(&put("a.csv")).unwrap();
            assert!(w.append(&put("b.csv")).is_err(), "torn write surfaces");
            assert!(vfs.crashed());
        }
        // A read through the real fs salvages the acknowledged record.
        let r = read_all(&wal);
        assert_eq!(r.records.len(), 1);
        assert!(matches!(&r.records[0], WalRecord::Put(row) if row.decode().path == "a.csv"));
    }
}
