//! Virtual file system abstraction for the durable store.
//!
//! Every byte the store reads or writes goes through a [`Vfs`]: the
//! production [`StdVfs`] is a thin passthrough to `std::fs`, while the
//! deterministic [`FaultVfs`] injects seeded faults — torn writes, bit
//! flips, failed fsyncs, failed renames, short reads — so crash recovery
//! can be torture-tested without real power cuts (see
//! `crates/core/tests/torture.rs`).
//!
//! The fault model is *crash-centric*: a `FaultVfs` injects exactly one
//! fault, at the N-th operation of the planned kind, and from that moment
//! on behaves like a machine that lost power — every further operation
//! fails. A failed fsync additionally rolls the file back to its last
//! successfully synced length, modelling page-cache loss. Reopening the
//! same directory through a fresh [`StdVfs`] then exercises the exact
//! recovery path a real crash would.

use super::metrics::store_metrics;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

/// An open file handle obtained from a [`Vfs`].
///
/// Buffered writers (`std::io::BufWriter`) can wrap a `Box<dyn VfsFile>`
/// directly since the trait extends [`Write`].
#[allow(clippy::len_without_is_empty)] // a file's length, read from the OS; not a collection
pub trait VfsFile: Write + Send {
    /// Flushes OS buffers for this file to stable storage (fsync).
    fn sync_all(&mut self) -> io::Result<()>;
    /// Truncates (or extends) the file to `len` bytes.
    fn set_len(&mut self, len: u64) -> io::Result<()>;
    /// Moves the write cursor to the end of the file, returning the offset.
    fn seek_to_end(&mut self) -> io::Result<u64>;
    /// Current length of the file in bytes.
    fn len(&mut self) -> io::Result<u64>;
}

/// The file-system surface the durable store needs: open for append or
/// truncating write, whole-file reads, atomic rename, truncation, and
/// directory fsync. Implementations must be safe to share across threads.
pub trait Vfs: Send + Sync + std::fmt::Debug {
    /// Opens `path` for appending, creating it when absent.
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Opens `path` for writing from scratch, truncating any existing file.
    fn open_truncate(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Reads the entire file. Errors with `ErrorKind::NotFound` when absent.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Truncates the file at `path` to `len` bytes and fsyncs it.
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()>;
    /// Atomically renames `from` to `to`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Creates `path` and any missing parents.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
    /// Best-effort fsync of a directory (making renames inside it durable).
    fn sync_dir(&self, path: &Path) -> io::Result<()>;
    /// Whether a file exists at `path`.
    fn exists(&self, path: &Path) -> bool;
    /// Length of the file at `path` in bytes.
    fn file_len(&self, path: &Path) -> io::Result<u64>;
    /// Removes the file at `path`.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Lists the files directly inside `path`, sorted by name. A missing
    /// directory reads as empty (retention pruning before the first
    /// compaction).
    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>>;
}

/// The shared production VFS: a `std::fs` passthrough.
pub fn std_vfs() -> Arc<dyn Vfs> {
    static STD: OnceLock<Arc<StdVfs>> = OnceLock::new();
    STD.get_or_init(|| Arc::new(StdVfs)).clone() as Arc<dyn Vfs>
}

/// Production [`Vfs`]: every operation maps 1:1 onto `std::fs`.
#[derive(Debug, Default, Clone, Copy)]
pub struct StdVfs;

struct StdFile(File);

impl Write for StdFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.write(buf)
    }
    fn flush(&mut self) -> io::Result<()> {
        self.0.flush()
    }
}

impl VfsFile for StdFile {
    fn sync_all(&mut self) -> io::Result<()> {
        self.0.sync_all()
    }
    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.0.set_len(len)
    }
    fn seek_to_end(&mut self) -> io::Result<u64> {
        self.0.seek(SeekFrom::End(0))
    }
    fn len(&mut self) -> io::Result<u64> {
        Ok(self.0.metadata()?.len())
    }
}

impl Vfs for StdVfs {
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let f = OpenOptions::new().read(true).append(true).create(true).open(path)?;
        Ok(Box::new(StdFile(f)))
    }

    fn open_truncate(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let f = OpenOptions::new().write(true).create(true).truncate(true).open(path)?;
        Ok(Box::new(StdFile(f)))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        let f = OpenOptions::new().write(true).open(path)?;
        f.set_len(len)?;
        f.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        File::open(path)?.sync_all()
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        Ok(std::fs::metadata(path)?.len())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        let mut out = Vec::new();
        let entries = match std::fs::read_dir(path) {
            Ok(e) => e,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(out),
            Err(e) => return Err(e),
        };
        for entry in entries {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                out.push(entry.path());
            }
        }
        out.sort();
        Ok(out)
    }
}

/// The kind of fault a [`FaultVfs`] injects at its crash site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A write persists only a prefix of the buffer, then the process
    /// "crashes": the write returns an error and all later operations fail.
    TornWrite,
    /// A write persists the full buffer with one bit flipped (media
    /// corruption at the moment of the crash), then fails.
    BitFlip,
    /// An fsync fails and everything written since the last successful
    /// fsync of that file is rolled back (lost page cache).
    FsyncError,
    /// A rename fails, leaving the source file in place.
    RenameFail,
    /// A whole-file read returns only a prefix of the file's contents.
    /// Models a truncated read of otherwise intact media.
    ShortRead,
}

/// Where and what a [`FaultVfs`] injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Inject at the N-th (1-based) operation of the matching kind.
    /// Operations of other kinds do not advance the countdown. A plan
    /// whose site is never reached injects nothing.
    pub crash_at: u64,
    /// The fault to inject.
    pub kind: FaultKind,
    /// Seed for the deterministic choice of tear point / flipped bit /
    /// short-read length.
    pub seed: u64,
}

struct FaultState {
    plan: FaultPlan,
    /// Operations of the planned kind seen so far.
    sites: u64,
    /// Set once the fault fires; afterwards every operation fails.
    crashed: bool,
    faults_injected: u64,
    rng: u64,
    /// Per-file length at the last successful fsync (for page-cache loss).
    synced_len: HashMap<PathBuf, u64>,
}

impl FaultState {
    /// SplitMix64 step — deterministic, dependency-free randomness.
    fn next_rand(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Advances the site counter for `kind`; true when the fault fires now.
    fn arm(&mut self, kind: FaultKind) -> bool {
        if self.crashed || self.plan.kind != kind {
            return false;
        }
        self.sites += 1;
        if self.sites == self.plan.crash_at {
            self.crashed = true;
            self.faults_injected += 1;
            if metamess_telemetry::enabled() {
                store_metrics().vfs_faults_injected.inc();
            }
            return true;
        }
        false
    }
}

fn crashed_err() -> io::Error {
    io::Error::other("fault-vfs: simulated crash (operation after injected fault)")
}

fn injected_err(what: &str) -> io::Error {
    io::Error::other(format!("fault-vfs: injected {what}"))
}

/// A deterministic fault-injecting [`Vfs`] wrapping the real file system.
///
/// All I/O passes through to `std::fs` until the planned fault site is
/// reached; the fault is then injected exactly once and the VFS enters a
/// *crashed* state in which every subsequent operation fails. Because the
/// data lives on the real file system, recovery is exercised by reopening
/// the same paths through [`StdVfs`].
#[derive(Debug)]
pub struct FaultVfs {
    inner: StdVfs,
    state: Arc<Mutex<FaultState>>,
}

impl std::fmt::Debug for FaultState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultState")
            .field("plan", &self.plan)
            .field("sites", &self.sites)
            .field("crashed", &self.crashed)
            .finish()
    }
}

impl FaultVfs {
    /// Creates a fault VFS that injects according to `plan`.
    pub fn new(plan: FaultPlan) -> FaultVfs {
        FaultVfs {
            inner: StdVfs,
            state: Arc::new(Mutex::new(FaultState {
                plan,
                sites: 0,
                crashed: false,
                faults_injected: 0,
                rng: plan.seed ^ 0xA076_1D64_78BD_642F,
                synced_len: HashMap::new(),
            })),
        }
    }

    /// Whether the planned fault has fired (the VFS is in crashed state).
    pub fn crashed(&self) -> bool {
        self.state.lock().unwrap().crashed
    }

    /// Number of faults injected so far (0 or 1).
    pub fn faults_injected(&self) -> u64 {
        self.state.lock().unwrap().faults_injected
    }

    /// Operations of the planned kind seen so far. With a crash point that
    /// is never reached this counts them: the fsyncs of a run, say.
    pub fn sites(&self) -> u64 {
        self.state.lock().unwrap().sites
    }

    /// Clears the crashed state and disables further injection, turning
    /// this VFS into a passthrough. Useful to model "the machine came back
    /// up" without constructing a new VFS.
    pub fn disarm(&self) {
        let mut s = self.state.lock().unwrap();
        s.crashed = false;
        s.plan.crash_at = u64::MAX;
    }

    fn check_alive(&self) -> io::Result<()> {
        if self.state.lock().unwrap().crashed {
            Err(crashed_err())
        } else {
            Ok(())
        }
    }
}

/// A file handle that consults the shared fault state on every operation.
struct FaultFile {
    inner: Box<dyn VfsFile>,
    path: PathBuf,
    state: Arc<Mutex<FaultState>>,
}

impl Write for FaultFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.write_all(buf)?;
        Ok(buf.len())
    }

    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let action = {
            let mut s = self.state.lock().unwrap();
            if s.crashed {
                return Err(crashed_err());
            }
            if s.arm(FaultKind::TornWrite) {
                let keep = if buf.is_empty() { 0 } else { s.next_rand() as usize % buf.len() };
                Some((FaultKind::TornWrite, keep, 0))
            } else if s.arm(FaultKind::BitFlip) {
                let ix = if buf.is_empty() { 0 } else { s.next_rand() as usize % buf.len() };
                let bit = s.next_rand() % 8;
                Some((FaultKind::BitFlip, ix, bit as u8))
            } else {
                None
            }
        };
        match action {
            None => self.inner.write_all(buf),
            Some((FaultKind::TornWrite, keep, _)) => {
                // Persist a strict prefix, then report the crash.
                let _ = self.inner.write_all(&buf[..keep]);
                let _ = self.inner.sync_all();
                Err(injected_err("torn write"))
            }
            Some((FaultKind::BitFlip, ix, bit)) => {
                let mut flipped = buf.to_vec();
                if !flipped.is_empty() {
                    flipped[ix] ^= 1 << bit;
                }
                let _ = self.inner.write_all(&flipped);
                let _ = self.inner.sync_all();
                Err(injected_err("bit flip"))
            }
            Some(_) => unreachable!("write faults are torn writes or bit flips"),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.state.lock().unwrap().crashed {
            return Err(crashed_err());
        }
        self.inner.flush()
    }
}

impl VfsFile for FaultFile {
    fn sync_all(&mut self) -> io::Result<()> {
        let fire = {
            let mut s = self.state.lock().unwrap();
            if s.crashed {
                return Err(crashed_err());
            }
            s.arm(FaultKind::FsyncError)
        };
        if fire {
            // Lost page cache: roll the file back to its last synced length.
            let rollback = {
                let s = self.state.lock().unwrap();
                s.synced_len.get(&self.path).copied().unwrap_or(0)
            };
            let _ = self.inner.set_len(rollback);
            let _ = self.inner.sync_all();
            return Err(injected_err("fsync failure"));
        }
        self.inner.sync_all()?;
        let len = self.inner.len()?;
        self.state.lock().unwrap().synced_len.insert(self.path.clone(), len);
        Ok(())
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        if self.state.lock().unwrap().crashed {
            return Err(crashed_err());
        }
        self.inner.set_len(len)
    }

    fn seek_to_end(&mut self) -> io::Result<u64> {
        if self.state.lock().unwrap().crashed {
            return Err(crashed_err());
        }
        self.inner.seek_to_end()
    }

    fn len(&mut self) -> io::Result<u64> {
        if self.state.lock().unwrap().crashed {
            return Err(crashed_err());
        }
        self.inner.len()
    }
}

impl Vfs for FaultVfs {
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.check_alive()?;
        let mut inner = self.inner.open_append(path)?;
        let existing = inner.len().unwrap_or(0);
        let mut s = self.state.lock().unwrap();
        s.synced_len.entry(path.to_path_buf()).or_insert(existing);
        drop(s);
        Ok(Box::new(FaultFile { inner, path: path.to_path_buf(), state: Arc::clone(&self.state) }))
    }

    fn open_truncate(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.check_alive()?;
        let inner = self.inner.open_truncate(path)?;
        self.state.lock().unwrap().synced_len.insert(path.to_path_buf(), 0);
        Ok(Box::new(FaultFile { inner, path: path.to_path_buf(), state: Arc::clone(&self.state) }))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.check_alive()?;
        let mut bytes = self.inner.read(path)?;
        let mut s = self.state.lock().unwrap();
        if s.arm(FaultKind::ShortRead) {
            let keep = if bytes.is_empty() { 0 } else { s.next_rand() as usize % bytes.len() };
            bytes.truncate(keep);
        }
        Ok(bytes)
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        self.check_alive()?;
        self.inner.truncate(path, len)?;
        let mut s = self.state.lock().unwrap();
        let entry = s.synced_len.entry(path.to_path_buf()).or_insert(len);
        *entry = (*entry).min(len);
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let fire = {
            let mut s = self.state.lock().unwrap();
            if s.crashed {
                return Err(crashed_err());
            }
            s.arm(FaultKind::RenameFail)
        };
        if fire {
            return Err(injected_err("rename failure"));
        }
        self.inner.rename(from, to)?;
        let mut s = self.state.lock().unwrap();
        let len = self.inner.file_len(to).unwrap_or(0);
        s.synced_len.remove(from);
        s.synced_len.insert(to.to_path_buf(), len);
        Ok(())
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.check_alive()?;
        self.inner.create_dir_all(path)
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        self.check_alive()?;
        self.inner.sync_dir(path)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        self.check_alive()?;
        self.inner.file_len(path)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.check_alive()?;
        self.inner.remove_file(path)?;
        self.state.lock().unwrap().synced_len.remove(path);
        Ok(())
    }

    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        self.check_alive()?;
        self.inner.list_dir(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("metamess-vfs-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn std_vfs_round_trip() {
        let dir = tmpdir("std");
        let vfs = std_vfs();
        let p = dir.join("f.bin");
        let mut f = vfs.open_truncate(&p).unwrap();
        f.write_all(b"hello").unwrap();
        f.sync_all().unwrap();
        drop(f);
        assert_eq!(vfs.read(&p).unwrap(), b"hello");
        assert_eq!(vfs.file_len(&p).unwrap(), 5);
        let q = dir.join("g.bin");
        vfs.rename(&p, &q).unwrap();
        assert!(vfs.exists(&q) && !vfs.exists(&p));
        vfs.truncate(&q, 2).unwrap();
        assert_eq!(vfs.read(&q).unwrap(), b"he");
    }

    #[test]
    fn torn_write_persists_a_strict_prefix_then_crashes() {
        let dir = tmpdir("torn");
        let vfs = FaultVfs::new(FaultPlan { crash_at: 2, kind: FaultKind::TornWrite, seed: 7 });
        let p = dir.join("f.bin");
        let mut f = vfs.open_truncate(&p).unwrap();
        f.write_all(b"first").unwrap();
        let e = f.write_all(b"second").unwrap_err();
        assert!(e.to_string().contains("torn write"), "{e}");
        assert!(vfs.crashed());
        assert_eq!(vfs.faults_injected(), 1);
        // everything afterwards fails
        assert!(f.write_all(b"x").is_err());
        assert!(vfs.open_append(&p).is_err());
        // on disk: "first" plus a strict prefix of "second"
        let bytes = std::fs::read(&p).unwrap();
        assert!(bytes.len() >= 5 && bytes.len() < 11, "len={}", bytes.len());
        assert_eq!(&bytes[..5], b"first");
    }

    #[test]
    fn fsync_fault_rolls_back_to_last_synced_length() {
        let dir = tmpdir("fsync");
        let vfs = FaultVfs::new(FaultPlan { crash_at: 2, kind: FaultKind::FsyncError, seed: 1 });
        let p = dir.join("f.bin");
        let mut f = vfs.open_truncate(&p).unwrap();
        f.write_all(b"durable").unwrap();
        f.sync_all().unwrap(); // sync #1 — succeeds, 7 bytes now stable
        f.write_all(b" volatile").unwrap();
        assert!(f.sync_all().is_err()); // sync #2 — fault: page cache lost
        assert!(vfs.crashed());
        assert_eq!(std::fs::read(&p).unwrap(), b"durable");
    }

    #[test]
    fn rename_fault_leaves_source_in_place() {
        let dir = tmpdir("rename");
        let vfs = FaultVfs::new(FaultPlan { crash_at: 1, kind: FaultKind::RenameFail, seed: 3 });
        let p = dir.join("a");
        let q = dir.join("b");
        std::fs::write(&p, b"x").unwrap();
        assert!(vfs.rename(&p, &q).is_err());
        assert!(p.exists() && !q.exists());
        assert!(vfs.crashed());
    }

    #[test]
    fn short_read_returns_prefix_without_touching_disk() {
        let dir = tmpdir("short");
        let vfs = FaultVfs::new(FaultPlan { crash_at: 1, kind: FaultKind::ShortRead, seed: 11 });
        let p = dir.join("f.bin");
        std::fs::write(&p, b"0123456789").unwrap();
        let got = vfs.read(&p).unwrap();
        assert!(got.len() < 10);
        assert_eq!(std::fs::read(&p).unwrap().len(), 10, "disk contents untouched");
    }

    #[test]
    fn bit_flip_corrupts_exactly_one_bit() {
        let dir = tmpdir("flip");
        let vfs = FaultVfs::new(FaultPlan { crash_at: 1, kind: FaultKind::BitFlip, seed: 5 });
        let p = dir.join("f.bin");
        let mut f = vfs.open_truncate(&p).unwrap();
        assert!(f.write_all(b"abcdefgh").is_err());
        let bytes = std::fs::read(&p).unwrap();
        assert_eq!(bytes.len(), 8);
        let diff: u32 = bytes.iter().zip(b"abcdefgh").map(|(a, b)| (a ^ b).count_ones()).sum();
        assert_eq!(diff, 1);
    }

    #[test]
    fn same_seed_same_fault_site_is_deterministic() {
        // determinism across runs: the kept prefix length only depends on the seed
        let lens: Vec<usize> = (0..2)
            .map(|i| {
                let dir = tmpdir(&format!("det{i}"));
                let vfs =
                    FaultVfs::new(FaultPlan { crash_at: 1, kind: FaultKind::TornWrite, seed: 42 });
                let mut f = vfs.open_truncate(&dir.join("f.bin")).unwrap();
                let _ = f.write_all(b"0123456789");
                drop(f);
                std::fs::read(dir.join("f.bin")).unwrap().len()
            })
            .collect();
        assert_eq!(lens[0], lens[1]);
    }

    #[test]
    fn disarm_turns_the_vfs_into_a_passthrough() {
        let dir = tmpdir("disarm");
        let vfs = FaultVfs::new(FaultPlan { crash_at: 1, kind: FaultKind::RenameFail, seed: 0 });
        let p = dir.join("a");
        std::fs::write(&p, b"x").unwrap();
        assert!(vfs.rename(&p, &dir.join("b")).is_err());
        assert!(vfs.crashed());
        vfs.disarm();
        assert!(!vfs.crashed());
        vfs.rename(&p, &dir.join("b")).unwrap();
        assert!(dir.join("b").exists());
    }

    #[test]
    fn unreached_site_never_fires() {
        let dir = tmpdir("unreached");
        let vfs = FaultVfs::new(FaultPlan { crash_at: 99, kind: FaultKind::TornWrite, seed: 0 });
        let mut f = vfs.open_truncate(&dir.join("f.bin")).unwrap();
        f.write_all(b"ok").unwrap();
        f.sync_all().unwrap();
        assert!(!vfs.crashed());
        assert_eq!(vfs.faults_injected(), 0);
    }
}
