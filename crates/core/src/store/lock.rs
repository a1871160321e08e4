//! Advisory store locking: readers share, repairers exclude.
//!
//! Several metamess processes can legitimately touch one store at the same
//! time — `metamess serve` holds it open for its whole lifetime, a `wrangle`
//! republishes into it, `search`/`stats` read it, and `fsck` inspects it.
//! All of those coexist safely because the on-disk format is
//! append-plus-atomic-rename. The one operation that does **not** coexist
//! with anybody is `fsck --repair`, which truncates WAL tails and moves
//! files into quarantine out from under other processes.
//!
//! A [`StoreLock`] encodes that policy as an advisory lock on a `.lock`
//! file inside the catalog directory, taken with std's
//! [`File::try_lock_shared`] / [`File::try_lock`] (a non-blocking
//! `flock(2)` on unix):
//!
//! * every store *user* (open for read or append) takes a **shared** lock;
//! * `fsck --repair` takes an **exclusive** lock;
//! * acquisition is always non-blocking — a conflict returns a clear
//!   [`Error::Conflict`](crate::Error) naming the lock file instead of an
//!   undefined interleaving (or a silent hang).
//!
//! The lock is released when the [`StoreLock`] is dropped (closing the file
//! releases it), and — being advisory on unix — it never blocks
//! non-metamess tools from reading the store's files.

use crate::error::{Error, Result};
use std::fs::{File, OpenOptions, TryLockError};
use std::path::{Path, PathBuf};

/// How a [`StoreLock`] is held.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    /// Concurrent store users (serve, wrangle, search, fsck checks).
    Shared,
    /// Mutually-exclusive maintenance (`fsck --repair`).
    Exclusive,
}

impl std::fmt::Display for LockMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LockMode::Shared => write!(f, "shared"),
            LockMode::Exclusive => write!(f, "exclusive"),
        }
    }
}

/// The conventional lock-file path for a catalog directory.
pub fn lock_path(catalog_dir: &Path) -> PathBuf {
    catalog_dir.join(".lock")
}

/// A held advisory lock on a store. Dropping it releases the lock.
#[derive(Debug)]
pub struct StoreLock {
    // Held open for the lock's lifetime: closing it releases the lock.
    _file: File,
    path: PathBuf,
    mode: LockMode,
}

impl StoreLock {
    /// Takes a shared (reader/appender) lock, creating the lock file if
    /// needed. Fails fast with a [`Error::Conflict`](crate::Error) when an
    /// exclusive lock is held.
    pub fn shared(path: impl AsRef<Path>) -> Result<StoreLock> {
        StoreLock::acquire(path.as_ref(), LockMode::Shared)
    }

    /// Takes an exclusive (maintenance) lock. Fails fast with a
    /// [`Error::Conflict`](crate::Error) while any other lock is held.
    pub fn exclusive(path: impl AsRef<Path>) -> Result<StoreLock> {
        StoreLock::acquire(path.as_ref(), LockMode::Exclusive)
    }

    fn acquire(path: &Path, mode: LockMode) -> Result<StoreLock> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)
                .map_err(|e| Error::io(format!("create lock dir {}", dir.display()), e))?;
        }
        let file = OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(false)
            .open(path)
            .map_err(|e| Error::io(format!("open lock file {}", path.display()), e))?;
        let locked = match mode {
            LockMode::Shared => file.try_lock_shared(),
            LockMode::Exclusive => file.try_lock(),
        };
        locked.map_err(|e| match e {
            TryLockError::WouldBlock => Error::conflict(format!(
                "store is locked: could not take a {mode} lock on {} — another metamess \
                 process (serve, wrangle, or fsck --repair) holds it; retry after it exits",
                path.display()
            )),
            TryLockError::Error(e) => Error::io(format!("lock {}", path.display()), e),
        })?;
        Ok(StoreLock { _file: file, path: path.to_path_buf(), mode })
    }

    /// The lock file this lock is held on.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// How the lock is held.
    pub fn mode(&self) -> LockMode {
        self.mode
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;

    fn tmplock(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("metamess-lock-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        lock_path(&d)
    }

    #[test]
    fn shared_locks_coexist() {
        let path = tmplock("sh");
        let a = StoreLock::shared(&path).unwrap();
        let b = StoreLock::shared(&path).unwrap();
        assert_eq!(a.mode(), LockMode::Shared);
        assert_eq!(b.path(), path.as_path());
    }

    #[test]
    fn exclusive_excludes_shared_and_exclusive() {
        let path = tmplock("ex");
        let held = StoreLock::exclusive(&path).unwrap();
        let e = StoreLock::shared(&path).unwrap_err();
        assert!(e.to_string().contains("locked"), "{e}");
        assert!(StoreLock::exclusive(&path).is_err());
        drop(held);
        StoreLock::shared(&path).unwrap();
    }

    #[test]
    fn shared_blocks_exclusive_until_dropped() {
        let path = tmplock("sh-ex");
        let reader = StoreLock::shared(&path).unwrap();
        let e = StoreLock::exclusive(&path).unwrap_err();
        assert!(matches!(e, Error::Conflict { .. }), "{e:?}");
        drop(reader);
        let repair = StoreLock::exclusive(&path).unwrap();
        assert_eq!(repair.mode(), LockMode::Exclusive);
    }

    #[test]
    fn conflict_message_names_the_lock_file() {
        let path = tmplock("msg");
        let _held = StoreLock::exclusive(&path).unwrap();
        let e = StoreLock::shared(&path).unwrap_err();
        assert!(e.to_string().contains(".lock"), "{e}");
        assert!(e.to_string().contains("shared"), "{e}");
    }
}
