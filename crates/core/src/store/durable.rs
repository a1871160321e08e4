//! The durable catalog: snapshot + WAL with crash recovery.
//!
//! A store is a directory containing `snapshot.bin` and `wal.log`, read by
//! many processes while one appends to it. Recovery — snapshot, then every
//! valid WAL record on top — exists once, in [`read_published`], and never
//! modifies either file: **a reader reads**. [`DurableCatalog::open`], the
//! writer's handle, is built on the same load and differs only in what it
//! does about damage, because it is about to append after it: a damaged WAL
//! tail is truncated to the valid prefix, and a snapshot or WAL that fails
//! verification outright is quarantined (recorded in the
//! [`RecoveryReport`] and `metamess_core_recovery_quarantined_total`) so
//! the store opens from what is left. A reader handed the same files
//! serves the valid prefix of a damaged tail and refuses the rest. A file
//! in an older store format is not damage: reader and writer both refuse it
//! with [`Error::UnsupportedFormat`] and leave it where it is.
//!
//! A put, delete or property set is appended to the WAL before it is applied
//! in memory; `checkpoint` folds the WAL into a fresh snapshot and resets the
//! log, and does nothing when no record has been logged since the snapshot
//! this handle loaded or wrote. A whole-catalog replacement logs nothing: it
//! folds any records the WAL still holds, then writes the new catalog as the
//! snapshot, and the rename that puts it in place is its commit point. A
//! crash before the rename recovers the old store; after it, exactly the new
//! catalog, over an empty log. No reader ever sees half of one.
//!
//! The writer, like every reader, holds the store as encoded [`Row`]s: a put
//! is encoded once, as the WAL record it appends and the row it keeps, a
//! checkpoint transcodes rows into the snapshot without decoding one, and a
//! replacement keeps the rows of the snapshot it wrote.

use super::codec::{catalog_image, encode_rows_of, put_image, Image, Row, WalRecord};
use super::lock::{lock_path, StoreLock};
use super::metrics::store_metrics;
use super::quarantine::{quarantine_file, QuarantineReason, Quarantined};
use super::snapshot::{read_image_with, write_payload_with};
use super::vfs::{std_vfs, Vfs};
use super::wal::{TailRead, Wal};
use crate::catalog::{diff_entries, Catalog, Mutation};
use crate::error::{Error, IoContext, Result};
use crate::feature::DatasetFeature;
use crate::id::DatasetId;
use metamess_telemetry::{event, Level, Stopwatch};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Durability options for a [`DurableCatalog`].
#[derive(Debug, Clone, Default)]
pub struct StoreOptions {
    /// fsync the WAL on every append (safest, slowest). When false, records
    /// are buffered and synced at checkpoints and on `flush`.
    pub sync_on_append: bool,
}

/// What a store directory holds, as [`read_published`] recovered it: every
/// dataset still encoded, as a [`Row`], with the catalog's generation and
/// properties beside them.
#[derive(Debug, Default)]
pub struct Published {
    /// The datasets in catalog (id) order: rows of the snapshot's image, and
    /// each WAL put that is still current as the one row of an image of its
    /// own. Nothing is decoded.
    pub rows: Vec<Row>,
    /// The catalog generation: the snapshot's, plus one per WAL record.
    pub generation: u64,
    /// Catalog properties, as the snapshot and the WAL records left them.
    pub properties: BTreeMap<String, String>,
    /// Whether a snapshot was loaded.
    pub snapshot_loaded: bool,
    /// Number of WAL mutations applied on top of the snapshot.
    pub wal_mutations: usize,
    /// WAL bytes `rows` reflects: where [`Wal::read_from`] resumes.
    pub wal_offset: u64,
    /// Why the WAL read stopped before end of file (`None` when it consumed
    /// everything): a writer mid-append, or a damaged tail.
    pub stopped_early: Option<String>,
}

impl Published {
    /// The catalog the rows encode, every row decoded: for the callers that
    /// edit or walk a whole catalog rather than serve it.
    pub fn catalog(&self) -> Catalog {
        Catalog::from_rows(
            self.rows.iter().map(Row::view),
            self.properties.clone(),
            self.generation,
        )
    }
}

/// Reads what is published in `catalog_dir` without modifying it: the
/// snapshot, then every valid WAL record on top. A missing file reads as
/// empty. Nothing is created, truncated or quarantined, so this is safe
/// beside a live writer; a snapshot or WAL that fails verification is an
/// [`Error::Corrupt`], and a damaged (or still being written) WAL tail is
/// reported in [`Published::stopped_early`] with the prefix before it
/// served. The shared store lock is held for the duration, so `fsck
/// --repair` cannot move files mid-read.
pub fn read_published(catalog_dir: impl AsRef<Path>) -> Result<Published> {
    let dir = catalog_dir.as_ref();
    let _lock = StoreLock::shared(lock_path(dir))?;
    load(std_vfs().as_ref(), dir, |_, e| Err(e))
}

/// Snapshot, then WAL from byte 0, applied by id. `unverifiable` is handed
/// each file that fails verification: a reader passes the error on, the
/// writer sets the file aside and the load goes on as if it were absent.
fn load(
    vfs: &dyn Vfs,
    dir: &Path,
    mut unverifiable: impl FnMut(&Path, Error) -> Result<()>,
) -> Result<Published> {
    let snap_path = dir.join("snapshot.bin");
    let snapshot = match read_image_with(vfs, &snap_path) {
        Err(e) if e.is_corrupt() => {
            unverifiable(&snap_path, e)?;
            None
        }
        read => read?,
    };
    let wal_path = dir.join("wal.log");
    let tail = match Wal::read_from(vfs, &wal_path, 0) {
        Err(e) if e.is_corrupt() => {
            unverifiable(&wal_path, e)?;
            TailRead::default()
        }
        read => read?,
    };
    let snapshot_loaded = snapshot.is_some();
    let (mut rows, mut properties, mut generation) = snapshot_state(snapshot);
    let wal_mutations = tail.records.len();
    generation += apply_records(&mut rows, &mut properties, tail.records);
    if metamess_telemetry::enabled() {
        store_metrics().recovery_replayed.add(wal_mutations as u64);
    }
    Ok(Published {
        rows: rows.into_values().collect(),
        generation,
        properties,
        snapshot_loaded,
        wal_mutations,
        wal_offset: tail.new_offset,
        stopped_early: tail.stopped_early,
    })
}

/// What recovery lays the WAL's records over: the rows of the snapshot's
/// image by id, its properties and its generation — all empty without one.
pub(crate) fn snapshot_state(
    snapshot: Option<Image>,
) -> (BTreeMap<DatasetId, Row>, BTreeMap<String, String>, u64) {
    match snapshot.map(Arc::new) {
        Some(image) => (
            image.rows().map(|row| (row.id(), row)).collect(),
            image.properties().clone(),
            image.generation(),
        ),
        None => (BTreeMap::new(), BTreeMap::new(), 0),
    }
}

/// Lays WAL `records` over `rows` and `properties` in log order, the way
/// recovery does: a put's row takes its id's place, a delete removes its
/// id, a property record sets its key. Returns the generation step, one per
/// record, as a catalog applying the same mutations counts them. A put's
/// row is kept as the one row of its own image; nothing is decoded.
pub fn apply_records(
    rows: &mut BTreeMap<DatasetId, Row>,
    properties: &mut BTreeMap<String, String>,
    records: Vec<WalRecord>,
) -> u64 {
    let step = records.len() as u64;
    for record in records {
        match record {
            WalRecord::Put(row) => {
                rows.insert(row.id(), row);
            }
            WalRecord::Delete(id) => {
                rows.remove(&id);
            }
            WalRecord::SetProperty { key, value } => {
                properties.insert(key, value);
            }
        }
    }
    step
}

/// When and how a [`DurableCatalog`] folds its WAL into a fresh snapshot.
///
/// Compaction is checkpointing with retention: the pre-compaction snapshot
/// is copied into `retained/` (so an operator can rewind a bad publish)
/// before the WAL is folded in, and the retained set is pruned to the
/// newest `retain` copies afterwards.
#[derive(Debug, Clone, PartialEq)]
pub struct CompactionPolicy {
    /// Compact once `wal_bytes >= wal_ratio * snapshot_bytes`. A missing
    /// snapshot counts as zero bytes, so any WAL growth past
    /// `min_wal_bytes` compacts immediately on a fresh store.
    pub wal_ratio: f64,
    /// Never compact while the WAL is smaller than this many bytes,
    /// regardless of ratio — tiny logs are cheaper to replay than to fold.
    pub min_wal_bytes: u64,
    /// Previous snapshots kept in `retained/` (0 disables retention).
    pub retain: usize,
}

impl Default for CompactionPolicy {
    fn default() -> CompactionPolicy {
        CompactionPolicy { wal_ratio: 0.5, min_wal_bytes: 64 * 1024, retain: 2 }
    }
}

/// What one [`DurableCatalog::compact`] call did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CompactionReport {
    /// WAL bytes folded into the new snapshot.
    pub wal_bytes_folded: u64,
    /// Size of the freshly written snapshot.
    pub snapshot_bytes: u64,
    /// Whether the previous snapshot was copied into `retained/`.
    pub retained_previous: bool,
    /// Retained snapshots removed by the retention policy.
    pub pruned: usize,
}

/// What recovery found when opening a store.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryReport {
    /// Whether a snapshot was loaded.
    pub snapshot_loaded: bool,
    /// Number of WAL mutations replayed on top of the snapshot.
    pub wal_mutations: usize,
    /// Bytes of damaged WAL tail truncated during recovery.
    pub truncated_bytes: u64,
    /// Corrupt files moved into quarantine (empty on a clean open).
    pub quarantined: Vec<Quarantined>,
}

/// A catalog with snapshot+WAL durability.
///
/// ```
/// use metamess_core::feature::DatasetFeature;
/// use metamess_core::store::{DurableCatalog, StoreOptions};
///
/// let dir = std::env::temp_dir().join(format!("mm-doc-{}", std::process::id()));
/// let _ = std::fs::remove_dir_all(&dir);
/// {
///     let mut store = DurableCatalog::open(&dir, StoreOptions::default())?;
///     store.put(DatasetFeature::new("stations/s1/2010/01.csv"))?;
///     store.checkpoint()?;
/// }
/// // reopening replays snapshot + WAL
/// let store = DurableCatalog::open(&dir, StoreOptions::default())?;
/// assert_eq!(store.catalog().len(), 1);
/// # Ok::<(), metamess_core::Error>(())
/// ```
#[derive(Debug)]
pub struct DurableCatalog {
    dir: PathBuf,
    /// Every dataset, encoded: a row of the snapshot's image as it was last
    /// loaded or written, or the one row of the put that logged it since.
    rows: BTreeMap<DatasetId, Row>,
    properties: BTreeMap<String, String>,
    /// One per mutation applied, as [`Catalog::generation`] counts them.
    generation: u64,
    wal: Wal,
    /// Where each put is encoded before its image copies it.
    scratch: Vec<u8>,
    vfs: Arc<dyn Vfs>,
    recovery: RecoveryReport,
    /// Records the WAL may hold that no snapshot has folded in: those
    /// recovered at open, and each append tried since (a failed one may
    /// still have reached the file).
    unfolded: u64,
    /// Shared advisory lock held for the store's lifetime so that
    /// `fsck --repair` (exclusive) cannot interleave with a live user.
    _lock: StoreLock,
}

impl DurableCatalog {
    /// Opens (creating if needed) a durable catalog in `dir` for appending,
    /// on the standard file system. This is the writer's handle: it repairs
    /// what it finds damaged (see the module docs). To only read a store,
    /// use [`read_published`].
    pub fn open(dir: impl AsRef<Path>, options: StoreOptions) -> Result<DurableCatalog> {
        DurableCatalog::open_with(std_vfs(), dir, options)
    }

    /// Opens (creating if needed) a durable catalog in `dir`, with all file
    /// I/O routed through `vfs`.
    pub fn open_with(
        vfs: Arc<dyn Vfs>,
        dir: impl AsRef<Path>,
        options: StoreOptions,
    ) -> Result<DurableCatalog> {
        let dir = dir.as_ref().to_path_buf();
        vfs.create_dir_all(&dir).io_ctx(format!("create store dir {}", dir.display()))?;
        // Shared advisory lock: concurrent users coexist; an exclusive
        // holder (fsck --repair) turns this into a clear error instead of
        // an undefined interleaving. Taken on the real filesystem even
        // under a fault-injecting VFS — the lock is process coordination,
        // not crash state.
        let lock = StoreLock::shared(lock_path(&dir))?;
        let wal_path = dir.join("wal.log");
        let mut recovery = RecoveryReport::default();
        let published = load(vfs.as_ref(), &dir, |path, e| {
            let reason = QuarantineReason {
                source: path.display().to_string(),
                detail: e.to_string(),
                quarantined_by: "recovery".to_string(),
            };
            let dest = quarantine_file(vfs.as_ref(), path, &dir.join("quarantine"), &reason)?;
            recovery.quarantined.push(Quarantined { quarantined_to: dest, reason });
            Ok(())
        })?;
        recovery.snapshot_loaded = published.snapshot_loaded;
        recovery.wal_mutations = published.wal_mutations;
        if published.stopped_early.is_some() {
            // Appends go after the valid prefix, not after the damage.
            let len = vfs.file_len(&wal_path).io_ctx("stat wal tail")?;
            vfs.truncate(&wal_path, published.wal_offset).io_ctx("truncate wal tail")?;
            recovery.truncated_bytes = len - published.wal_offset;
            if metamess_telemetry::enabled() {
                store_metrics().recovery_truncated_bytes.add(recovery.truncated_bytes);
            }
        }
        if !recovery.quarantined.is_empty() {
            event!(
                Level::Warn,
                "store",
                "recovered {} quarantining {} corrupt file(s)",
                dir.display(),
                recovery.quarantined.len()
            );
        } else if recovery.truncated_bytes > 0 {
            event!(
                Level::Warn,
                "store",
                "recovered {} truncating {} damaged tail bytes",
                dir.display(),
                recovery.truncated_bytes
            );
        } else if recovery.wal_mutations > 0 {
            event!(
                Level::Info,
                "store",
                "recovered {} replaying {} wal mutations",
                dir.display(),
                recovery.wal_mutations
            );
        }
        let wal = Wal::open_with(vfs.clone(), &wal_path, options.sync_on_append)?;
        Ok(DurableCatalog {
            dir,
            rows: published.rows.into_iter().map(|row| (row.id(), row)).collect(),
            properties: published.properties,
            generation: published.generation,
            wal,
            scratch: Vec::new(),
            vfs,
            recovery,
            unfolded: published.wal_mutations as u64,
            _lock: lock,
        })
    }

    /// The recovery report from `open`.
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// The catalog the store holds, every row decoded into a copy the
    /// caller owns. The store itself keeps its rows encoded.
    pub fn catalog(&self) -> Catalog {
        Catalog::from_rows(
            self.rows.values().map(Row::view),
            self.properties.clone(),
            self.generation,
        )
    }

    /// The mutations that turn the store into `other`: exactly
    /// [`Catalog::diff`] from [`DurableCatalog::catalog`], found by comparing
    /// each row with its feature in place, so no row is decoded.
    pub fn diff(&self, other: &Catalog) -> Vec<Mutation> {
        diff_entries(&self.rows, &self.properties, other, |row, f| row.view().matches(f))
    }

    /// Directory backing this store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Applies a mutation durably: WAL first, then memory.
    pub fn apply(&mut self, m: Mutation) -> Result<()> {
        if let Mutation::Put(f) = &m {
            return self.append_put(f);
        }
        // Counted before the append: a failed one may have left a record.
        self.unfolded += 1;
        self.wal.append(&m)?;
        match m {
            Mutation::Put(_) => unreachable!("a put is appended as its image"),
            Mutation::Delete(id) => {
                self.rows.remove(&id);
            }
            Mutation::SetProperty { key, value } => {
                self.properties.insert(key, value);
            }
        }
        self.generation += 1;
        Ok(())
    }

    /// Logs a put as its image's payload, then keeps the image's one row.
    fn append_put(&mut self, f: &DatasetFeature) -> Result<()> {
        let put = put_image(f, &mut self.scratch);
        rows_encoded(1);
        self.unfolded += 1;
        self.wal.append_payload(put.payload())?;
        let row = put.into_row();
        self.rows.insert(row.id(), row);
        self.generation += 1;
        Ok(())
    }

    /// Durable insert-or-replace of a dataset feature.
    pub fn put(&mut self, f: DatasetFeature) -> Result<()> {
        self.append_put(&f)
    }

    /// Durable delete.
    pub fn delete(&mut self, id: DatasetId) -> Result<()> {
        self.apply(Mutation::Delete(id))
    }

    /// Durable property set.
    pub fn set_property(&mut self, key: impl Into<String>, value: impl Into<String>) -> Result<()> {
        self.apply(Mutation::SetProperty { key: key.into(), value: value.into() })
    }

    /// Replaces the entire catalog durably, as one snapshot: how publish
    /// makes the store a copy of the working catalog.
    ///
    /// Records the WAL still holds are folded first, by a checkpoint, so the
    /// log is empty. Then `other` is encoded once, at the generation the
    /// records it stands for would have counted to — a delete of each row
    /// the store holds, a set of each of its properties and a put of each of
    /// its datasets — and written as the snapshot (tmp, fsync, rename,
    /// directory sync). The rename is the commit point: a crash before it
    /// recovers the store as it was, a crash after it exactly `other`, and
    /// no old record can replay over it, because the fold emptied the log.
    /// Only once the write has succeeded does the store hold the new
    /// snapshot's rows. Nothing is logged, and no feature is cloned.
    pub fn replace_with(&mut self, other: &Catalog) -> Result<()> {
        if self.unfolded > 0 {
            self.checkpoint()?;
        }
        let timer = Stopwatch::start_if(metamess_telemetry::enabled());
        let records = self.rows.len() + other.properties().len() + other.len();
        let generation = self.generation + records as u64;
        let snapshot = Arc::new(catalog_image(other, generation));
        rows_encoded(other.len());
        write_payload_with(self.vfs.as_ref(), &self.dir.join("snapshot.bin"), snapshot.payload())?;
        self.rows = snapshot.rows().map(|row| (row.id(), row)).collect();
        self.properties = snapshot.properties().clone();
        self.generation = generation;
        snapshot_written(&timer);
        Ok(())
    }

    /// Flushes and fsyncs buffered WAL records.
    pub fn flush(&mut self) -> Result<()> {
        self.wal.flush_and_sync()
    }

    /// Writes a snapshot of the current catalog and resets the WAL. Does
    /// nothing when no record has been logged since the snapshot this handle
    /// loaded or wrote; a store without a snapshot always gets one.
    pub fn checkpoint(&mut self) -> Result<()> {
        let snap_path = self.dir.join("snapshot.bin");
        if self.unfolded == 0 && self.vfs.exists(&snap_path) {
            return Ok(());
        }
        let timer = Stopwatch::start_if(metamess_telemetry::enabled());
        self.wal.flush_and_sync()?;
        self.write_snapshot(&snap_path)?;
        self.wal.reset()?;
        self.unfolded = 0;
        snapshot_written(&timer);
        Ok(())
    }

    /// Writes the rows as the snapshot at `path`, transcoded from their
    /// images, then holds each from the new snapshot's image instead: the
    /// images of the puts it folds in are freed.
    fn write_snapshot(&mut self, path: &Path) -> Result<()> {
        let snapshot = encode_rows_of(self.generation, &self.properties, self.rows.values());
        rows_encoded(self.rows.len());
        write_payload_with(self.vfs.as_ref(), path, snapshot.payload())?;
        let snapshot = Arc::new(snapshot);
        for (held, row) in self.rows.values_mut().zip(snapshot.rows()) {
            *held = row;
        }
        Ok(())
    }

    /// WAL records no snapshot has folded in yet: those recovered at open,
    /// and those appended since.
    pub fn pending_wal_records(&self) -> u64 {
        self.unfolded
    }

    /// Current size of the WAL file in bytes (0 when absent).
    pub fn wal_bytes(&self) -> u64 {
        self.vfs.file_len(&self.dir.join("wal.log")).unwrap_or(0)
    }

    /// Current size of the snapshot file in bytes (0 when absent).
    pub fn snapshot_bytes(&self) -> u64 {
        self.vfs.file_len(&self.dir.join("snapshot.bin")).unwrap_or(0)
    }

    /// Whether `policy` says the WAL has outgrown the snapshot.
    pub fn should_compact(&self, policy: &CompactionPolicy) -> bool {
        let wal = self.wal_bytes();
        wal >= policy.min_wal_bytes && wal as f64 >= policy.wal_ratio * self.snapshot_bytes() as f64
    }

    /// Compacts when [`DurableCatalog::should_compact`], else does nothing.
    pub fn maybe_compact(&mut self, policy: &CompactionPolicy) -> Result<Option<CompactionReport>> {
        if self.should_compact(policy) {
            self.compact(policy).map(Some)
        } else {
            Ok(None)
        }
    }

    /// Folds the WAL into a fresh snapshot, retaining the previous snapshot
    /// under `retained/` and pruning that set to `policy.retain` copies.
    ///
    /// The ordering is chosen so a crash at any step loses no acked data:
    ///
    /// 1. flush+fsync the WAL — everything acked so far is on disk;
    /// 2. copy the old snapshot into `retained/` (write + fsync + dir sync);
    /// 3. write the new snapshot (atomic tmp + fsync + rename + dir sync);
    /// 4. reset the WAL;
    /// 5. prune `retained/` to the newest `policy.retain` entries.
    ///
    /// A crash between 3 and 4 leaves the folded WAL to be re-replayed over
    /// the new snapshot, which is idempotent for catalog *content* (the
    /// generation counter may run ahead — it is bookkeeping, not data). A
    /// crash during 5 leaves extra retained copies, which the next
    /// compaction prunes.
    pub fn compact(&mut self, policy: &CompactionPolicy) -> Result<CompactionReport> {
        let on = metamess_telemetry::enabled();
        let timer = Stopwatch::start_if(on);
        self.wal.flush_and_sync()?;
        let wal_bytes_folded = self.wal_bytes();
        let snap_path = self.dir.join("snapshot.bin");
        let retained_dir = self.dir.join("retained");
        let mut report = CompactionReport { wal_bytes_folded, ..CompactionReport::default() };
        if policy.retain > 0 && self.vfs.exists(&snap_path) {
            self.retain_snapshot(&snap_path, &retained_dir)?;
            report.retained_previous = true;
        }
        self.write_snapshot(&snap_path)?;
        self.wal.reset()?;
        self.unfolded = 0;
        report.snapshot_bytes = self.snapshot_bytes();
        report.pruned = self.prune_retained(policy.retain)?;
        if on {
            let m = store_metrics();
            m.compactions.inc();
            m.snapshot_writes.inc();
            m.compaction_pruned.add(report.pruned as u64);
            m.compaction_micros.record(timer.micros());
        }
        event!(
            Level::Info,
            "store",
            "compacted {}: folded {} wal bytes, pruned {} retained",
            self.dir.display(),
            report.wal_bytes_folded,
            report.pruned
        );
        Ok(report)
    }

    /// Copies the current snapshot into `retained/` under a monotonically
    /// increasing, zero-padded sequence name so lexical order is age order.
    fn retain_snapshot(&self, snap_path: &Path, retained_dir: &Path) -> Result<()> {
        self.vfs
            .create_dir_all(retained_dir)
            .io_ctx(format!("create retained dir {}", retained_dir.display()))?;
        let next_seq = self
            .retained_snapshots()?
            .last()
            .and_then(|p| retained_seq(p))
            .map_or(1, |s| s.saturating_add(1));
        let dest = retained_dir.join(format!("snapshot-{next_seq:010}.bin"));
        let bytes = self.vfs.read(snap_path).io_ctx("read snapshot for retention")?;
        let mut f = self
            .vfs
            .open_truncate(&dest)
            .io_ctx(format!("create retained snapshot {}", dest.display()))?;
        f.write_all(&bytes).io_ctx("write retained snapshot")?;
        f.sync_all().io_ctx("sync retained snapshot")?;
        drop(f);
        self.vfs.sync_dir(retained_dir).io_ctx("sync retained dir")?;
        Ok(())
    }

    /// Removes the oldest retained snapshots beyond `retain`, returning how
    /// many were pruned.
    fn prune_retained(&self, retain: usize) -> Result<usize> {
        let snapshots = self.retained_snapshots()?;
        let excess = snapshots.len().saturating_sub(retain);
        for old in &snapshots[..excess] {
            self.vfs
                .remove_file(old)
                .io_ctx(format!("prune retained snapshot {}", old.display()))?;
        }
        Ok(excess)
    }

    /// Retained snapshot paths, oldest first.
    pub fn retained_snapshots(&self) -> Result<Vec<PathBuf>> {
        let dir = self.dir.join("retained");
        let mut files = self
            .vfs
            .list_dir(&dir)
            .map_err(|e| Error::io(format!("list retained dir {}", dir.display()), e))?;
        files.retain(|p| retained_seq(p).is_some());
        Ok(files)
    }
}

/// Counts a snapshot written by a checkpoint or a replacement, in the time
/// `timer` has run; nothing when telemetry was off as it started.
fn snapshot_written(timer: &Stopwatch) {
    if timer.armed() {
        let m = store_metrics();
        m.snapshot_writes.inc();
        m.checkpoint_micros.record(timer.micros());
    }
}

/// Counts `rows` encoded into a payload the writer is about to write.
fn rows_encoded(rows: usize) {
    if metamess_telemetry::enabled() {
        store_metrics().rows_encoded.add(rows as u64);
    }
}

/// Parses the sequence number out of a `retained/snapshot-NNNNNNNNNN.bin`
/// path; `None` for foreign files (which retention then leaves alone).
fn retained_seq(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    name.strip_prefix("snapshot-")?.strip_suffix(".bin")?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{FaultKind, FaultPlan, FaultVfs};
    use std::fs::{self, OpenOptions};

    fn tmpdir(name: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("metamess-durable-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn opts_sync() -> StoreOptions {
        StoreOptions { sync_on_append: true }
    }

    #[test]
    fn fresh_store_is_empty() {
        let dir = tmpdir("fresh");
        let s = DurableCatalog::open(&dir, StoreOptions::default()).unwrap();
        assert!(s.catalog().is_empty());
        assert_eq!(s.recovery_report(), &RecoveryReport::default());
    }

    #[test]
    fn survives_reopen_via_wal_only() {
        let dir = tmpdir("wal-only");
        {
            let mut s = DurableCatalog::open(&dir, opts_sync()).unwrap();
            s.put(DatasetFeature::new("a.csv")).unwrap();
            s.put(DatasetFeature::new("b.csv")).unwrap();
            s.set_property("k", "v").unwrap();
            // no checkpoint, no clean shutdown beyond drop
        }
        let s = DurableCatalog::open(&dir, opts_sync()).unwrap();
        assert_eq!(s.catalog().len(), 2);
        assert_eq!(s.catalog().property("k"), Some("v"));
        assert!(!s.recovery_report().snapshot_loaded);
        assert_eq!(s.recovery_report().wal_mutations, 3);
    }

    #[test]
    fn checkpoint_then_reopen_uses_snapshot() {
        let dir = tmpdir("ckpt");
        {
            let mut s = DurableCatalog::open(&dir, opts_sync()).unwrap();
            s.put(DatasetFeature::new("a.csv")).unwrap();
            s.checkpoint().unwrap();
            s.put(DatasetFeature::new("b.csv")).unwrap();
        }
        let s = DurableCatalog::open(&dir, opts_sync()).unwrap();
        assert!(s.recovery_report().snapshot_loaded);
        assert_eq!(s.recovery_report().wal_mutations, 1);
        assert_eq!(s.catalog().len(), 2);
    }

    #[test]
    fn a_fresh_store_checkpoints_its_first_snapshot() {
        let dir = tmpdir("first-ckpt");
        DurableCatalog::open(&dir, opts_sync()).unwrap().checkpoint().unwrap();
        let s = DurableCatalog::open(&dir, opts_sync()).unwrap();
        assert!(s.recovery_report().snapshot_loaded, "nothing to fold, but no snapshot yet");
    }

    #[test]
    fn torn_wal_tail_recovers_prefix() {
        let dir = tmpdir("torn");
        {
            let mut s = DurableCatalog::open(&dir, opts_sync()).unwrap();
            s.put(DatasetFeature::new("a.csv")).unwrap();
            s.put(DatasetFeature::new("b.csv")).unwrap();
        }
        let wal = dir.join("wal.log");
        let len = fs::metadata(&wal).unwrap().len();
        let f = OpenOptions::new().write(true).open(&wal).unwrap();
        f.set_len(len - 7).unwrap();
        drop(f);

        let s = DurableCatalog::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(s.catalog().len(), 1);
        assert!(s.recovery_report().truncated_bytes > 0);
    }

    #[test]
    fn a_reader_serves_the_prefix_of_a_torn_tail_and_leaves_the_file_alone() {
        let dir = tmpdir("reader-torn");
        {
            let mut s = DurableCatalog::open(&dir, opts_sync()).unwrap();
            s.put(DatasetFeature::new("a.csv")).unwrap();
            s.put(DatasetFeature::new("b.csv")).unwrap();
        }
        let wal = dir.join("wal.log");
        let len = fs::metadata(&wal).unwrap().len();
        let f = OpenOptions::new().write(true).open(&wal).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);
        let torn = fs::read(&wal).unwrap();
        let p = read_published(&dir).unwrap();
        assert_eq!(p.rows.len(), 1);
        assert_eq!((p.snapshot_loaded, p.wal_mutations), (false, 1));
        assert!(p.stopped_early.is_some());
        assert!(p.wal_offset < len - 3);
        assert_eq!(fs::read(&wal).unwrap(), torn, "a reader never modifies the log");
        // The writer's open is what truncates, to where the reader stopped.
        let s = DurableCatalog::open(&dir, opts_sync()).unwrap();
        assert_eq!(s.catalog(), p.catalog());
        assert_eq!(s.wal_bytes(), p.wal_offset);
    }

    #[test]
    fn reading_a_store_that_is_not_there_creates_neither_file() {
        let dir = tmpdir("reader-absent");
        let p = read_published(&dir).unwrap();
        assert!(p.rows.is_empty() && p.properties.is_empty(), "{p:?}");
        assert_eq!(
            (p.generation, p.snapshot_loaded, p.wal_mutations, p.wal_offset),
            (0, false, 0, 0)
        );
        assert!(!dir.join("snapshot.bin").exists());
        assert!(!dir.join("wal.log").exists());
    }

    #[test]
    fn corrupt_snapshot_falls_back_to_wal_only_replay() {
        let dir = tmpdir("badsnap");
        {
            let mut s = DurableCatalog::open(&dir, opts_sync()).unwrap();
            s.put(DatasetFeature::new("a.csv")).unwrap();
            s.checkpoint().unwrap();
            s.put(DatasetFeature::new("b.csv")).unwrap();
        }
        // Flip a payload byte in the snapshot: its CRC no longer verifies.
        let snap = dir.join("snapshot.bin");
        let mut bytes = fs::read(&snap).unwrap();
        let ix = bytes.len() - 2;
        bytes[ix] ^= 0x20;
        fs::write(&snap, &bytes).unwrap();

        let s = DurableCatalog::open(&dir, opts_sync()).unwrap();
        // The snapshot is gone (quarantined); only the post-checkpoint WAL
        // record survives — degraded but deterministic.
        assert!(!s.recovery_report().snapshot_loaded);
        assert_eq!(s.recovery_report().quarantined.len(), 1);
        assert_eq!(s.catalog().len(), 1);
        assert!(s.catalog().get_by_path("b.csv").is_some());
        // The damaged file is preserved for forensics, with its reason.
        let q = &s.recovery_report().quarantined[0];
        assert!(q.quarantined_to.exists());
        assert!(q.reason.detail.contains("crc"), "{}", q.reason.detail);
        assert!(!snap.exists());
    }

    #[test]
    fn a_reader_refuses_a_corrupt_snapshot_and_leaves_it_in_place() {
        let dir = tmpdir("badsnap-reader");
        {
            let mut s = DurableCatalog::open(&dir, opts_sync()).unwrap();
            s.put(DatasetFeature::new("a.csv")).unwrap();
            s.checkpoint().unwrap();
        }
        let snap = dir.join("snapshot.bin");
        let mut bytes = fs::read(&snap).unwrap();
        let ix = bytes.len() - 2;
        bytes[ix] ^= 0x20;
        fs::write(&snap, &bytes).unwrap();
        assert!(read_published(&dir).unwrap_err().is_corrupt());
        assert_eq!(fs::read(&snap).unwrap(), bytes);
        assert!(!dir.join("quarantine").exists());
    }

    #[test]
    fn wal_with_bad_magic_is_quarantined_snapshot_survives() {
        let dir = tmpdir("badwal");
        {
            let mut s = DurableCatalog::open(&dir, opts_sync()).unwrap();
            s.put(DatasetFeature::new("a.csv")).unwrap();
            s.checkpoint().unwrap();
        }
        fs::write(dir.join("wal.log"), b"XXXXXXXXgarbage").unwrap();
        let s = DurableCatalog::open(&dir, opts_sync()).unwrap();
        assert!(s.recovery_report().snapshot_loaded);
        assert_eq!(s.recovery_report().quarantined.len(), 1);
        assert_eq!(s.catalog().len(), 1, "snapshot contents survive");
        // The store is writable again: the quarantined WAL was replaced by
        // a fresh one.
        drop(s);
        let mut s = DurableCatalog::open(&dir, opts_sync()).unwrap();
        s.put(DatasetFeature::new("c.csv")).unwrap();
        assert_eq!(s.catalog().len(), 2);
    }

    #[test]
    fn a_format_1_file_is_refused_by_name_and_left_byte_for_byte() {
        // hand-written format 1 headers: a framed `{}` and a bare magic
        let snapshot = crate::store::codec::tests::format_1_snapshot();
        for (file, v1) in [("snapshot.bin", &snapshot[..]), ("wal.log", &b"MMWAL001"[..])] {
            let dir = tmpdir(&format!("v1-{file}"));
            fs::create_dir_all(&dir).unwrap();
            fs::write(dir.join(file), v1).unwrap();
            for e in [
                read_published(&dir).unwrap_err(),
                DurableCatalog::open(&dir, opts_sync()).unwrap_err(),
            ] {
                assert!(matches!(e, Error::UnsupportedFormat { found: 1, .. }), "{file}: {e}");
            }
            // not set aside, not appended to, not truncated
            assert_eq!(fs::read(dir.join(file)).unwrap(), v1);
            assert!(!dir.join("quarantine").exists());
        }
    }

    /// A dataset with enough inside it that a lost or doubled field shows.
    fn rich(path: &str, records: u64) -> DatasetFeature {
        let mut f = DatasetFeature::new(path);
        f.title = format!("title of {path}");
        f.record_count = records;
        let mut v = crate::feature::VariableFeature::new("sal");
        v.resolve("salinity", crate::feature::NameResolution::KnownTranslation);
        v.summary.observe(records as f64);
        f.variables.push(v);
        f
    }

    #[test]
    fn a_read_keeps_the_snapshots_rows_and_each_put_as_an_image_of_its_own() {
        let dir = tmpdir("rows");
        {
            let mut s = DurableCatalog::open(&dir, opts_sync()).unwrap();
            for path in ["a.csv", "b.csv", "c.csv"] {
                s.put(rich(path, 1)).unwrap();
            }
            s.set_property("archive", "sim").unwrap();
            s.checkpoint().unwrap();
            s.put(rich("b.csv", 2)).unwrap(); // replaces
            s.put(rich("d.csv", 3)).unwrap(); // adds
            s.delete(DatasetId::from_path("a.csv")).unwrap();
            s.set_property("vocabulary", "v2").unwrap();
        }
        let p = read_published(&dir).unwrap();
        assert_eq!((p.snapshot_loaded, p.wal_mutations), (true, 4));
        assert!(p.rows.windows(2).all(|w| w[0].id() < w[1].id()), "catalog order");
        let mut names: Vec<&str> = p.rows.iter().map(|row| row.view().path().1).collect();
        names.sort_unstable();
        assert_eq!(names, ["b.csv", "c.csv", "d.csv"]);
        for row in &p.rows {
            // c.csv is still the snapshot's row; the puts are rows of their own
            let (dir, name) = row.view().path();
            let rows_in_image = if name == "c.csv" { 3 } else { 1 };
            assert_eq!((dir, row.image().len()), ("", rows_in_image), "{name}");
        }
        // the writer keeps the same rows, which decode to the same catalog
        let s = DurableCatalog::open(&dir, opts_sync()).unwrap();
        assert_eq!(p.catalog(), s.catalog());
        assert_eq!(p.generation, s.catalog().generation());
        assert_eq!(p.properties.get("vocabulary").map(String::as_str), Some("v2"));
    }

    #[test]
    fn replace_with_copies_full_state() {
        let dir = tmpdir("replace");
        let mut src = Catalog::new();
        src.put(rich("x.csv", 3));
        src.put(rich("y.csv", 5));
        src.set_property("archive", "sim");
        {
            let mut s = DurableCatalog::open(&dir, opts_sync()).unwrap();
            s.put(DatasetFeature::new("stale.csv")).unwrap();
            s.set_property("stale", "yes").unwrap();
            s.replace_with(&src).unwrap();
            assert_eq!(s.catalog().content_fingerprint(), src.content_fingerprint());
            assert_eq!(s.pending_wal_records(), 0, "the stale records were folded first");
        }
        // … from the snapshot alone: the replacement logged nothing
        let s = DurableCatalog::open(&dir, opts_sync()).unwrap();
        let report = s.recovery_report();
        assert_eq!((report.snapshot_loaded, report.wal_mutations), (true, 0));
        assert!(s.catalog().iter().eq(src.iter()));
        assert_eq!(s.catalog().properties(), src.properties());
        // two stale records, then what a delete of the stale row, one
        // property and two puts count
        assert_eq!(s.catalog().generation(), 2 + 1 + 1 + 2);
    }

    #[test]
    fn wal_only_recovery_equals_the_acked_prefix() {
        let dir = tmpdir("wal-prefix");
        let mutations = vec![
            Mutation::Put(Box::new(rich("a.csv", 1))),
            Mutation::Put(Box::new(rich("b.csv", 2))),
            Mutation::SetProperty { key: "k".into(), value: "v".into() },
            Mutation::Put(Box::new(rich("a.csv", 10))), // replaces
            Mutation::Delete(DatasetId::from_path("b.csv")),
            Mutation::Put(Box::new(rich("c.csv", 3))),
        ];
        let model = |n: usize| {
            let mut c = Catalog::new();
            mutations[..n].iter().cloned().for_each(|m| c.apply(m));
            c
        };
        {
            let mut s = DurableCatalog::open(&dir, opts_sync()).unwrap();
            for m in &mutations {
                s.apply(m.clone()).unwrap();
            }
            assert_eq!(s.catalog(), model(mutations.len()));
            // no checkpoint: the snapshot never exists
        }
        // Everything acked comes back, generation included …
        let s = DurableCatalog::open(&dir, opts_sync()).unwrap();
        assert!(!s.recovery_report().snapshot_loaded);
        assert_eq!(s.recovery_report().wal_mutations, mutations.len());
        assert_eq!(s.catalog(), model(mutations.len()));
        drop(s);
        // … and with the last record torn, everything before it.
        let wal = dir.join("wal.log");
        let len = fs::metadata(&wal).unwrap().len();
        OpenOptions::new().write(true).open(&wal).unwrap().set_len(len - 5).unwrap();
        let s = DurableCatalog::open(&dir, opts_sync()).unwrap();
        assert!(s.recovery_report().truncated_bytes > 0);
        assert_eq!(s.catalog(), model(mutations.len() - 1));
    }

    #[test]
    fn delete_is_durable() {
        let dir = tmpdir("del");
        let id = DatasetId::from_path("a.csv");
        {
            let mut s = DurableCatalog::open(&dir, opts_sync()).unwrap();
            s.put(DatasetFeature::new("a.csv")).unwrap();
            s.delete(id).unwrap();
        }
        let s = DurableCatalog::open(&dir, opts_sync()).unwrap();
        assert!(s.catalog().get(id).is_none());
    }

    #[test]
    fn open_store_holds_shared_lock() {
        use crate::store::lock::{lock_path, StoreLock};
        let dir = tmpdir("lock");
        let a = DurableCatalog::open(&dir, StoreOptions::default()).unwrap();
        // Another user coexists (shared + shared)…
        let b = DurableCatalog::open(&dir, StoreOptions::default()).unwrap();
        drop(b);
        // …but a repairer (exclusive) is refused while the store is open.
        if cfg!(unix) {
            let e = StoreLock::exclusive(lock_path(&dir)).unwrap_err();
            assert!(e.to_string().contains("locked"), "{e}");
        }
        drop(a);
        let _repair = StoreLock::exclusive(lock_path(&dir)).unwrap();
    }

    #[test]
    fn compact_folds_wal_and_retains_previous_snapshot() {
        let dir = tmpdir("compact");
        let policy = CompactionPolicy { wal_ratio: 0.5, min_wal_bytes: 1, retain: 2 };
        let mut s = DurableCatalog::open(&dir, opts_sync()).unwrap();
        s.put(DatasetFeature::new("a.csv")).unwrap();
        s.checkpoint().unwrap();
        s.put(DatasetFeature::new("b.csv")).unwrap();
        assert!(s.should_compact(&policy));
        let r = s.compact(&policy).unwrap();
        assert!(r.retained_previous);
        assert!(r.wal_bytes_folded > 0);
        assert_eq!(r.pruned, 0);
        assert_eq!(s.pending_wal_records(), 0);
        assert_eq!(s.retained_snapshots().unwrap().len(), 1);
        // The WAL is folded: a reopen loads everything from the snapshot.
        drop(s);
        let s = DurableCatalog::open(&dir, opts_sync()).unwrap();
        assert_eq!(s.catalog().len(), 2);
        assert_eq!(s.recovery_report().wal_mutations, 0);
    }

    #[test]
    fn retention_prunes_to_newest_n() {
        let dir = tmpdir("retention");
        let policy = CompactionPolicy { wal_ratio: 0.0, min_wal_bytes: 0, retain: 2 };
        let mut s = DurableCatalog::open(&dir, opts_sync()).unwrap();
        for i in 0..5 {
            s.put(DatasetFeature::new(format!("f{i}.csv"))).unwrap();
            s.compact(&policy).unwrap();
        }
        let retained = s.retained_snapshots().unwrap();
        assert_eq!(retained.len(), 2);
        // Lexical order is age order: the survivors are the newest two.
        let names: Vec<_> =
            retained.iter().map(|p| p.file_name().unwrap().to_str().unwrap().to_string()).collect();
        assert_eq!(names, vec!["snapshot-0000000003.bin", "snapshot-0000000004.bin"]);
        // Each retained copy is a readable snapshot of its era.
        let image = read_image_with(std_vfs().as_ref(), &retained[1]).unwrap().unwrap();
        assert_eq!(image.len(), 4, "snapshot 4 was taken before f4 was folded");
    }

    #[test]
    fn retain_zero_disables_retention() {
        let dir = tmpdir("retain0");
        let policy = CompactionPolicy { wal_ratio: 0.0, min_wal_bytes: 0, retain: 0 };
        let mut s = DurableCatalog::open(&dir, opts_sync()).unwrap();
        s.put(DatasetFeature::new("a.csv")).unwrap();
        s.compact(&policy).unwrap();
        s.put(DatasetFeature::new("b.csv")).unwrap();
        let r = s.compact(&policy).unwrap();
        assert!(!r.retained_previous);
        assert!(s.retained_snapshots().unwrap().is_empty());
    }

    #[test]
    fn should_compact_honors_min_wal_bytes() {
        let dir = tmpdir("minwal");
        let mut s = DurableCatalog::open(&dir, opts_sync()).unwrap();
        s.put(DatasetFeature::new("a.csv")).unwrap();
        let huge_floor = CompactionPolicy { min_wal_bytes: u64::MAX, ..Default::default() };
        assert!(!s.should_compact(&huge_floor));
        let tiny_floor = CompactionPolicy { wal_ratio: 0.5, min_wal_bytes: 1, retain: 2 };
        assert!(s.should_compact(&tiny_floor), "no snapshot yet: any wal growth qualifies");
        assert!(s.maybe_compact(&huge_floor).unwrap().is_none());
        assert!(s.maybe_compact(&tiny_floor).unwrap().is_some());
    }

    #[test]
    fn acked_batches_are_durable_across_reopen() {
        let dir = tmpdir("ack");
        let mut s = DurableCatalog::open(&dir, StoreOptions::default()).unwrap();
        for batch in [&["a.csv", "b.csv"][..], &["c.csv"]] {
            for path in batch {
                s.apply(Mutation::Put(Box::new(DatasetFeature::new(*path)))).unwrap();
            }
            s.flush().unwrap();
        }
        drop(s); // no checkpoint, no clean close: the flush alone must suffice
        let s = DurableCatalog::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(s.catalog().len(), 3);
    }

    #[test]
    fn one_window_means_one_fsync() {
        // Fsyncs of a 50-put batch, counted by a fault VFS whose fault never
        // comes, flushed once at the end or once after every put.
        let fsyncs_of_batch = |name: &str, flush_each: bool| -> u64 {
            let plan = FaultPlan { crash_at: u64::MAX, kind: FaultKind::FsyncError, seed: 0 };
            let vfs = Arc::new(FaultVfs::new(plan));
            let mut s =
                DurableCatalog::open_with(vfs.clone(), tmpdir(name), StoreOptions::default())
                    .unwrap();
            let before = vfs.sites();
            for i in 0..50 {
                s.apply(Mutation::Put(Box::new(DatasetFeature::new(format!("f{i}.csv"))))).unwrap();
                if flush_each {
                    s.flush().unwrap();
                }
            }
            if !flush_each {
                s.flush().unwrap();
            }
            assert_eq!(s.catalog().len(), 50);
            vfs.sites() - before
        };
        assert_eq!(fsyncs_of_batch("fsync-once", false), 1);
        assert_eq!(fsyncs_of_batch("fsync-each", true), 50);
    }

    #[test]
    fn background_compaction_runs_when_policy_trips() {
        let dir = tmpdir("compact");
        let policy = CompactionPolicy { wal_ratio: 0.0, min_wal_bytes: 1, retain: 1 };
        let mut s = DurableCatalog::open(&dir, StoreOptions::default()).unwrap();
        s.apply(Mutation::Put(Box::new(DatasetFeature::new("a.csv")))).unwrap();
        s.flush().unwrap();
        assert!(s.maybe_compact(&policy).unwrap().is_some());
        // The WAL was folded: everything lives in the snapshot now.
        assert_eq!(s.pending_wal_records(), 0);
        let r = Wal::read_from(std_vfs().as_ref(), &dir.join("wal.log"), 0).unwrap();
        assert!(r.records.is_empty() && r.stopped_early.is_none());
        assert_eq!(s.catalog().len(), 1);
    }

    #[test]
    fn unsynced_store_flush_persists() {
        let dir = tmpdir("flush");
        {
            let mut s = DurableCatalog::open(&dir, StoreOptions::default()).unwrap();
            s.put(DatasetFeature::new("a.csv")).unwrap();
            s.flush().unwrap();
        }
        let s = DurableCatalog::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(s.catalog().len(), 1);
    }
}
