//! Telemetry handles for the durable store.
//!
//! Handles are resolved once per process and cached in a `OnceLock` so the
//! WAL append path pays one enabled-flag branch plus relaxed atomic adds —
//! never a registry lookup.

use metamess_telemetry::{Counter, Histogram};
use std::sync::{Arc, OnceLock};

pub(crate) struct StoreMetrics {
    /// `metamess_core_wal_appends_total` — records appended to any WAL.
    pub wal_appends: Arc<Counter>,
    /// `metamess_core_wal_bytes_total` — payload + header bytes written.
    pub wal_bytes: Arc<Counter>,
    /// `metamess_core_wal_fsyncs_total` — *successful* flush_and_sync calls
    /// (covers sync-on-append, checkpoints, and explicit flushes). Failed
    /// syncs are counted in `wal_fsync_failures`, never here.
    pub wal_fsyncs: Arc<Counter>,
    /// `metamess_core_wal_fsync_failures_total` — flush_and_sync calls that
    /// returned an error (the record may not be durable).
    pub wal_fsync_failures: Arc<Counter>,
    /// `metamess_core_rows_encoded_total` — rows a writer encoded into a
    /// payload: one per WAL put, and every row of each snapshot a
    /// checkpoint, a compaction or a whole-catalog replacement writes.
    pub rows_encoded: Arc<Counter>,
    /// `metamess_core_snapshot_writes_total` — snapshots written by a
    /// checkpoint or a whole-catalog replacement (compactions count too).
    pub snapshot_writes: Arc<Counter>,
    /// `metamess_core_recovery_replayed_total` — WAL mutations replayed
    /// while opening stores.
    pub recovery_replayed: Arc<Counter>,
    /// `metamess_core_recovery_truncated_bytes_total` — damaged tail bytes
    /// discarded during recovery.
    pub recovery_truncated_bytes: Arc<Counter>,
    /// `metamess_core_recovery_quarantined_total` — corrupt files moved
    /// into quarantine by recovery or `fsck --repair`.
    pub recovery_quarantined: Arc<Counter>,
    /// `metamess_core_vfs_faults_injected_total` — faults injected by a
    /// [`FaultVfs`](super::FaultVfs) (non-zero only under torture testing).
    pub vfs_faults_injected: Arc<Counter>,
    /// `metamess_core_checkpoint_micros` — full checkpoint latency, and a
    /// replacement's encode and snapshot write.
    pub checkpoint_micros: Arc<Histogram>,
    /// `metamess_core_compactions_total` — WAL-into-snapshot compactions.
    pub compactions: Arc<Counter>,
    /// `metamess_core_compaction_pruned_total` — retained snapshots removed
    /// by the retention policy.
    pub compaction_pruned: Arc<Counter>,
    /// `metamess_core_compaction_micros` — full compaction latency
    /// (retain + snapshot + WAL reset + prune).
    pub compaction_micros: Arc<Histogram>,
}

pub(crate) fn store_metrics() -> &'static StoreMetrics {
    static METRICS: OnceLock<StoreMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = metamess_telemetry::global();
        StoreMetrics {
            wal_appends: r.counter("metamess_core_wal_appends_total"),
            wal_bytes: r.counter("metamess_core_wal_bytes_total"),
            wal_fsyncs: r.counter("metamess_core_wal_fsyncs_total"),
            wal_fsync_failures: r.counter("metamess_core_wal_fsync_failures_total"),
            rows_encoded: r.counter("metamess_core_rows_encoded_total"),
            snapshot_writes: r.counter("metamess_core_snapshot_writes_total"),
            recovery_replayed: r.counter("metamess_core_recovery_replayed_total"),
            recovery_truncated_bytes: r.counter("metamess_core_recovery_truncated_bytes_total"),
            recovery_quarantined: r.counter("metamess_core_recovery_quarantined_total"),
            vfs_faults_injected: r.counter("metamess_core_vfs_faults_injected_total"),
            checkpoint_micros: r.histogram("metamess_core_checkpoint_micros"),
            compactions: r.counter("metamess_core_compactions_total"),
            compaction_pruned: r.counter("metamess_core_compaction_pruned_total"),
            compaction_micros: r.histogram("metamess_core_compaction_micros"),
        }
    })
}
