//! Durable storage for the metadata catalog: CRC-checked WAL + snapshots,
//! and the pipeline's state image beside them.
//!
//! All file I/O goes through the [`Vfs`] trait so that crash-consistency
//! can be torture-tested with a deterministic fault-injecting
//! implementation ([`FaultVfs`]) while production uses the zero-cost
//! [`StdVfs`] passthrough. On-disk formats are specified in
//! `DESIGN.md § Durability`; [`fsck`] verifies them offline.

pub mod codec;
/// CRC-32 (ISO-HDLC) used by every on-disk frame.
pub mod crc;
mod durable;
mod frame;
pub mod fsck;
mod ledger;
mod lock;
mod metrics;
mod quarantine;
mod snapshot;
mod state;
mod vfs;
mod wal;

pub use codec::{Image, Row, RowView, WalRecord};
pub use crc::{crc32, Crc32};
pub use durable::{
    apply_records, read_published, CompactionPolicy, CompactionReport, DurableCatalog, Published,
    RecoveryReport, StoreOptions,
};
pub use frame::write_atomic;
pub use fsck::{FsckFinding, FsckReport, FsckSeverity};
pub use ledger::{RunLedger, StageRecord};
pub use lock::{lock_path, LockMode, StoreLock};
pub use quarantine::{quarantine_file, QuarantineReason, Quarantined};
pub use snapshot::SNAPSHOT_MAGIC;
pub use state::{read_state, write_state, StateImage};
pub use vfs::{std_vfs, FaultKind, FaultPlan, FaultVfs, StdVfs, Vfs, VfsFile};
pub use wal::{TailRead, Wal, WAL_MAGIC};
