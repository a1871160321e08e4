//! Crash-consistency torture suite for the watch loop's publish sequence.
//!
//! The single-writer torture suite (`torture.rs`) proves the store's
//! sync-on-append path recovers the acknowledged prefix. This suite covers
//! the path `metamess watch` publishes through, where each batch is
//! appended buffered and made durable by one `flush` — one fsync per batch
//! — followed by a compaction check, and the crash may land anywhere in
//! that sequence:
//!
//! * An **acked batch** (its `flush` returned `Ok`) is durable: the
//!   recovered catalog must contain every mutation from every acked batch.
//! * An **unacked batch** may or may not survive (it was appended but its
//!   fsync never succeeded) — but the recovered catalog must still be
//!   *some prefix* of the submitted mutation stream. Recovery never
//!   invents, reorders, or hole-punches mutations.
//! * **Compaction mid-fault** (the WAL folded into a fresh snapshot right
//!   after a flush) must never lose acked data — retained snapshots and
//!   quarantine make a failed fold recoverable.
//!
//! The check is therefore: `fingerprint(recovered) ∈
//! { fingerprint(model after i mutations) : i ≥ acked_mutations }`.
//!
//! Cases derive deterministically from their seed via SplitMix64;
//! `METAMESS_TORTURE_CASES` scales the sweep (default 300; CI runs 1000).

mod common;

use common::Rng;
use metamess_core::catalog::Catalog;
use metamess_core::feature::DatasetFeature;
use metamess_core::id::DatasetId;
use metamess_core::store::{
    std_vfs, CompactionPolicy, DurableCatalog, FaultKind, FaultPlan, FaultVfs, StoreOptions, Vfs,
};
use metamess_core::Mutation;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Fresh unique store directory per case.
fn fresh_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let d =
        std::env::temp_dir().join(format!("metamess-gc-torture-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// The watch loop defers fsync to one flush per batch; sync-on-append
/// would hide exactly the window this suite exists to torture.
fn torture_opts() -> StoreOptions {
    StoreOptions { sync_on_append: false }
}

fn dataset_path(n: u8) -> String {
    format!("stations/s{:02}/2010/{:02}.csv", n % 8, n % 12 + 1)
}

fn mutation(rng: &mut Rng) -> Mutation {
    match rng.next() % 8 {
        0..=4 => Mutation::Put(Box::new(DatasetFeature::new(dataset_path(rng.next() as u8)))),
        5..=6 => Mutation::Delete(DatasetId::from_path(&dataset_path(rng.next() as u8))),
        _ => Mutation::SetProperty {
            key: format!("k{}", rng.next() % 8),
            value: format!("v{}", rng.next() as u8),
        },
    }
}

/// One case: a sequence of batches, a fault plan, and (for half the seeds)
/// a compaction policy aggressive enough to fold the WAL after nearly
/// every flush — putting the crash point inside compaction often.
fn derive_case(seed: u64) -> (Vec<Vec<Mutation>>, FaultPlan, Option<CompactionPolicy>) {
    let mut rng = Rng(seed);
    let n_batches = 1 + (rng.next() % 12) as usize;
    let batches = (0..n_batches)
        .map(|_| {
            let len = 1 + (rng.next() % 4) as usize;
            (0..len).map(|_| mutation(&mut rng)).collect()
        })
        .collect();
    let kind = match rng.next() % 4 {
        0 => FaultKind::TornWrite,
        1 => FaultKind::BitFlip,
        2 => FaultKind::FsyncError,
        _ => FaultKind::RenameFail,
    };
    // Skewed low: with the WAL buffered (no sync-on-append) each kind of
    // operation happens far less often than in the single-writer suite,
    // so high crash points would mostly never fire.
    let plan = FaultPlan { crash_at: 1 + rng.next() % 24, kind, seed: rng.next() };
    let compaction =
        rng.coin().then_some(CompactionPolicy { wal_ratio: 0.01, min_wal_bytes: 1, retain: 1 });
    (batches, plan, compaction)
}

/// The cumulative content fingerprints of the submitted mutation stream:
/// `fingerprints[i]` is the catalog after the first `i` mutations.
fn prefix_fingerprints(batches: &[Vec<Mutation>]) -> Vec<u64> {
    let mut model = Catalog::new();
    let mut fps = vec![model.content_fingerprint()];
    for batch in batches {
        for m in batch {
            model.apply(m.clone());
            fps.push(model.content_fingerprint());
        }
    }
    fps
}

/// Outcome of driving one case until the injected crash (or completion).
struct Drive {
    /// Mutations of batches whose flush returned `Ok` — the durable floor.
    /// Batches are flushed in order, so acks always cover a prefix.
    acked_mutations: usize,
    /// Mutations handed to `apply` at all (acked or not) — the ceiling.
    submitted_mutations: usize,
}

/// Publishes batches the way a watch cycle does — apply the batch, flush
/// once (the batch is acked only on `Ok`), then `maybe_compact` — over a
/// faulted store, stopping at the first error.
fn run_until_crash(
    vfs: Arc<dyn Vfs>,
    dir: &PathBuf,
    batches: &[Vec<Mutation>],
    compaction: Option<CompactionPolicy>,
) -> Drive {
    let mut drive = Drive { acked_mutations: 0, submitted_mutations: 0 };
    let Ok(mut store) = DurableCatalog::open_with(vfs, dir, torture_opts()) else {
        // Crashed while creating the store: nothing was acknowledged.
        return drive;
    };
    for batch in batches {
        // A failed apply may still have appended part of the batch to the
        // WAL before erroring, so it counts toward the ceiling either way.
        drive.submitted_mutations += batch.len();
        if batch.iter().try_for_each(|m| store.apply(m.clone())).is_err() || store.flush().is_err()
        {
            break;
        }
        drive.acked_mutations += batch.len();
        if let Some(policy) = &compaction {
            if store.maybe_compact(policy).is_err() {
                break;
            }
        }
    }
    // The "process" is gone now and recovery starts from disk alone.
    drive
}

/// Recovery through the real file system must succeed and land on a
/// prefix of the submitted stream no shorter than the acked prefix.
fn assert_recovers_acked_prefix(
    dir: &PathBuf,
    batches: &[Vec<Mutation>],
    drive: &Drive,
    context: &str,
) {
    let store = DurableCatalog::open(dir, torture_opts())
        .unwrap_or_else(|e| panic!("{context}: recovery failed: {e}"));
    let recovered = store.catalog().content_fingerprint();
    let fps = prefix_fingerprints(batches);
    let matched =
        fps.iter().enumerate().any(|(i, fp)| *fp == recovered && i >= drive.acked_mutations);
    assert!(
        matched,
        "{context}: recovered catalog ({} entries, fp {recovered:#x}) is not a submitted-stream \
         prefix ≥ the acked floor ({} acked / {} submitted mutations)",
        store.catalog().len(),
        drive.acked_mutations,
        drive.submitted_mutations,
    );
}

fn sweep_cases() -> u64 {
    std::env::var("METAMESS_TORTURE_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(300)
}

/// The crash point lands inside append → fsync → (often) the compaction
/// fold. Deterministic per seed.
#[test]
fn group_commit_crash_recovers_acked_prefix() {
    let cases = sweep_cases();
    let mut faults_fired = 0u64;
    let mut compactions_faulted = 0u64;
    for seed in 0..cases {
        let (batches, plan, compaction) = derive_case(seed);
        let dir = fresh_dir("inline");
        let fault = Arc::new(FaultVfs::new(plan));
        let with_compaction = compaction.is_some();
        let drive = run_until_crash(fault.clone(), &dir, &batches, compaction);
        if fault.crashed() {
            faults_fired += 1;
            if with_compaction {
                compactions_faulted += 1;
            }
        }
        assert_recovers_acked_prefix(&dir, &batches, &drive, &format!("seed {seed} plan {plan:?}"));
        let _ = std::fs::remove_dir_all(&dir);
    }
    // The sweep is vacuous if the crash points never trigger; make sure a
    // healthy share of cases actually crashed, including under compaction.
    assert!(
        faults_fired >= cases / 4,
        "only {faults_fired}/{cases} cases injected their fault — crash points miscalibrated"
    );
    assert!(
        compactions_faulted >= cases / 16,
        "only {compactions_faulted}/{cases} compacting cases crashed — policy never trips"
    );
}

/// Without any fault, every batch acks and the recovered catalog equals
/// the full model — guards the harness itself against drift.
#[test]
fn faultless_group_commit_round_trips() {
    for seed in 0..24 {
        let (batches, _, compaction) = derive_case(seed);
        let dir = fresh_dir("clean");
        let drive = run_until_crash(std_vfs(), &dir, &batches, compaction);
        assert_eq!(drive.acked_mutations, drive.submitted_mutations, "seed {seed}: faultless ack");
        let store = DurableCatalog::open(&dir, torture_opts()).unwrap();
        let fps = prefix_fingerprints(&batches);
        assert_eq!(
            store.catalog().content_fingerprint(),
            *fps.last().unwrap(),
            "seed {seed}: faultless run must land on the full model"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
