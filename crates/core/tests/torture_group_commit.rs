//! Crash-consistency torture suite for the group-commit queue.
//!
//! The single-writer torture suite (`torture.rs`) proves the store's
//! sync-on-append path recovers the acknowledged prefix. This suite covers
//! the *group-commit* path, where durability is deferred to a shared fsync
//! and batches may sit in the commit window when the crash lands:
//!
//! * An **acked ticket** (`CommitTicket::wait` returned `Ok`) is durable:
//!   the recovered catalog must contain every mutation from every acked
//!   batch.
//! * An **unacked batch** may or may not survive (it was appended but its
//!   covering fsync never succeeded) — but the recovered catalog must
//!   still be *some prefix* of the submitted mutation stream. Recovery
//!   never invents, reorders, or hole-punches mutations.
//! * **Compaction mid-fault** (the flusher folds the WAL into a fresh
//!   snapshot right after a window) must never lose acked data — retained
//!   snapshots and quarantine make a failed fold recoverable.
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
    CompactionPolicy, DurableCatalog, FaultKind, FaultPlan, FaultVfs, GroupCommit,
    GroupCommitOptions, StoreOptions, Vfs,
};
use metamess_core::Mutation;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Fresh unique store directory per case.
fn fresh_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let d =
        std::env::temp_dir().join(format!("metamess-gc-torture-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Group-commit stores defer fsync to the queue; sync-on-append would hide
/// exactly the window this suite exists to torture.
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
/// every window — putting the crash point inside compaction often.
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
    /// Mutations covered by acked tickets — the durable floor. Group
    /// commit acks in submission order, so acks always cover a prefix.
    acked_mutations: usize,
    /// Mutations handed to `submit` at all (acked or not) — the ceiling.
    submitted_mutations: usize,
}

/// Submits batches through a faulted group-commit queue, recording which
/// acks landed before the crash.
fn run_until_crash(
    vfs: Arc<dyn Vfs>,
    dir: &PathBuf,
    batches: &[Vec<Mutation>],
    commit_interval: Duration,
    compaction: Option<CompactionPolicy>,
) -> Drive {
    let Ok(store) = DurableCatalog::open_with(vfs, dir, torture_opts()) else {
        // Crashed while creating the store: nothing was acknowledged.
        return Drive { acked_mutations: 0, submitted_mutations: 0 };
    };
    let queue = GroupCommit::new(store, GroupCommitOptions { commit_interval, compaction });
    let mut tickets = Vec::new();
    let mut submitted = 0usize;
    for batch in batches {
        // A failed submit may still have appended part of the batch to the
        // WAL before erroring, so it counts toward the ceiling either way.
        submitted += batch.len();
        match queue.submit(batch.clone()) {
            Ok(t) => tickets.push((t, batch.len())),
            Err(_) => break, // queue poisoned: every later submit fails too
        }
    }
    let mut acked = 0usize;
    for (ticket, len) in tickets {
        if ticket.wait().is_ok() {
            // Acks are a prefix: the covering fsync of batch k covers
            // every batch before it.
            acked += len;
        } else {
            break;
        }
    }
    // A poisoned queue refuses to hand the store back; either way the
    // "process" is gone now and recovery starts from disk alone.
    let _ = queue.close();
    Drive { acked_mutations: acked, submitted_mutations: submitted }
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

/// Zero commit window: the submitter is its own flusher, so the crash
/// point lands inside `submit` → append → shared fsync → (often) the
/// background compaction fold. Deterministic per seed.
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
        let drive = run_until_crash(fault.clone(), &dir, &batches, Duration::ZERO, compaction);
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

/// A real commit window: batches pile up unacked while the flusher thread
/// sleeps, so the crash lands with the window genuinely open. The ack/
/// submit interleaving depends on thread timing, but the invariant checked
/// is timing-independent: acked ⇒ recovered, recovered ⇒ submitted prefix.
#[test]
fn crash_inside_commit_window_recovers_acked_prefix() {
    let cases = sweep_cases() / 2;
    for seed in 0..cases {
        let (batches, plan, compaction) = derive_case(seed.wrapping_add(0x5eed));
        let dir = fresh_dir("window");
        let fault = Arc::new(FaultVfs::new(plan));
        let drive = run_until_crash(fault, &dir, &batches, Duration::from_millis(2), compaction);
        assert_recovers_acked_prefix(
            &dir,
            &batches,
            &drive,
            &format!("windowed seed {seed} plan {plan:?}"),
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Without any fault, every batch acks and the recovered catalog equals
/// the full model — guards the harness itself against drift.
#[test]
fn faultless_group_commit_round_trips() {
    for seed in 0..24 {
        let (batches, _, compaction) = derive_case(seed);
        let dir = fresh_dir("clean");
        let store = DurableCatalog::open(&dir, torture_opts()).unwrap();
        let queue = GroupCommit::new(
            store,
            GroupCommitOptions { commit_interval: Duration::from_millis(1), compaction },
        );
        let tickets: Vec<_> =
            batches.iter().map(|b| queue.submit(b.clone()).expect("submit")).collect();
        for t in tickets {
            t.wait().expect("faultless ack");
        }
        let store = queue.close().expect("faultless close");
        let fps = prefix_fingerprints(&batches);
        assert_eq!(
            store.catalog().content_fingerprint(),
            *fps.last().unwrap(),
            "seed {seed}: faultless run must land on the full model"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
