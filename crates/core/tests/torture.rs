//! Crash-consistency torture suite.
//!
//! Drives random mutation/checkpoint sequences through a [`FaultVfs`] that
//! injects exactly one fault (torn write, bit flip, fsync error, rename
//! failure) at a chosen crash point and then fails every later operation —
//! simulating a crash. The store is then reopened through the *real* file
//! system and the recovered catalog must equal the model built from the
//! prefix of acknowledged operations: an op whose `apply` returned `Ok`
//! under `sync_on_append` is durable, an op that errored never happened.
//!
//! Every case derives its op sequence and fault plan from its seed via
//! SplitMix64, so a given case count always replays the same faults.
//! `METAMESS_TORTURE_CASES` scales `seeded_sweep_recovers_acknowledged_prefix`
//! (default 300; `scripts/verify.sh` runs 1000). Short reads have a no-panic
//! property of their own: they may legitimately lose acknowledged data by
//! truncating a partially-read tail, so they are excluded from the equality
//! property.

mod common;

use common::{sweep, Rng};
use metamess_core::catalog::Catalog;
use metamess_core::feature::DatasetFeature;
use metamess_core::id::DatasetId;
use metamess_core::store::{DurableCatalog, FaultKind, FaultPlan, FaultVfs, StoreOptions, Vfs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[derive(Debug, Clone)]
enum Op {
    Put(u8),
    Delete(u8),
    SetProp(u8, u8),
    Checkpoint,
}

fn dataset_path(n: u8) -> String {
    format!("stations/s{:02}/2010/{:02}.csv", n % 8, n % 12 + 1)
}

/// Fresh unique store directory per case.
fn fresh_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!("metamess-torture-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn torture_opts() -> StoreOptions {
    StoreOptions { sync_on_append: true }
}

/// Applies `ops` through `vfs` until the injected crash, returning the
/// model catalog of acknowledged operations.
fn run_until_crash(vfs: Arc<dyn Vfs>, dir: &PathBuf, ops: &[Op]) -> Catalog {
    let mut model = Catalog::new();
    let Ok(mut store) = DurableCatalog::open_with(vfs, dir, torture_opts()) else {
        // Crashed while creating the store: nothing was acknowledged.
        return model;
    };
    for op in ops {
        let acked = match op {
            Op::Put(n) => {
                let f = DatasetFeature::new(dataset_path(*n));
                match store.put(f.clone()) {
                    Ok(()) => {
                        model.put(f);
                        true
                    }
                    Err(_) => false,
                }
            }
            Op::Delete(n) => {
                let id = DatasetId::from_path(&dataset_path(*n));
                match store.delete(id) {
                    Ok(()) => {
                        model.delete(id);
                        true
                    }
                    Err(_) => false,
                }
            }
            Op::SetProp(k, v) => match store.set_property(format!("k{k}"), format!("v{v}")) {
                Ok(()) => {
                    model.set_property(format!("k{k}"), format!("v{v}"));
                    true
                }
                Err(_) => false,
            },
            // Checkpoints move bytes between WAL and snapshot but change no
            // content; a failed one must not lose acknowledged ops.
            Op::Checkpoint => store.checkpoint().is_ok(),
        };
        if !acked {
            break; // crashed: every later op would fail too
        }
    }
    model
}

/// Recovery through the real file system must succeed and reproduce
/// exactly the acknowledged content (entries + properties; the generation
/// counter is bookkeeping, not content).
fn assert_recovers_model(dir: &PathBuf, model: &Catalog, context: &str) {
    let store = DurableCatalog::open(dir, torture_opts())
        .unwrap_or_else(|e| panic!("{context}: recovery failed: {e}"));
    assert_eq!(
        store.catalog().content_fingerprint(),
        model.content_fingerprint(),
        "{context}: recovered {} entries {:?} / props {:?}, expected {} entries {:?} / props {:?}",
        store.catalog().len(),
        store.catalog().iter().map(|f| f.path.clone()).collect::<Vec<_>>(),
        store.catalog().properties(),
        model.len(),
        model.iter().map(|f| f.path.clone()).collect::<Vec<_>>(),
        model.properties(),
    );
}

fn op(rng: &mut Rng) -> Op {
    match rng.next() % 9 {
        0..=3 => Op::Put(rng.next() as u8),
        4..=5 => Op::Delete(rng.next() as u8),
        6..=7 => Op::SetProp(rng.next() as u8 % 8, rng.next() as u8),
        _ => Op::Checkpoint,
    }
}

fn derive_case(seed: u64) -> (Vec<Op>, FaultPlan) {
    let mut rng = Rng(seed);
    let n_ops = 1 + (rng.next() % 32) as usize;
    let ops = (0..n_ops).map(|_| op(&mut rng)).collect();
    let kind = match rng.next() % 4 {
        0 => FaultKind::TornWrite,
        1 => FaultKind::BitFlip,
        2 => FaultKind::FsyncError,
        _ => FaultKind::RenameFail,
    };
    // Low crash points hit store creation and the first ops; the range
    // comfortably covers every fault site a 32-op sequence can reach.
    let plan = FaultPlan { crash_at: 1 + rng.next() % 48, kind, seed: rng.next() };
    (ops, plan)
}

fn sweep_cases() -> u64 {
    std::env::var("METAMESS_TORTURE_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(300)
}

#[test]
fn seeded_sweep_recovers_acknowledged_prefix() {
    let mut faults_fired = 0u64;
    let cases = sweep_cases();
    for seed in 0..cases {
        let (ops, plan) = derive_case(seed);
        let dir = fresh_dir("sweep");
        let fault = Arc::new(FaultVfs::new(plan));
        let model = run_until_crash(fault.clone(), &dir, &ops);
        if fault.crashed() {
            faults_fired += 1;
        }
        assert_recovers_model(&dir, &model, &format!("seed {seed} plan {plan:?} ops {ops:?}"));
        let _ = std::fs::remove_dir_all(&dir);
    }
    // The sweep is vacuous if the crash points never trigger; make sure a
    // healthy share of cases actually crashed mid-sequence.
    assert!(
        faults_fired >= cases / 4,
        "only {faults_fired}/{cases} cases injected their fault — crash points miscalibrated"
    );
}

/// Cases of each property below the sweep.
const CASES: u64 = 96;

/// Applies `op` to a healthy store and, unless it is a checkpoint, to the
/// model.
fn apply_both(store: &mut DurableCatalog, model: &mut Catalog, op: &Op) {
    match op {
        Op::Put(n) => {
            let f = DatasetFeature::new(dataset_path(*n));
            store.put(f.clone()).unwrap();
            model.put(f);
        }
        Op::Delete(n) => {
            let id = DatasetId::from_path(&dataset_path(*n));
            store.delete(id).unwrap();
            model.delete(id);
        }
        Op::SetProp(k, v) => {
            store.set_property(format!("k{k}"), format!("v{v}")).unwrap();
            model.set_property(format!("k{k}"), format!("v{v}"));
        }
        Op::Checkpoint => store.checkpoint().unwrap(),
    }
}

/// Short reads can truncate a tail that was merely *read* short, so
/// acknowledged data may legitimately be lost — the guarantee is
/// graceful degradation: no panic, and the store always reopens.
#[test]
fn short_reads_degrade_gracefully() {
    sweep(CASES, |rng| {
        let dir = fresh_dir("shortread");
        {
            let mut store = DurableCatalog::open(&dir, torture_opts()).unwrap();
            let mut model = Catalog::new();
            for op in rng.vec(1, 16, op) {
                apply_both(&mut store, &mut model, &op);
            }
        }
        let plan =
            FaultPlan { crash_at: 1 + rng.below(4), kind: FaultKind::ShortRead, seed: rng.next() };
        // Opening through the fault may fail, but must not panic…
        let _ = DurableCatalog::open_with(Arc::new(FaultVfs::new(plan)), &dir, torture_opts());
        // …and the store must still open through the real file system.
        DurableCatalog::open(&dir, torture_opts())
            .unwrap_or_else(|e| panic!("store unopenable after short read: {e}"));
        let _ = std::fs::remove_dir_all(&dir);
    });
}

/// Without any fault, the model and store agree trivially — guards the
/// harness itself against drift.
#[test]
fn faultless_runs_round_trip() {
    sweep(CASES, |rng| {
        let dir = fresh_dir("clean");
        let mut model = Catalog::new();
        {
            let mut store = DurableCatalog::open(&dir, torture_opts()).unwrap();
            for op in rng.vec(1, 24, op) {
                apply_both(&mut store, &mut model, &op);
            }
        }
        assert_recovers_model(&dir, &model, "faultless");
        let _ = std::fs::remove_dir_all(&dir);
    });
}
