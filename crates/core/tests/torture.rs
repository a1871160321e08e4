//! Crash-consistency torture suite.
//!
//! Drives random sequences of mutations, checkpoints and whole-catalog
//! replacements through a [`FaultVfs`] that injects exactly one fault (torn
//! write, bit flip, fsync error, rename failure) at a chosen crash point and
//! then fails every later operation — simulating a crash. The store is then
//! reopened through the *real* file system and the recovered catalog must
//! equal the model built from the prefix of acknowledged operations: an op
//! whose call returned `Ok` under `sync_on_append` is durable, an op that
//! errored never happened. A replacement that errored therefore recovers
//! the store it would have replaced, whether it crashed folding the WAL or
//! writing the new snapshot; one that returned `Ok` recovers exactly its
//! catalog.
//!
//! The pipeline's state image gets a sweep of its own: an image written over
//! another crashes at a seeded write, fsync or rename, and reads back as one
//! of the two, whole.
//!
//! Every case derives its op sequence and fault plan from its seed via
//! SplitMix64, so a given case count always replays the same faults.
//! `METAMESS_TORTURE_CASES` scales `seeded_sweep_recovers_acknowledged_prefix`
//! and `a_state_image_reads_back_as_the_old_one_or_the_new_one_whole`
//! (default 300; `scripts/verify.sh` runs 1000). Short reads have a no-panic
//! property of their own: they may legitimately lose acknowledged data by
//! truncating a partially-read tail, so they are excluded from the equality
//! property.

mod common;

use common::{sweep, Rng};
use metamess_core::catalog::Catalog;
use metamess_core::error::Result;
use metamess_core::feature::DatasetFeature;
use metamess_core::id::DatasetId;
use metamess_core::store::{
    read_state, std_vfs, write_state, DurableCatalog, FaultKind, FaultPlan, FaultVfs, RunLedger,
    StageRecord, StoreOptions, Vfs,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[derive(Debug, Clone)]
enum Op {
    Put(u8),
    Delete(u8),
    SetProp(u8, u8),
    Checkpoint,
    /// `replace_with` the catalog [`replacement`] draws from the seed.
    Replace(u8),
}

fn dataset_path(n: u8) -> String {
    format!("stations/s{:02}/2010/{:02}.csv", n % 8, n % 12 + 1)
}

/// What `Op::Replace(seed)` publishes: up to six datasets and a property.
fn replacement(seed: u8) -> Catalog {
    let mut rng = Rng(u64::from(seed));
    let mut c = Catalog::new();
    for _ in 0..rng.below(7) {
        c.put(DatasetFeature::new(dataset_path(rng.next() as u8)));
    }
    c.set_property("published", format!("r{seed}"));
    c
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

/// The op a run stopped at, and whether the WAL held records no snapshot
/// had folded in when that op began.
struct Stopped {
    op: Op,
    unfolded: bool,
}

/// Applies `ops` through `vfs` until the injected crash, returning the
/// model catalog of acknowledged operations and the op that failed, if one
/// did.
fn run_until_crash(vfs: Arc<dyn Vfs>, dir: &PathBuf, ops: &[Op]) -> (Catalog, Option<Stopped>) {
    let mut model = Catalog::new();
    let Ok(mut store) = DurableCatalog::open_with(vfs, dir, torture_opts()) else {
        // Crashed while creating the store: nothing was acknowledged.
        return (model, None);
    };
    for op in ops {
        let unfolded = store.pending_wal_records() > 0;
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
            Op::Replace(seed) => {
                let next = replacement(*seed);
                match store.replace_with(&next) {
                    Ok(()) => {
                        model = next;
                        true
                    }
                    Err(_) => false,
                }
            }
        };
        if !acked {
            // crashed: every later op would fail too
            return (model, Some(Stopped { op: op.clone(), unfolded }));
        }
    }
    (model, None)
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
    match rng.next() % 10 {
        0..=3 => Op::Put(rng.next() as u8),
        4..=5 => Op::Delete(rng.next() as u8),
        6..=7 => Op::SetProp(rng.next() as u8 % 8, rng.next() as u8),
        8 => Op::Checkpoint,
        _ => Op::Replace(rng.next() as u8),
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
    // Replacements the fault stopped: over an empty WAL, and over one whose
    // records the replacement had to fold first.
    let mut replaces_stopped = [0u64; 2];
    let cases = sweep_cases();
    for seed in 0..cases {
        let (ops, plan) = derive_case(seed);
        let dir = fresh_dir("sweep");
        let fault = Arc::new(FaultVfs::new(plan));
        let (model, stopped) = run_until_crash(fault.clone(), &dir, &ops);
        if fault.crashed() {
            faults_fired += 1;
        }
        if let Some(Stopped { op: Op::Replace(_), unfolded }) = stopped {
            replaces_stopped[usize::from(unfolded)] += 1;
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
    if cases >= 300 {
        assert!(
            replaces_stopped.iter().all(|&n| n > 0),
            "crashes inside a replacement over an empty and an unfolded WAL: {replaces_stopped:?}"
        );
    }
}

/// A replacement over records the WAL still holds folds them, by a
/// checkpoint whose rename succeeds, and then fails at its own rename: the
/// store recovers as it was before the call — the folded records, from the
/// snapshot, over an empty log.
#[test]
fn a_failed_swap_after_a_fold_recovers_the_folded_store() {
    let dir = fresh_dir("swap-after-fold");
    let plan = FaultPlan { crash_at: 2, kind: FaultKind::RenameFail, seed: 0 };
    let fault = Arc::new(FaultVfs::new(plan));
    let ops = [Op::Put(1), Op::Put(2), Op::SetProp(0, 7), Op::Delete(1), Op::Replace(3)];
    let (model, stopped) = run_until_crash(fault.clone(), &dir, &ops);
    assert!(fault.crashed());
    assert!(
        matches!(stopped, Some(Stopped { op: Op::Replace(3), unfolded: true })),
        "the replacement, over unfolded records, is what failed"
    );
    assert!(!replacement(3).is_empty(), "a replacement that would have shown");
    assert_eq!(model.len(), 1);
    assert_recovers_model(&dir, &model, "rename failure at the swap");
    let store = DurableCatalog::open(&dir, torture_opts()).unwrap();
    let report = store.recovery_report();
    assert_eq!((report.snapshot_loaded, report.wal_mutations), (true, 0), "the fold landed");
    let _ = std::fs::remove_dir_all(&dir);
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
        Op::Replace(seed) => {
            *model = replacement(*seed);
            store.replace_with(model).unwrap();
        }
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

/// A state's two parts: run ledger, curation bytes.
type StateParts = (RunLedger, Vec<u8>);

/// A state image drawn from `seed`: a ledger of run `seed`, recorded
/// against the catalog [`replacement`] draws, and a few curation bytes.
fn state_image(seed: u8) -> StateParts {
    let mut rng = Rng(u64::from(seed) ^ 0x57A7E);
    let mut ledger = RunLedger::new();
    ledger.run_id = u64::from(seed);
    ledger.catalog_fingerprint = Some(replacement(seed).content_fingerprint());
    for _ in 0..rng.below(5) {
        let rec = StageRecord { micros: rng.below(1000) };
        ledger.record(&format!("stage-{}", rng.below(9)), rec);
    }
    (ledger, rng.bytes(0, 64))
}

fn write_image(vfs: &dyn Vfs, path: &Path, (ledger, curation): &StateParts) -> Result<()> {
    write_state(vfs, path, ledger, curation)
}

/// Writes image B over image A through a fault at a seeded write, fsync or
/// rename site (or one past the last, which never fires). The state then
/// reads back as exactly A when the fault fired and as exactly B when it
/// did not: never corrupt, never a mix of the two.
#[test]
fn a_state_image_reads_back_as_the_old_one_or_the_new_one_whole() {
    let cases = sweep_cases();
    let mut fired = 0u64;
    for case in 0..cases {
        let mut rng = Rng(case);
        let seed_a = rng.next() as u8;
        let (a, b) = (state_image(seed_a), state_image(seed_a.wrapping_add(1)));
        // A state image is seven writes (magic, length, CRC, ledger length,
        // ledger, curation length, curation), one fsync and one rename.
        let (kind, sites) = match rng.next() % 4 {
            0 => (FaultKind::TornWrite, 7),
            1 => (FaultKind::BitFlip, 7),
            2 => (FaultKind::FsyncError, 1),
            _ => (FaultKind::RenameFail, 1),
        };
        let plan = FaultPlan { crash_at: 1 + rng.below(sites + 1), kind, seed: rng.next() };
        let dir = fresh_dir("state");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.bin");
        write_image(std_vfs().as_ref(), &path, &a).unwrap();
        let fault = FaultVfs::new(plan);
        let wrote = write_image(&fault, &path, &b);
        let read = read_state(std_vfs().as_ref(), &path)
            .unwrap_or_else(|e| panic!("case {case} plan {plan:?}: {e}"))
            .unwrap_or_else(|| panic!("case {case} plan {plan:?}: no state"));
        let expected = if fault.crashed() {
            fired += 1;
            assert!(wrote.is_err(), "case {case} plan {plan:?}: a crashed write returned Ok");
            &a
        } else {
            wrote.unwrap_or_else(|e| panic!("case {case} plan {plan:?}: {e}"));
            &b
        };
        let read = (read.ledger, read.curation);
        assert!(read == *expected, "case {case} plan {plan:?}: read back neither image whole");
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert!(fired >= cases / 2, "only {fired}/{cases} cases fired their fault");
    if cases >= 100 {
        assert!(fired < cases, "no case wrote its new image");
    }
}

/// Writing a state image costs one file fsync and one rename, counted by a
/// fault VFS whose fault never comes.
#[test]
fn a_state_image_costs_one_fsync() {
    let dir = fresh_dir("state-fsync");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("state.bin");
    for (kind, expected) in [(FaultKind::FsyncError, 1), (FaultKind::RenameFail, 1)] {
        let vfs = FaultVfs::new(FaultPlan { crash_at: u64::MAX, kind, seed: 0 });
        write_image(&vfs, &path, &state_image(7)).unwrap();
        assert_eq!(vfs.sites(), expected, "{kind:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
