//! What a published catalog costs on disk, in snapshot bytes per dataset.
//!
//! A catalog of the archive's shape — paths in station directories, 5–7
//! curated variables whose totals are their files' record counts, one
//! external pair, a point and a month — is published as `replace_with`
//! publishes one: one snapshot of the whole catalog over an empty log. The
//! snapshot's bytes per dataset are held under a budget set from
//! measurement, so a change that writes more per row fails here before the
//! benchmark's `store_bytes_per_dataset` sees it.
//!
//! One test in its own binary, like `memory_budget.rs`: `scripts/verify.sh`
//! runs it in release.

mod catalogs;
mod common;

use catalogs::archive_like;
use common::Rng;
use metamess_core::store::{DurableCatalog, StoreOptions};
use metamess_core::Catalog;

const DATASETS: usize = 2_000;

/// Snapshot bytes per dataset the catalog may take. Measured: 285.5 in
/// format 5, which wrote each row's id, its path whole and each variable's
/// total; 246.8 in format 6. The margin is 2 %.
const BUDGET: f64 = 251.7;

#[test]
fn a_published_dataset_costs_what_only_its_row_knows() {
    let mut rng = Rng(47);
    let mut catalog = Catalog::new();
    for i in 0..DATASETS {
        catalog.put(archive_like(i, &mut rng));
    }
    let dir = std::env::temp_dir().join(format!("metamess-store-budget-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = DurableCatalog::open(&dir, StoreOptions::default()).unwrap();
    store.replace_with(&catalog).unwrap();
    let per_dataset = store.snapshot_bytes() as f64 / DATASETS as f64;
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        per_dataset <= BUDGET,
        "{per_dataset:.1} snapshot bytes per dataset, over the budget of {BUDGET}"
    );
    println!("{per_dataset:.1} snapshot bytes per dataset");
}
