//! What a [`Catalog`] holds per dataset, in live heap bytes.
//!
//! A harvester builds a feature as `harvest/src/extract.rs` does: variables
//! pushed one by one, which leaves a vector up to half empty, each with a
//! descriptor of its own, and one to five external pairs. The catalog keeps
//! each feature it takes with its lists at exact capacity, its external
//! pairs in one sorted vector and each distinct variable descriptor once,
//! so what it holds is the size of the metadata, not of how it was grown.
//!
//! The counting allocator is process-global, so this file is its own test
//! binary and holds one test: nothing else allocates in the window.

mod common;

use common::Rng;
use metamess_core::{Catalog, DatasetFeature, GeoBBox, TimeInterval, Timestamp, VariableFeature};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

/// Keeps the bytes live on the heap (as requested, not as the system
/// allocator rounds them); delegates everything to the system allocator.
struct LiveBytes;

static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every method hands its arguments to the system allocator as
// they came and returns what it returns; the count is only a statistic.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as isize - layout.size() as isize, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

const DATASETS: usize = 2_000;

/// Live heap bytes per dataset the catalog may hold. Measured: 2 631 with
/// the external pairs in a `BTreeMap` and the variables as the harvester
/// grew them; 1 975 with both at their size; 1 931 once a variable's
/// summary no longer kept Welford's `m2`; 978 once the catalog kept each
/// distinct variable descriptor once (32 here) and a variable became that
/// shared descriptor plus its numbers, 56 bytes. Most of what is left is
/// the catalog's own tree of 248-byte features, the variables and strings.
const BUDGET: usize = 1_053;

const COLUMNS: [(&str, &str); 8] = [
    ("wtemp", "degC"),
    ("airtemp", "degC"),
    ("sal", "psu"),
    ("do_mgl", "mg/l"),
    ("chl", "ug/l"),
    ("turb", "ntu"),
    ("cond", "mS/cm"),
    ("qa_level", "1"),
];
const HEADER: [&str; 4] = ["station", "cruise", "instrument", "principal_investigator"];

/// A feature as the harvester extracts it from one file: `i`'s path, a
/// title and source, a point and a month, 3–8 columns pushed one by one
/// (each with its unit and context), the file's header pairs and its
/// context: 1–5 external pairs in all.
fn harvested(i: usize, rng: &mut Rng) -> DatasetFeature {
    let context = *rng.pick(&["met_station", "ctd", "buoy", "glider"]);
    let mut f = DatasetFeature::new(format!("stations/{context}{:02}/2010/{i:05}.csv", i % 40));
    f.title = format!("{context} {:02} 2010-{:02}", i % 40, i % 12 + 1);
    f.source = Some(format!("{context}{:02}", i % 40));
    let (lat, lon) = (rng.float(44.0, 47.0), rng.float(-125.0, -123.0));
    f.bbox = Some(GeoBBox { min_lat: lat, max_lat: lat, min_lon: lon, max_lon: lon });
    let start = Timestamp(1_262_304_000 + rng.range(0, 365) * 86_400);
    f.time = Some(TimeInterval::new(start, start.plus_days(30)));
    f.record_count = rng.below(4000);
    for key in &HEADER[..rng.size(0, HEADER.len() + 1)] {
        f.external.insert(key.to_string(), format!("{key}-{}", i % 7));
    }
    f.external.insert("context".into(), context.into());
    for (name, unit) in &COLUMNS[..rng.size(3, COLUMNS.len() + 1)] {
        let mut v = VariableFeature::new(*name);
        v.unit = Some(unit.to_string());
        v.context = Some(context.into());
        let lo = rng.float(-5.0, 30.0);
        v.summary.observe(lo);
        v.summary.observe(lo + rng.float(0.5, 20.0));
        v.total_count = f.record_count;
        f.variables.push(v);
    }
    f.provenance.format = "csv".into();
    f.provenance.content_fingerprint = rng.next();
    f.provenance.file_len = f.record_count * 64;
    f
}

#[test]
fn a_held_dataset_costs_its_metadata_not_how_it_was_grown() {
    let mut rng = Rng(43);
    let before = LIVE.load(Ordering::Relaxed);
    let mut catalog = Catalog::new();
    for i in 0..DATASETS {
        catalog.put(harvested(i, &mut rng));
    }
    let held = (LIVE.load(Ordering::Relaxed) - before) as usize / DATASETS;
    assert_eq!(catalog.len(), DATASETS);
    assert!(held <= BUDGET, "{held} live heap bytes per dataset, over the budget of {BUDGET}");
    assert!(catalog.iter().all(|f| f.variables.capacity() == f.variables.len()));
    println!("{held} live heap bytes per dataset held");
}
