//! What a search engine holds per dataset, in live heap bytes, beside the
//! store image it indexes.
//!
//! The catalog is shaped like the benchmark's synthetic one: datasets
//! clustered around 256 regions, a point each or a glider's box, a month
//! window (a few days for a cast), 3–5 variables of their platform's
//! vocabulary terms and two sensor names the vocabulary does not know. It
//! is published, read back as the rows of one snapshot image, and indexed
//! in two shards, as `metamess serve --shards 2` does. The engine's answers
//! are checked against the reference search, so the budget holds for an
//! engine that is right, and its score bounds must spare it some of the
//! exact scores. A release build checks all of its queries; a debug build,
//! where the reference's scoring of 20 000 datasets a query is most of the
//! test's time, checks the first `DEBUG_QUERIES`.
//!
//! The counting allocator is process-global, so this file is its own test
//! binary and holds one test: nothing else allocates in the window.

mod common;

use common::{assert_bit_equal, reference_search, Rng};
use metamess_core::catalog::Catalog;
use metamess_core::feature::{DatasetFeature, NameResolution, VariableFeature};
use metamess_core::geo::GeoBBox;
use metamess_core::store::{read_published, DurableCatalog, Row, StoreOptions};
use metamess_core::time::{TimeInterval, Timestamp};
use metamess_search::{Partitioner, Query, SearchEngine, ShardSpec};
use metamess_vocab::Vocabulary;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::Arc;

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

const DATASETS: usize = 20_000;
const QUERIES: usize = 50;
const DEBUG_QUERIES: usize = 10;

/// Live heap bytes per dataset the engine may hold, its store image
/// excluded. Measured at this shape: 479 when each shard also kept every
/// path, a global index per member and an id map, its postings as one
/// growable vector per term, its R-tree as a vector of 40-byte items per
/// leaf and its interval index a copy of every interval; 270 once the row
/// is the one copy of a member's id and path, a posting past 1/32 of the
/// shard's rows is a bitmap and the rest lie exact-size in one arena, and
/// the two indexes keep only an order over the extents. Of the 270, the
/// variable keys are 144, the extents 64, the rows 16 and the postings 14.
/// The budget is 0.62 of the first figure.
const BUDGET: usize = 296;

const REGIONS: u64 = 256;
const MONTHS: u64 = 240;
const RARE_NAMES: u64 = 400;

/// `(platform, its vocabulary terms as (harvested, canonical))`.
const PLATFORMS: &[(&str, &[(&str, &str)])] = &[
    (
        "buoy",
        &[
            ("wtemp", "water_temperature"),
            ("salinity", "salinity"),
            ("spcond", "specific_conductivity"),
            ("oxygen", "dissolved_oxygen"),
            ("chl_fluor", "chlorophyll_fluorescence"),
            ("turbidity", "turbidity"),
            ("no3", "nitrate"),
        ],
    ),
    (
        "met_station",
        &[
            ("atemp", "air_temperature"),
            ("wspd", "wind_speed"),
            ("wdir", "wind_direction"),
            ("baro", "air_pressure"),
            ("rh", "relative_humidity"),
            ("par", "photosynthetically_active_radiation"),
        ],
    ),
    (
        "ctd",
        &[
            ("t_water", "water_temperature"),
            ("sal", "salinity"),
            ("pressure", "water_pressure"),
            ("depth", "depth"),
            ("do", "dissolved_oxygen"),
            ("chla", "chlorophyll_a"),
        ],
    ),
    (
        "glider",
        &[
            ("sst", "sea_surface_temperature"),
            ("sal", "salinity"),
            ("u", "water_velocity_east"),
            ("v", "water_velocity_north"),
            ("swh", "significant_wave_height"),
        ],
    ),
];

fn month_start(month: u64) -> Timestamp {
    Timestamp::from_ymd(2000 + (month / 12) as i64, (month % 12) as u32 + 1, 1).unwrap()
}

/// What a query needs to know of a dataset to aim at it.
struct Anchor {
    lat: f64,
    lon: f64,
    month: u64,
    terms: Vec<(String, f64, f64)>,
    rare: [String; 2],
}

fn variable(name: &str, lo: f64, hi: f64) -> VariableFeature {
    let mut v = VariableFeature::new(name);
    v.summary.observe(lo);
    v.summary.observe(hi);
    v
}

/// Dataset `i`, drawn as the benchmark draws its synthetic ones.
fn dataset(i: usize, rng: &mut Rng, vocab: &Vocabulary) -> (DatasetFeature, Anchor) {
    let region = rng.below(REGIONS);
    let (a, b) = ((region as f64 * 0.754_877_666) % 1.0, (region as f64 * 0.569_840_29) % 1.0);
    let lat = 30.0 + 30.0 * a + rng.float(-0.5, 0.5);
    let lon = -170.0 + 50.0 * b + rng.float(-0.5, 0.5);
    let (platform, pool) = *rng.pick(PLATFORMS);
    let month = rng.below(MONTHS);
    let days = if platform == "ctd" { rng.range(1, 4) } else { 28 };
    let mut d = DatasetFeature::new(format!("synth/r{region:03}/{platform}/{i:07}.csv"));
    d.title = format!("{platform} r{region:03} {month}");
    let half = if platform == "glider" { rng.float(0.02, 0.3) } else { 0.0 };
    d.bbox = GeoBBox::new(lat - half, lat + half, lon - half, lon + half).ok();
    d.time = Some(TimeInterval::new(month_start(month), month_start(month).plus_days(days)));
    let first = rng.size(0, pool.len());
    let mut terms = Vec::new();
    for k in 0..rng.size(3, 6) {
        let (harvested, canonical) = pool[(first + k) % pool.len()];
        let lo = rng.float(-5.0, 30.0);
        let hi = lo + rng.float(0.5, 20.0);
        let mut v = variable(harvested, lo, hi);
        v.resolve(canonical, NameResolution::KnownTranslation);
        v.hierarchy = vocab.hierarchy_of(canonical);
        v.context = Some(platform.to_string());
        d.variables.push(v);
        terms.push((harvested.to_string(), lo, hi));
    }
    let rare =
        ["sensor", "probe"].map(|family| format!("{family}_{:03}_raw", rng.below(RARE_NAMES)));
    for name in &rare {
        d.variables.push(variable(name, 0.0, rng.float(1.0, 1000.0)));
    }
    (d, Anchor { lat, lon, month, terms, rare })
}

/// A query aimed at a dataset: near it, about its month, one of its
/// vocabulary terms (by its harvested name) or one of its sensor names, and
/// its other sensor name; every fifth a term alone.
fn query(rng: &mut Rng, anchors: &[Anchor]) -> Query {
    let a = rng.pick(anchors);
    let q = Query::new().limit(rng.size(1, 21));
    let (name, lo, hi) = match rng.below(3) {
        0 => (a.rare[0].clone(), 0.0, 1000.0),
        _ => a.terms[rng.size(0, a.terms.len())].clone(),
    };
    if rng.below(5) == 0 {
        return q.with_variable(name, None);
    }
    let first = month_start(a.month.saturating_sub(rng.below(2)));
    let pad = rng.float(0.0, 2.0);
    q.near(a.lat + rng.float(-0.2, 0.2), a.lon + rng.float(-0.2, 0.2), rng.float(10.0, 40.0))
        .unwrap()
        .between(first, first.plus_days(rng.range(20, 70)))
        .with_variable(name, Some((lo - pad, hi + pad)))
        .with_variable(a.rare[1].clone(), None)
}

#[test]
fn an_indexed_dataset_costs_its_columns_not_copies_of_its_row() {
    let vocab = Arc::new(Vocabulary::observatory_default());
    let mut rng = Rng(53);
    let mut catalog = Catalog::new();
    let mut anchors = Vec::with_capacity(DATASETS);
    for i in 0..DATASETS {
        let (d, anchor) = dataset(i, &mut rng, &vocab);
        catalog.put(d);
        anchors.push(anchor);
    }
    let dir = std::env::temp_dir().join(format!("metamess-engine-budget-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = DurableCatalog::open(&dir, StoreOptions::default()).unwrap();
    store.replace_with(&catalog).unwrap();
    store.checkpoint().unwrap();
    drop(store);
    let published = read_published(&dir).unwrap();
    assert_eq!(published.rows.len(), DATASETS);

    // the engine's own bytes: what it allocates and keeps, less the row
    // vector it takes and frees
    let spec = ShardSpec::new(2, Partitioner::Hash);
    let taken = published.rows.capacity() * std::mem::size_of::<Row>();
    let before = LIVE.load(Ordering::Relaxed);
    let engine = SearchEngine::from_rows(published.rows, published.generation, vocab.clone(), spec);
    let held = (LIVE.load(Ordering::Relaxed) - before) as usize + taken;
    let per_dataset = held / DATASETS;
    println!("{per_dataset} live heap bytes per dataset held by the engine");
    assert_eq!(engine.len(), DATASETS);
    assert!(
        per_dataset <= BUDGET,
        "{per_dataset} live heap bytes per dataset, over the budget of {BUDGET}"
    );

    let queries = if cfg!(debug_assertions) { DEBUG_QUERIES } else { QUERIES };
    let (mut candidates, mut scored) = (0, 0);
    for n in 0..queries {
        let q = query(&mut rng, &anchors);
        let want = reference_search(&catalog, &vocab, &q);
        let what = format!("query {n}: {q:?}");
        assert_bit_equal(&engine.search_uncached(&q), &want, &what);
        let (hits, explain) = engine.search_explain(&q);
        assert_bit_equal(&hits, &want, &what);
        assert_bit_equal(&engine.search(&q), &want, &what);
        candidates += explain.candidates;
        scored += explain.scored;
    }
    assert_eq!(engine.cache_stats().hits as usize, queries);
    println!("{scored} of {candidates} candidates scored");
    assert!(scored < candidates, "{scored} of {candidates} candidates scored: nothing was bounded");
    let _ = std::fs::remove_dir_all(&dir);
}
