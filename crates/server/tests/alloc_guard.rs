//! Allocation budget for the request hot path (`alloc-guard` feature,
//! on by default).
//!
//! The event-loop refactor's zero-allocation story — interned vocabulary
//! keys, a ranking pass that allocates nothing per candidate,
//! pre-serialized response fragments — is easy to regress one
//! `format!` at a time. This test pins it down: a warm keep-alive
//! `POST /search` must stay under a fixed small allocation budget, both
//! on a result-cache hit and on a full cold scoring pass. Opening an
//! engine has a budget too, per dataset: its index and menus resolve each
//! distinct variable spelling once, not each variable. So do a publish and
//! the writer's open: the writer keeps encoded rows, not features. A poll
//! that finds a live writer's put reads the store under the open's budget:
//! it keeps the serving vocabulary, and the full result cache it leaves
//! behind costs it nothing.
//!
//! The whole check lives in ONE test function: the counting allocator is
//! process-global, so a second test running concurrently would bleed its
//! allocations into the measured window.

#![cfg(feature = "alloc-guard")]

use metamess_core::store::read_published;
use metamess_core::{Catalog, DatasetFeature, DurableCatalog, StoreOptions, VariableFeature};
use metamess_search::{Query, SearchEngine, ShardSpec};
use metamess_server::{handle, ReloadOutcome, Request, ServeState};
use metamess_vocab::Vocabulary;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Counts heap allocations while `ARMED`; delegates everything to the
/// system allocator. The flags are plain statics (not thread-locals): the
/// measured work runs on this test's thread, and `GlobalAlloc` impls must
/// not touch thread-local state during TLS teardown anyway.
struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` with the allocation counter armed; returns its heap
/// allocation count alongside the result.
fn counting<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCS.store(0, Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
    let out = f();
    ARMED.store(false, Ordering::Relaxed);
    (out, ALLOCS.load(Ordering::Relaxed))
}

/// A few hundred datasets with ranged numeric variables: enough that a cold
/// scoring pass does real work.
fn fixture_datasets() -> impl Iterator<Item = DatasetFeature> {
    (0..240usize).map(|i| {
        let mut d = DatasetFeature::new(format!("2014/{:02}/station{:03}_ctd.csv", i % 12 + 1, i));
        let mut temp = VariableFeature::new("water_temperature");
        temp.summary.observe(4.0 + (i % 20) as f64);
        temp.summary.observe(9.0 + (i % 20) as f64);
        d.variables.push(temp);
        if i % 2 == 0 {
            let mut sal = VariableFeature::new("salinity");
            sal.summary.observe(28.0 + (i % 7) as f64 / 2.0);
            sal.summary.observe(34.0);
            d.variables.push(sal);
        }
        d
    })
}

/// The fixture datasets in a store, put one by one and checkpointed.
fn fixture_store() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("metamess-allocguard-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut store = DurableCatalog::open(dir.join("catalog"), StoreOptions::default()).unwrap();
    for d in fixture_datasets() {
        store.put(d).unwrap();
    }
    store.checkpoint().unwrap();
    drop(store);
    dir
}

fn search_request(body: &str) -> Request {
    Request {
        method: "POST".to_string(),
        path: "/search".to_string(),
        query: BTreeMap::new(),
        headers: vec![("host".to_string(), "test".to_string())],
        body: body.as_bytes().to_vec(),
        http10: false,
    }
}

/// Ceilings with headroom — the point is the order of magnitude. Before the
/// zero-allocation pass, a 240-dataset scoring run materialized a
/// `SearchHit` (id + path + title strings + breakdown) per candidate:
/// thousands of allocations. These budgets only fit the refactored path
/// (parse the JSON body, rank every candidate into a bounded top-k of
/// `(score, index)` pairs, materialize ≤ limit survivors from the shard's
/// own columns, render one response). The cold pass measures 126: one memo
/// of the query terms' name tiers per shard, none per candidate or per hit
/// (125 before the memo). It measured 285 while each hit re-resolved its
/// dataset's variable names against the vocabulary. The fixture has no
/// extents, so this query walks no R-tree or interval index; with extents,
/// a `near` query measured 157 when each probe collected into a vector of
/// its own and 153 appending straight to the shard's candidate list.
const CACHE_HIT_BUDGET: u64 = 200;
const COLD_SCORING_BUDGET: u64 = 200;

/// Reading the store, building an engine over what it returned and its
/// browse menus, per dataset: 318 allocations over the fixture's 240
/// datasets (1.3 each) with every row kept encoded and each spelling
/// numbered once; 1 640 (6.8 each) when the read decoded each row into a
/// `DatasetFeature` of its own strings; 309 once a shard kept no paths,
/// no id map and its postings in two arenas (311 just before). One
/// allocation per dataset would need at most 240, so the budget stays 2.
const OPEN_BUDGET_PER_DATASET: u64 = 2;

/// A publish — the writer's open of a fresh store, `replace_with`, a
/// checkpoint — per dataset: 78 allocations over the 240 datasets (0.3
/// each) with the catalog encoded once, as the snapshot the writer then
/// holds its rows from; 1 538 (6.4 each) when each dataset was logged as a
/// put image of its own and a checkpoint transcoded them all, and 1 895
/// (7.9 each) when the writer cloned every feature into a catalog of its own.
const PUBLISH_BUDGET_PER_DATASET: u64 = 1;

/// The writer's open of the published store, per dataset: 80 allocations
/// (0.3 each) keeping the rows it checked; 1 160 (4.8 each) when it decoded
/// every row.
const WRITER_OPEN_BUDGET_PER_DATASET: u64 = 1;

#[test]
fn warm_keep_alive_search_stays_within_allocation_budget() {
    // Instrumentation is not part of the budget: benchmarks and latency-
    // sensitive deployments run with telemetry off, and counter updates
    // would otherwise dominate the measurement.
    metamess_telemetry::global().set_enabled(false);

    let dir = fixture_store();
    let state = ServeState::open(&dir).expect("open store");

    // Warm everything a keep-alive connection would have warmed: real
    // scoring passes (the distinct limits dodge the result cache) and one
    // cached entry for the repeated query.
    for limit in [7usize, 8, 9] {
        let req = search_request(&format!(r#"{{"q":"with water_temperature","limit":{limit}}}"#));
        let (_, resp) = handle(&state, &req);
        assert_eq!(resp.status, 200);
    }
    let repeated = search_request(r#"{"q":"with water_temperature"}"#);
    let (_, resp) = handle(&state, &repeated);
    assert_eq!(resp.status, 200);

    // Scenario 1: the steady state — a repeated query answered from the
    // generation-stamped result cache.
    let (resp, hit_allocs) = counting(|| handle(&state, &repeated).1);
    assert_eq!(resp.status, 200);
    assert!(
        hit_allocs <= CACHE_HIT_BUDGET,
        "cache-hit /search made {hit_allocs} heap allocations (budget {CACHE_HIT_BUDGET})"
    );

    // Scenario 2: a cache miss over the full catalog — the scoring pass
    // itself must not allocate per candidate (only per-query setup and
    // the ≤ limit materialized hits may).
    let cold = search_request(r#"{"q":"with salinity"}"#);
    let (resp, cold_allocs) = counting(|| handle(&state, &cold).1);
    assert_eq!(resp.status, 200);
    assert!(
        cold_allocs <= COLD_SCORING_BUDGET,
        "cold /search made {cold_allocs} heap allocations (budget {COLD_SCORING_BUDGET})"
    );

    // Scenario 3: with telemetry disabled the tracing layer is not merely
    // cheap but allocation-FREE — begin/span/end on a request-shaped trace
    // must never touch the heap, so `METAMESS_TELEMETRY=0` deployments pay
    // nothing for the instrumentation points threaded through the hot path.
    use metamess_telemetry::{trace, TraceContext};
    // Warm-up outside the counted window: first call may lazily seed the
    // per-thread id generator.
    let _ = TraceContext::start(1.0);
    let ((), trace_allocs) = counting(|| {
        for _ in 0..16 {
            let ctx = TraceContext::start(1.0);
            let tracing = trace::begin(&ctx, "request");
            assert!(!tracing, "trace::begin must refuse while telemetry is disabled");
            trace::record_span("search.plan", 1, None);
            trace::note_shards(1, 0);
            assert!(trace::end(0).is_none());
        }
    });
    assert_eq!(
        trace_allocs, 0,
        "disabled tracing made {trace_allocs} heap allocations (must be zero)"
    );

    // Scenario 4: the whole open — `read_published`, the engine over the
    // rows it returned, the browse menus — over the fixture's 240 datasets,
    // whose 360 variables share 2 spellings. What is left per dataset is its
    // index entries; a decoded feature per dataset does not fit, nor does a
    // key walk per variable.
    let vocab = Vocabulary::observatory_default();
    let ((datasets, trees), open_allocs) = counting(|| {
        let published = read_published(dir.join("catalog")).expect("read the store");
        let spec = ShardSpec::single();
        let engine = SearchEngine::from_rows(published.rows, published.generation, vocab, spec);
        (engine.len() as u64, engine.browse())
    });
    assert_eq!(datasets, 240);
    assert!(trees.iter().any(|t| t.total() == datasets as usize));
    assert!(
        open_allocs <= OPEN_BUDGET_PER_DATASET * datasets,
        "opening a store of {datasets} datasets made {open_allocs} heap allocations \
         (budget {OPEN_BUDGET_PER_DATASET} per dataset)"
    );

    // Scenario 5: a publish — the writer's open of a fresh store, the
    // fixture catalog written as one snapshot, a checkpoint with nothing to
    // fold — encodes each dataset once and clones no feature.
    let mut catalog = Catalog::new();
    fixture_datasets().for_each(|d| catalog.put(d));
    let published = dir.join("published");
    let ((), publish_allocs) = counting(|| {
        let mut store = DurableCatalog::open(&published, StoreOptions::default()).unwrap();
        store.replace_with(&catalog).unwrap();
        store.checkpoint().unwrap();
    });
    assert!(
        publish_allocs <= PUBLISH_BUDGET_PER_DATASET * datasets,
        "publishing {datasets} datasets made {publish_allocs} heap allocations \
         (budget {PUBLISH_BUDGET_PER_DATASET} per dataset)"
    );

    // Scenario 6: the writer's open of that store checks its rows and keeps
    // them; it decodes none.
    let (reopened, writer_open_allocs) =
        counting(|| DurableCatalog::open(&published, StoreOptions::default()).unwrap());
    assert!(reopened.catalog().iter().eq(catalog.iter()));
    assert!(
        writer_open_allocs <= WRITER_OPEN_BUDGET_PER_DATASET * datasets,
        "the writer's open of {datasets} datasets made {writer_open_allocs} heap allocations \
         (budget {WRITER_OPEN_BUDGET_PER_DATASET} per dataset)"
    );

    // Scenario 7: the poll after a live writer's one put, over the fixture
    // store while 32 distinct queries sit in the result cache. It reads the
    // store as an open does and shares the serving epoch's vocabulary: 329
    // allocations over the 240 datasets (1.4 each), where laying the WAL
    // tail over the serving rows made 1 093 (777 of them a copy of the
    // vocabulary).
    for limit in 1..=32 {
        let q = Query::parse(&format!("with water_temperature limit {limit}")).unwrap();
        state.epoch().engine.search(&q);
    }
    let mut writer = DurableCatalog::open(dir.join("catalog"), StoreOptions::default()).unwrap();
    let mut late = DatasetFeature::new("2015/01/station240_ctd.csv");
    late.variables.push(VariableFeature::new("water_temperature"));
    writer.put(late).unwrap();
    writer.flush().unwrap();
    drop(writer);
    let (outcome, poll_allocs) = counting(|| state.poll_reload().unwrap());
    assert!(matches!(outcome, ReloadOutcome::Reloaded { .. }), "{outcome:?}");
    assert!(
        poll_allocs <= OPEN_BUDGET_PER_DATASET * datasets,
        "the poll after a one-put publish over {datasets} datasets made {poll_allocs} heap \
         allocations (budget {OPEN_BUDGET_PER_DATASET} per dataset)"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
