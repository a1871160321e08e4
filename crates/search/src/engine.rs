//! The search engine: the catalog cut into shards, the scatter-gather
//! over them, and the generation-stamped result cache.
//!
//! The catalog is hashed into `1..=MAX_SHARDS` shards at build time (see
//! [`ShardSpec`]); each [`ShardEngine`](crate::ShardEngine) owns its own
//! R-tree, interval index, and term postings. A query runs through
//! [`scatter_gather`](crate::fanout::scatter_gather) — the same coordinator
//! the remote shard protocol uses — over the shards in this address space;
//! a shard left with no candidates is never scored at all.
//!
//! # Determinism
//!
//! Results are **bit-identical** at every shard count:
//!
//! * every per-dataset index decision (window membership, term postings)
//!   depends only on the dataset itself, so the union of per-shard
//!   candidate sets equals the unsharded candidate set;
//! * per-shard nearest-neighbour lists are merged under the global total
//!   order `(distance, id)` before admission — exactly the order the
//!   unsharded R-tree emits (see `shard.rs`);
//! * the full-scan fallback fires on the *cross-shard* candidate total,
//!   the same number the unsharded probe would count;
//! * scoring is pure and the rank order `(score desc, path asc)` is a
//!   strict total order, so each shard's top-k holds every global winner
//!   it owns and the merge is independent of the layout.
//!
//! # Result caching
//!
//! Repeated queries against an unchanged catalog are served from the
//! engine's own LRU [`ResultCache`], its entries stamped with the catalog
//! generation captured at build time. Cache hits are allocation-free — the
//! stored `Arc<[SearchHit]>` is cloned by reference count. Use
//! [`ShardedEngine::search_uncached`] to bypass the cache (the benches do,
//! for cold-path measurements).

use crate::browse::{count, BrowseTree};
use crate::cache::{CacheStats, ResultCache, DEFAULT_CACHE_CAPACITY};
use crate::explain::{search_metrics, SearchExplain};
use crate::fanout::{scatter_gather, LocalShards};
use crate::plan::QueryPlan;
use crate::query::Query;
use crate::score::ScoreBreakdown;
use crate::shard::{ShardEngine, ShardSpec};
use metamess_core::catalog::Catalog;
use metamess_core::feature::DatasetFeature;
use metamess_core::id::DatasetId;
use metamess_core::store::{Image, Row};
use metamess_telemetry::{event, trace, Level, Stopwatch};
use metamess_vocab::{Taxonomy, Vocabulary};
use std::sync::Arc;

/// One ranked search result.
///
/// Serializes losslessly (`serde_json` is built with `float_roundtrip`),
/// so a hit that crosses the remote shard protocol deserializes to the
/// bit-identical score the shard computed.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SearchHit {
    /// Dataset id.
    pub id: DatasetId,
    /// Archive-relative path.
    pub path: String,
    /// Dataset title.
    pub title: String,
    /// Combined score in `[0, 1]`.
    pub score: f64,
    /// Per-facet explanation.
    pub breakdown: ScoreBreakdown,
}

/// Cuts datasets (in catalog order) into per-shard member lists, each in
/// catalog order, according to `spec`, each placed by its id (`id_of`).
/// Every engine and every standalone shard is built from this one
/// assignment, so a `shardd` process and the in-process coordinator agree
/// on which datasets shard `k` of `n` holds.
/// Only the shards `keep` admits get their members; the other items are
/// dropped.
pub(crate) fn partition<T>(
    items: impl IntoIterator<Item = T>,
    id_of: impl Fn(&T) -> DatasetId,
    spec: ShardSpec,
    keep: impl Fn(usize) -> bool,
) -> Vec<Vec<T>> {
    let mut members: Vec<Vec<T>> = (0..spec.count()).map(|_| Vec::new()).collect();
    for item in items {
        let s = spec.shard_of(id_of(&item));
        if keep(s) {
            members[s].push(item);
        }
    }
    members
}

/// The historical name: a [`ShardedEngine`] with one shard behaves exactly
/// like the original monolithic engine, so every existing call site keeps
/// working through this alias.
pub type SearchEngine = ShardedEngine;

/// The "Data Near Here" search engine: shard coordinator + result cache.
pub struct ShardedEngine {
    /// Shared with every engine built from the same handle: a server's
    /// epochs hold one vocabulary until its file moves.
    vocab: Arc<Vocabulary>,
    shards: Vec<ShardEngine>,
    spec: ShardSpec,
    /// Total datasets across shards.
    total: usize,
    /// Catalog generation captured at build time; stamps cache entries.
    generation: u64,
    cache: ResultCache,
    /// Use the indexes for candidate generation (true) or score every
    /// dataset (false) — the ablation switch.
    pub use_indexes: bool,
}

impl ShardedEngine {
    /// Builds an unsharded (single-shard) engine over a catalog snapshot.
    pub fn build(catalog: &Catalog, vocab: impl Into<Arc<Vocabulary>>) -> ShardedEngine {
        ShardedEngine::build_sharded(catalog, vocab, ShardSpec::single())
    }

    /// Builds the engine over a catalog snapshot partitioned per `spec`,
    /// encoding every feature into one image: no feature is cloned. The
    /// shard count is clamped to `1..=MAX_SHARDS` regardless of how the
    /// spec was produced.
    pub fn build_sharded(
        catalog: &Catalog,
        vocab: impl Into<Arc<Vocabulary>>,
        spec: ShardSpec,
    ) -> ShardedEngine {
        let image = Arc::new(Image::encode(&catalog.iter().collect::<Vec<_>>()));
        ShardedEngine::from_rows(image.rows().collect(), catalog.generation(), vocab, spec)
    }

    /// The one construction path: `rows` in catalog order (ascending,
    /// unique `DatasetId`), as of catalog generation `generation` — what
    /// [`read_published`](metamess_core::store::read_published) returns. The
    /// engine keeps the rows, sharing their images, and decodes none of them.
    pub fn from_rows(
        rows: Vec<Row>,
        generation: u64,
        vocab: impl Into<Arc<Vocabulary>>,
        spec: ShardSpec,
    ) -> ShardedEngine {
        let vocab = vocab.into();
        debug_assert!(rows.windows(2).all(|w| w[0].id() < w[1].id()), "not in catalog order");
        let total = rows.len();
        let layout = partition(rows, Row::id, spec, |_| true);
        let shards = ShardEngine::build_all(layout, &vocab);
        ShardedEngine {
            vocab,
            shards,
            spec,
            total,
            generation,
            cache: ResultCache::new(DEFAULT_CACHE_CAPACITY),
            use_indexes: true,
        }
    }

    /// Every indexed dataset, still encoded, shard by shard.
    pub fn rows(&self) -> impl Iterator<Item = &Row> {
        self.shards.iter().flat_map(|s| s.rows())
    }

    /// Drill-down menus over the indexed datasets, one per taxonomy of the
    /// engine's vocabulary, counted from the concepts of the variables'
    /// spellings.
    pub fn browse(&self) -> Vec<BrowseTree> {
        let taxonomies: Vec<&Taxonomy> = self.vocab.taxonomies.iter().collect();
        count(&taxonomies, self.shards.iter().flat_map(|s| s.concepts()))
    }

    /// Number of indexed datasets.
    pub fn len(&self) -> usize {
        self.total
    }

    /// True when no datasets are indexed.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The vocabulary the engine expands terms with.
    pub fn vocabulary(&self) -> &Arc<Vocabulary> {
        &self.vocab
    }

    /// The catalog generation this engine (and its cache entries) was built
    /// against.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The shard layout the engine was built with.
    pub fn shard_spec(&self) -> ShardSpec {
        self.spec
    }

    /// Number of shards (always `1..=MAX_SHARDS`).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shards themselves (read-only; for benches and diagnostics).
    pub fn shards(&self) -> &[ShardEngine] {
        &self.shards
    }

    /// The result cache.
    pub fn cache(&self) -> &ResultCache {
        &self.cache
    }

    /// Cumulative cache hit/miss counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The dataset behind a hit, decoded from its row (for summary
    /// rendering and `GET /datasets`).
    pub fn dataset(&self, id: DatasetId) -> Option<DatasetFeature> {
        self.row(id).map(Row::decode)
    }

    /// The row of dataset `id`, as the engine shares it: a binary search of
    /// the rows of the one shard `id` can live in, which are in id order.
    pub fn row(&self, id: DatasetId) -> Option<&Row> {
        let rows = self.shards[self.spec.shard_of(id)].rows();
        rows.binary_search_by_key(&id, Row::id).ok().map(|l| &rows[l])
    }

    /// Prepares a reusable [`QueryPlan`] for a query (vocabulary expansion,
    /// hierarchy walks and normalization happen once here, not per
    /// candidate).
    pub fn plan(&self, query: &Query) -> QueryPlan {
        QueryPlan::prepare(query, &self.vocab)
    }

    /// Canonical cache key: the serialized query plus every engine toggle
    /// that can change the result set (the shard layout cannot — results
    /// are bit-identical across layouts — so it is not part of the key).
    fn cache_key(&self, query: &Query) -> String {
        format!("{}|{}", self.use_indexes, serde_json::to_string(query).expect("query serializes"))
    }

    /// Runs a ranked search, returning at most `query.limit` hits, best
    /// first (ties broken by path for determinism). Served from the result
    /// cache when this exact query was answered before against the same
    /// catalog generation; hits share the cached allocation. A query
    /// [`Query::check`] refuses gets no hits, and is not cached.
    pub fn search(&self, query: &Query) -> Arc<[SearchHit]> {
        self.search_explained(query, None)
    }

    /// Like [`ShardedEngine::search`], additionally reporting where the
    /// time went phase by phase. Phase timing is armed even when telemetry
    /// is globally disabled — the caller asked for it explicitly.
    pub fn search_explain(&self, query: &Query) -> (Arc<[SearchHit]>, SearchExplain) {
        let mut explain = SearchExplain::default();
        let hits = self.search_explained(query, Some(&mut explain));
        (hits, explain)
    }

    fn search_explained(
        &self,
        query: &Query,
        mut explain: Option<&mut SearchExplain>,
    ) -> Arc<[SearchHit]> {
        if query.check().is_err() {
            return Arc::new([]);
        }
        let on = metamess_telemetry::enabled();
        let total = Stopwatch::start_if(on || explain.is_some());
        let key = self.cache_key(query);
        if let Some(hits) = self.cache.get(&key, self.generation) {
            let total_micros = total.micros();
            if on {
                let m = search_metrics();
                m.queries.inc();
                m.cache_hits.inc();
                m.query_micros
                    .record_with_exemplar(total_micros, trace::current_trace_id().unwrap_or(0));
                // A cache hit is still a trace-worthy request: one span
                // explains the (fast) answer.
                trace::record_span("search.cache_hit", total_micros, None);
            }
            event!(Level::Debug, "search", "cache hit: {} hits in {total_micros}µs", hits.len());
            if let Some(ex) = explain {
                ex.cache_hit = true;
                ex.results = hits.len();
                ex.total_micros = total_micros;
            }
            return hits;
        }
        let hits: Arc<[SearchHit]> =
            self.search_uncached_explained(query, explain.as_deref_mut()).into();
        self.cache.put(key, self.generation, hits.clone());
        let total_micros = total.micros();
        if on {
            let m = search_metrics();
            m.queries.inc();
            m.cache_misses.inc();
            m.query_micros
                .record_with_exemplar(total_micros, trace::current_trace_id().unwrap_or(0));
        }
        event!(Level::Debug, "search", "cache miss: {} hits in {total_micros}µs", hits.len());
        if let Some(ex) = explain {
            ex.total_micros = total_micros;
        }
        hits
    }

    /// Runs a ranked search without consulting or filling the result cache
    /// (cold path; used by benches and the cache property tests). A query
    /// [`Query::check`] refuses gets no hits.
    pub fn search_uncached(&self, query: &Query) -> Vec<SearchHit> {
        if query.check().is_err() {
            return Vec::new();
        }
        self.search_uncached_explained(query, None)
    }

    fn search_uncached_explained(
        &self,
        query: &Query,
        mut explain: Option<&mut SearchExplain>,
    ) -> Vec<SearchHit> {
        let on = metamess_telemetry::enabled();
        let timer = Stopwatch::start_if(on || explain.is_some());
        let plan = self.plan(query);
        let plan_micros = timer.micros();
        if on {
            search_metrics().plan_micros.record(plan_micros);
            trace::record_span("search.plan", plan_micros, None);
        }
        if let Some(ex) = explain.as_deref_mut() {
            ex.plan_micros = plan_micros;
            ex.expanded_keys = plan.term_keys.iter().map(|keys| keys.len()).sum();
        }
        self.execute_plan(query, &plan, explain)
    }

    /// Scatter-gather over the shards in this address space, none of which
    /// can fail.
    fn execute_plan(
        &self,
        query: &Query,
        plan: &QueryPlan,
        explain: Option<&mut SearchExplain>,
    ) -> Vec<SearchHit> {
        let local = LocalShards { shards: &self.shards, vocab: &self.vocab, plan };
        match scatter_gather(&local, query, self.use_indexes, explain) {
            Ok(gathered) => gathered.hits,
            Err(never) => match never {},
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::Partitioner;
    use metamess_core::feature::{NameResolution, VariableFeature};
    use metamess_core::geo::{GeoBBox, GeoPoint};
    use metamess_core::time::{TimeInterval, Timestamp};

    fn make_dataset(
        path: &str,
        lat: f64,
        lon: f64,
        month: u32,
        vars: &[(&str, &str, f64, f64)],
    ) -> DatasetFeature {
        let mut d = DatasetFeature::new(path);
        d.title = path.to_string();
        d.bbox = Some(GeoBBox::point(GeoPoint::new(lat, lon).unwrap()));
        d.time = Some(TimeInterval::new(
            Timestamp::from_ymd(2010, month, 1).unwrap(),
            Timestamp::from_ymd(2010, month, 28).unwrap(),
        ));
        for (name, canon, lo, hi) in vars {
            let mut v = VariableFeature::new(*name);
            if !canon.is_empty() {
                v.resolve(*canon, NameResolution::KnownTranslation);
            }
            v.summary.observe(*lo);
            v.summary.observe(*hi);
            d.variables.push(v);
        }
        d
    }

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        // coastal station with cool temperatures in summer
        c.put(make_dataset(
            "coast.csv",
            45.50,
            -124.38,
            6,
            &[("temp", "water_temperature", 5.0, 10.0), ("sal", "salinity", 28.0, 33.0)],
        ));
        // estuary station, warmer
        c.put(make_dataset(
            "estuary.csv",
            46.18,
            -123.18,
            6,
            &[("wtemp", "water_temperature", 14.0, 20.0)],
        ));
        // winter file at the coastal site
        c.put(make_dataset(
            "coast_winter.csv",
            45.50,
            -124.38,
            1,
            &[("temp", "water_temperature", 4.0, 8.0)],
        ));
        // met station nearby
        c.put(make_dataset(
            "met.csv",
            45.52,
            -124.40,
            6,
            &[("airtmp", "air_temperature", 10.0, 22.0)],
        ));
        c
    }

    fn engine() -> SearchEngine {
        SearchEngine::build(&catalog(), Vocabulary::observatory_default())
    }

    /// Two well-separated clusters, big enough that a selective region
    /// query keeps indexed mode (candidates ≥ limit*3) and the `generous`
    /// nearest floor (50) stays inside the matching cluster.
    fn two_cluster_catalog() -> Catalog {
        let mut c = Catalog::new();
        for i in 0..60 {
            c.put(make_dataset(
                &format!("north/{i:02}.csv"),
                46.0 + (i % 10) as f64 * 0.01,
                -124.0,
                1 + (i % 6) as u32,
                &[("temp", "water_temperature", 5.0, 10.0)],
            ));
        }
        for i in 0..60 {
            c.put(make_dataset(
                &format!("south/{i:02}.csv"),
                -44.0 - (i % 10) as f64 * 0.01,
                150.0,
                7 + (i % 6) as u32,
                &[("sal", "salinity", 28.0, 33.0)],
            ));
        }
        c
    }

    #[test]
    fn poster_query_ranks_coastal_summer_first() {
        let e = engine();
        let q = Query::parse(
            "near 45.5,-124.4 within 25km from 2010-05-01 to 2010-08-31 \
             with water_temperature between 5 and 10",
        )
        .unwrap();
        let hits = e.search(&q);
        assert_eq!(hits[0].path, "coast.csv");
        assert!(hits[0].score > 0.9, "{}", hits[0].score);
        // winter file at the same site ranks below (time mismatch)
        let winter_rank = hits.iter().position(|h| h.path == "coast_winter.csv").unwrap();
        assert!(winter_rank > 0);
        // scores strictly ordered
        for w in hits.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn indexed_and_linear_agree_on_ranking() {
        let mut e = engine();
        let q = Query::parse("near 46.0,-123.5 with salinity limit 4").unwrap();
        let indexed = e.search(&q);
        e.use_indexes = false;
        let linear = e.search(&q);
        assert_eq!(
            indexed.iter().map(|h| &h.path).collect::<Vec<_>>(),
            linear.iter().map(|h| &h.path).collect::<Vec<_>>()
        );
        for (a, b) in indexed.iter().zip(linear.iter()) {
            assert!((a.score - b.score).abs() < 1e-12);
        }
    }

    #[test]
    fn sharded_results_bit_identical_to_unsharded() {
        let c = two_cluster_catalog();
        let vocab = Vocabulary::observatory_default();
        let reference = SearchEngine::build(&c, vocab.clone());
        let queries = [
            Query::parse("in 45.9,-124.1..46.2,-123.9 limit 5").unwrap(),
            Query::parse("near 46.0,-124.0 within 10km with water_temperature limit 4").unwrap(),
            Query::parse("from 2010-07-01 to 2010-09-30 with salinity limit 6").unwrap(),
            Query::new(),
        ];
        for shards in [1usize, 2, 4, 8] {
            let spec = ShardSpec::new(shards, Partitioner::Hash);
            let e = SearchEngine::build_sharded(&c, vocab.clone(), spec);
            for q in &queries {
                assert_eq!(e.search_uncached(q), reference.search_uncached(q), "shards={shards}");
            }
        }
    }

    /// Searches `q` over 64 hash shards of the two-cluster catalog — more
    /// shards than its 60 northern datasets — and checks that a query
    /// selecting only the north leaves some south-only shards without a
    /// candidate, that those shards are pruned (not scored) and counted, and
    /// that the answer is still the unsharded one.
    fn assert_north_only_query_prunes_south_shards(q: &str) {
        let c = two_cluster_catalog();
        let vocab = Vocabulary::observatory_default();
        let reference = SearchEngine::build(&c, vocab.clone());
        let e = SearchEngine::build_sharded(&c, vocab, ShardSpec::new(64, Partitioner::Hash));
        let occupied = e.shards().iter().filter(|s| !s.is_empty()).count();
        let q = Query::parse(q).unwrap();
        let (hits, ex) = e.search_explain(&q);
        assert!(!ex.full_scan, "the north must satisfy limit*3 from the indexes: {q:?}");
        assert_eq!(ex.shards, 64);
        assert!(ex.shards_pruned >= 1, "{q:?}: {ex:?}");
        assert_eq!(ex.shards_visited + ex.shards_pruned, occupied, "{q:?}");
        assert!(ex.pruned_datasets >= ex.shards_pruned, "{q:?}: {ex:?}");
        assert!(hits.iter().all(|h| h.path.starts_with("north/")), "{q:?}");
        assert_eq!(hits[..], reference.search_uncached(&q)[..], "{q:?}");
    }

    #[test]
    fn spatial_partitioning_prunes_far_shards() {
        // a selective region query over the north cluster only
        assert_north_only_query_prunes_south_shards("in 45.9,-124.1..46.2,-123.9 limit 5");
    }

    #[test]
    fn temporal_partitioning_prunes_off_window_shards() {
        // the south cluster holds months 7..=12; a window over the start of
        // the year (plus the 1-window pad) only reaches northern datasets
        assert_north_only_query_prunes_south_shards("from 2010-01-01 to 2010-02-15 limit 5");
    }

    #[test]
    fn build_sharded_clamps_shard_count() {
        let c = catalog();
        let vocab = Vocabulary::observatory_default();
        let e =
            SearchEngine::build_sharded(&c, vocab.clone(), ShardSpec::new(0, Partitioner::Hash));
        assert_eq!(e.shard_count(), 1);
        let e = SearchEngine::build_sharded(&c, vocab, ShardSpec::new(100_000, Partitioner::Hash));
        assert_eq!(e.shard_count(), crate::shard::MAX_SHARDS);
        // more shards than datasets → most shards empty, still correct
        assert_eq!(e.len(), 4);
        assert!(!e.search(&Query::parse("with salinity").unwrap()).is_empty());
    }

    #[test]
    fn repeated_query_served_from_cache() {
        let e = engine();
        let q = Query::parse("with salinity limit 3").unwrap();
        let first = e.search(&q);
        assert_eq!(e.cache_stats().misses, 1);
        let second = e.search(&q);
        assert_eq!(first, second);
        assert_eq!(e.cache_stats().hits, 1);
        // cache hits share one allocation — no per-hit clone of the list
        assert!(Arc::ptr_eq(&first, &second), "hit must reuse the cached allocation");
        // the cached list equals a fresh rescore
        assert_eq!(e.search_uncached(&q)[..], second[..]);
    }

    #[test]
    fn cache_distinguishes_ablation_switch() {
        let mut e = engine();
        let q = Query::parse("with salinity limit 3").unwrap();
        let _ = e.search(&q);
        e.use_indexes = false;
        let _ = e.search(&q);
        // both runs missed: the ablation switch is part of the cache key
        assert_eq!(e.cache_stats().misses, 2);
        assert_eq!(e.cache_stats().hits, 0);
    }

    #[test]
    fn synonym_query_finds_resolved_variable() {
        let e = engine();
        // "wtemp" is a curated alternate of water_temperature
        let q = Query::parse("with wtemp").unwrap();
        let hits = e.search(&q);
        assert!(hits[0].score > 0.8);
        assert!(hits.iter().take(3).any(|h| h.path == "estuary.csv"));
    }

    #[test]
    fn limit_respected() {
        let e = engine();
        let q = Query::parse("with water_temperature limit 2").unwrap();
        assert_eq!(e.search(&q).len(), 2);
    }

    #[test]
    fn empty_engine() {
        let e = SearchEngine::build(&Catalog::new(), Vocabulary::observatory_default());
        assert!(e.is_empty());
        assert!(e.search(&Query::parse("with salinity").unwrap()).is_empty());
        // sharded over nothing is equally fine
        let e = SearchEngine::build_sharded(
            &Catalog::new(),
            Vocabulary::observatory_default(),
            ShardSpec::new(8, Partitioner::Hash),
        );
        assert!(e.search(&Query::parse("with salinity").unwrap()).is_empty());
    }

    #[test]
    fn empty_query_returns_zero_scores() {
        let e = engine();
        let hits = e.search(&Query::new());
        assert!(!hits.is_empty());
        assert!(hits.iter().all(|h| h.score == 0.0));
    }

    #[test]
    fn breakdown_explains_facets() {
        let e = engine();
        let q = Query::parse("near 45.5,-124.4 with water_temperature").unwrap();
        let hits = e.search(&q);
        let b = &hits[0].breakdown;
        assert!(b.space.is_some());
        assert!(b.time.is_none()); // no time clause
        assert!(b.variables.is_some());
        assert_eq!(b.variable_matches.len(), 1);
        assert!(b.variable_matches[0].1.is_some());
    }

    #[test]
    fn explain_reports_phases_and_cache_outcome() {
        let e = engine();
        let q = Query::parse("with salinity limit 3").unwrap();
        let (hits, ex) = e.search_explain(&q);
        assert!(!ex.cache_hit);
        assert_eq!(ex.results, hits.len());
        assert!(ex.full_scan, "tiny catalog cannot fill limit*3 from indexes");
        assert_eq!(ex.candidates, e.len());
        assert_eq!(ex.shards, 1);
        assert_eq!(ex.shards_visited, 1);
        assert_eq!(ex.shards_pruned, 0);
        // same query again: served from cache, no phases
        let (again, ex2) = e.search_explain(&q);
        assert!(ex2.cache_hit);
        assert_eq!(again, hits);
        assert_eq!(ex2.results, hits.len());
        assert_eq!((ex2.candidates, ex2.probe_micros), (0, 0));
        // explained and plain searches agree
        assert_eq!(e.search(&q), hits);
    }

    #[test]
    fn dataset_decodes_the_feature_that_was_published() {
        use metamess_core::store::{read_published, DurableCatalog, StoreOptions};
        let dir = std::env::temp_dir().join(format!("metamess-engine-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut c = catalog();
        c.get_mut(DatasetId::from_path("met.csv"))
            .unwrap()
            .external
            .insert("pi".into(), "M".into());
        let mut store = DurableCatalog::open(&dir, StoreOptions::default()).unwrap();
        store.replace_with(&c).unwrap();
        store.checkpoint().unwrap();
        // one more past the snapshot: a row of an image of its own
        let late = make_dataset("late.csv", 45.0, -124.0, 3, &[("sal", "salinity", 1.0, 2.0)]);
        store.put(late.clone()).unwrap();
        store.flush().unwrap();
        drop(store);
        c.put(late);
        let published = read_published(&dir).unwrap();
        let spec = ShardSpec::new(3, Partitioner::Hash);
        let vocab = Vocabulary::observatory_default();
        let e = SearchEngine::from_rows(published.rows, published.generation, vocab, spec);
        assert_eq!(e.len(), c.len());
        for d in c.iter() {
            assert_eq!(e.dataset(d.id).as_ref(), Some(d), "{}", d.path);
            assert_eq!(e.row(d.id).map(Row::id), Some(d.id));
        }
        assert!(e.dataset(DatasetId::from_path("no/such/file.csv")).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dataset_lookup_by_hit_id() {
        let e = SearchEngine::build_sharded(
            &catalog(),
            Vocabulary::observatory_default(),
            ShardSpec::new(3, Partitioner::Hash),
        );
        let q = Query::parse("with salinity").unwrap();
        let hits = e.search(&q);
        let d = e.dataset(hits[0].id).unwrap();
        assert_eq!(d.path, hits[0].path);
        assert!(e.dataset(DatasetId::from_path("no/such/file.csv")).is_none());
    }
}
