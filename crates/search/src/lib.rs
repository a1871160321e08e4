//! # metamess-search
//!
//! "Data Near Here": ranked similarity search over the metadata catalog —
//! query model and text query language, distance-based scoring over
//! location/time/variables with vocabulary expansion, a static R-tree and
//! interval index for candidate generation, and the text renderings of the
//! poster's search-interface and dataset-summary figures.
//!
//! ## Sharding, top-k, and caching
//!
//! * The catalog is hashed into shards at build time ([`ShardSpec`]): each
//!   [`ShardEngine`] has its own indexes. One coordinator,
//!   [`fanout::scatter_gather`], probes the shards, skips scoring those left
//!   without candidates, and merges per-shard results — bit-identical to
//!   the unsharded engine at any shard count. Where the
//!   shards live is behind [`fanout::ShardBackend`]: in this address space
//!   for [`ShardedEngine`], in `metamess shardd` processes for crate
//!   `metamess-remote`.
//! * [`QueryPlan`] precomputes vocabulary expansion, hierarchy walks and
//!   term normalization once per query (shared between candidate generation
//!   and scoring via `Vocabulary::expand_keys` / `canonical_keys`).
//! * One scoring routine ranks and explains: a variable is a spelling id
//!   into its build's spelling table plus a value range, and each query
//!   term's name tier against a spelling is worked out once per query and
//!   shard, then read back for every variable carrying it. Candidates are
//!   scored into a bounded per-shard top-k heap of light `(score, local
//!   index)` pairs — O(n log k) instead of sorting every scored hit; only
//!   each shard's `≤ limit` survivors are materialized into [`SearchHit`]s,
//!   by the same routine filling a [`ScoreBreakdown`] from the same keys.
//!   The rank order `(score desc, path asc)` is a strict total order, so
//!   the merged result does not depend on the layout.
//! * A shard holds each dataset as the encoded row of a store image
//!   ([`metamess_core::store::Row`]) and builds its columns — extents and
//!   variable keys — from the rows' views; a hit's id, path and title are
//!   read from its row, and no `DatasetFeature` is decoded to build or to
//!   search. One is decoded only for [`ShardedEngine::dataset`]. The R-tree
//!   and interval index keep an order over the extents, not copies of them,
//!   and a term past 1/32 of a shard's rows is a bitmap.
//! * A generation-stamped LRU [`ResultCache`] serves repeated queries
//!   against an unchanged published catalog without rescoring; entries are
//!   stale simply by the catalog generation moving, and each engine owns
//!   its cache; hit/miss counters are exposed for the benches.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod browse;
mod cache;
mod engine;
mod explain;
pub mod fanout;
mod interval;
mod plan;
mod postings;
mod query;
mod rtree;
mod score;
mod shard;
mod summary;
mod topk;

pub use browse::{browse_all, browse_taxonomy, BrowseNode, BrowseTree};
pub use cache::{CacheStats, ResultCache, DEFAULT_CACHE_CAPACITY};
pub use engine::{SearchEngine, SearchHit, ShardedEngine};
pub use explain::SearchExplain;
pub use fanout::{ProbeSummary, ScoreWork};
pub use interval::IntervalIndex;
pub use plan::QueryPlan;
pub use query::{Query, SpatialTerm, VariableTerm, Weights, MAX_LIMIT};
pub use rtree::RTree;
pub use score::{score_dataset_prepared, PreparedTerm, ScoreBreakdown};
pub use shard::{clamp_shards, Partitioner, ShardEngine, ShardSpec, MAX_SHARDS};
pub use summary::{render_results, render_summary};

// Compile-time thread-safety contract: the HTTP server shares one
// `SearchEngine` (and its `ResultCache`) across worker threads behind an
// `Arc`. If a refactor ever introduces a non-`Send`/`Sync` field (an `Rc`,
// a `RefCell`, a raw pointer), this fails to build here — in the crate that
// owns the type — rather than as a confusing trait-bound error in the
// server, or worse, at runtime.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SearchEngine>();
    assert_send_sync::<ShardEngine>();
    assert_send_sync::<ResultCache>();
    assert_send_sync::<SearchHit>();
    assert_send_sync::<SearchExplain>();
};
