//! Payload types for the shard protocol — the JSON documents inside
//! [`frame`](crate::frame) frames.
//!
//! The protocol is deliberately **stateless and two-phase**, mirroring
//! the in-process coordinator exactly:
//!
//! 1. **Hello / HelloOk** (once per connection-set): the shardd
//!    identifies which shard of how many it hosts, at which catalog
//!    generation, and how many datasets it holds. The coordinator
//!    validates the fleet covers `0..n` exactly once at one generation.
//! 2. **Probe / ProbeOk**: the coordinator sends the [`Query`]; the
//!    shardd prepares its own `QueryPlan` against its own vocabulary
//!    (vocabularies are part of the store, so both sides hold the same
//!    one) and returns the [`ProbeSummary`].
//! 3. **Score / ScoreOk**: after replaying the global admission from all
//!    summaries, the coordinator tells each shard exactly what to score
//!    ([`ScoreWork`]); the shardd returns its top-`limit`
//!    [`SearchHit`]s and how many candidates it scored exactly.
//!
//! Every response carries the shardd's catalog generation; the
//! coordinator rejects a mid-query publish as a conflict rather than
//! silently merging hits from two different catalogs.

use metamess_search::fanout::{ProbeSummary, ScoreWork};
use metamess_search::{Query, SearchHit};
use serde::{Deserialize, Serialize};

/// Coordinator → shardd: identify yourself.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HelloRequest {}

/// Shardd → coordinator: who I am.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HelloResponse {
    /// Which shard of the layout this process hosts (`0..shard_count`).
    pub shard_id: u32,
    /// Total shards in the layout.
    pub shard_count: u32,
    /// Catalog generation the hosted engine was built against.
    pub generation: u64,
    /// Datasets in this shard.
    pub datasets: u64,
}

/// Coordinator → shardd: probe this query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProbeRequest {
    /// The query (the shardd prepares its own plan from it).
    pub query: Query,
}

/// Shardd → coordinator: probe outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProbeResponse {
    /// Catalog generation at probe time.
    pub generation: u64,
    /// The shard's candidates and nearest lists.
    pub summary: ProbeSummary,
}

/// Coordinator → shardd: score this work.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScoreRequest {
    /// The query again (connections are stateless between phases).
    pub query: Query,
    /// What to score, as decided by the global admission.
    pub work: ScoreWork,
}

/// Shardd → coordinator: scored hits.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScoreResponse {
    /// Catalog generation at score time.
    pub generation: u64,
    /// This shard's top-`limit` hits, best first.
    pub hits: Vec<SearchHit>,
    /// Candidates the shard scored exactly to find them.
    pub scored: u64,
}

/// Shardd → coordinator: the request failed (carried in an `Error`
/// frame).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireError {
    /// Human-readable failure description.
    pub message: String,
}
