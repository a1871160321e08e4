//! Per-query phase breakdown (`--explain`) and the search crate's
//! telemetry handles.
//!
//! Every query passes through the same phases — plan (vocabulary
//! expansion), probe (index candidate generation), score, merge — and the
//! engine can report where the time went, either aggregated into the
//! global registry histograms or per-query via [`SearchExplain`]. Phase
//! timing is armed when telemetry is enabled *or* an explain is requested,
//! so `--explain` works even with `METAMESS_TELEMETRY=0`.

use metamess_telemetry::{Counter, Histogram};
use std::sync::{Arc, OnceLock};

/// Where one query's time went, phase by phase.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize)]
pub struct SearchExplain {
    /// Served straight from the result cache (no phases ran).
    pub cache_hit: bool,
    /// Plan construction: vocabulary expansion and term normalization.
    pub plan_micros: u64,
    /// Candidate generation: R-tree, interval index, and term postings.
    pub probe_micros: u64,
    /// Scoring of every candidate, and each shard's top-k made into hits.
    pub score_micros: u64,
    /// Merge of the per-shard top-k lists into the final order.
    pub merge_micros: u64,
    /// End-to-end, including the cache lookup.
    pub total_micros: u64,
    /// Index keys the plan expanded the query's terms into.
    pub expanded_keys: usize,
    /// Candidates the probe phase selected for scoring.
    pub candidates: usize,
    /// Candidates scored exactly: at most `candidates`, less those the
    /// shards' score bounds showed could not rank.
    pub scored: usize,
    /// The probe fell back to scoring the whole catalog.
    pub full_scan: bool,
    /// Hits returned.
    pub results: usize,
    /// Shards in the engine's layout.
    pub shards: usize,
    /// Shards that contributed candidates and were scored.
    pub shards_visited: usize,
    /// Non-empty shards skipped entirely (no candidates after the probe).
    pub shards_pruned: usize,
    /// Datasets living in pruned shards — the probe work pruning avoided.
    pub pruned_datasets: usize,
}

impl SearchExplain {
    /// Renders the breakdown as an aligned table for the CLI.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.cache_hit {
            out.push_str("phase breakdown (cache hit):\n");
            out.push_str(&format!(
                "  total {:>8} µs  ({} hits served from result cache)\n",
                self.total_micros, self.results
            ));
            return out;
        }
        out.push_str("phase breakdown (cache miss):\n");
        out.push_str(&format!(
            "  plan  {:>8} µs  ({} index keys)\n",
            self.plan_micros, self.expanded_keys
        ));
        let mode = if self.full_scan { "full scan" } else { "indexed" };
        out.push_str(&format!(
            "  probe {:>8} µs  ({} candidates, {mode})\n",
            self.probe_micros, self.candidates
        ));
        if self.shards > 1 {
            out.push_str(&format!(
                "  shards {:>7}    ({} visited, {} pruned, {} datasets skipped)\n",
                self.shards, self.shards_visited, self.shards_pruned, self.pruned_datasets
            ));
        }
        out.push_str(&format!(
            "  score {:>8} µs  ({} of them scored)\n",
            self.score_micros, self.scored
        ));
        out.push_str(&format!("  merge {:>8} µs\n", self.merge_micros));
        out.push_str(&format!("  total {:>8} µs  ({} hits)\n", self.total_micros, self.results));
        out
    }
}

pub(crate) struct SearchMetrics {
    /// `metamess_search_queries_total` — cached-path searches served.
    pub queries: Arc<Counter>,
    /// `metamess_search_cache_hits_total` / `_misses_total` — result-cache
    /// outcome of cached-path searches.
    pub cache_hits: Arc<Counter>,
    pub cache_misses: Arc<Counter>,
    /// `metamess_search_full_scans_total` — probes that fell back to
    /// scoring the whole catalog.
    pub full_scans: Arc<Counter>,
    /// Per-phase latency histograms.
    pub plan_micros: Arc<Histogram>,
    pub probe_micros: Arc<Histogram>,
    pub score_micros: Arc<Histogram>,
    pub merge_micros: Arc<Histogram>,
    /// `metamess_search_query_micros` — end-to-end cached-path latency.
    pub query_micros: Arc<Histogram>,
    /// `metamess_search_shard_probe_micros` — one sample per shard probed.
    pub shard_probe_micros: Arc<Histogram>,
    /// `metamess_search_shard_score_micros` — one sample per shard scored.
    pub shard_score_micros: Arc<Histogram>,
    /// `metamess_search_shards_visited_total` / `_pruned_total` — shards
    /// scored vs. skipped with zero candidates.
    pub shards_visited: Arc<Counter>,
    pub shards_pruned: Arc<Counter>,
    /// `metamess_search_rows_indexed_total` — datasets an engine build
    /// filed into its shards' indexes, one add per build.
    pub rows_indexed: Arc<Counter>,
    /// `metamess_search_candidates_scored_total` — candidates scored
    /// exactly by uncached searches, one add per scatter-gather of the count
    /// [`SearchExplain::scored`] reports.
    pub candidates_scored: Arc<Counter>,
}

pub(crate) fn search_metrics() -> &'static SearchMetrics {
    static METRICS: OnceLock<SearchMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = metamess_telemetry::global();
        SearchMetrics {
            queries: r.counter("metamess_search_queries_total"),
            cache_hits: r.counter("metamess_search_cache_hits_total"),
            cache_misses: r.counter("metamess_search_cache_misses_total"),
            full_scans: r.counter("metamess_search_full_scans_total"),
            plan_micros: r.histogram("metamess_search_plan_micros"),
            probe_micros: r.histogram("metamess_search_probe_micros"),
            score_micros: r.histogram("metamess_search_score_micros"),
            merge_micros: r.histogram("metamess_search_merge_micros"),
            query_micros: r.histogram("metamess_search_query_micros"),
            shard_probe_micros: r.histogram("metamess_search_shard_probe_micros"),
            shard_score_micros: r.histogram("metamess_search_shard_score_micros"),
            shards_visited: r.counter("metamess_search_shards_visited_total"),
            shards_pruned: r.counter("metamess_search_shards_pruned_total"),
            rows_indexed: r.counter("metamess_search_rows_indexed_total"),
            candidates_scored: r.counter("metamess_search_candidates_scored_total"),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_miss_shows_every_phase() {
        let ex = SearchExplain {
            plan_micros: 12,
            probe_micros: 340,
            score_micros: 880,
            merge_micros: 5,
            total_micros: 1240,
            expanded_keys: 7,
            candidates: 150,
            scored: 12,
            results: 10,
            ..SearchExplain::default()
        };
        let text = ex.render();
        for needle in ["plan", "probe", "score", "merge", "total", "150 candidates", "12 of them"] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        assert!(text.contains("indexed"));
    }

    #[test]
    fn render_hit_is_single_line_total() {
        let ex = SearchExplain {
            cache_hit: true,
            total_micros: 3,
            results: 5,
            ..SearchExplain::default()
        };
        let text = ex.render();
        assert!(text.contains("cache hit"));
        assert!(text.contains("served from result cache"));
        assert!(!text.contains("probe"));
    }

    #[test]
    fn render_shows_shard_line_only_when_sharded() {
        let single = SearchExplain { shards: 1, ..SearchExplain::default() };
        assert!(!single.render().contains("shards"), "single-shard output stays unchanged");
        let sharded = SearchExplain {
            shards: 4,
            shards_visited: 1,
            shards_pruned: 3,
            pruned_datasets: 120,
            ..SearchExplain::default()
        };
        let text = sharded.render();
        assert!(text.contains("1 visited"), "{text}");
        assert!(text.contains("3 pruned"), "{text}");
        assert!(text.contains("120 datasets skipped"), "{text}");
    }

    #[test]
    fn render_full_scan_labelled() {
        let ex = SearchExplain { full_scan: true, ..SearchExplain::default() };
        assert!(ex.render().contains("full scan"));
    }
}
