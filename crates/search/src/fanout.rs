//! The scatter-gather: one ranked query over a catalog cut into shards,
//! wherever the shards live.
//!
//! [`scatter_gather`] is the only place the sequence *forced full scan? →
//! probe → admit nearest globally → full-scan fallback → score → merge* is
//! written down. It runs over a [`ShardBackend`], which hides where the
//! shards are: the in-process [`ShardedEngine`](crate::ShardedEngine)
//! calls its `&[ShardEngine]` directly (`LocalShards`), and crate
//! `metamess-remote` speaks the frame protocol to `metamess shardd`
//! processes. Both backends answer a probe and a score request with the
//! same functions of this module, so the answer is bit-identical at any
//! shard count and location:
//!
//! * [`probe_summary`] is one shard's candidate generation, in fixed-width
//!   integers so it can cross a wire;
//! * [`plan_scatter`] makes the coordinator's decisions — the global
//!   nearest-neighbour admission under `(distance, id)` and the
//!   cross-shard `candidates < limit*3` full-scan fallback — from
//!   summaries alone;
//! * [`score_counted`] (and [`score_top`], its hits alone) selects each
//!   shard's `limit`-best candidates under the global rank order
//!   `(score desc, path asc)`, scoring only those whose score bound can
//!   reach the `limit`-th score. Because that order is a
//!   *strict total* order (paths are unique per catalog), every global
//!   top-`limit` hit is necessarily in its own shard's top-`limit`, so
//!   [`merge_hits`] — flatten, sort under the same order, truncate —
//!   reconstructs the global answer exactly. Scores survive the JSON hop
//!   bit-exactly: the workspace builds `serde_json` with
//!   `float_roundtrip`.
//!
//! [`build_shard`] builds shard `k` of `n` standalone, through the same
//! partition assignment as `ShardedEngine::build_sharded`, so a fleet of
//! `shardd` processes covers the catalog without overlap or gaps.

use crate::engine::{partition, SearchHit};
use crate::explain::{search_metrics, SearchExplain};
use crate::plan::QueryPlan;
use crate::query::Query;
use crate::shard::{ShardEngine, ShardSpec};
use crate::topk::{rank_cmp, LightHit, LightTopK};
use metamess_core::catalog::Catalog;
use metamess_core::store::{Image, Row};
use metamess_telemetry::{trace, Histogram, Stopwatch};
use metamess_vocab::Vocabulary;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::convert::Infallible;
use std::sync::Arc;

/// What one shard's probe produced, in wire-friendly form. The local
/// candidate indices are `u32` (shards are bounded well below 4G members)
/// and the nearest list keeps `(distance, id, local index)` — everything
/// [`plan_scatter`] needs to admit nearest neighbours globally.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ProbeSummary {
    /// Local indices selected by the window/term indexes (ascending,
    /// unique).
    pub certain: Vec<u32>,
    /// Nearest-neighbour candidates as `(distance, DatasetId, local ix)`.
    pub near: Vec<(f64, u64, u32)>,
}

/// The candidate-generation over-fetch: how many nearest neighbours each
/// shard collects per probe. Must match on both ends of the wire — the
/// shardd probes with it, the coordinator admits with it — so it is a
/// pure function of the query limit.
pub fn generous(limit: usize) -> usize {
    limit.saturating_mul(5).max(50)
}

/// Probes one shard: candidate generation against its indexes. `generous`
/// must be [`generous`]`(query.limit)`; it is a parameter only so the
/// call site that already computed it does not recompute.
pub fn probe_summary(
    shard: &ShardEngine,
    query: &Query,
    plan: &QueryPlan,
    generous: usize,
) -> ProbeSummary {
    shard.probe(query, plan, generous)
}

/// What one shard must score, as decided by the coordinator.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum ScoreWork {
    /// Nothing — the shard contributed no candidates (pruned).
    Skip,
    /// Every dataset in the shard (the full-scan fallback).
    Full,
    /// Exactly these local indices (ascending, unique).
    List(Vec<u32>),
}

/// The coordinator's scatter decisions, from per-shard probe summaries:
/// global nearest-neighbour admission (when the query is spatial) and the
/// cross-shard full-scan fallback. Returns the fallback flag and one
/// [`ScoreWork`] per shard, in shard order.
pub fn plan_scatter(query: &Query, summaries: &[ProbeSummary]) -> (bool, Vec<ScoreWork>) {
    let forced = query.is_empty();
    let mut certain: Vec<Vec<u32>> = summaries.iter().map(|s| s.certain.clone()).collect();
    if !forced && query.spatial.is_some() {
        // Admit nearest candidates under the global total order
        // `(distance, id)`, truncated to `generous` — the exact set the
        // unsharded R-tree's single `nearest` call selects (each shard's
        // list is its `generous`-smallest under the same order, and the
        // global smallest are always among the per-shard smallest).
        let mut near: Vec<(f64, u64, usize, u32)> = Vec::new();
        for (s, summary) in summaries.iter().enumerate() {
            near.extend(summary.near.iter().map(|&(dist, id, lix)| (dist, id, s, lix)));
        }
        near.sort_by(|a, b| {
            a.0.partial_cmp(&b.0).unwrap_or(Ordering::Equal).then_with(|| a.1.cmp(&b.1))
        });
        for &(_, _, s, lix) in near.iter().take(generous(query.limit)) {
            certain[s].push(lix);
        }
        for c in certain.iter_mut() {
            c.sort_unstable();
            c.dedup();
        }
    }
    // Similarity ranking: when the candidate pool cannot comfortably fill
    // the requested k, score everything instead. The decision is made on
    // the cross-shard total — the same count an unsharded probe would see.
    let candidates_total: usize = if forced { 0 } else { certain.iter().map(Vec::len).sum() };
    let full_scan = forced || candidates_total < query.limit.saturating_mul(3);
    let works = certain
        .into_iter()
        .map(|c| {
            if full_scan {
                ScoreWork::Full
            } else if c.is_empty() {
                ScoreWork::Skip
            } else {
                ScoreWork::List(c)
            }
        })
        .collect();
    (full_scan, works)
}

/// Scores one shard's assigned work and returns its `query.limit`-best
/// hits under the global rank order `(score desc, path asc)`, best first:
/// [`score_counted`]'s hits.
pub fn score_top(
    shard: &ShardEngine,
    query: &Query,
    plan: &QueryPlan,
    vocab: &Vocabulary,
    work: &ScoreWork,
) -> Vec<SearchHit> {
    score_counted(shard, query, plan, vocab, work).0
}

/// Scores one shard's assigned work and returns its `query.limit`-best
/// hits under the global rank order `(score desc, path asc)`, best first,
/// and how many candidates it scored exactly to find them.
///
/// Each candidate first gets an upper bound on its score from its extent
/// and the query's term postings, and the candidates are offered best
/// bound first. Once `limit` are kept, a
/// candidate whose bound is below the `limit`-th score cannot rank, and
/// neither can any after it: scoring stops there (MaxScore, Turtle & Flood
/// 1995). A bound equal to that score can at best tie it, and a tie ranks
/// by path, so such a candidate is scored only when its path sorts before
/// the `limit`-th hit's. The bound holds for a query that passed
/// [`Query::check`], and every way a query enters asks that first.
///
/// Candidates are scored from the shard's own arrays, allocation-free, into
/// a bounded top-k of light `(score, local index)` pairs; only the
/// `≤ limit` survivors are materialized (strings + breakdown), from the same
/// arrays. Both passes run the one scoring routine through one memo of the
/// query terms' name tiers per spelling, so a hit's score is the score it
/// ranked by. The shard resolved every name against the vocabulary it was
/// built with, so `_vocab` is no longer read.
pub fn score_counted(
    shard: &ShardEngine,
    query: &Query,
    plan: &QueryPlan,
    _vocab: &Vocabulary,
    work: &ScoreWork,
) -> (Vec<SearchHit>, usize) {
    // `(score desc, path asc)`, reading paths from the rows lazily — ties
    // on score are rare, so most comparisons never touch a string.
    let light_cmp = |a: &LightHit, b: &LightHit| {
        b.0.partial_cmp(&a.0)
            .unwrap_or(Ordering::Equal)
            .then_with(|| shard.cmp_paths(a.1 as usize, b.1 as usize))
    };
    let rank_lt = |a: &LightHit, b: &LightHit| light_cmp(a, b) == Ordering::Less;
    let (every, listed) = match work {
        ScoreWork::Skip => return (Vec::new(), 0),
        ScoreWork::Full => (0..shard.len() as u32, &[][..]),
        ScoreWork::List(ixs) => (0..0, &ixs[..]),
    };
    // a bound is never negative, and the bits of a float that is not
    // negative order as the float does
    let ceilings = shard.ceilings(query, plan);
    let mut queue: BinaryHeap<(u64, u32)> =
        every.chain(listed.iter().copied()).map(|ix| (ceilings.bound(ix).to_bits(), ix)).collect();
    let mut lights: Vec<LightHit> = Vec::new();
    let mut memo = shard.tier_memo(plan.prepared.len());
    let mut scored = 0;
    let mut topk = LightTopK::new(query.limit, &mut lights);
    while let Some((bits, ix)) = queue.pop() {
        let bound = f64::from_bits(bits);
        if let Some((kth, kth_ix)) = topk.kth() {
            // none below the k-th score can rank; one bounded by it ties it
            // at best, and a tie ranks by path
            if bound < kth {
                break;
            }
            if bound == kth && shard.cmp_paths(ix as usize, kth_ix as usize).is_gt() {
                continue;
            }
        }
        let s = shard.score(query, &plan.prepared, &mut memo, ix as usize);
        topk.push((s, ix), &rank_lt);
        scored += 1;
    }
    lights.sort_by(light_cmp);
    let hits = lights
        .iter()
        .map(|&(_, lix)| shard.score_hit(query, &plan.prepared, &mut memo, lix as usize))
        .collect();
    (hits, scored)
}

/// Merges per-shard top-`limit` hit lists into the global top-`limit`,
/// best first. Correctness does not depend on the inputs being sorted —
/// only on each list containing its shard's `limit`-best, which
/// guarantees every global winner is present.
pub fn merge_hits(per_shard: Vec<Vec<SearchHit>>, limit: usize) -> Vec<SearchHit> {
    let mut all: Vec<SearchHit> = per_shard.into_iter().flatten().collect();
    all.sort_by(rank_cmp);
    all.truncate(limit);
    all
}

/// Where the shards of one catalog live, as far as [`scatter_gather`]
/// needs to know: how big each is, and how to ask it to probe and to
/// score. A shard that cannot answer reports a
/// `Failure`; [`ShardBackend::tolerate`] then decides whether the query
/// goes on without it.
pub trait ShardBackend: Sync {
    /// Why one shard did not answer.
    type Failure: Send;
    /// Why the whole query is given up.
    type Error;
    /// Names of the per-shard probe and score spans.
    const SPANS: (&'static str, &'static str) = ("shard.probe", "shard.score");

    /// Shards in the layout.
    fn shard_count(&self) -> usize;
    /// Datasets in shard `shard`.
    fn shard_len(&self, shard: usize) -> usize;
    /// Candidate generation on one shard ([`probe_summary`]).
    fn probe(&self, shard: usize, query: &Query) -> Result<ProbeSummary, Self::Failure>;
    /// The shard's `limit`-best hits over `work`, and how many candidates
    /// it scored exactly ([`score_counted`]).
    fn score(
        &self,
        shard: usize,
        query: &Query,
        work: &ScoreWork,
    ) -> Result<(Vec<SearchHit>, usize), Self::Failure>;
    /// Runs `call(k)` for every shard `k` and gathers the results in shard
    /// order; one after the other unless the backend has something to
    /// wait for.
    fn scatter<T: Send>(&self, call: impl Fn(usize) -> T + Sync) -> Vec<T> {
        (0..self.shard_count()).map(call).collect()
    }
    /// Called once per failed shard, in shard order, after each phase
    /// (`"probe"` or `"score"`): `Ok` answers from the remaining shards
    /// and lists this one in [`Gathered::failed`], `Err` fails the query.
    fn tolerate(
        &self,
        shard: usize,
        phase: &'static str,
        failure: Self::Failure,
    ) -> Result<(), Self::Error>;
}

/// Shards in this address space: every call is a function call and none
/// can fail.
pub(crate) struct LocalShards<'a> {
    /// The shards, in layout order.
    pub(crate) shards: &'a [ShardEngine],
    /// The vocabulary the shards were built with.
    pub(crate) vocab: &'a Vocabulary,
    /// The query's plan, prepared once for all shards.
    pub(crate) plan: &'a QueryPlan,
}

impl ShardBackend for LocalShards<'_> {
    type Failure = Infallible;
    type Error = Infallible;

    fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_len(&self, shard: usize) -> usize {
        self.shards[shard].len()
    }

    fn probe(&self, shard: usize, query: &Query) -> Result<ProbeSummary, Infallible> {
        Ok(probe_summary(&self.shards[shard], query, self.plan, generous(query.limit)))
    }

    fn score(
        &self,
        shard: usize,
        query: &Query,
        work: &ScoreWork,
    ) -> Result<(Vec<SearchHit>, usize), Infallible> {
        Ok(score_counted(&self.shards[shard], query, self.plan, self.vocab, work))
    }

    fn tolerate(&self, _: usize, _: &'static str, failure: Infallible) -> Result<(), Infallible> {
        match failure {}
    }
}

/// What [`scatter_gather`] returns.
#[derive(Debug)]
pub struct Gathered {
    /// The global top-`limit` hits, best first.
    pub hits: Vec<SearchHit>,
    /// Shards that failed and were tolerated, ascending; the hits are
    /// exactly what a coordinator over the other shards would return.
    pub failed: Vec<u32>,
}

/// One scatter phase: asks every shard `call` has a request for, records a
/// span and a histogram sample per answer, and lets the backend judge each
/// failure. `None` in the result: not asked, or failed and tolerated.
fn ask_shards<B: ShardBackend, T: Send>(
    backend: &B,
    phase: &'static str,
    span: &'static str,
    histogram: &Histogram,
    failed: &mut [bool],
    call: impl Fn(usize) -> Option<Result<T, B::Failure>> + Sync,
) -> Result<Vec<Option<T>>, B::Error> {
    let on = metamess_telemetry::enabled();
    let outcomes = backend.scatter(|k| {
        let sw = Stopwatch::start_if(on);
        call(k).map(|outcome| (outcome, sw.micros()))
    });
    let mut answers = Vec::with_capacity(outcomes.len());
    for (k, outcome) in outcomes.into_iter().enumerate() {
        let Some((outcome, micros)) = outcome else {
            answers.push(None);
            continue;
        };
        if on && outcome.is_ok() {
            // Spans attach here, on the coordinating thread: the trace
            // under construction is thread-local, and a backend may have
            // run the call elsewhere. A shard that did not answer has no
            // span: its time is the backend's timeout, not the shard's.
            histogram.record(micros);
            trace::record_span(span, micros, Some(k as u32));
        }
        answers.push(match outcome {
            Ok(answer) => Some(answer),
            Err(failure) => {
                backend.tolerate(k, phase, failure)?;
                failed[k] = true;
                None
            }
        });
    }
    Ok(answers)
}

/// Runs one ranked query over a backend's shards: probe every non-empty
/// shard, admit nearest neighbours globally and decide the
/// full-scan fallback on the cross-shard total ([`plan_scatter`]), score
/// the shards left with work, merge their top-`limit` lists. With
/// `use_indexes` off (the ablation switch), or an empty query, nothing is
/// probed and every shard scores all it holds.
///
/// A shard that fails and is tolerated drops out of every later step, so
/// a degraded answer is exactly the answer over the healthy shards.
pub fn scatter_gather<B: ShardBackend>(
    backend: &B,
    query: &Query,
    use_indexes: bool,
    explain: Option<&mut SearchExplain>,
) -> Result<Gathered, B::Error> {
    let on = metamess_telemetry::enabled();
    let timed = on || explain.is_some();
    let n = backend.shard_count();
    let lens: Vec<usize> = (0..n).map(|k| backend.shard_len(k)).collect();
    let mut failed = vec![false; n];

    let probe = Stopwatch::start_if(timed);
    let probe_span = trace::enter("search.probe");
    let forced = !use_indexes || query.is_empty();
    let (full_scan, mut works) = if forced {
        (true, vec![ScoreWork::Full; n])
    } else {
        let histogram = &search_metrics().shard_probe_micros;
        let probed = ask_shards(backend, "probe", B::SPANS.0, histogram, &mut failed, |k| {
            (lens[k] > 0).then(|| backend.probe(k, query))
        })?;
        let summaries: Vec<ProbeSummary> =
            probed.into_iter().map(Option::unwrap_or_default).collect();
        plan_scatter(query, &summaries)
    };
    // A shard the probe lost, or an empty one, has nothing to score; a
    // shard the probe left without candidates is pruned.
    let (mut candidates, mut visited, mut pruned, mut pruned_datasets) = (0, 0, 0, 0);
    for k in 0..n {
        if failed[k] || lens[k] == 0 {
            works[k] = ScoreWork::Skip;
            continue;
        }
        match &works[k] {
            ScoreWork::Skip => {
                pruned += 1;
                pruned_datasets += lens[k];
                continue;
            }
            ScoreWork::Full => candidates += lens[k],
            ScoreWork::List(ixs) => candidates += ixs.len(),
        }
        visited += 1;
    }
    drop(probe_span);
    let probe_micros = probe.micros();

    let scoring = Stopwatch::start_if(timed);
    let score_span = trace::enter("search.score");
    let histogram = &search_metrics().shard_score_micros;
    let per_shard = ask_shards(backend, "score", B::SPANS.1, histogram, &mut failed, |k| {
        (works[k] != ScoreWork::Skip).then(|| backend.score(k, query, &works[k]))
    })?;
    drop(score_span);
    let score_micros = scoring.micros();

    let merge = Stopwatch::start_if(timed);
    let (per_shard, scored): (Vec<Vec<SearchHit>>, Vec<usize>) =
        per_shard.into_iter().map(Option::unwrap_or_default).unzip();
    let scored: usize = scored.iter().sum();
    let hits = merge_hits(per_shard, query.limit);
    let merge_micros = merge.micros();

    if on {
        let m = search_metrics();
        if full_scan {
            m.full_scans.inc();
        }
        m.probe_micros.record(probe_micros);
        m.score_micros.record(score_micros);
        m.merge_micros.record(merge_micros);
        m.shards_visited.add(visited as u64);
        m.shards_pruned.add(pruned as u64);
        m.candidates_scored.add(scored as u64);
        trace::record_span("search.merge", merge_micros, None);
        trace::note_shards(visited as u32, pruned as u32);
    }
    if let Some(ex) = explain {
        ex.probe_micros = probe_micros;
        ex.score_micros = score_micros;
        ex.merge_micros = merge_micros;
        ex.candidates = candidates;
        ex.scored = scored;
        ex.full_scan = full_scan;
        ex.results = hits.len();
        ex.shards = n;
        ex.shards_visited = visited;
        ex.shards_pruned = pruned;
        ex.pruned_datasets = pruned_datasets;
    }
    let failed = (0..n as u32).filter(|&k| failed[k as usize]).collect();
    Ok(Gathered { hits, failed })
}

/// Builds shard `shard_ix` of the layout `spec` over a catalog snapshot,
/// standalone — the engine a `metamess shardd` process hosts. Uses the
/// same partition assignment as `ShardedEngine::build_sharded`, so `n`
/// processes each building their own index cover the catalog exactly.
/// Only the shard's own members are encoded, into one image; none is
/// cloned. `shard_ix` must be `< spec.count()`.
pub fn build_shard(
    catalog: &Catalog,
    vocab: &Vocabulary,
    spec: ShardSpec,
    shard_ix: usize,
) -> ShardEngine {
    check_shard(spec, shard_ix);
    let members =
        partition(catalog.iter(), |d| d.id, spec, |s| s == shard_ix).swap_remove(shard_ix);
    let image = Arc::new(Image::encode(&members));
    ShardEngine::build_all(vec![image.rows().collect()], vocab).remove(0)
}

/// [`build_shard`] over the rows of a store read (in catalog order, as
/// [`read_published`](metamess_core::store::read_published) returns them):
/// the shard keeps its members' rows and drops the rest, decoding none.
pub fn build_shard_from(
    rows: Vec<Row>,
    vocab: &Vocabulary,
    spec: ShardSpec,
    shard_ix: usize,
) -> ShardEngine {
    check_shard(spec, shard_ix);
    let members = partition(rows, Row::id, spec, |s| s == shard_ix).swap_remove(shard_ix);
    ShardEngine::build_all(vec![members], vocab).remove(0)
}

/// Asserts that `shard_ix` is one of `spec`'s shards.
fn check_shard(spec: ShardSpec, shard_ix: usize) {
    assert!(shard_ix < spec.count(), "shard index {shard_ix} out of 0..{}", spec.count());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::Partitioner;
    use crate::ShardedEngine;
    use metamess_core::feature::{DatasetFeature, NameResolution, VariableFeature};
    use metamess_core::geo::{GeoBBox, GeoPoint};
    use metamess_core::time::{TimeInterval, Timestamp};

    fn make_dataset(
        path: &str,
        lat: f64,
        lon: f64,
        month: u32,
        var: (&str, &str),
    ) -> DatasetFeature {
        let mut d = DatasetFeature::new(path);
        d.title = path.to_string();
        d.bbox = Some(GeoBBox::point(GeoPoint::new(lat, lon).unwrap()));
        d.time = Some(TimeInterval::new(
            Timestamp::from_ymd(2010, month, 1).unwrap(),
            Timestamp::from_ymd(2010, month, 28).unwrap(),
        ));
        let mut v = VariableFeature::new(var.0);
        v.resolve(var.1, NameResolution::KnownTranslation);
        v.summary.observe(5.0);
        v.summary.observe(10.0);
        d.variables.push(v);
        d
    }

    fn two_cluster_catalog() -> Catalog {
        let mut c = Catalog::new();
        for i in 0..60 {
            c.put(make_dataset(
                &format!("north/{i:02}.csv"),
                46.0 + (i % 10) as f64 * 0.01,
                -124.0,
                1 + (i % 6) as u32,
                ("temp", "water_temperature"),
            ));
        }
        for i in 0..60 {
            c.put(make_dataset(
                &format!("south/{i:02}.csv"),
                -44.0 - (i % 10) as f64 * 0.01,
                150.0,
                7 + (i % 6) as u32,
                ("sal", "salinity"),
            ));
        }
        c
    }

    #[test]
    fn build_shard_partitions_cover_the_catalog_exactly() {
        let c = two_cluster_catalog();
        let vocab = Vocabulary::observatory_default();
        let spec = ShardSpec::new(4, Partitioner::Hash);
        let local = ShardedEngine::build_sharded(&c, vocab.clone(), spec);
        let mut total = 0usize;
        for (k, member) in local.shards().iter().enumerate() {
            let standalone = build_shard(&c, &vocab, spec, k);
            assert_eq!(standalone.len(), member.len(), "shard {k}");
            for l in 0..member.len() {
                assert_eq!(standalone.path(l), member.path(l), "shard {k}/{l}");
            }
            total += standalone.len();
        }
        assert_eq!(total, local.len());
    }

    #[test]
    fn search_hit_roundtrips_bit_exactly_through_json() {
        let c = two_cluster_catalog();
        let vocab = Vocabulary::observatory_default();
        let e = ShardedEngine::build(&c, vocab);
        let q = Query::parse("near 46.0,-124.0 with water_temperature limit 5").unwrap();
        for hit in e.search_uncached(&q) {
            let json = serde_json::to_string(&hit).unwrap();
            let back: SearchHit = serde_json::from_str(&json).unwrap();
            assert_eq!(back, hit);
            assert_eq!(back.score.to_bits(), hit.score.to_bits());
        }
    }
}
