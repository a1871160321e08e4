//! Cache survival analysis for in-place catalog deltas.
//!
//! When `metamess serve` applies a published delta without reopening the
//! store, the catalog generation advances and every cached result list
//! would normally be invalidated — even though most queries never touch
//! the handful of datasets the delta changed. This module decides, per
//! cached entry, whether its result list is *provably identical* under the
//! new catalog, so [`ResultCache::retarget`](crate::ResultCache::retarget)
//! can re-stamp it in place instead of dropping it.
//!
//! The proof obligations mirror the engine's execution model exactly:
//!
//! 1. **No spatial clause.** Nearest-neighbour collection makes membership
//!    relative (any insertion can displace a neighbour), so spatial
//!    queries are always evicted.
//! 2. **Full list.** The cached list must hold `limit` hits; a shorter
//!    list has room for any new candidate to walk in.
//! 3. **Not listed.** No touched dataset may appear among the cached hits
//!    (its content, and therefore its score or presence, changed).
//! 4. **Membership stable.** Each touched dataset must be a candidate
//!    either before *and* after, or neither — candidate membership is
//!    recomputed here with the same index keys the shard builder uses, so
//!    `candidates_total`, and with it the engine's full-scan decision,
//!    provably cannot change.
//! 5. **Ranks below the k-th hit.** The touched dataset's exact score
//!    under the new catalog must order strictly after the worst cached hit
//!    (score descending, then path ascending — the engine's tie-break), so
//!    it cannot enter the top-k even under a full scan.
//!
//! Everything here is conservative: any parse failure, `Clear` mutation,
//! or unprovable case evicts. A vocabulary change invalidates these proofs
//! wholesale (index keys move); callers must fall back to a full reload in
//! that case — see `ServeState::poll_reload` in `metamess-server`.

use crate::engine::{SearchEngine, SearchHit};
use crate::plan::QueryPlan;
use crate::query::Query;
use crate::score::score_dataset_prepared;
use crate::shard::{expanded_time, index_keys};
use metamess_core::catalog::Mutation;
use metamess_core::feature::DatasetFeature;
use metamess_core::id::DatasetId;
use metamess_vocab::Vocabulary;
use std::collections::BTreeSet;

/// One dataset a delta touched: its content before and after, decoded from
/// the rows of the engines on either side — the only rows a delta decodes.
/// `None` means absent (a `before` of `None` is an insert, an `after` of
/// `None` a delete).
#[derive(Debug, Clone)]
pub struct TouchedDataset {
    /// The dataset's identity.
    pub id: DatasetId,
    /// Content before the delta, when it existed.
    pub before: Option<DatasetFeature>,
    /// Content after the delta, when it still exists.
    pub after: Option<DatasetFeature>,
}

/// Computes the per-dataset before/after pairs for a delta.
///
/// `before` is the engine the cached results came from and `after` its
/// [`successor`](SearchEngine::successor) under `mutations`. Returns `None`
/// when the delta contains a `Clear` — then nothing survives and the
/// caller should drop the whole cache. `SetProperty` mutations are
/// neutral: properties are not scored.
pub fn compute_touches(
    before: &SearchEngine,
    after: &SearchEngine,
    mutations: &[Mutation],
) -> Option<Vec<TouchedDataset>> {
    let mut ids: BTreeSet<DatasetId> = BTreeSet::new();
    for m in mutations {
        match m {
            Mutation::Put(f) => {
                ids.insert(f.id);
            }
            Mutation::Delete(id) => {
                ids.insert(*id);
            }
            Mutation::SetProperty { .. } => {}
            Mutation::Clear => return None,
        }
    }
    Some(
        ids.into_iter()
            .map(|id| TouchedDataset { id, before: before.dataset(id), after: after.dataset(id) })
            .collect(),
    )
}

/// Whether the cached entry under `key` (holding `hits`) provably returns
/// the identical list against the post-delta catalog.
///
/// `key` is the engine's cache key (`"{use_indexes}|{query_json}"`);
/// `touches` comes from [`compute_touches`]; `vocab` must be the (shared,
/// unchanged) vocabulary both catalogs were indexed under.
pub fn entry_survives(
    key: &str,
    hits: &[SearchHit],
    touches: &[TouchedDataset],
    vocab: &Vocabulary,
) -> bool {
    let Some((_, query_json)) = key.split_once('|') else { return false };
    let Ok(query) = serde_json::from_str::<Query>(query_json) else { return false };
    if query.spatial.is_some() {
        return false; // obligation 1
    }
    if query.limit == 0 || hits.len() < query.limit {
        return false; // obligation 2
    }
    let Some(kth) = hits.last() else { return false };
    let plan = QueryPlan::prepare(&query, vocab);
    for touch in touches {
        if hits.iter().any(|h| h.id == touch.id) {
            return false; // obligation 3
        }
        let member_before =
            touch.before.as_ref().is_some_and(|d| is_candidate(&query, &plan, d, vocab));
        let member_after =
            touch.after.as_ref().is_some_and(|d| is_candidate(&query, &plan, d, vocab));
        if member_before != member_after {
            return false; // obligation 4
        }
        if let Some(after) = &touch.after {
            let score = score_dataset_prepared(&query, &plan.prepared, after, vocab).total;
            let ranks_below = score < kth.score || (score == kth.score && after.path > kth.path);
            if !ranks_below {
                return false; // obligation 5
            }
        }
    }
    true
}

/// Index-membership check mirroring `ShardEngine::probe` for non-spatial
/// clauses: a dataset is a candidate when its time interval overlaps the
/// query's padded window, or any of its index keys (the shard builder's
/// [`index_keys`]) matches a probe key of any query term.
fn is_candidate(query: &Query, plan: &QueryPlan, d: &DatasetFeature, vocab: &Vocabulary) -> bool {
    if let Some(window) = &query.time {
        let expanded = expanded_time(window);
        if d.time.as_ref().is_some_and(|t| t.overlaps(&expanded)) {
            return true;
        }
    }
    if plan.term_keys.iter().all(|k| k.is_empty()) {
        return false;
    }
    for v in d.searchable_variables() {
        let dataset_keys = index_keys(&v.name, v.search_name(), vocab);
        for keys in &plan.term_keys {
            if keys.iter().any(|k| dataset_keys.contains(k)) {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use metamess_core::catalog::Catalog;
    use metamess_core::feature::VariableFeature;
    use metamess_core::time::{TimeInterval, Timestamp};

    fn feature(path: &str, var: &str) -> DatasetFeature {
        let mut f = DatasetFeature::new(path);
        f.variables.push(VariableFeature::new(var));
        f
    }

    fn engine(paths_vars: &[(&str, &str)]) -> SearchEngine {
        let mut c = Catalog::new();
        for (p, v) in paths_vars {
            c.put(feature(p, v));
        }
        SearchEngine::build(&c, Vocabulary::observatory_default())
    }

    fn put(path: &str, var: &str) -> Mutation {
        Mutation::Put(Box::new(feature(path, var)))
    }

    /// What `engine` answers `query` with and the cache key it files the
    /// answer under — the predicate must agree with what the engine would
    /// recompute. Uncached, so the shared cache stays out of the way.
    fn run(engine: &SearchEngine, query: &str) -> (String, Vec<SearchHit>) {
        let q = Query::parse(query).unwrap();
        let key = format!("{}|{}", true, serde_json::to_string(&q).unwrap());
        (key, engine.search_uncached(&q))
    }

    /// Whether the `before` engine's answer to `query` provably survives
    /// `mutations`.
    fn survives(before: &SearchEngine, mutations: &[Mutation], query: &str) -> bool {
        let after = before.successor(mutations).unwrap();
        let touches = compute_touches(before, &after, mutations).unwrap();
        let (key, hits) = run(before, query);
        entry_survives(&key, &hits, &touches, before.vocabulary())
    }

    #[test]
    fn clear_means_nothing_survives() {
        let e = engine(&[("a.csv", "salinity")]);
        assert!(compute_touches(&e, &e, &[Mutation::Clear]).is_none());
        assert!(compute_touches(&e, &e, &[]).is_some());
    }

    #[test]
    fn set_property_touches_no_datasets() {
        let e = engine(&[("a.csv", "salinity")]);
        let t = compute_touches(
            &e,
            &e,
            &[Mutation::SetProperty { key: "k".into(), value: "v".into() }],
        )
        .unwrap();
        assert!(t.is_empty());
    }

    #[test]
    fn touches_share_the_engines_features() {
        let before = engine(&[("s1.csv", "salinity"), ("s2.csv", "salinity")]);
        let gone = DatasetId::from_path("s2.csv");
        let mutations =
            [put("s1.csv", "turbidity"), put("t1.csv", "turbidity"), Mutation::Delete(gone)];
        let after = before.successor(&mutations).unwrap();
        let touches = compute_touches(&before, &after, &mutations).unwrap();
        assert_eq!(touches.len(), 3);
        // each side is what that engine's row decodes to, and the puts are
        // what was put
        for t in &touches {
            assert_eq!(t.before, before.dataset(t.id));
            assert_eq!(t.after, after.dataset(t.id));
        }
        let touch = |id| touches.iter().find(|t| t.id == id).unwrap();
        for m in &mutations {
            if let Mutation::Put(f) = m {
                assert_eq!(touch(f.id).after.as_ref(), Some(&**f));
            }
        }
        let s1 = touch(DatasetId::from_path("s1.csv")).before.as_ref().unwrap();
        assert_eq!(s1.variables[0].name, "salinity");
        assert!(touch(gone).after.is_none() && touch(gone).before.is_some());
    }

    #[test]
    fn unrelated_insert_survives_full_list() {
        // Two salinity datasets fill a limit-2 query; a turbidity dataset
        // arrives — the other branch of the taxonomy (`biogeochemical`,
        // where salinity is `physical`), so no index key of the query
        // reaches it: no membership, low score.
        let before = engine(&[("s1.csv", "salinity"), ("s2.csv", "salinity")]);
        let mutations = [put("t1.csv", "turbidity")];
        let (_, hits) = run(&before, "with salinity limit 2");
        assert_eq!(hits.len(), 2);
        assert!(survives(&before, &mutations, "with salinity limit 2"));
        // And the proof is honest: the engine agrees nothing changed.
        let (_, hits_after) = run(&before.successor(&mutations).unwrap(), "with salinity limit 2");
        assert_eq!(hits, hits_after);
    }

    #[test]
    fn sibling_concept_insert_is_evicted() {
        // `water_temperature` shares the ancestor `physical` with
        // `salinity`, and the index files a variable under every ancestor
        // of its concept: the newcomer *is* a candidate for the salinity
        // query, so the candidate total moves and the entry must go.
        let before = engine(&[("s1.csv", "salinity"), ("s2.csv", "salinity")]);
        assert!(
            !survives(&before, &[put("t1.csv", "water_temperature")], "with salinity limit 2"),
            "a new candidate through a shared ancestor must evict"
        );
    }

    #[test]
    fn matching_insert_is_evicted() {
        let before = engine(&[("s1.csv", "salinity"), ("s2.csv", "salinity")]);
        assert!(
            !survives(&before, &[put("s0.csv", "salinity")], "with salinity limit 2"),
            "a new candidate for the same concept must evict"
        );
    }

    #[test]
    fn delete_of_a_listed_hit_is_evicted() {
        let before = engine(&[("s1.csv", "salinity"), ("s2.csv", "salinity")]);
        let id = DatasetId::from_path("s1.csv");
        assert!(!survives(&before, &[Mutation::Delete(id)], "with salinity limit 2"));
    }

    #[test]
    fn spatial_queries_never_survive() {
        let before = engine(&[("s1.csv", "salinity"), ("s2.csv", "salinity")]);
        let (_, hits) = run(&before, "near 47.6,-122.3 within 50km limit 2");
        assert_eq!(hits.len(), 2, "full scan still returns both datasets");
        assert!(
            !survives(
                &before,
                &[put("t1.csv", "turbidity")],
                "near 47.6,-122.3 within 50km limit 2"
            ),
            "nearest-neighbour membership is relative: spatial entries must evict"
        );
    }

    #[test]
    fn short_list_is_evicted() {
        let before = engine(&[("s1.csv", "salinity")]);
        let (_, hits) = run(&before, "with salinity limit 5");
        assert!(hits.len() < 5);
        assert!(!survives(&before, &[put("t1.csv", "turbidity")], "with salinity limit 5"));
    }

    #[test]
    fn time_overlap_membership_uses_the_padded_window() {
        let vocab = Vocabulary::observatory_default();
        let q = Query::parse("from 2010-06-01 to 2010-06-30").unwrap();
        let plan = QueryPlan::prepare(&q, &vocab);
        let mut inside = DatasetFeature::new("in.csv");
        inside.time = Some(TimeInterval::new(
            Timestamp::from_ymd(2010, 5, 20).unwrap(),
            Timestamp::from_ymd(2010, 5, 25).unwrap(),
        ));
        let mut outside = DatasetFeature::new("out.csv");
        outside.time = Some(TimeInterval::new(
            Timestamp::from_ymd(2011, 6, 1).unwrap(),
            Timestamp::from_ymd(2011, 6, 30).unwrap(),
        ));
        // May 20–25 is outside the literal window but inside the padded one.
        assert!(is_candidate(&q, &plan, &inside, &vocab));
        assert!(!is_candidate(&q, &plan, &outside, &vocab));
    }

    #[test]
    fn garbage_keys_are_conservatively_evicted() {
        let vocab = Vocabulary::observatory_default();
        assert!(!entry_survives("not a cache key", &[], &[], &vocab));
        assert!(!entry_survives("true|{not json", &[], &[], &vocab));
    }
}
