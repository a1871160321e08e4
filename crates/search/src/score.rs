//! Distance-based similarity scoring — the ranking heart of "Data Near
//! Here": every facet contributes a similarity in `[0, 1]`, combined by
//! weighted average over the facets the query actually uses.

use crate::query::{Query, SpatialTerm, VariableTerm};
use metamess_core::feature::{DatasetFeature, VariableFeature};
use metamess_core::geo::GeoBBox;
use metamess_core::time::TimeInterval;
use metamess_vocab::Vocabulary;
use serde::{Deserialize, Serialize};
use std::collections::HashSet as StdHashSet;
use std::sync::Arc;

/// Per-facet score breakdown, shown in the result explanation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct ScoreBreakdown {
    /// Spatial similarity, when the query has a spatial term.
    pub space: Option<f64>,
    /// Temporal similarity, when the query has a time window.
    pub time: Option<f64>,
    /// Variable similarity, when the query has variable terms.
    pub variables: Option<f64>,
    /// Per-term detail: `(term name, matched variable, similarity)`.
    pub variable_matches: Vec<(String, Option<String>, f64)>,
    /// The combined, weighted score.
    pub total: f64,
}

/// Spatial similarity of a dataset to the query's spatial term.
///
/// Inside the box / radius scores 1; outside decays exponentially with the
/// ratio of distance to the query's characteristic scale.
pub fn spatial_score(term: &SpatialTerm, dataset: &DatasetFeature) -> f64 {
    bbox_score(term, dataset.bbox.as_ref())
}

fn bbox_score(term: &SpatialTerm, bbox: Option<&GeoBBox>) -> f64 {
    let Some(bbox) = bbox else { return 0.0 };
    match term {
        SpatialTerm::Near { point, radius_km } => {
            let d = bbox.distance_km(point);
            if d <= *radius_km {
                1.0
            } else {
                (-(d - radius_km) / radius_km.max(0.1)).exp()
            }
        }
        SpatialTerm::Region(region) => {
            if region.intersects(bbox) {
                1.0
            } else {
                let d = region.box_distance_km(bbox);
                let scale = (region.area_km2().sqrt()).max(10.0);
                (-d / scale).exp()
            }
        }
    }
}

/// Temporal similarity: overlapping intervals score by how much of the
/// query window the dataset covers (floored at 0.5 so *any* overlap beats
/// any non-overlap); disjoint intervals decay exponentially with the gap.
pub fn temporal_score(window: &TimeInterval, dataset: &DatasetFeature) -> f64 {
    interval_score(window, dataset.time.as_ref())
}

fn interval_score(window: &TimeInterval, extent: Option<&TimeInterval>) -> f64 {
    let Some(extent) = extent else { return 0.0 };
    let overlap = window.overlap_secs(extent);
    if window.overlaps(extent) {
        let denom = window.duration_secs().min(extent.duration_secs()).max(1);
        let frac = (overlap as f64 / denom as f64).clamp(0.0, 1.0);
        // degenerate instants inside the window count as full coverage
        if overlap == 0 {
            return 1.0;
        }
        0.5 + 0.5 * frac
    } else {
        let gap = window.gap_secs(extent) as f64;
        let scale = (window.duration_secs().max(86_400)) as f64;
        0.5 * (-gap / scale).exp()
    }
}

/// A query variable term with its vocabulary context precomputed, so that
/// scoring many datasets costs only hash lookups per variable.
#[derive(Debug, Clone)]
pub struct PreparedTerm {
    /// The original term.
    pub term: VariableTerm,
    /// Normalized query name.
    name_norm: String,
    /// Normalized canonical spelling, when the synonym table knows it.
    canon_norm: Option<String>,
    /// Normalized expanded spellings (alternates + taxonomy descendants).
    expanded: std::collections::HashSet<String>,
    /// Hierarchy-related canonical names → similarity score
    /// (parent/children 0.8, deep siblings and grandchildren 0.6).
    related: std::collections::HashMap<String, f64>,
}

impl PreparedTerm {
    /// Prepares one term against the vocabulary.
    pub fn prepare(term: &VariableTerm, vocab: &Vocabulary) -> PreparedTerm {
        use metamess_core::text::normalize_term;
        let name_norm = normalize_term(&term.name);
        let canon_norm = vocab.synonyms.resolve(&term.name).map(|(c, _)| normalize_term(c));
        let expanded: std::collections::HashSet<String> =
            vocab.expand_term(&term.name).iter().map(|e| normalize_term(e)).collect();

        // Hierarchy neighbourhood of the canonical concept: parent/children
        // at 0.8; siblings and grandchildren at 0.6 when the shared prefix
        // is at least two levels deep (a shared top-level root like
        // `physical` is not a relationship).
        let mut related: std::collections::HashMap<String, f64> = Default::default();
        if let Some(canon) = &canon_norm {
            for tax in vocab.taxonomies.iter() {
                let Some(path) = tax.path_of(canon) else { continue };
                let mut add = |name: &str, score: f64| {
                    let k = normalize_term(name);
                    let e = related.entry(k).or_insert(0.0);
                    if score > *e {
                        *e = score;
                    }
                };
                for child in tax.children_of(canon) {
                    add(&child, 0.8);
                    if path.len() >= 2 {
                        for grandchild in tax.children_of(&child) {
                            add(&grandchild, 0.6);
                        }
                    }
                }
                if path.len() >= 2 {
                    let parent = &path[path.len() - 2];
                    add(parent, 0.8);
                    if path.len() >= 3 {
                        for sibling in tax.children_of(parent) {
                            if normalize_term(&sibling) != *canon {
                                add(&sibling, 0.6);
                            }
                        }
                    }
                }
            }
        }
        PreparedTerm { term: term.clone(), name_norm, canon_norm, expanded, related }
    }
}

/// Name-match strength between a prepared query term and one variable:
/// exact match scores 1, same-canonical 0.9, expansion (synonym/descendant)
/// 0.85, hierarchy parent/child 0.8 and deep siblings 0.6, otherwise 0.
fn name_similarity(pt: &PreparedTerm, var: &VariableFeature, vocab: &Vocabulary) -> f64 {
    use metamess_core::text::normalize_term;
    let target = var.search_name();
    let target_norm = normalize_term(target);
    if pt.name_norm == target_norm || pt.name_norm == normalize_term(&var.name) {
        return 1.0;
    }
    let canon_var = match vocab.synonyms.resolve(target) {
        Some((c, _)) => normalize_term(c),
        None => target_norm.clone(),
    };
    if pt.canon_norm.as_deref() == Some(canon_var.as_str()) {
        return 0.9;
    }
    if pt.expanded.contains(&target_norm) || pt.expanded.contains(&canon_var) {
        return 0.85;
    }
    if let Some(s) = pt.related.get(&canon_var) {
        return *s;
    }
    0.0
}

/// Range-match strength between the query's desired value range and the
/// variable's observed range: fraction of the query range the variable's
/// range covers. No range in the query → 1; variable lacking numeric data
/// scores a neutral 0.5.
fn range_similarity(range: Option<(f64, f64)>, var: &VariableFeature) -> f64 {
    range_similarity_values(range, var.value_range())
}

/// The value-level body of [`range_similarity`], shared with the
/// allocation-free scorer so both paths run the identical arithmetic.
fn range_similarity_values(range: Option<(f64, f64)>, vrange: Option<(f64, f64)>) -> f64 {
    let Some((qlo, qhi)) = range else { return 1.0 };
    let Some((vlo, vhi)) = vrange else { return 0.5 };
    let lo = qlo.max(vlo);
    let hi = qhi.min(vhi);
    if hi < lo {
        // disjoint: decay with normalized distance between ranges
        let gap = if vhi < qlo { qlo - vhi } else { vlo - qhi };
        let scale = (qhi - qlo).max(1e-9);
        return 0.3 * (-gap / scale).exp();
    }
    let denom = (qhi - qlo).max(1e-9);
    ((hi - lo) / denom).clamp(0.0, 1.0)
}

/// Best-variable similarity for one prepared term: name × range over the
/// dataset's searchable variables.
pub fn prepared_term_score(
    pt: &PreparedTerm,
    dataset: &DatasetFeature,
    vocab: &Vocabulary,
) -> (Option<String>, f64) {
    let mut best: (Option<String>, f64) = (None, 0.0);
    for var in dataset.searchable_variables() {
        let name_s = name_similarity(pt, var, vocab);
        if name_s <= 0.0 {
            continue;
        }
        let s = name_s * range_similarity(pt.term.range, var);
        if s > best.1 {
            best = (Some(var.name.clone()), s);
        }
    }
    best
}

/// Best-variable similarity for one query term (convenience wrapper that
/// prepares the term first; use [`prepared_term_score`] in loops).
pub fn variable_term_score(
    term: &VariableTerm,
    dataset: &DatasetFeature,
    vocab: &Vocabulary,
) -> (Option<String>, f64) {
    prepared_term_score(&PreparedTerm::prepare(term, vocab), dataset, vocab)
}

/// Scores one dataset against a query with pre-prepared terms; the engine
/// calls this once per candidate.
pub fn score_dataset_prepared(
    query: &Query,
    prepared: &[PreparedTerm],
    dataset: &DatasetFeature,
    vocab: &Vocabulary,
) -> ScoreBreakdown {
    let mut b = ScoreBreakdown::default();
    let mut weighted = 0.0;
    let mut total_weight = 0.0;
    if let Some(spatial) = &query.spatial {
        let s = spatial_score(spatial, dataset);
        b.space = Some(s);
        weighted += query.weights.space * s;
        total_weight += query.weights.space;
    }
    if let Some(window) = &query.time {
        let s = temporal_score(window, dataset);
        b.time = Some(s);
        weighted += query.weights.time * s;
        total_weight += query.weights.time;
    }
    if !prepared.is_empty() {
        let mut sum = 0.0;
        for pt in prepared {
            let (matched, s) = prepared_term_score(pt, dataset, vocab);
            b.variable_matches.push((pt.term.name.clone(), matched, s));
            sum += s;
        }
        let s = sum / prepared.len() as f64;
        b.variables = Some(s);
        weighted += query.weights.variables * s;
        total_weight += query.weights.variables;
    }
    b.total = if total_weight > 0.0 { weighted / total_weight } else { 0.0 };
    b
}

/// Scores one dataset against a query; returns the full breakdown.
pub fn score_dataset(
    query: &Query,
    dataset: &DatasetFeature,
    vocab: &Vocabulary,
) -> ScoreBreakdown {
    let prepared: Vec<PreparedTerm> =
        query.variables.iter().map(|t| PreparedTerm::prepare(t, vocab)).collect();
    score_dataset_prepared(query, &prepared, dataset, vocab)
}

/// Normalized name keys for one searchable variable, computed (and
/// interned) once at shard build time. With these in hand, per-candidate
/// scoring is pure hash lookups and float math — no `normalize_term`, no
/// synonym resolution, no `String` per candidate.
///
/// Invariant: every field holds exactly the value the allocating path
/// computes per candidate, so [`score_dataset_fast`] is bit-identical to
/// [`score_dataset_prepared`]'s `total` (asserted in debug builds at
/// materialization, and by the `fast_scorer_*` tests).
#[derive(Debug, Clone)]
pub(crate) struct VarKey {
    /// `normalize_term(&var.name)`.
    name_norm: Arc<str>,
    /// `normalize_term(var.search_name())`.
    search_norm: Arc<str>,
    /// Normalized canonical of `var.search_name()` per the synonym table
    /// (resolved against the **un**-normalized spelling, exactly like
    /// [`name_similarity`] does at query time).
    canon_norm: Option<Arc<str>>,
    /// `var.value_range()`.
    range: Option<(f64, f64)>,
}

/// Where and when a dataset is: the two fields of a feature the fast scorer
/// reads, copied out at shard build time. Features are shared between
/// engines and sit wherever the allocator put them when the store was
/// decoded; with these (and the [`VarKey`]s) in the shard's own arrays,
/// scoring a candidate never follows the pointer to its feature.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Extent {
    bbox: Option<GeoBBox>,
    time: Option<TimeInterval>,
}

impl Extent {
    /// The extent of `dataset`.
    pub(crate) fn of(dataset: &DatasetFeature) -> Extent {
        Extent { bbox: dataset.bbox, time: dataset.time }
    }
}

/// Interns one normalized spelling: catalogs repeat the same handful of
/// variable names across thousands of datasets, so shard build memory
/// stays proportional to the vocabulary, not the catalog.
pub(crate) fn intern(interner: &mut StdHashSet<Arc<str>>, s: String) -> Arc<str> {
    if let Some(existing) = interner.get(s.as_str()) {
        return existing.clone();
    }
    let arc: Arc<str> = s.into();
    interner.insert(arc.clone());
    arc
}

impl VarKey {
    /// Precomputes the keys for one variable.
    pub(crate) fn build(
        var: &VariableFeature,
        vocab: &Vocabulary,
        interner: &mut StdHashSet<Arc<str>>,
    ) -> VarKey {
        use metamess_core::text::normalize_term;
        VarKey {
            name_norm: intern(interner, normalize_term(&var.name)),
            search_norm: intern(interner, normalize_term(var.search_name())),
            canon_norm: vocab
                .synonyms
                .resolve(var.search_name())
                .map(|(c, _)| intern(interner, normalize_term(c))),
            range: var.value_range(),
        }
    }
}

/// Allocation-free mirror of [`name_similarity`]: every comparison reads a
/// precomputed key instead of re-normalizing the variable's spellings.
fn name_similarity_key(pt: &PreparedTerm, key: &VarKey) -> f64 {
    if pt.name_norm.as_str() == &*key.search_norm || pt.name_norm.as_str() == &*key.name_norm {
        return 1.0;
    }
    let canon_var: &str = key.canon_norm.as_deref().unwrap_or(&key.search_norm);
    if pt.canon_norm.as_deref() == Some(canon_var) {
        return 0.9;
    }
    if pt.expanded.contains(&*key.search_norm) || pt.expanded.contains(canon_var) {
        return 0.85;
    }
    if let Some(s) = pt.related.get(canon_var) {
        return *s;
    }
    0.0
}

/// Allocation-free mirror of [`score_dataset_prepared`] computing only the
/// combined `total` — the number top-k selection ranks by. `extent` must be
/// the dataset's, and `var_keys` its searchable variables in iteration order
/// (the shard builds them that way). The arithmetic (operation order,
/// accumulation, best-tracking) is kept line-for-line identical so the
/// result is bit-identical to `breakdown.total`.
pub(crate) fn score_dataset_fast(
    query: &Query,
    prepared: &[PreparedTerm],
    extent: &Extent,
    var_keys: &[VarKey],
) -> f64 {
    let mut weighted = 0.0;
    let mut total_weight = 0.0;
    if let Some(spatial) = &query.spatial {
        let s = bbox_score(spatial, extent.bbox.as_ref());
        weighted += query.weights.space * s;
        total_weight += query.weights.space;
    }
    if let Some(window) = &query.time {
        let s = interval_score(window, extent.time.as_ref());
        weighted += query.weights.time * s;
        total_weight += query.weights.time;
    }
    if !prepared.is_empty() {
        let mut sum = 0.0;
        for pt in prepared {
            let mut best = 0.0;
            for key in var_keys {
                let name_s = name_similarity_key(pt, key);
                if name_s <= 0.0 {
                    continue;
                }
                let s = name_s * range_similarity_values(pt.term.range, key.range);
                if s > best {
                    best = s;
                }
            }
            sum += best;
        }
        let s = sum / prepared.len() as f64;
        weighted += query.weights.variables * s;
        total_weight += query.weights.variables;
    }
    if total_weight > 0.0 {
        weighted / total_weight
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metamess_core::geo::{GeoBBox, GeoPoint};
    use metamess_core::time::Timestamp;

    fn vocab() -> Vocabulary {
        Vocabulary::observatory_default()
    }

    fn dataset() -> DatasetFeature {
        let mut d = DatasetFeature::new("stations/saturn01/2010/06.csv");
        d.bbox = Some(GeoBBox::point(GeoPoint::new(46.0, -124.0).unwrap()));
        d.time = Some(TimeInterval::new(
            Timestamp::from_ymd(2010, 6, 1).unwrap(),
            Timestamp::from_ymd(2010, 6, 30).unwrap(),
        ));
        let mut v = VariableFeature::new("wtemp");
        v.resolve("water_temperature", metamess_core::feature::NameResolution::KnownTranslation);
        v.summary.observe(6.0);
        v.summary.observe(12.0);
        d.variables.push(v);
        let mut qa = VariableFeature::new("qa_level");
        qa.flags.qa = true;
        d.variables.push(qa);
        d
    }

    #[test]
    fn spatial_inside_is_one_outside_decays() {
        let d = dataset();
        let near =
            SpatialTerm::Near { point: GeoPoint::new(46.0, -124.0).unwrap(), radius_km: 25.0 };
        assert_eq!(spatial_score(&near, &d), 1.0);
        let farish =
            SpatialTerm::Near { point: GeoPoint::new(45.5, -124.4).unwrap(), radius_km: 25.0 };
        let s = spatial_score(&farish, &d);
        assert!(s > 0.0 && s < 1.0, "{s}");
        let very_far =
            SpatialTerm::Near { point: GeoPoint::new(10.0, 10.0).unwrap(), radius_km: 25.0 };
        assert!(spatial_score(&very_far, &d) < 1e-6);
    }

    #[test]
    fn spatial_monotone_in_distance() {
        let d = dataset();
        let mk = |lat: f64| SpatialTerm::Near {
            point: GeoPoint::new(lat, -124.0).unwrap(),
            radius_km: 10.0,
        };
        let s1 = spatial_score(&mk(46.2), &d);
        let s2 = spatial_score(&mk(46.8), &d);
        let s3 = spatial_score(&mk(48.0), &d);
        assert!(s1 >= s2 && s2 >= s3, "{s1} {s2} {s3}");
    }

    #[test]
    fn spatial_missing_bbox_zero() {
        let mut d = dataset();
        d.bbox = None;
        let t = SpatialTerm::Near { point: GeoPoint::new(46.0, -124.0).unwrap(), radius_km: 10.0 };
        assert_eq!(spatial_score(&t, &d), 0.0);
    }

    #[test]
    fn region_intersection_scores_one() {
        let d = dataset();
        let r = SpatialTerm::Region(GeoBBox::new(45.9, 46.1, -124.1, -123.9).unwrap());
        assert_eq!(spatial_score(&r, &d), 1.0);
    }

    #[test]
    fn temporal_overlap_beats_gap() {
        let d = dataset();
        let whole_june = TimeInterval::new(
            Timestamp::from_ymd(2010, 6, 1).unwrap(),
            Timestamp::from_ymd(2010, 6, 30).unwrap(),
        );
        assert!(temporal_score(&whole_june, &d) >= 0.99);
        let july = TimeInterval::new(
            Timestamp::from_ymd(2010, 7, 5).unwrap(),
            Timestamp::from_ymd(2010, 7, 20).unwrap(),
        );
        let s_gap = temporal_score(&july, &d);
        assert!(s_gap < 0.5, "{s_gap}");
        let partial = TimeInterval::new(
            Timestamp::from_ymd(2010, 6, 25).unwrap(),
            Timestamp::from_ymd(2010, 7, 10).unwrap(),
        );
        let s_partial = temporal_score(&partial, &d);
        assert!(s_partial > s_gap && s_partial > 0.5, "{s_partial} {s_gap}");
    }

    #[test]
    fn temporal_missing_extent_zero() {
        let mut d = dataset();
        d.time = None;
        let w = TimeInterval::new(Timestamp(0), Timestamp(100));
        assert_eq!(temporal_score(&w, &d), 0.0);
    }

    #[test]
    fn temporal_instant_inside_window() {
        let mut d = dataset();
        d.time = Some(TimeInterval::instant(Timestamp::from_ymd(2010, 6, 15).unwrap()));
        let w = TimeInterval::new(
            Timestamp::from_ymd(2010, 6, 1).unwrap(),
            Timestamp::from_ymd(2010, 6, 30).unwrap(),
        );
        assert_eq!(temporal_score(&w, &d), 1.0);
    }

    #[test]
    fn variable_exact_and_synonym_match() {
        let d = dataset();
        let v = vocab();
        // canonical name matches the resolved variable
        let (m, s) = variable_term_score(
            &VariableTerm { name: "water_temperature".into(), range: None },
            &d,
            &v,
        );
        assert_eq!(m.as_deref(), Some("wtemp"));
        assert_eq!(s, 1.0);
        // query via a curated alternate resolves to the same canonical
        let (m2, s2) =
            variable_term_score(&VariableTerm { name: "t_water".into(), range: None }, &d, &v);
        assert_eq!(m2.as_deref(), Some("wtemp"));
        assert!(s2 >= 0.85, "{s2}");
    }

    #[test]
    fn variable_qa_columns_never_match() {
        let d = dataset();
        let v = vocab();
        let (m, s) =
            variable_term_score(&VariableTerm { name: "qa_level".into(), range: None }, &d, &v);
        assert_eq!(m, None);
        assert_eq!(s, 0.0);
    }

    #[test]
    fn range_overlap_fractions() {
        let d = dataset(); // wtemp range 6..12
        let v = vocab();
        let full = VariableTerm { name: "water_temperature".into(), range: Some((6.0, 12.0)) };
        assert_eq!(variable_term_score(&full, &d, &v).1, 1.0);
        // query 5..10: variable covers 6..10 of it = 0.8
        let part = VariableTerm { name: "water_temperature".into(), range: Some((5.0, 10.0)) };
        let s = variable_term_score(&part, &d, &v).1;
        assert!((s - 0.8).abs() < 1e-9, "{s}");
        // disjoint range scores low
        let cold = VariableTerm { name: "water_temperature".into(), range: Some((0.0, 2.0)) };
        assert!(variable_term_score(&cold, &d, &v).1 < 0.3);
    }

    #[test]
    fn hierarchy_match_scores_between() {
        let v = vocab();
        let mut d = dataset();
        let mut fl = VariableFeature::new("fluores375");
        fl.resolve("fluores375", metamess_core::feature::NameResolution::AlreadyCanonical);
        d.variables.push(fl);
        // querying the grouping concept "fluorescence" finds the leaf
        let (m, s) =
            variable_term_score(&VariableTerm { name: "fluorescence".into(), range: None }, &d, &v);
        assert_eq!(m.as_deref(), Some("fluores375"));
        assert!(s > 0.3 && s < 1.0, "{s}");
    }

    #[test]
    fn combined_score_weights_facets() {
        let d = dataset();
        let v = vocab();
        let q = Query::new()
            .near(46.0, -124.0, 25.0)
            .unwrap()
            .between(
                Timestamp::from_ymd(2010, 6, 1).unwrap(),
                Timestamp::from_ymd(2010, 6, 30).unwrap(),
            )
            .with_variable("water_temperature", None);
        let b = score_dataset(&q, &d, &v);
        assert_eq!(b.space, Some(1.0));
        assert!(b.time.unwrap() >= 0.99);
        assert_eq!(b.variables, Some(1.0));
        assert!(b.total > 0.99);
        assert_eq!(b.variable_matches.len(), 1);
    }

    #[test]
    fn empty_query_scores_zero() {
        let b = score_dataset(&Query::new(), &dataset(), &vocab());
        assert_eq!(b.total, 0.0);
        assert!(b.space.is_none());
    }

    #[test]
    fn fast_scorer_matches_breakdown_total_bitwise() {
        let v = vocab();
        let mut d = dataset();
        let mut fl = VariableFeature::new("fluores375");
        fl.resolve("fluores375", metamess_core::feature::NameResolution::AlreadyCanonical);
        d.variables.push(fl);
        let mut interner = StdHashSet::new();
        let keys: Vec<VarKey> =
            d.searchable_variables().map(|var| VarKey::build(var, &v, &mut interner)).collect();
        let queries = [
            Query::new(),
            Query::new().with_variable("water_temperature", None),
            Query::new().with_variable("t_water", Some((5.0, 10.0))),
            Query::new().with_variable("fluorescence", None).with_variable("salinity", None),
            Query::new()
                .near(45.8, -124.2, 25.0)
                .unwrap()
                .between(
                    Timestamp::from_ymd(2010, 6, 10).unwrap(),
                    Timestamp::from_ymd(2010, 7, 10).unwrap(),
                )
                .with_variable("water_temperature", Some((0.0, 8.0))),
        ];
        for q in &queries {
            let prepared: Vec<PreparedTerm> =
                q.variables.iter().map(|t| PreparedTerm::prepare(t, &v)).collect();
            let slow = score_dataset_prepared(q, &prepared, &d, &v).total;
            let fast = score_dataset_fast(q, &prepared, &Extent::of(&d), &keys);
            assert_eq!(fast.to_bits(), slow.to_bits(), "query {q:?}: fast {fast} vs slow {slow}");
        }
    }

    #[test]
    fn interner_dedupes_spellings() {
        let mut i = StdHashSet::new();
        let a = intern(&mut i, "water temperature".to_string());
        let b = intern(&mut i, "water temperature".to_string());
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn scores_bounded() {
        let d = dataset();
        let v = vocab();
        let q = Query::new()
            .near(45.0, -120.0, 5.0)
            .unwrap()
            .with_variable("salinity", Some((0.0, 1.0)));
        let b = score_dataset(&q, &d, &v);
        assert!((0.0..=1.0).contains(&b.total));
        for s in [b.space, b.time, b.variables].into_iter().flatten() {
            assert!((0.0..=1.0).contains(&s));
        }
    }
}
