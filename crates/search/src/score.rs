//! Distance-based similarity scoring — the ranking heart of "Data Near
//! Here": every facet contributes a similarity in `[0, 1]`, combined by
//! weighted average over the facets the query actually uses.
//!
//! One routine, [`score_keys`], computes that number. It reads a dataset
//! through its [`Extent`] and [`VarKey`]s and reports what it found into a
//! [`ScoreSink`] it is generic over: the ranking pass passes `()` and
//! allocates nothing, and [`score_dataset_prepared`] passes a sink that
//! fills a [`ScoreBreakdown`]. A hit's explained score and its rank score
//! are the same arithmetic, so they agree bit for bit by construction.

use crate::query::{Query, SpatialTerm, VariableTerm};
use metamess_core::feature::{DatasetFeature, VariableFeature};
use metamess_core::geo::GeoBBox;
use metamess_core::store::RowView;
use metamess_core::time::TimeInterval;
use metamess_vocab::Vocabulary;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
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

/// Spatial similarity of a dataset's bbox to the query's spatial term.
///
/// Inside the box / radius scores 1; outside decays exponentially with the
/// ratio of distance to the query's characteristic scale.
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

/// Range-match strength between the query's desired value range and the
/// variable's observed range (`VarKey::range`): fraction of the query range
/// the variable's range covers. No range in the query → 1; variable lacking
/// numeric data scores a neutral 0.5.
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

/// Normalized name keys for one searchable variable — everything
/// [`score_keys`] reads about it. The shard builds them once, at build
/// time, out of its spelling table, so ranking a candidate is pure hash
/// lookups and float math — no `normalize_term`, no synonym resolution, no
/// `String`. [`score_dataset_prepared`] builds them for one dataset on the
/// spot.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct VarKey {
    names: VarNames,
    /// `var.value_range()`.
    range: Option<(f64, f64)>,
}

/// The name half of a [`VarKey`]: a pure function of the variable's
/// `(name, search_name)` spelling and the vocabulary.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct VarNames {
    /// `normalize_term(&var.name)`.
    name_norm: Arc<str>,
    /// `normalize_term(var.search_name())`.
    search_norm: Arc<str>,
    /// Normalized canonical of `var.search_name()` per the synonym table
    /// (resolved against the **un**-normalized spelling).
    canon_norm: Option<Arc<str>>,
}

impl VarNames {
    /// Resolves one spelling against the vocabulary, storing each key
    /// through `intern`.
    pub(crate) fn resolve(
        name: &str,
        search_name: &str,
        vocab: &Vocabulary,
        mut intern: impl FnMut(String) -> Arc<str>,
    ) -> VarNames {
        use metamess_core::text::normalize_term;
        VarNames {
            name_norm: intern(normalize_term(name)),
            search_norm: intern(normalize_term(search_name)),
            canon_norm: vocab.synonyms.resolve(search_name).map(|(c, _)| intern(normalize_term(c))),
        }
    }
}

impl VarKey {
    /// The keys of a variable spelled `names` whose values span `range`.
    pub(crate) fn new(names: VarNames, range: Option<(f64, f64)>) -> VarKey {
        VarKey { names, range }
    }

    /// The concept the variable stands for: its normalized canonical, or
    /// its normalized search spelling when the synonym table has none. What
    /// a browse menu counts it under.
    pub(crate) fn concept(&self) -> &str {
        self.names.canon_norm.as_deref().unwrap_or(&self.names.search_norm)
    }
}

/// Where and when a dataset is: the two fields of a feature the scorer
/// reads, copied out at shard build time. With these (and the [`VarKey`]s)
/// in the shard's own arrays, scoring a candidate never reads the row it
/// came from.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Extent {
    pub(crate) bbox: Option<GeoBBox>,
    pub(crate) time: Option<TimeInterval>,
}

impl Extent {
    /// The extent of `dataset`.
    pub(crate) fn of(dataset: &DatasetFeature) -> Extent {
        Extent { bbox: dataset.bbox, time: dataset.time }
    }

    /// The extent of the dataset `row` holds.
    pub(crate) fn of_row(row: &RowView<'_>) -> Extent {
        Extent { bbox: row.bbox(), time: row.time() }
    }
}

/// Normalized keys, each stored once and numbered in first-seen order:
/// catalogs repeat the same handful of variable names across thousands of
/// datasets, so shard build memory stays proportional to the vocabulary,
/// not the catalog.
#[derive(Debug, Default)]
pub(crate) struct Interner {
    ids: HashMap<Arc<str>, u32>,
    keys: Vec<Arc<str>>,
}

impl Interner {
    /// The number of `s`, numbering it when it is new.
    pub(crate) fn id(&mut self, s: String) -> u32 {
        if let Some(&id) = self.ids.get(s.as_str()) {
            return id;
        }
        let id = u32::try_from(self.keys.len()).expect("a build's keys fit a u32");
        let key: Arc<str> = s.into();
        self.ids.insert(Arc::clone(&key), id);
        self.keys.push(key);
        id
    }

    /// The one shared copy of `s`.
    pub(crate) fn intern(&mut self, s: String) -> Arc<str> {
        let id = self.id(s);
        Arc::clone(self.key(id))
    }

    /// The key numbered `id`.
    pub(crate) fn key(&self, id: u32) -> &Arc<str> {
        &self.keys[id as usize]
    }
}

/// Name-match strength between a prepared query term and one variable:
/// exact match scores 1, same-canonical 0.9, expansion (synonym/descendant)
/// 0.85, hierarchy parent/child 0.8 and deep siblings 0.6, otherwise 0.
// Forced: with two instances of `score_keys` calling it, LLVM keeps it out
// of line, and the ranking loop measured 15–35 % slower per candidate.
#[inline(always)]
fn name_tier(pt: &PreparedTerm, key: &VarKey) -> f64 {
    let names = &key.names;
    if pt.name_norm.as_str() == &*names.search_norm || pt.name_norm.as_str() == &*names.name_norm {
        return 1.0;
    }
    let canon_var = key.concept();
    if pt.canon_norm.as_deref() == Some(canon_var) {
        return 0.9;
    }
    if pt.expanded.contains(&*names.search_norm) || pt.expanded.contains(canon_var) {
        return 0.85;
    }
    if let Some(s) = pt.related.get(canon_var) {
        return *s;
    }
    0.0
}

/// What [`score_keys`] reports besides the total. Every method defaults to
/// doing nothing, so `()` — the ranking pass's sink — compiles to the bare
/// arithmetic.
pub(crate) trait ScoreSink {
    /// The spatial similarity, when the query has a spatial term.
    fn space(&mut self, _s: f64) {}
    /// The temporal similarity, when the query has a time window.
    fn time(&mut self, _s: f64) {}
    /// Variable term `term`'s similarity and the position (among the
    /// dataset's `var_keys`) of the variable that scored it, if any did.
    fn term(&mut self, _term: usize, _best: Option<usize>, _s: f64) {}
    /// The mean over the variable terms.
    fn variables(&mut self, _s: f64) {}
}

impl ScoreSink for () {}

/// Fills a [`ScoreBreakdown`], naming each term and its best variable.
struct Explained<'a, N> {
    breakdown: ScoreBreakdown,
    prepared: &'a [PreparedTerm],
    /// The raw name of each variable `score_keys` is handed, in its order.
    names: &'a [N],
}

impl<N: AsRef<str>> ScoreSink for Explained<'_, N> {
    fn space(&mut self, s: f64) {
        self.breakdown.space = Some(s);
    }
    fn time(&mut self, s: f64) {
        self.breakdown.time = Some(s);
    }
    fn term(&mut self, term: usize, best: Option<usize>, s: f64) {
        let var = best.map(|p| self.names[p].as_ref().to_owned());
        self.breakdown.variable_matches.push((self.prepared[term].term.name.clone(), var, s));
    }
    fn variables(&mut self, s: f64) {
        self.breakdown.variables = Some(s);
    }
}

/// Scores one dataset against a query — the only place the weighted
/// average is computed. `extent` must be the dataset's and `var_keys` its
/// searchable variables in iteration order; returns the combined total,
/// the number top-k selection ranks by.
pub(crate) fn score_keys<S: ScoreSink>(
    query: &Query,
    prepared: &[PreparedTerm],
    extent: &Extent,
    var_keys: &[VarKey],
    sink: &mut S,
) -> f64 {
    let mut weighted = 0.0;
    let mut total_weight = 0.0;
    if let Some(spatial) = &query.spatial {
        let s = bbox_score(spatial, extent.bbox.as_ref());
        sink.space(s);
        weighted += query.weights.space * s;
        total_weight += query.weights.space;
    }
    if let Some(window) = &query.time {
        let s = interval_score(window, extent.time.as_ref());
        sink.time(s);
        weighted += query.weights.time * s;
        total_weight += query.weights.time;
    }
    if !prepared.is_empty() {
        let mut sum = 0.0;
        for (term, pt) in prepared.iter().enumerate() {
            let (mut best_at, mut best) = (None, 0.0);
            for (at, key) in var_keys.iter().enumerate() {
                let name_s = name_tier(pt, key);
                if name_s <= 0.0 {
                    continue;
                }
                let s = name_s * range_similarity_values(pt.term.range, key.range);
                if s > best {
                    (best_at, best) = (Some(at), s);
                }
            }
            sink.term(term, best_at, best);
            sum += best;
        }
        let s = sum / prepared.len() as f64;
        sink.variables(s);
        weighted += query.weights.variables * s;
        total_weight += query.weights.variables;
    }
    if total_weight > 0.0 {
        weighted / total_weight
    } else {
        0.0
    }
}

/// [`score_keys`] with the breakdown filled in: `names` are the raw names
/// of the variables `var_keys` stand for.
pub(crate) fn explain_keys<N: AsRef<str>>(
    query: &Query,
    prepared: &[PreparedTerm],
    extent: &Extent,
    var_keys: &[VarKey],
    names: &[N],
) -> ScoreBreakdown {
    let mut sink = Explained { breakdown: ScoreBreakdown::default(), prepared, names };
    let total = score_keys(query, prepared, extent, var_keys, &mut sink);
    ScoreBreakdown { total, ..sink.breakdown }
}

/// Scores one dataset against a query with pre-prepared terms and explains
/// the score: the one scoring routine over keys built for this dataset
/// alone, its breakdown filled in as a shard fills a hit's. For the
/// reference oracle and the cache-survival proofs; a shard explains its hits
/// from the keys it built at build time.
pub fn score_dataset_prepared(
    query: &Query,
    prepared: &[PreparedTerm],
    dataset: &DatasetFeature,
    vocab: &Vocabulary,
) -> ScoreBreakdown {
    let vars: Vec<&VariableFeature> = dataset.searchable_variables().collect();
    let keys: Vec<VarKey> = vars
        .iter()
        .map(|v| {
            let names = VarNames::resolve(&v.name, v.search_name(), vocab, Arc::from);
            VarKey::new(names, v.value_range())
        })
        .collect();
    let names: Vec<&str> = vars.iter().map(|v| v.name.as_str()).collect();
    explain_keys(query, prepared, &Extent::of(dataset), &keys, &names)
}

#[cfg(test)]
mod tests {
    use super::*;
    use metamess_core::feature::NameResolution;
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
        v.resolve("water_temperature", NameResolution::KnownTranslation);
        v.summary.observe(6.0);
        v.summary.observe(12.0);
        d.variables.push(v);
        let mut qa = VariableFeature::new("qa_level");
        qa.flags.qa = true;
        d.variables.push(qa);
        d
    }

    fn score(q: &Query, d: &DatasetFeature) -> ScoreBreakdown {
        let v = vocab();
        let prepared: Vec<PreparedTerm> =
            q.variables.iter().map(|t| PreparedTerm::prepare(t, &v)).collect();
        score_dataset_prepared(q, &prepared, d, &v)
    }

    /// The matched variable and similarity of the one-term query `name`
    /// (with `range`) against `d`, read off the breakdown.
    fn term_match(
        name: &str,
        range: Option<(f64, f64)>,
        d: &DatasetFeature,
    ) -> (Option<String>, f64) {
        let mut b = score(&Query::new().with_variable(name, range), d);
        assert_eq!(b.variable_matches.len(), 1);
        let (term, matched, s) = b.variable_matches.remove(0);
        assert_eq!(term, name);
        (matched, s)
    }

    #[test]
    fn spatial_inside_is_one_outside_decays() {
        let d = dataset();
        let near =
            SpatialTerm::Near { point: GeoPoint::new(46.0, -124.0).unwrap(), radius_km: 25.0 };
        assert_eq!(bbox_score(&near, d.bbox.as_ref()), 1.0);
        let farish =
            SpatialTerm::Near { point: GeoPoint::new(45.5, -124.4).unwrap(), radius_km: 25.0 };
        let s = bbox_score(&farish, d.bbox.as_ref());
        assert!(s > 0.0 && s < 1.0, "{s}");
        let very_far =
            SpatialTerm::Near { point: GeoPoint::new(10.0, 10.0).unwrap(), radius_km: 25.0 };
        assert!(bbox_score(&very_far, d.bbox.as_ref()) < 1e-6);
    }

    #[test]
    fn spatial_monotone_in_distance() {
        let d = dataset();
        let mk = |lat: f64| SpatialTerm::Near {
            point: GeoPoint::new(lat, -124.0).unwrap(),
            radius_km: 10.0,
        };
        let s1 = bbox_score(&mk(46.2), d.bbox.as_ref());
        let s2 = bbox_score(&mk(46.8), d.bbox.as_ref());
        let s3 = bbox_score(&mk(48.0), d.bbox.as_ref());
        assert!(s1 >= s2 && s2 >= s3, "{s1} {s2} {s3}");
    }

    #[test]
    fn spatial_missing_bbox_zero() {
        let t = SpatialTerm::Near { point: GeoPoint::new(46.0, -124.0).unwrap(), radius_km: 10.0 };
        assert_eq!(bbox_score(&t, None), 0.0);
    }

    #[test]
    fn region_intersection_scores_one() {
        let d = dataset();
        let r = SpatialTerm::Region(GeoBBox::new(45.9, 46.1, -124.1, -123.9).unwrap());
        assert_eq!(bbox_score(&r, d.bbox.as_ref()), 1.0);
    }

    #[test]
    fn temporal_overlap_beats_gap() {
        let d = dataset();
        let whole_june = TimeInterval::new(
            Timestamp::from_ymd(2010, 6, 1).unwrap(),
            Timestamp::from_ymd(2010, 6, 30).unwrap(),
        );
        assert!(interval_score(&whole_june, d.time.as_ref()) >= 0.99);
        let july = TimeInterval::new(
            Timestamp::from_ymd(2010, 7, 5).unwrap(),
            Timestamp::from_ymd(2010, 7, 20).unwrap(),
        );
        let s_gap = interval_score(&july, d.time.as_ref());
        assert!(s_gap < 0.5, "{s_gap}");
        let partial = TimeInterval::new(
            Timestamp::from_ymd(2010, 6, 25).unwrap(),
            Timestamp::from_ymd(2010, 7, 10).unwrap(),
        );
        let s_partial = interval_score(&partial, d.time.as_ref());
        assert!(s_partial > s_gap && s_partial > 0.5, "{s_partial} {s_gap}");
    }

    #[test]
    fn temporal_missing_extent_zero() {
        let w = TimeInterval::new(Timestamp(0), Timestamp(100));
        assert_eq!(interval_score(&w, None), 0.0);
    }

    #[test]
    fn temporal_instant_inside_window() {
        let instant = TimeInterval::instant(Timestamp::from_ymd(2010, 6, 15).unwrap());
        let w = TimeInterval::new(
            Timestamp::from_ymd(2010, 6, 1).unwrap(),
            Timestamp::from_ymd(2010, 6, 30).unwrap(),
        );
        assert_eq!(interval_score(&w, Some(&instant)), 1.0);
    }

    #[test]
    fn variable_exact_and_synonym_match() {
        let d = dataset();
        // canonical name matches the resolved variable
        assert_eq!(term_match("water_temperature", None, &d), (Some("wtemp".into()), 1.0));
        // so does the raw spelling
        assert_eq!(term_match("wtemp", None, &d), (Some("wtemp".into()), 1.0));
        // query via a curated alternate resolves to the same canonical
        assert_eq!(term_match("t_water", None, &d), (Some("wtemp".into()), 0.9));
    }

    #[test]
    fn variable_qa_columns_never_match() {
        assert_eq!(term_match("qa_level", None, &dataset()), (None, 0.0));
    }

    #[test]
    fn range_overlap_fractions() {
        let d = dataset(); // wtemp range 6..12
        assert_eq!(term_match("water_temperature", Some((6.0, 12.0)), &d).1, 1.0);
        // query 5..10: variable covers 6..10 of it = 0.8
        let s = term_match("water_temperature", Some((5.0, 10.0)), &d).1;
        assert!((s - 0.8).abs() < 1e-9, "{s}");
        // disjoint range scores low
        assert!(term_match("water_temperature", Some((0.0, 2.0)), &d).1 < 0.3);
    }

    #[test]
    fn hierarchy_match_scores_between() {
        let mut d = dataset();
        let mut fl = VariableFeature::new("fluores375");
        fl.resolve("fluores375", NameResolution::AlreadyCanonical);
        d.variables.push(fl);
        // querying the grouping concept "fluorescence" finds the leaf, a
        // sibling of the concept's canonical `chlorophyll_fluorescence`
        assert_eq!(term_match("fluorescence", None, &d), (Some("fluores375".into()), 0.6));
    }

    #[test]
    fn name_tiers_score_exact_values() {
        // (query term, variable name, its canonical, similarity): every
        // name tier the default vocabulary can reach, by value.
        let rows: &[(&str, &str, Option<&str>, f64)] = &[
            ("water_temperature", "wtemp", Some("water_temperature"), 1.0), // search spelling
            ("WTEMP", "wtemp", Some("water_temperature"), 1.0),             // raw spelling
            ("t_water", "wtemp", Some("water_temperature"), 0.9),           // same canonical
            ("temperature", "wtemp", Some("water_temperature"), 0.85),      // descendant
            ("optics", "turb", Some("turbidity"), 0.85),                    // descendant
            ("water_temperature", "temperature", None, 0.8),                // parent
            ("salinity", "physical", None, 0.8),                            // parent
            ("water_temperature", "atemp", Some("air_temperature"), 0.6),   // deep sibling
            ("fluorescence", "fluores400", Some("fluores400"), 0.6),        // deep sibling
            ("salinity", "wtemp", Some("water_temperature"), 0.0),          // unrelated
        ];
        for &(term, name, canonical, want) in rows {
            let mut d = DatasetFeature::new("tiers.csv");
            let mut var = VariableFeature::new(name);
            if let Some(c) = canonical {
                var.resolve(c, NameResolution::KnownTranslation);
            }
            d.variables.push(var);
            let matched = (want > 0.0).then(|| name.to_string());
            assert_eq!(term_match(term, None, &d), (matched, want), "{term} vs {name}");
        }
        // a QA column is never searched, whatever its name
        let mut d = DatasetFeature::new("qa.csv");
        let mut qa = VariableFeature::new("water_temperature");
        qa.flags.qa = true;
        d.variables.push(qa);
        assert_eq!(term_match("water_temperature", None, &d), (None, 0.0));
    }

    #[test]
    fn combined_score_weights_facets() {
        let q = Query::new()
            .near(46.0, -124.0, 25.0)
            .unwrap()
            .between(
                Timestamp::from_ymd(2010, 6, 1).unwrap(),
                Timestamp::from_ymd(2010, 6, 30).unwrap(),
            )
            .with_variable("water_temperature", None);
        let b = score(&q, &dataset());
        assert_eq!(b.space, Some(1.0));
        assert!(b.time.unwrap() >= 0.99);
        assert_eq!(b.variables, Some(1.0));
        assert!(b.total > 0.99);
        assert_eq!(b.variable_matches.len(), 1);
    }

    #[test]
    fn empty_query_scores_zero() {
        let b = score(&Query::new(), &dataset());
        assert_eq!(b.total, 0.0);
        assert!(b.space.is_none());
    }

    #[test]
    fn interner_dedupes_spellings() {
        let mut i = Interner::default();
        let a = i.intern("water temperature".to_string());
        let b = i.intern("water temperature".to_string());
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(i.id("salinity".to_string()), 1, "numbered in first-seen order");
        assert_eq!(i.id("water temperature".to_string()), 0);
        assert!(Arc::ptr_eq(i.key(0), &a));
    }

    #[test]
    fn scores_bounded() {
        let q = Query::new()
            .near(45.0, -120.0, 5.0)
            .unwrap()
            .with_variable("salinity", Some((0.0, 1.0)));
        let b = score(&q, &dataset());
        assert!((0.0..=1.0).contains(&b.total));
        for s in [b.space, b.time, b.variables].into_iter().flatten() {
            assert!((0.0..=1.0).contains(&s));
        }
    }
}
