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
//!
//! A [`VarKey`] is a spelling id into its build's table of [`VarNames`] plus
//! a value range. A query term's name tier depends on the spelling alone, so
//! a [`TierMemo`] works it out once per spelling the query meets, with
//! [`name_tier`], and every variable carrying that spelling reads it back.

use crate::query::{Query, SpatialTerm, VariableTerm};
use metamess_core::feature::{DatasetFeature, VariableFeature};
use metamess_core::geo::{GeoBBox, GeoPoint};
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

/// A query variable term with its vocabulary context precomputed: its name
/// tier against a spelling costs a few string compares and searches, paid
/// once per spelling per query and shard (the shard keeps what it found),
/// and an array read per variable after that.
#[derive(Debug, Clone)]
pub struct PreparedTerm {
    /// The original term.
    pub term: VariableTerm,
    /// Normalized query name.
    name_norm: String,
    /// Normalized canonical spelling, when the synonym table knows it.
    canon_norm: Option<String>,
    /// Normalized expanded spellings (alternates + taxonomy descendants),
    /// sorted: a handful of strings, searched without hashing.
    expanded: Vec<String>,
    /// Hierarchy-related canonical names with their similarity score
    /// (parent/children 0.8, deep siblings and grandchildren 0.6), sorted
    /// by name.
    related: Vec<(String, f64)>,
}

impl PreparedTerm {
    /// Prepares one term against the vocabulary.
    pub fn prepare(term: &VariableTerm, vocab: &Vocabulary) -> PreparedTerm {
        use metamess_core::text::{normalize_term, term_eq};
        let name_norm = normalize_term(&term.name);
        let canon_norm = vocab.synonyms.resolve(&term.name).map(|(c, _)| normalize_term(c));
        let mut expanded: Vec<String> =
            vocab.expand_term(&term.name).iter().map(|e| normalize_term(e)).collect();
        expanded.sort_unstable();
        expanded.dedup();

        // Hierarchy neighbourhood of the canonical concept: parent/children
        // at 0.8; siblings and grandchildren at 0.6 when the shared prefix
        // is at least two levels deep (a shared top-level root like
        // `physical` is not a relationship).
        let mut related: Vec<(String, f64)> = Vec::new();
        if let Some(canon) = &canon_norm {
            for tax in vocab.taxonomies.iter() {
                let Some(path) = tax.path_of(canon) else { continue };
                let mut add = |name: &str, score: f64| match related
                    .iter_mut()
                    .find(|(r, _)| term_eq(r, name))
                {
                    Some((_, e)) if score > *e => *e = score,
                    Some(_) => {}
                    None => related.push((normalize_term(name), score)),
                };
                for child in tax.children_of(canon) {
                    add(child, 0.8);
                    if path.len() >= 2 {
                        for grandchild in tax.children_of(child) {
                            add(grandchild, 0.6);
                        }
                    }
                }
                if path.len() >= 2 {
                    let parent = &path[path.len() - 2];
                    add(parent, 0.8);
                    if path.len() >= 3 {
                        for sibling in tax.children_of(parent) {
                            if !term_eq(sibling, canon) {
                                add(sibling, 0.6);
                            }
                        }
                    }
                }
            }
        }
        related.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        PreparedTerm { term: term.clone(), name_norm, canon_norm, expanded, related }
    }

    /// Whether `key` is one of the term's expanded spellings.
    fn expands_to(&self, key: &str) -> bool {
        self.expanded.binary_search_by(|e| e.as_str().cmp(key)).is_ok()
    }

    /// The hierarchy-related concepts, normalized, with their similarity:
    /// the only names a variable can score on without sharing an index key
    /// with the term, its concept being one of its own keys.
    pub(crate) fn related(&self) -> &[(String, f64)] {
        &self.related
    }

    /// The similarity of the hierarchy-related concept `concept`, if it is one.
    fn related_score(&self, concept: &str) -> Option<f64> {
        let at = self.related.binary_search_by(|(k, _)| k.as_str().cmp(concept)).ok()?;
        Some(self.related[at].1)
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

/// One searchable variable as [`score_keys`] reads it: the id of its
/// `(name, search_name)` spelling in a table of [`VarNames`], and its value
/// range. An engine build numbers each distinct spelling once and its
/// shards share the table; [`score_dataset_prepared`] makes a table of one
/// dataset's variables on the spot. The range is two floats and a flag, not
/// an `Option`, which keeps the key at 24 bytes and holds every range as is.
#[derive(Debug, Clone, Copy)]
pub(crate) struct VarKey {
    spelling: u32,
    /// Whether the variable saw a number; `lo` and `hi` are 0 when not.
    ranged: bool,
    lo: f64,
    hi: f64,
}

impl VarKey {
    /// The key of a variable spelled as spelling `spelling` of its table,
    /// whose values span `range`.
    pub(crate) fn new(spelling: u32, range: Option<(f64, f64)>) -> VarKey {
        let (lo, hi) = range.unwrap_or_default();
        VarKey { spelling, ranged: range.is_some(), lo, hi }
    }

    /// The id of the variable's spelling in its table.
    pub(crate) fn spelling(&self) -> u32 {
        self.spelling
    }

    /// `var.value_range()`.
    pub(crate) fn range(&self) -> Option<(f64, f64)> {
        self.ranged.then_some((self.lo, self.hi))
    }
}

/// What one `(name, search_name)` spelling resolves to against the
/// vocabulary: the normalized keys [`name_tier`] reads, and the raw name a
/// breakdown names a match by.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct VarNames {
    /// `var.name`, as harvested.
    raw: Arc<str>,
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
        mut intern: impl FnMut(&str) -> Arc<str>,
    ) -> VarNames {
        use metamess_core::text::normalize_term;
        VarNames {
            raw: intern(name),
            name_norm: intern(&normalize_term(name)),
            search_norm: intern(&normalize_term(search_name)),
            canon_norm: vocab
                .synonyms
                .resolve(search_name)
                .map(|(c, _)| intern(&normalize_term(c))),
        }
    }

    /// The concept the spelling stands for: its normalized canonical, or
    /// its normalized search spelling when the synonym table has none. What
    /// a browse menu counts a variable under.
    pub(crate) fn concept(&self) -> &str {
        self.canon_norm.as_deref().unwrap_or(&self.search_norm)
    }
}

/// Each prepared term's name tier against each spelling of a table, worked
/// out by [`name_tier`] the first time a scored variable carries the
/// spelling and read back after that. A slot holds the exact `f64`
/// `name_tier` returned, so a total scored through the memo is the total
/// without it, bit for bit. One memo serves one query on one shard: its
/// ranking pass and the hits that pass materializes.
pub(crate) struct TierMemo<'t> {
    table: &'t [VarNames],
    /// `tiers[term * table.len() + spelling]`; NaN until worked out, which
    /// no tier is.
    tiers: Vec<f64>,
}

impl<'t> TierMemo<'t> {
    /// An empty memo for `terms` prepared terms over `table`.
    pub(crate) fn new(table: &'t [VarNames], terms: usize) -> TierMemo<'t> {
        TierMemo { table, tiers: vec![f64::NAN; terms * table.len()] }
    }

    /// `name_tier(pt, …)` of spelling `spelling`, `pt` being prepared term
    /// number `term`.
    #[inline]
    fn tier(&mut self, term: usize, pt: &PreparedTerm, spelling: u32) -> f64 {
        let slot = &mut self.tiers[term * self.table.len() + spelling as usize];
        if slot.is_nan() {
            *slot = name_tier(pt, &self.table[spelling as usize]);
        }
        *slot
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
        Extent::new(dataset.bbox, dataset.time)
    }

    /// The extent of the dataset `row` holds.
    pub(crate) fn of_row(row: &RowView<'_>) -> Extent {
        Extent::new(row.bbox(), row.time())
    }

    /// A box [`GeoBBox::check`] refuses is no place, and counts as no box:
    /// the scorer, its bound and the R-tree read only boxes on the globe.
    fn new(bbox: Option<GeoBBox>, time: Option<TimeInterval>) -> Extent {
        Extent { bbox: bbox.filter(|b| b.check().is_ok()), time }
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
    pub(crate) fn id(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.ids.get(s) {
            return id;
        }
        let id = u32::try_from(self.keys.len()).expect("a build's keys fit a u32");
        let key: Arc<str> = s.into();
        self.ids.insert(Arc::clone(&key), id);
        self.keys.push(key);
        id
    }

    /// The one shared copy of `s`.
    pub(crate) fn intern(&mut self, s: &str) -> Arc<str> {
        let id = self.id(s);
        Arc::clone(self.key(id))
    }

    /// The key numbered `id`.
    pub(crate) fn key(&self, id: u32) -> &Arc<str> {
        &self.keys[id as usize]
    }

    /// Keys numbered so far: their numbers are `0..len`.
    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }
}

/// Name-match strength between a prepared query term and one variable:
/// exact match scores 1, same-canonical 0.9, expansion (synonym/descendant)
/// 0.85, hierarchy parent/child 0.8 and deep siblings 0.6, otherwise 0.
/// The only definition of a tier; [`TierMemo`] keeps what it returns.
fn name_tier(pt: &PreparedTerm, names: &VarNames) -> f64 {
    if pt.name_norm.as_str() == &*names.search_norm || pt.name_norm.as_str() == &*names.name_norm {
        return 1.0;
    }
    let canon_var = names.concept();
    if pt.canon_norm.as_deref() == Some(canon_var) {
        return 0.9;
    }
    // without a canonical, the concept is the search spelling: one lookup
    if pt.expands_to(&names.search_norm) || (names.canon_norm.is_some() && pt.expands_to(canon_var))
    {
        return 0.85;
    }
    pt.related_score(canon_var).unwrap_or(0.0)
}

/// What [`score_keys`] reports besides the total. Every method defaults to
/// doing nothing, so `()` — the ranking pass's sink — compiles to the bare
/// arithmetic.
pub(crate) trait ScoreSink {
    /// The spatial similarity, when the query has a spatial term.
    fn space(&mut self, _s: f64) {}
    /// The temporal similarity, when the query has a time window.
    fn time(&mut self, _s: f64) {}
    /// Variable term `term`'s similarity and the spelling of the variable
    /// that scored it, if any did.
    fn term(&mut self, _term: usize, _best: Option<&VarNames>, _s: f64) {}
    /// The mean over the variable terms.
    fn variables(&mut self, _s: f64) {}
}

impl ScoreSink for () {}

/// Fills a [`ScoreBreakdown`], naming each term and its best variable.
struct Explained<'a> {
    breakdown: ScoreBreakdown,
    prepared: &'a [PreparedTerm],
}

impl ScoreSink for Explained<'_> {
    fn space(&mut self, s: f64) {
        self.breakdown.space = Some(s);
    }
    fn time(&mut self, s: f64) {
        self.breakdown.time = Some(s);
    }
    fn term(&mut self, term: usize, best: Option<&VarNames>, s: f64) {
        let var = best.map(|names| names.raw.to_string());
        self.breakdown.variable_matches.push((self.prepared[term].term.name.clone(), var, s));
    }
    fn variables(&mut self, s: f64) {
        self.breakdown.variables = Some(s);
    }
}

/// Scores one dataset against a query — the only place the weighted
/// average is computed. `extent` must be the dataset's and `var_keys` its
/// searchable variables in iteration order, their spelling ids into the
/// table `memo` was made over for `prepared`; returns the combined total,
/// the number top-k selection ranks by.
pub(crate) fn score_keys<S: ScoreSink>(
    query: &Query,
    prepared: &[PreparedTerm],
    memo: &mut TierMemo<'_>,
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
            let (mut best_spelling, mut best) = (None, 0.0);
            for key in var_keys {
                let name_s = memo.tier(term, pt, key.spelling);
                if name_s <= 0.0 {
                    continue;
                }
                let s = name_s * range_similarity_values(pt.term.range, key.range());
                if s > best {
                    (best_spelling, best) = (Some(key.spelling), s);
                }
            }
            sink.term(term, best_spelling.map(|id| &memo.table[id as usize]), best);
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

/// How far below its exact value a candidate's distance bound is put: the
/// haversine [`score_keys`] computes can fall short of the exact distance
/// by a few units in the last place, and by up to about 2·10⁻⁸ of it where
/// `asin` nears π/2, half way round the globe.
const DISTANCE_SHORTFALL: f64 = 1.0 - 1.0 / (1u64 << 20) as f64;

/// The same in kilometres, for gaps so small that the radians they are
/// computed in round away most of their digits.
const DISTANCE_SLACK_KM: f64 = 1e-9;

/// A lower bound on the great-circle distance between two points whose
/// latitudes are `lat_gap` degrees apart and longitudes `lon_gap`, one of
/// them at a latitude whose cosine is at least `cos_lat`; without a
/// trigonometric call. The latitude gap alone, R·|Δφ|, is never more than
/// the distance while it is at most half way round. So is 2R·√a for any
/// `a` below the haversine's
/// sin²(Δφ/2) + cos φ₁·cos φ₂·sin²(Δλ/2), since asin y ≥ y; and `a` is
/// made of sin x ≥ x − x³/6 (for x ≥ 0, and ≥ 0 up to √6) and
/// cos φ₂ ≥ cos φ₁ − |Δφ|. The larger of the two, less the margins above.
fn distance_below(lat_gap: f64, lon_gap: f64, cos_lat: f64) -> f64 {
    use metamess_core::geo::EARTH_RADIUS_KM as R;
    let sin_below = |x: f64| (x - x * x * x / 6.0).max(0.0);
    let (dlat, dlon) = (lat_gap.to_radians(), lon_gap.to_radians());
    let (s, t) = (sin_below(dlat / 2.0), sin_below(dlon / 2.0));
    let a = s * s + cos_lat * (cos_lat - dlat).max(0.0) * t * t;
    let lat_only = if dlat <= std::f64::consts::PI { R * dlat } else { 0.0 };
    let d = lat_only.max(2.0 * R * a.sqrt().min(1.0));
    d * DISTANCE_SHORTFALL - DISTANCE_SLACK_KM
}

/// What an upper bound on a query's [`score_keys`] reads of a spatial term:
/// where it is, and how a distance turns into a similarity.
#[derive(Debug, Clone, Copy)]
enum SpaceBound {
    /// `bbox_score` of a `near` term: 1 within `radius`, decaying over
    /// `scale` beyond it. `cos_lat` is the cosine of the point's latitude.
    Near { point: GeoPoint, radius: f64, scale: f64, cos_lat: f64 },
    /// `bbox_score` of a region: 1 on it, decaying over `scale` off it.
    /// `cos_lat` is the least cosine of a latitude on it.
    Region { region: GeoBBox, scale: f64, cos_lat: f64 },
}

impl SpaceBound {
    /// An upper bound on `bbox_score` for `bbox`: the score's decay of a
    /// [`distance_below`] the distance it decays with, from the latitude
    /// and longitude gaps between the term and the box. Both must be on the
    /// globe ([`GeoBBox::check`]): beyond a pole the haversine's cosines
    /// turn negative and a latitude gap is no longer a distance, and far
    /// beyond ±180 the radians it subtracts lose more of a longitude gap
    /// than the margins allow.
    fn ceiling(&self, bbox: Option<&GeoBBox>) -> f64 {
        let Some(b) = bbox else { return 0.0 };
        let decayed = |x: f64| exp_above(x).min(1.0);
        match *self {
            SpaceBound::Near { point: p, radius, scale, cos_lat } => {
                let lat_gap = (b.min_lat - p.lat).max(p.lat - b.max_lat).max(0.0);
                let lon_gap = (b.min_lon - p.lon).max(p.lon - b.max_lon).max(0.0);
                let d = distance_below(lat_gap, lon_gap, cos_lat);
                if d <= radius {
                    1.0
                } else {
                    decayed(-(d - radius) / scale)
                }
            }
            SpaceBound::Region { region: r, scale, cos_lat } => {
                let lat_gap = (r.min_lat - b.max_lat).max(b.min_lat - r.max_lat).max(0.0);
                let lon_gap = (r.min_lon - b.max_lon).max(b.min_lon - r.max_lon).max(0.0);
                let d = distance_below(lat_gap, lon_gap, cos_lat);
                if d <= 0.0 {
                    1.0
                } else {
                    decayed(-d / scale)
                }
            }
        }
    }
}

/// The cosine of latitude `lat` (degrees), rounded down past the error of
/// `cos` and never below 0.
fn cos_below(lat: f64) -> f64 {
    (lat.to_radians().cos() * DISTANCE_SHORTFALL).max(0.0)
}

/// At least what `exp` gives for any `y ≤ x`: `exp` is within about an
/// ulp of e^x where its result is normal, which the raise by 2⁻³⁰ covers
/// many times over, and the floor of 10⁻³⁰⁰ covers results so small that
/// their error is not relative.
fn exp_above(x: f64) -> f64 {
    const RAISE: f64 = 1.0 + 1.0 / (1u64 << 30) as f64;
    (x.exp() * RAISE).max(1e-300)
}

/// At least [`interval_score`]: the same arithmetic where the intervals
/// overlap, and [`exp_above`] for the decay of a gap.
fn interval_ceiling(window: &TimeInterval, extent: Option<&TimeInterval>) -> f64 {
    match extent {
        Some(extent) if !window.overlaps(extent) => {
            let gap = window.gap_secs(extent) as f64;
            let scale = (window.duration_secs().max(86_400)) as f64;
            0.5 * exp_above(-gap / scale)
        }
        _ => interval_score(window, extent),
    }
}

/// What bounds a query's scores from above, worked out once per query: a
/// candidate's bound reads its [`Extent`] and, per variable term, a ceiling
/// on the term's similarity that the caller found without reading the
/// candidate's variables. Each facet's bound is at least the facet's
/// similarity, in floating point, and the weighted average is taken with
/// the operations of [`score_keys`] in its order; with the weights
/// [`Query::check`] accepts each of them is monotone, so the bound is at
/// least the score, bit for bit.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Ceiling {
    space: Option<SpaceBound>,
}

impl Ceiling {
    /// The ceiling of `query`, which must have passed [`Query::check`].
    pub(crate) fn of(query: &Query) -> Ceiling {
        let space = query.spatial.as_ref().map(|term| match *term {
            SpatialTerm::Near { point, radius_km } => SpaceBound::Near {
                point,
                radius: radius_km,
                scale: radius_km.max(0.1),
                cos_lat: cos_below(point.lat),
            },
            SpatialTerm::Region(region) => SpaceBound::Region {
                region,
                scale: (region.area_km2().sqrt()).max(10.0),
                cos_lat: cos_below(region.min_lat).min(cos_below(region.max_lat)),
            },
        });
        Ceiling { space }
    }

    /// An upper bound on the score of a candidate at `extent` whose
    /// similarity to variable term `t` of `terms` is at most
    /// `term_ceiling(t)`: never negative or NaN (the weights are neither,
    /// nor is any facet's bound).
    pub(crate) fn bound(
        &self,
        query: &Query,
        extent: &Extent,
        terms: usize,
        term_ceiling: impl Fn(usize) -> f64,
    ) -> f64 {
        let mut weighted = 0.0;
        let mut total_weight = 0.0;
        if let Some(space) = &self.space {
            weighted += query.weights.space * space.ceiling(extent.bbox.as_ref());
            total_weight += query.weights.space;
        }
        if let Some(window) = &query.time {
            weighted += query.weights.time * interval_ceiling(window, extent.time.as_ref());
            total_weight += query.weights.time;
        }
        if terms > 0 {
            let mut sum = 0.0;
            for t in 0..terms {
                sum += term_ceiling(t);
            }
            weighted += query.weights.variables * (sum / terms as f64);
            total_weight += query.weights.variables;
        }
        if total_weight > 0.0 {
            weighted / total_weight
        } else {
            0.0
        }
    }
}

/// [`score_keys`] with the breakdown filled in, each match named by the
/// raw name of its spelling.
pub(crate) fn explain_keys(
    query: &Query,
    prepared: &[PreparedTerm],
    memo: &mut TierMemo<'_>,
    extent: &Extent,
    var_keys: &[VarKey],
) -> ScoreBreakdown {
    let mut sink = Explained { breakdown: ScoreBreakdown::default(), prepared };
    let total = score_keys(query, prepared, memo, extent, var_keys, &mut sink);
    ScoreBreakdown { total, ..sink.breakdown }
}

/// Scores one dataset against a query with pre-prepared terms and explains
/// the score: the one scoring routine over a spelling table of this
/// dataset's variables alone (the id of each is its position), its
/// breakdown filled in as a shard fills a hit's. For the reference oracle;
/// a shard explains its hits from the table its build made.
pub fn score_dataset_prepared(
    query: &Query,
    prepared: &[PreparedTerm],
    dataset: &DatasetFeature,
    vocab: &Vocabulary,
) -> ScoreBreakdown {
    let vars: Vec<&VariableFeature> = dataset.searchable_variables().collect();
    let table: Vec<VarNames> = vars
        .iter()
        .map(|v| VarNames::resolve(&v.name, v.search_name(), vocab, |s| Arc::from(s)))
        .collect();
    let keys: Vec<VarKey> =
        (0u32..).zip(&vars).map(|(id, v)| VarKey::new(id, v.value_range())).collect();
    let mut memo = TierMemo::new(&table, prepared.len());
    explain_keys(query, prepared, &mut memo, &Extent::of(dataset), &keys)
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

    /// (query term, variable name, its canonical, similarity): every name
    /// tier the default vocabulary can reach, by value.
    const NAME_TIERS: &[(&str, &str, Option<&str>, f64)] = &[
        ("water_temperature", "wtemp", Some("water_temperature"), 1.0), // search spelling
        ("WTEMP", "wtemp", Some("water_temperature"), 1.0),             // raw spelling
        ("t_water", "wtemp", Some("water_temperature"), 0.9),           // same canonical
        ("temperature", "wtemp", Some("water_temperature"), 0.85),      // descendant
        ("temperature", "t_water", None, 0.85), // descendant, through an alternate's canonical
        ("optics", "turb", Some("turbidity"), 0.85), // descendant
        ("water_temperature", "temperature", None, 0.8), // parent
        ("salinity", "physical", None, 0.8),    // parent
        ("water_temperature", "atemp", Some("air_temperature"), 0.6), // deep sibling
        ("fluorescence", "fluores400", Some("fluores400"), 0.6), // deep sibling
        ("salinity", "wtemp", Some("water_temperature"), 0.0), // unrelated
    ];

    #[test]
    fn name_tiers_score_exact_values() {
        for &(term, name, canonical, want) in NAME_TIERS {
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
    fn a_shard_scores_through_its_memo_what_the_reference_scores() {
        use crate::shard::ShardEngine;
        use metamess_core::store::Image;
        let vocab = vocab();
        // every tier by value, and a QA column spelled like the term
        let cases = NAME_TIERS
            .iter()
            .map(|&(term, name, canonical, _)| (term, name, canonical, false))
            .chain([("water_temperature", "water_temperature", None, true)]);
        for (term, name, canonical, qa) in cases {
            // two candidates of one spelling, over different ranges, each
            // beside a variable only the query's second term matches
            let datasets: Vec<DatasetFeature> = [(1.0, 5.0), (4.0, 9.0)]
                .into_iter()
                .enumerate()
                .map(|(i, (lo, hi))| {
                    let mut d = DatasetFeature::new(format!("memo{i}.csv"));
                    let mut var = VariableFeature::new(name);
                    if let Some(c) = canonical {
                        var.resolve(c, NameResolution::KnownTranslation);
                    }
                    var.flags.qa = qa;
                    var.summary.observe(lo);
                    var.summary.observe(hi);
                    d.variables.push(var);
                    d.variables.push(VariableFeature::new("turb"));
                    d
                })
                .collect();
            let image = Arc::new(Image::encode(&datasets.iter().collect::<Vec<_>>()));
            let shard = ShardEngine::build_all(vec![image.rows().collect()], &vocab).remove(0);
            let q = Query::new().with_variable(term, Some((2.0, 6.0))).with_variable("turb", None);
            let prepared: Vec<PreparedTerm> =
                q.variables.iter().map(|t| PreparedTerm::prepare(t, &vocab)).collect();
            let want: Vec<ScoreBreakdown> =
                datasets.iter().map(|d| score_dataset_prepared(&q, &prepared, d, &vocab)).collect();
            let check = |memo: &mut TierMemo<'_>, ix: usize, when: &str| {
                let ranked = shard.score(&q, &prepared, memo, ix);
                assert_eq!(ranked.to_bits(), want[ix].total.to_bits(), "{when}: {term} vs {name}");
                let hit = shard.score_hit(&q, &prepared, memo, ix);
                assert_eq!(hit.breakdown, want[ix], "{when}: {term} vs {name}");
                assert_eq!(hit.score.to_bits(), want[ix].total.to_bits());
            };
            let mut memo = shard.tier_memo(prepared.len());
            check(&mut memo, 0, "cold");
            check(&mut memo, 0, "warm");
            check(&mut memo, 1, "another range");
            // a hit explained first, through a cold memo
            let hit = shard.score_hit(&q, &prepared, &mut shard.tier_memo(prepared.len()), 1);
            assert_eq!(hit.breakdown, want[1], "cold hit: {term} vs {name}");
            // The reference scores through a memo of its own, so a memo that
            // kept the wrong tier would fool both sides alike: check every
            // slot against `name_tier` itself, and the second term by value.
            let table = memo.table;
            for (t, pt) in prepared.iter().enumerate() {
                for (id, names) in (0u32..).zip(table) {
                    let (kept, fresh) = (memo.tier(t, pt, id), name_tier(pt, names));
                    assert_eq!(kept.to_bits(), fresh.to_bits(), "{term} vs {name}: term {t}");
                }
            }
            for b in &want {
                assert_eq!(b.variable_matches[1], ("turb".into(), Some("turb".into()), 1.0));
            }
        }
    }

    #[test]
    fn a_variable_key_holds_its_spelling_and_range_in_24_bytes() {
        assert!(std::mem::size_of::<VarKey>() <= 24, "{}", std::mem::size_of::<VarKey>());
        let bits = |r: Option<(f64, f64)>| r.map(|(lo, hi)| (lo.to_bits(), hi.to_bits()));
        for range in [
            None,
            Some((0.0, 0.0)),
            Some((-0.0, 0.0)),
            Some((f64::NEG_INFINITY, f64::INFINITY)),
            Some((f64::NAN, 1.5)),
        ] {
            let key = VarKey::new(7, range);
            assert_eq!((key.spelling(), bits(key.range())), (7, bits(range)));
        }
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
    fn a_space_bound_is_at_least_the_spatial_score() {
        // a xorshift, so that the cases are a function of the seed alone
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut float = |lo: f64, hi: f64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            lo + (hi - lo) * (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut reached = 0;
        for case in 0..200_000 {
            // near the poles, the equator and either side of the
            // antimeridian, or anywhere; boxes from a point to a hemisphere
            let centre = |float: &mut dyn FnMut(f64, f64) -> f64| match case % 4 {
                0 => (
                    float(80.0, 90.0) * if case % 8 == 0 { 1.0 } else { -1.0 },
                    float(-180.0, 180.0),
                ),
                1 => {
                    (float(-1.0, 1.0), float(170.0, 180.0) * if case % 8 == 1 { 1.0 } else { -1.0 })
                }
                2 => (float(40.0, 50.0), float(-130.0, -120.0)),
                _ => (float(-90.0, 90.0), float(-180.0, 180.0)),
            };
            let (lat, lon) = centre(&mut float);
            let size = [0.0, 1e-9, 0.01, 1.0, 30.0, 90.0][case % 6];
            let (h, w) = (float(0.0, size), float(0.0, 2.0 * size));
            let bbox = GeoBBox {
                min_lat: (lat - h).max(-90.0),
                max_lat: (lat + h).min(90.0),
                min_lon: (lon - w).max(-180.0),
                max_lon: (lon + w).min(180.0),
            };
            let (qlat, qlon) = centre(&mut float);
            let term = if case % 3 == 0 {
                let (h, w) = (float(0.0, size), float(0.0, size));
                SpatialTerm::Region(GeoBBox {
                    min_lat: (qlat - h).max(-90.0),
                    max_lat: (qlat + h).min(90.0),
                    min_lon: (qlon - w).max(-180.0),
                    max_lon: (qlon + w).min(180.0),
                })
            } else {
                let radius = [0.1, 1.0, 25.0, 300.0, 5000.0][case % 5];
                SpatialTerm::Near { point: GeoPoint { lat: qlat, lon: qlon }, radius_km: radius }
            };
            let q = Query { spatial: Some(term.clone()), ..Query::new() };
            let bound = Ceiling::of(&q).space.unwrap().ceiling(Some(&bbox));
            let exact = bbox_score(&term, Some(&bbox));
            assert!(bound >= exact, "case {case}: {bound} < {exact} for {term:?} and {bbox:?}");
            reached += usize::from(exact > 0.0 && exact < 1.0 && bound < exact * 1.01);
        }
        assert!(reached > 10_000, "the bound is seldom tight: {reached}");
        // A box inverted, beyond a pole (where the haversine wraps: (100, 0)
        // is about 19 km from (80, 179) by the score's own distance) or far
        // beyond ±180 (where its radians lose a longitude gap's digits) is
        // no box to the scorer, and a query naming one is refused.
        use metamess_core::store::Image;
        let off = [
            GeoBBox { min_lat: 50.0, max_lat: -50.0, min_lon: 0.0, max_lon: 1.0 },
            GeoBBox { min_lat: 80.0, max_lat: 95.0, min_lon: 0.0, max_lon: 1.0 },
            GeoBBox { min_lat: 0.0, max_lat: 1.0, min_lon: 170.0, max_lon: 1e10 },
            GeoBBox { min_lat: f64::NAN, max_lat: 1.0, min_lon: 0.0, max_lon: 1.0 },
        ];
        for bbox in off {
            let mut d = DatasetFeature::new("off.csv");
            d.bbox = Some(bbox);
            assert!(Extent::of(&d).bbox.is_none(), "{bbox:?}");
            let image = Arc::new(Image::encode(&[&d]));
            assert!(image.rows().all(|row| Extent::of_row(&row.view()).bbox.is_none()));
            assert!(Query::new().in_region(bbox).check().is_err(), "{bbox:?}");
        }
        for point in [GeoPoint { lat: 100.0, lon: 0.0 }, GeoPoint { lat: 0.0, lon: 1e10 }] {
            let near = SpatialTerm::Near { point, radius_km: 25.0 };
            assert!(Query { spatial: Some(near), ..Query::new() }.check().is_err(), "{point:?}");
        }
    }

    #[test]
    fn exp_above_is_at_least_exp() {
        for i in 0..=20_000 {
            let x = -(i as f64) * 0.0745; // down to about −1490
            let (above, exact) = (exp_above(x), x.exp());
            assert!(above >= exact, "{x}: {above} < {exact}");
            assert!(exact < 1e-300 || above <= exact * 1.000_000_01, "{x}: {above} vs {exact}");
        }
        for x in [0.0, -0.0, -f64::MIN_POSITIVE, -1e-300, -1.0, -709.0, -745.2, f64::NEG_INFINITY] {
            assert!(exp_above(x) >= x.exp(), "{x}");
        }
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
        let a = i.intern("water temperature");
        let b = i.intern("water temperature");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(i.id("salinity"), 1, "numbered in first-seen order");
        assert_eq!(i.id("water temperature"), 0);
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
