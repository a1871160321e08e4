//! Catalog shards: the hash layout and per-shard indexes.
//!
//! A [`ShardEngine`] is one slice of the catalog with its own R-tree,
//! interval index, and term postings. The coordinator (see `fanout.rs`)
//! probes every non-empty shard; a shard that ends up with no candidates is
//! never scored at all.
//!
//! # Layout contract
//!
//! A layout is a shard count: each dataset lives in the shard its mixed
//! `DatasetId` names modulo that count, decided from the dataset alone, so a
//! `shardd` process and the in-process engine agree on every shard's
//! members. Where a dataset lives never decides *whether* it is considered:
//! the coordinator unions per-shard candidate sets, so results are
//! bit-identical at every shard count.
//!
//! # Determinism of the nearest-neighbour merge
//!
//! `RTree::nearest` emits items in `(distance, payload index)` order, and
//! shard members keep ascending global-index order, so each shard's
//! nearest list is its `generous`-smallest under the global total order
//! `(distance, global index)`. Merging the per-shard lists under that same
//! order and truncating therefore selects exactly the set the unsharded
//! engine's single `nearest` call would.

use crate::engine::SearchHit;
use crate::explain::search_metrics;
use crate::fanout::ProbeSummary;
use crate::interval::IntervalIndex;
use crate::plan::QueryPlan;
use crate::query::{Query, SpatialTerm};
use crate::rtree::RTree;
use crate::score::{
    explain_keys, score_keys, Extent, Interner, PreparedTerm, TierMemo, VarKey, VarNames,
};
use metamess_core::geo::GeoBBox;
use metamess_core::id::DatasetId;
use metamess_core::store::{Image, Row, SearchableVariable};
use metamess_core::text::normalize_term;
use metamess_core::time::TimeInterval;
use metamess_vocab::Vocabulary;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// Hard ceiling on the shard count. Beyond a few hundred shards the
/// per-shard fixed probe cost dominates, and an absurd `--shards` must not
/// allocate an absurd number of index structures.
pub const MAX_SHARDS: usize = 256;

/// Clamps a requested shard count into the supported `1..=MAX_SHARDS`
/// range (0 means "unsharded", i.e. one shard).
pub fn clamp_shards(requested: usize) -> usize {
    requested.clamp(1, MAX_SHARDS)
}

/// How datasets are assigned to shards: by hash, the only layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Partitioner {
    /// Mixed `DatasetId` modulo shard count: uniform load.
    Hash,
}

/// SplitMix64 finalizer: `DatasetId`s are FNV hashes of paths, whose low
/// bits correlate; mixing keeps the modulo assignment uniform.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// How a sharded engine is laid out: a hashed shard count, clamped to
/// `1..=MAX_SHARDS` at construction, so a spec is always valid by the time
/// it reaches a builder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    count: usize,
}

impl ShardSpec {
    /// A spec with a clamped shard count. The partitioner is always
    /// [`Partitioner::Hash`], the one layout.
    pub fn new(count: usize, _partitioner: Partitioner) -> ShardSpec {
        ShardSpec { count: clamp_shards(count) }
    }

    /// The unsharded layout: one shard.
    pub fn single() -> ShardSpec {
        ShardSpec::new(1, Partitioner::Hash)
    }

    /// Shards in the layout (always `1..=MAX_SHARDS`).
    pub fn count(&self) -> usize {
        self.count
    }

    /// The shard in `0..count` that dataset `id` lives in.
    pub(crate) fn shard_of(&self, id: DatasetId) -> usize {
        (mix64(id.0) % self.count as u64) as usize
    }
}

impl Default for ShardSpec {
    fn default() -> ShardSpec {
        ShardSpec::single()
    }
}

/// One slice of the catalog with its own indexes.
pub struct ShardEngine {
    /// The members, still encoded, each sharing the image the store read
    /// returned instead of copying its bytes.
    rows: Vec<Row>,
    /// Each dataset's bbox and time interval, read out of its row: with the
    /// variable keys below, everything scoring a candidate reads.
    extents: Vec<Extent>,
    /// The spelling table of the build this shard came from, shared by all
    /// of that build's shards: each spelling's name keys and raw name, by
    /// the id a [`VarKey`] carries.
    spellings: Arc<[VarNames]>,
    /// One key per searchable variable, in iteration order: its spelling id
    /// and value range. All datasets' keys back to back in one allocation —
    /// dataset `ix` has `var_keys[key_starts[ix]..key_starts[ix + 1]]` — so
    /// that how fast a candidate scores does not depend on where the
    /// allocator happened to put 25 000 little vectors.
    var_keys: Vec<VarKey>,
    key_starts: Vec<u32>,
    /// Every member's path back to back — dataset `ix` has
    /// `paths[path_ends[ix - 1]..path_ends[ix]]` — for the rank order's
    /// tie-break and the hits.
    paths: String,
    path_ends: Vec<usize>,
    /// Local index → position in the full catalog order. Strictly
    /// increasing (members are added in catalog order), which the
    /// nearest-merge determinism argument relies on.
    global_ix: Vec<usize>,
    rtree: RTree,
    intervals: IntervalIndex,
    terms: BTreeMap<Arc<str>, Vec<u32>>,
}

impl ShardEngine {
    /// Builds one shard per member list of `layout` (each `(global index,
    /// row)` pairs in ascending global order), numbering every variable's
    /// spelling in one table against `vocab` that all of them share. Reads
    /// each row in place; decodes none.
    pub(crate) fn build_all(layout: &[Vec<(usize, Row)>], vocab: &Vocabulary) -> Vec<ShardEngine> {
        let mut spellings = Spellings::new(vocab);
        let mut shards: Vec<ShardEngine> =
            layout.iter().map(|members| ShardEngine::build(members, &mut spellings)).collect();
        let table: Arc<[VarNames]> = spellings.table.into();
        for shard in &mut shards {
            shard.spellings = Arc::clone(&table);
        }
        if metamess_telemetry::enabled() {
            let rows = layout.iter().map(Vec::len).sum::<usize>();
            search_metrics().rows_indexed.add(rows as u64);
        }
        shards
    }

    /// One shard of [`ShardEngine::build_all`], its spelling ids into
    /// `spellings` — which is still growing, so the shard's own table is
    /// left empty for the caller to fill in when the build is done.
    fn build<'a>(members: &'a [(usize, Row)], spellings: &mut Spellings<'a>) -> ShardEngine {
        let mut rows = Vec::with_capacity(members.len());
        let mut extents = Vec::with_capacity(members.len());
        // sized once, for every variable of the members, and cut to the
        // searchable ones at the end: growing by doubling would hold two
        // copies of the largest array of the shard while it moved
        let (mut variables, mut path_bytes) = (0, 0);
        for (_, row) in members {
            let view = row.view();
            let (dir, name) = view.path();
            path_bytes += dir.len() + name.len();
            variables += view.variable_count();
        }
        let mut var_keys = Vec::with_capacity(variables);
        let mut key_starts = Vec::with_capacity(members.len() + 1);
        key_starts.push(0u32);
        let mut paths = String::with_capacity(path_bytes);
        let mut path_ends = Vec::with_capacity(members.len());
        let mut global_ix = Vec::with_capacity(members.len());
        let mut spatial_entries = Vec::new();
        let mut time_entries = Vec::new();
        // by key id, so filing a variable compares no strings
        let mut postings: Vec<Vec<u32>> = Vec::new();
        for (ix, (gix, row)) in members.iter().enumerate() {
            let local = u32::try_from(ix).expect("a shard's members fit a u32");
            let view = row.view();
            global_ix.push(*gix);
            extents.push(Extent::of_row(&view));
            let (dir, name) = view.path();
            paths.push_str(dir);
            paths.push_str(name);
            path_ends.push(paths.len());
            if let Some(b) = view.bbox() {
                spatial_entries.push((b, ix));
            }
            if let Some(t) = view.time() {
                time_entries.push((t, ix));
            }
            let memo = spellings.memo_of(row.image());
            view.searchable_variables(|v| {
                let (spelling, keys) = spellings.of(memo, &v);
                for &k in keys {
                    let k = k as usize;
                    if k >= postings.len() {
                        postings.resize_with(k + 1, Vec::new);
                    }
                    if postings[k].last() != Some(&local) {
                        postings[k].push(local);
                    }
                }
                var_keys.push(VarKey::new(spelling, v.value_range));
            });
            key_starts.push(u32::try_from(var_keys.len()).expect("a shard's variables fit a u32"));
            rows.push(row.clone());
        }
        var_keys.shrink_to_fit();
        let terms = (0u32..)
            .zip(postings)
            .filter(|(_, posting)| !posting.is_empty())
            .map(|(k, posting)| (Arc::clone(spellings.keys.key(k)), posting))
            .collect();
        ShardEngine {
            rtree: RTree::build(spatial_entries),
            intervals: IntervalIndex::build(time_entries),
            terms,
            rows,
            extents,
            spellings: Arc::default(),
            var_keys,
            key_starts,
            paths,
            path_ends,
            global_ix,
        }
    }

    /// Datasets in this shard.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the shard holds no datasets.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The row at a local index.
    pub fn row(&self, local_ix: usize) -> &Row {
        &self.rows[local_ix]
    }

    /// The rows by local index.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// The path of the dataset at a local index.
    pub fn path(&self, local_ix: usize) -> &str {
        let start = local_ix.checked_sub(1).map_or(0, |before| self.path_ends[before]);
        &self.paths[start..self.path_ends[local_ix]]
    }

    /// The concepts of each member's searchable variables, member by member:
    /// what its browse menus count.
    pub(crate) fn concepts(&self) -> impl Iterator<Item = impl Iterator<Item = &str>> {
        (0..self.len())
            .map(|ix| self.keys(ix).iter().map(|k| self.spellings[k.spelling() as usize].concept()))
    }

    fn keys(&self, local_ix: usize) -> &[VarKey] {
        &self.var_keys[self.key_starts[local_ix] as usize..self.key_starts[local_ix + 1] as usize]
    }

    /// Candidate generation against this shard's indexes. Nearest-neighbour
    /// lists are always collected and merged globally by the coordinator.
    pub(crate) fn probe(&self, query: &Query, plan: &QueryPlan, generous: usize) -> ProbeSummary {
        let mut p = ProbeSummary::default();
        if let Some(spatial) = &query.spatial {
            match spatial {
                SpatialTerm::Near { point, radius_km } => {
                    self.collect_near(point, generous, &mut p);
                    self.rtree.intersecting_into(&near_window(point, *radius_km), &mut p.certain);
                }
                SpatialTerm::Region(region) => {
                    self.rtree.intersecting_into(region, &mut p.certain);
                    self.collect_near(&region.center(), generous, &mut p);
                }
            }
        }
        if let Some(window) = &query.time {
            self.intervals.overlapping_into(&expanded_time(window), &mut p.certain);
        }
        for keys in &plan.term_keys {
            for k in keys {
                if let Some(postings) = self.terms.get(k.as_str()) {
                    p.certain.extend_from_slice(postings);
                }
            }
        }
        // one flat vector, sorted and deduplicated: set semantics without a
        // node per candidate
        p.certain.sort_unstable();
        p.certain.dedup();
        p
    }

    fn collect_near(
        &self,
        point: &metamess_core::geo::GeoPoint,
        generous: usize,
        p: &mut ProbeSummary,
    ) {
        for (ix, dist) in self.rtree.nearest(point, generous) {
            p.near.push((dist, self.global_ix[ix] as u64, ix as u32));
        }
    }

    /// An empty memo of `terms` query terms' name tiers over this shard's
    /// spelling table: one per query, for [`ShardEngine::score`] and
    /// [`ShardEngine::score_hit`] alike.
    pub(crate) fn tier_memo(&self, terms: usize) -> TierMemo<'_> {
        TierMemo::new(&self.spellings, terms)
    }

    /// Scores one local candidate for ranking: the combined total only,
    /// from the shard's own extent and variable-key arrays, allocation-free.
    /// `memo` must be this shard's ([`ShardEngine::tier_memo`]), for
    /// `prepared`.
    pub(crate) fn score(
        &self,
        query: &Query,
        prepared: &[PreparedTerm],
        memo: &mut TierMemo<'_>,
        local_ix: usize,
    ) -> f64 {
        score_keys(query, prepared, memo, &self.extents[local_ix], self.keys(local_ix), &mut ())
    }

    /// Scores one local candidate into a hit with its explained breakdown:
    /// the same keys and memo, raw names from the spelling table, path from
    /// the shard's paths, and only the title read from the row.
    pub(crate) fn score_hit(
        &self,
        query: &Query,
        prepared: &[PreparedTerm],
        memo: &mut TierMemo<'_>,
        local_ix: usize,
    ) -> SearchHit {
        let breakdown =
            explain_keys(query, prepared, memo, &self.extents[local_ix], self.keys(local_ix));
        let row = &self.rows[local_ix];
        SearchHit {
            id: row.id(),
            path: self.path(local_ix).to_owned(),
            title: row.view().title().to_owned(),
            score: breakdown.total,
            breakdown,
        }
    }
}

/// The inverted-index keys a searchable variable spelled `(name,
/// search_name)` is filed under: its canonical concept and every hierarchy
/// ancestor (the helper query planning shares), plus its raw and search
/// spellings.
pub(crate) fn index_keys(name: &str, search_name: &str, vocab: &Vocabulary) -> BTreeSet<String> {
    let mut keys = vocab.canonical_keys(search_name);
    keys.insert(normalize_term(name));
    keys.insert(normalize_term(search_name));
    keys
}

/// An engine build's spelling table. After wrangling, a catalog's many
/// variables share a few hundred `(name, search_name)` spellings, and what
/// a shard files and scores a variable under is a pure function of its
/// spelling and the build's vocabulary — except the value range, which the
/// shard reads off the variable. So each distinct spelling is resolved
/// once, here, and numbered in first-seen order. A variable's image has
/// already numbered its descriptor, and one descriptor has one spelling, so
/// the spelling is looked up by the borrowed pair once per descriptor of
/// each image, and by the descriptor's number after that.
struct Spellings<'a> {
    vocab: &'a Vocabulary,
    /// Every key of every spelling, shared by all of them.
    keys: Interner,
    /// Each spelling seen, numbered.
    ids: HashMap<(&'a str, &'a str), u32>,
    /// By spelling id: the ids of its [`index_keys`] in `keys`.
    key_ids: Vec<Box<[u32]>>,
    /// By spelling id: its name keys and raw name. What the build's shards
    /// share when it is done.
    table: Vec<VarNames>,
    /// For each image met, by address, which entry of `memos` is its.
    images: HashMap<*const Image, usize>,
    /// One per image met: by descriptor number, the spelling id, or
    /// [`UNSEEN`] before a variable of that descriptor is met.
    memos: Vec<Box<[u32]>>,
}

/// A descriptor no variable of the build has been met with yet.
const UNSEEN: u32 = u32::MAX;

impl<'a> Spellings<'a> {
    /// An empty table over `vocab`.
    fn new(vocab: &'a Vocabulary) -> Spellings<'a> {
        Spellings {
            vocab,
            keys: Interner::default(),
            ids: HashMap::new(),
            key_ids: Vec::new(),
            table: Vec::new(),
            images: HashMap::new(),
            memos: Vec::new(),
        }
    }

    /// Which memo holds the spellings of `image`'s descriptors, made on
    /// first sight. The image outlives the build, so its address is not
    /// reused while the table is.
    fn memo_of(&mut self, image: &'a Arc<Image>) -> usize {
        let memos = &mut self.memos;
        *self.images.entry(Arc::as_ptr(image)).or_insert_with(|| {
            memos.push(vec![UNSEEN; image.descriptors()].into());
            memos.len() - 1
        })
    }

    /// The id of the spelling of `v`, a variable of the image whose memo is
    /// `memo`, and the ids of its index keys, worked out on first sight.
    fn of(&mut self, memo: usize, v: &SearchableVariable<'a>) -> (u32, &[u32]) {
        let Spellings { vocab, keys, ids, key_ids, table, memos, .. } = self;
        let id = &mut memos[memo][v.descriptor as usize];
        if *id == UNSEEN {
            let (name, search_name) = (v.name, v.search_name);
            *id = *ids.entry((name, search_name)).or_insert_with(|| {
                let id = u32::try_from(table.len()).expect("a build's spellings fit a u32");
                table.push(VarNames::resolve(name, search_name, vocab, |s| keys.intern(s)));
                key_ids.push(
                    index_keys(name, search_name, vocab).iter().map(|k| keys.id(k)).collect(),
                );
                id
            });
        }
        (*id, &key_ids[*id as usize])
    }
}

/// The "everything within 4 radii" window a `near` clause probes — shared
/// by every shard so the sharded and unsharded candidate sets agree by
/// construction.
pub(crate) fn near_window(point: &metamess_core::geo::GeoPoint, radius_km: f64) -> GeoBBox {
    let dlat = 4.0 * radius_km / 111.0;
    let dlon = 4.0 * radius_km / (111.0 * point.lat.to_radians().cos().max(0.1));
    GeoBBox {
        min_lat: (point.lat - dlat).max(-90.0),
        max_lat: (point.lat + dlat).min(90.0),
        min_lon: (point.lon - dlon).max(-180.0),
        max_lon: (point.lon + dlon).min(180.0),
    }
}

/// The padded window a time clause probes (similarity ranking wants
/// near-misses as candidates too).
pub(crate) fn expanded_time(window: &TimeInterval) -> TimeInterval {
    let pad = (window.duration_secs() as i64).max(86_400);
    TimeInterval::new(window.start.plus_seconds(-pad), window.end.plus_seconds(pad))
}

#[cfg(test)]
mod tests {
    use super::*;
    use metamess_core::feature::{DatasetFeature, VariableFeature};
    use metamess_core::geo::GeoPoint;
    use metamess_core::store::Image;
    use metamess_core::time::Timestamp;

    /// `features` encoded into one image, as the members of one shard.
    fn members(features: &[DatasetFeature]) -> Vec<(usize, Row)> {
        let image = Arc::new(Image::encode(&features.iter().collect::<Vec<_>>()));
        image.rows().enumerate().collect()
    }

    /// One shard over `features`, built alone.
    fn shard_of(features: &[DatasetFeature], vocab: &Vocabulary) -> ShardEngine {
        ShardEngine::build_all(&[members(features)], vocab).remove(0)
    }

    fn feature(path: &str, lat: f64, lon: f64, month: u32) -> DatasetFeature {
        let mut d = DatasetFeature::new(path);
        d.bbox = Some(GeoBBox::point(GeoPoint::new(lat, lon).unwrap()));
        d.time = Some(TimeInterval::new(
            Timestamp::from_ymd(2012, month, 1).unwrap(),
            Timestamp::from_ymd(2012, month, 28).unwrap(),
        ));
        d
    }

    #[test]
    fn clamp_shards_bounds_every_input() {
        assert_eq!(clamp_shards(0), 1);
        assert_eq!(clamp_shards(1), 1);
        assert_eq!(clamp_shards(97), 97);
        assert_eq!(clamp_shards(MAX_SHARDS), MAX_SHARDS);
        assert_eq!(clamp_shards(MAX_SHARDS + 1), MAX_SHARDS);
        assert_eq!(clamp_shards(usize::MAX), MAX_SHARDS);
    }

    #[test]
    fn spec_clamps_on_construction() {
        assert_eq!(ShardSpec::new(0, Partitioner::Hash).count(), 1);
        assert_eq!(ShardSpec::new(4096, Partitioner::Hash).count(), MAX_SHARDS);
        assert_eq!(ShardSpec::default(), ShardSpec::single());
        assert_eq!(ShardSpec::single().count(), 1);
    }

    #[test]
    fn every_partitioner_assigns_every_dataset_exactly_once() {
        let ids: Vec<DatasetId> =
            (0..23).map(|i| DatasetId::from_path(&format!("d{i}.csv"))).collect();
        let spec = ShardSpec::new(4, Partitioner::Hash);
        let assignment: Vec<usize> = ids.iter().map(|&id| spec.shard_of(id)).collect();
        assert!(assignment.iter().all(|&s| s < 4), "{assignment:?}");
        // deterministic, and every shard gets some of the 23
        assert_eq!(assignment, ids.iter().map(|&id| spec.shard_of(id)).collect::<Vec<_>>());
        assert!((0..4).all(|s| assignment.contains(&s)), "{assignment:?}");
    }

    #[test]
    fn empty_shard_probe_is_empty() {
        let vocab = Vocabulary::observatory_default();
        let shard = shard_of(&[], &vocab);
        assert!(shard.is_empty());
        let q =
            Query::parse("near 45.0,-124.0 from 2012-01-01 to 2012-02-01 with salinity").unwrap();
        let plan = QueryPlan::prepare(&q, &vocab);
        let p = shard.probe(&q, &plan, 50);
        assert!(p.certain.is_empty());
        assert!(p.near.is_empty());
    }

    /// What a shard files and scores, as a per-variable build over the
    /// features makes it: every variable resolved on its own, nothing
    /// remembered between them — the postings, and each dataset's name keys
    /// (raw name included) and value range per variable.
    type Built = (BTreeMap<String, Vec<u32>>, Vec<Vec<(VarNames, Option<(f64, f64)>)>>);

    fn per_variable_build(features: &[DatasetFeature], vocab: &Vocabulary) -> Built {
        let mut terms: BTreeMap<String, Vec<u32>> = BTreeMap::new();
        let mut var_keys = Vec::new();
        for (ix, d) in (0u32..).zip(features) {
            let mut keys = Vec::new();
            for v in d.searchable_variables() {
                for k in index_keys(&v.name, v.search_name(), vocab) {
                    let posting = terms.entry(k).or_default();
                    if posting.last() != Some(&ix) {
                        posting.push(ix);
                    }
                }
                let names = VarNames::resolve(&v.name, v.search_name(), vocab, |s| Arc::from(s));
                keys.push((names, v.value_range()));
            }
            var_keys.push(keys);
        }
        (terms, var_keys)
    }

    /// Datasets whose variables share spellings in every way a table can be
    /// tested by: one per row of the literal below.
    fn spelling_datasets() -> Vec<DatasetFeature> {
        use metamess_core::feature::NameResolution;
        // (name, canonical, qa, hidden, range) per variable, per dataset
        type Var<'s> = (&'s str, Option<&'s str>, bool, bool, (f64, f64));
        let rows: &[&[Var]] = &[
            // one raw name resolved here and left unresolved below
            &[("wtemp", Some("water_temperature"), false, false, (5.0, 9.0))],
            &[("wtemp", None, false, false, (6.0, 8.0))],
            // spellings that differ only in case or padding, and one that
            // differs in the raw name alone
            &[
                ("WTemp ", Some("water_temperature"), false, false, (1.0, 2.0)),
                ("wtemp", Some("water_temperature"), false, false, (3.0, 4.0)),
                ("water_temp", Some("water_temperature"), false, false, (3.0, 4.0)),
            ],
            // QA and hidden variables spelled like a searchable one
            &[
                ("sal", Some("salinity"), true, false, (0.0, 1.0)),
                ("sal", Some("salinity"), false, true, (0.0, 1.0)),
            ],
            // one spelling, a different range in every dataset
            &[("sal", Some("salinity"), false, false, (28.0, 33.0))],
            &[
                ("sal", Some("salinity"), false, false, (0.0, 5.0)),
                ("fluores375", None, false, false, (0.1, 0.2)),
            ],
            &[
                ("Fluorescence", None, false, false, (2.0, 3.0)),
                ("sal", Some("salinity"), false, false, (30.0, 31.0)),
            ],
        ];
        rows.iter()
            .enumerate()
            .map(|(i, vars)| {
                let mut d = DatasetFeature::new(format!("d{i}.csv"));
                for &(name, canonical, qa, hidden, (lo, hi)) in vars.iter() {
                    let mut v = VariableFeature::new(name);
                    if let Some(c) = canonical {
                        v.resolve(c, NameResolution::KnownTranslation);
                    }
                    (v.flags.qa, v.flags.hidden) = (qa, hidden);
                    v.summary.observe(lo);
                    v.summary.observe(hi);
                    d.variables.push(v);
                }
                d
            })
            .collect()
    }

    /// Holds each of `shards`, built over the features `parts`, to what
    /// resolving every variable builds: its postings, and each dataset's
    /// spellings and value ranges.
    fn builds_per_variable(
        shards: &[ShardEngine],
        parts: &[&[DatasetFeature]],
        vocab: &Vocabulary,
    ) {
        for (features, shard) in parts.iter().zip(shards) {
            let (terms, var_keys) = per_variable_build(features, vocab);
            let got: BTreeMap<String, Vec<u32>> =
                shard.terms.iter().map(|(k, p)| (k.to_string(), p.clone())).collect();
            assert_eq!(got, terms);
            for (ix, want) in var_keys.iter().enumerate() {
                let got: Vec<(VarNames, Option<(f64, f64)>)> = shard
                    .keys(ix)
                    .iter()
                    .map(|k| (shard.spellings[k.spelling() as usize].clone(), k.range()))
                    .collect();
                assert_eq!(got, *want, "{}", shard.path(ix));
            }
        }
    }

    #[test]
    fn spelling_table_builds_what_resolving_every_variable_builds() {
        let vocab = Vocabulary::observatory_default();
        let datasets = spelling_datasets();
        // two shards from one table: the second looks up what the first
        // resolved, and both hold the one table the build made
        let (first, second) = datasets.split_at(4);
        let shards = ShardEngine::build_all(&[members(first), members(second)], &vocab);
        assert!(Arc::ptr_eq(&shards[0].spellings, &shards[1].spellings));
        assert_eq!(shards[0].spellings.len(), 7, "one entry per searchable spelling");
        builds_per_variable(&shards, &[first, second], &vocab);
    }

    #[test]
    fn descriptor_numbers_of_many_images_build_what_resolving_every_variable_builds() {
        use metamess_core::store::codec::put_image;
        let vocab = Vocabulary::observatory_default();
        let mut datasets = spelling_datasets();
        // one spelling under two descriptors of one image: the units differ
        datasets[5].variables[0].unit = Some("psu".into());
        // members as a store read holds them: a snapshot's rows,
        // and a put's image for each dataset written since — in catalog
        // order, so the images interleave and number one descriptor
        // differently
        let snapshot: Vec<&DatasetFeature> = datasets.iter().step_by(2).collect();
        let snapshot = Arc::new(Image::encode(&snapshot));
        let puts: Vec<Arc<Image>> = datasets
            .iter()
            .skip(1)
            .step_by(2)
            .map(|f| Arc::new(put_image(f, &mut Vec::new())))
            .collect();
        let mut from_snapshot = snapshot.rows();
        let rows: Vec<Row> = (0..datasets.len())
            .map(|i| match i % 2 {
                0 => from_snapshot.next().unwrap(),
                _ => puts[i / 2].rows().next().unwrap(),
            })
            .collect();
        assert!(rows.iter().zip(&datasets).all(|(row, f)| row.id() == f.id));
        let members: Vec<(usize, Row)> = rows.into_iter().enumerate().collect();
        let (first, second) = members.split_at(3);
        let shards = ShardEngine::build_all(&[first.to_vec(), second.to_vec()], &vocab);
        builds_per_variable(&shards, &[&datasets[..3], &datasets[3..]], &vocab);
        // the table is the one a build over a single image makes: each
        // searchable spelling once, in first-seen order
        let whole = ShardEngine::build_all(&[self::members(&datasets)], &vocab);
        assert_eq!(*shards[0].spellings, *whole[0].spellings);
        assert_eq!(shards[0].spellings.len(), 7);
    }

    #[test]
    fn a_hit_from_the_columns_is_the_hit_the_feature_explains() {
        use crate::score::score_dataset_prepared;
        use metamess_core::feature::NameResolution;
        let vocab = Vocabulary::observatory_default();
        let features: Vec<DatasetFeature> = (0..5)
            .map(|i| {
                let mut d = feature(&format!("d{i}.csv"), 45.0 + i as f64, -124.0, 6);
                d.title = format!("cast {i}");
                for (name, canonical) in [("WTemp", "water_temperature"), ("sal", "salinity")] {
                    let mut v = VariableFeature::new(name);
                    v.resolve(canonical, NameResolution::KnownTranslation);
                    v.summary.observe(i as f64);
                    v.summary.observe(10.0);
                    v.flags.qa = i % 3 == 1 && name == "sal";
                    d.variables.push(v);
                }
                d
            })
            .collect();
        let shard = shard_of(&features, &vocab);
        let q = Query::parse("near 46.0,-124.0 with water_temperature between 2 and 8 with sal")
            .unwrap();
        let plan = QueryPlan::prepare(&q, &vocab);
        let mut memo = shard.tier_memo(plan.prepared.len());
        for (ix, d) in features.iter().enumerate() {
            assert_eq!(shard.path(ix), d.path);
            let hit = shard.score_hit(&q, &plan.prepared, &mut memo, ix);
            let want = score_dataset_prepared(&q, &plan.prepared, d, &vocab);
            assert_eq!((hit.id, &hit.path[..], &hit.title[..]), (d.id, &d.path[..], &d.title[..]));
            assert_eq!(hit.breakdown, want, "{}", d.path);
            assert_eq!(hit.score.to_bits(), want.total.to_bits());
            let ranked = shard.score(&q, &plan.prepared, &mut memo, ix);
            assert_eq!(hit.score.to_bits(), ranked.to_bits());
        }
    }
}
