//! Cases and oracle for the reference sweeps (`reference_sweep.rs` here and
//! in `crates/remote/tests/`): seeded catalogs and queries, and the naive
//! search every coordinator configuration must agree with.
//!
//! Index-driven candidate generation is an approximation the engine backs
//! with a full-scan fallback, so a linear oracle only pins it down where it
//! is exact. The cases stay inside that regime by construction:
//!
//! * every dataset has a bbox and catalogs hold fewer datasets than the
//!   smallest nearest-neighbour over-fetch (50), so a spatial query admits
//!   the whole catalog as candidates, whatever else it asks for;
//! * a time-only query's candidates (overlap with the padded window) all
//!   outscore its non-candidates, because the temporal score falls strictly
//!   with the gap;
//! * a variables-only query asks for more hits than a third of the catalog,
//!   which is the fallback's own trigger;
//! * the empty query always scans.
//!
//! [`any_catalog`] and [`any_query`] leave that regime — datasets without a
//! bbox or a time interval, every combination of query terms, small limits —
//! for the properties that hold of every search (`props.rs`,
//! `shard_props.rs`), where one engine is compared with another, not with
//! the oracle.
//!
//! Browse menus have an oracle too, [`reference_browse`], and a catalog
//! drawn for them, [`respell`]: the same datasets with the spellings a
//! wrangled archive leaves behind.

#![allow(dead_code, unused_imports)] // each test file takes only some of this

#[path = "../../../core/tests/common/mod.rs"]
mod seeded;

pub use seeded::{sweep, Rng};

use metamess_core::catalog::{Catalog, Mutation};
use metamess_core::feature::{DatasetFeature, NameResolution, VariableFeature};
use metamess_core::geo::{GeoBBox, GeoPoint};
use metamess_core::id::DatasetId;
use metamess_core::store::{Image, Row};
use metamess_core::text::normalize_term;
use metamess_core::time::{TimeInterval, Timestamp};
use metamess_search::{
    score_dataset_prepared, BrowseNode, BrowseTree, PreparedTerm, Query, SearchHit,
};
use metamess_vocab::{TaxonomyNode, Vocabulary};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

const VAR_POOL: &[&str] =
    &["water_temperature", "salinity", "dissolved_oxygen", "turbidity", "nitrate", "wind_speed"];

fn day(n: u64) -> Timestamp {
    Timestamp::from_ymd(2010, 1, 1).unwrap().plus_days(n as i64)
}

/// The two clusters datasets and spatial queries sit in, far enough apart
/// that spatial bounds separate them.
fn cluster(rng: &mut Rng) -> (f64, f64) {
    let (lat, lon) = if rng.below(2) == 0 { (46.0, -124.0) } else { (-44.0, 150.0) };
    (lat + rng.float(-0.5, 0.5), lon + rng.float(-0.5, 0.5))
}

/// Dataset `ix`: a bbox (always, or three times in four), most with a time
/// interval, 0..3 ranged variables.
fn dataset(rng: &mut Rng, ix: u64, always_located: bool) -> DatasetFeature {
    let mut d = DatasetFeature::new(format!("ds/{ix:02}.csv"));
    d.title = format!("dataset {ix}");
    if always_located || rng.below(4) > 0 {
        let (lat, lon) = cluster(rng);
        d.bbox = Some(GeoBBox::point(GeoPoint::new(lat, lon).unwrap()));
    }
    if rng.below(5) > 0 {
        let start = rng.below(300);
        d.time = Some(TimeInterval::new(day(start), day(start + 1 + rng.below(200))));
    }
    for _ in 0..rng.below(3) {
        let name = VAR_POOL[rng.below(VAR_POOL.len() as u64) as usize];
        if d.variables.iter().any(|v| v.name == name) {
            continue;
        }
        let mut v = VariableFeature::new(name);
        v.resolve(name, NameResolution::AlreadyCanonical);
        let lo = rng.float(0.0, 20.0);
        v.summary.observe(lo);
        v.summary.observe(lo + rng.float(1.0, 15.0));
        d.variables.push(v);
    }
    d
}

/// 1..40 datasets, each with a bbox.
pub fn catalog(rng: &mut Rng) -> Catalog {
    let mut c = Catalog::new();
    for ix in 0..1 + rng.below(39) {
        c.put(dataset(rng, ix, true));
    }
    c
}

/// 1..40 datasets, some of them nowhere, some of them at no time.
pub fn any_catalog(rng: &mut Rng) -> Catalog {
    let mut c = Catalog::new();
    for ix in 0..1 + rng.below(39) {
        c.put(dataset(rng, ix, false));
    }
    c
}

/// A published delta over `catalog`: one dataset nobody has seen, one that
/// replaces an existing dataset with different content, and one delete
/// (the last two of different datasets, when the catalog has two).
pub fn delta(rng: &mut Rng, catalog: &Catalog) -> Vec<Mutation> {
    let pick = |rng: &mut Rng| {
        catalog.iter().nth(rng.below(catalog.len() as u64) as usize).expect("never empty")
    };
    let mut fresh = pick(rng).clone();
    fresh.path = format!("ds/new-{}.csv", rng.below(1000));
    fresh.id = DatasetId::from_path(&fresh.path);
    fresh.title = "a dataset that was not there".into();
    let mut replaced = pick(rng).clone();
    replaced.title.push_str(", revised");
    replaced.variables.truncate(1);
    let (lat, lon) = cluster(rng);
    replaced.bbox = Some(GeoBBox::point(GeoPoint::new(lat, lon).unwrap()));
    let mut mutations =
        vec![Mutation::Put(Box::new(fresh)), Mutation::Put(Box::new(replaced.clone()))];
    let gone = pick(rng).id;
    if gone != replaced.id {
        mutations.push(Mutation::Delete(gone));
    }
    mutations
}

fn window(rng: &mut Rng, q: Query) -> Query {
    let start = rng.below(300);
    q.between(day(start), day(start + 1 + rng.below(120)))
}

fn variables(rng: &mut Rng, mut q: Query) -> Query {
    for _ in 0..1 + rng.below(2) {
        let name = VAR_POOL[rng.below(VAR_POOL.len() as u64) as usize];
        let range = (rng.below(2) == 0).then(|| {
            let lo = rng.float(0.0, 15.0);
            (lo, lo + rng.float(0.1, 10.0))
        });
        q = q.with_variable(name, range);
    }
    q
}

fn limit(rng: &mut Rng) -> usize {
    1 + rng.below(8) as usize
}

fn near(rng: &mut Rng) -> Query {
    let (lat, lon) = cluster(rng);
    Query::new().near(lat, lon, rng.float(5.0, 100.0)).unwrap().limit(limit(rng))
}

/// One query per shape the module docs list, for a catalog of `datasets`.
pub fn queries(rng: &mut Rng, datasets: usize) -> Vec<Query> {
    let time_only = window(rng, Query::new()).limit(limit(rng));
    let spatial = near(rng);
    let everything = near(rng);
    let everything = window(rng, everything);
    let everything = variables(rng, everything);
    let beyond = variables(rng, Query::new()).limit(datasets + 1 + rng.below(8) as usize);
    vec![Query::new(), time_only, spatial, everything, beyond]
}

/// Any combination of a spatial term, a time window and variable terms,
/// with a limit of 1..=8.
pub fn any_query(rng: &mut Rng) -> Query {
    let mut q = if rng.coin() { near(rng) } else { Query::new().limit(limit(rng)) };
    if rng.coin() {
        q = window(rng, q);
    }
    if rng.coin() {
        q = variables(rng, q);
    }
    q
}

/// The oracle: score every dataset with the exact scorer, sort all of them
/// by `(score desc, path asc)`, keep the best `limit`. No index, no
/// candidate generation, no shards, no top-k heap.
pub fn reference_search(catalog: &Catalog, vocab: &Vocabulary, query: &Query) -> Vec<SearchHit> {
    let prepared: Vec<PreparedTerm> =
        query.variables.iter().map(|t| PreparedTerm::prepare(t, vocab)).collect();
    let mut hits: Vec<SearchHit> = catalog
        .iter()
        .map(|d| {
            let breakdown = score_dataset_prepared(query, &prepared, d, vocab);
            SearchHit {
                id: d.id,
                path: d.path.clone(),
                title: d.title.clone(),
                score: breakdown.total,
                breakdown,
            }
        })
        .collect();
    hits.sort_by(|a, b| {
        b.score.partial_cmp(&a.score).expect("scores are not NaN").then(a.path.cmp(&b.path))
    });
    hits.truncate(query.limit);
    hits
}

/// Same hits in the same order, scores equal to the bit.
pub fn assert_bit_equal(got: &[SearchHit], want: &[SearchHit], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: hit counts differ");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g, w, "{what}");
        assert_eq!(g.score.to_bits(), w.score.to_bits(), "{what}: score bits of {}", g.path);
    }
}

/// The images `rows` are read from, each with how many of the rows it backs.
pub fn images<'a>(
    rows: impl Iterator<Item = &'a Row>,
) -> BTreeMap<*const Image, (usize, Arc<Image>)> {
    let mut held = BTreeMap::new();
    for row in rows {
        held.entry(Arc::as_ptr(row.image())).or_insert((0, Arc::clone(row.image()))).0 += 1;
    }
    held
}

/// Whether `rows` are all that holds the images they are read from.
pub fn sole_holders<'a>(rows: impl Iterator<Item = &'a Row>) -> bool {
    // one more holder each: the `Arc` `images` keeps
    images(rows).values().all(|(rows, image)| Arc::strong_count(image) == rows + 1)
}

/// What a variable may be called after wrangling: canonical terms, curated
/// alternates, grouping concepts and names no vocabulary knows.
const SPELLINGS: &[&str] = &[
    "water_temperature",
    "wtemp",
    "salinity",
    "sal",
    "temperature",
    "fluorescence",
    "fluores375",
    "chlorophyll_fluorescence",
    "optics",
    "turb",
    "mystery",
    "sonde_serial",
];

/// `spelling` in a random case, padded or not.
fn respelled(rng: &mut Rng, spelling: &str) -> String {
    let cased = match rng.below(3) {
        0 => spelling.to_string(),
        1 => spelling.to_ascii_uppercase(),
        _ => spelling[..1].to_ascii_uppercase() + &spelling[1..],
    };
    match rng.below(3) {
        0 => cased,
        1 => format!(" {cased}"),
        _ => format!("{cased}  "),
    }
}

/// `catalog` with every variable renamed: a random spelling in a random
/// case and padding, resolved to a (re-spelled) canonical or left as
/// harvested, and one in five QA or hidden. A dataset may carry a spelling
/// twice; its values stay as drawn.
pub fn respell(rng: &mut Rng, catalog: Catalog) -> Catalog {
    let mut out = Catalog::new();
    for mut d in catalog.into_features() {
        if rng.below(3) == 0 {
            if let Some(v) = d.variables.first().cloned() {
                d.variables.push(v);
            }
        }
        for v in &mut d.variables {
            let name = *rng.pick(SPELLINGS);
            v.name = respelled(rng, name);
            v.canonical_name = None;
            if rng.coin() {
                let canonical = *rng.pick(SPELLINGS);
                v.resolve(respelled(rng, canonical), NameResolution::KnownTranslation);
            }
            match rng.below(10) {
                0 => v.flags.qa = true,
                1 => v.flags.hidden = true,
                _ => {}
            }
        }
        out.put(d);
    }
    out
}

/// The default vocabulary and a second taxonomy in which one concept sits
/// under two parents, nodes are named in odd case and padding, and one is
/// named by an alternate no variable resolves to.
pub fn browse_vocabulary() -> Vocabulary {
    let mut vocab = Vocabulary::observatory_default();
    let platforms = vocab.taxonomies.get_or_create("platforms");
    for path in [
        &["platform", "CTD", "salinity"][..],
        &["platform", "ctd", "Water_Temperature "],
        &["platform", "buoy", "salinity"],
        &["platform", "buoy", "wtemp"],
        &["platform", " Mystery"],
        &["fluorescence"],
    ] {
        platforms.insert_path(path).expect("a valid path");
    }
    vocab
}

/// The browse oracle: every concept node collects the set of datasets at it
/// and below it, and counts the set. A dataset is at the concept its
/// searchable variables resolve to through the synonym table.
pub fn reference_browse(catalog: &Catalog, vocab: &Vocabulary) -> Vec<BrowseTree> {
    type Direct = BTreeMap<String, BTreeSet<DatasetId>>;
    let mut direct = Direct::new();
    for d in catalog.iter() {
        for v in d.searchable_variables() {
            let canonical = match vocab.synonyms.resolve(v.search_name()) {
                Some((c, _)) => normalize_term(c),
                None => normalize_term(v.search_name()),
            };
            direct.entry(canonical).or_default().insert(d.id);
        }
    }
    fn node(n: &TaxonomyNode, direct: &Direct) -> (BrowseNode, BTreeSet<DatasetId>) {
        let own = direct.get(&normalize_term(&n.name)).cloned().unwrap_or_default();
        let mut reach = own.clone();
        let mut children = Vec::new();
        for c in &n.children {
            let (child, child_reach) = node(c, direct);
            reach.extend(child_reach);
            children.push(child);
        }
        let counted = BrowseNode {
            name: n.name.clone(),
            direct: own.len(),
            cumulative: reach.len(),
            children,
        };
        (counted, reach)
    }
    vocab
        .taxonomies
        .iter()
        .map(|t| BrowseTree {
            taxonomy: t.name.clone(),
            roots: t.root_nodes().iter().map(|r| node(r, &direct).0).collect(),
        })
        .collect()
}
