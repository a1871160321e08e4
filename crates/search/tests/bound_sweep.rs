//! Score bounds against the oracle: a shard offers its candidates to the
//! exact scorer best bound first and stops once the next bound is below the
//! `limit`-th score, and what it returns must be what scoring every
//! candidate returns, bit for bit.
//!
//! The catalogs are larger than the reference sweep's, 200 to 2 000
//! datasets, so that a limit is a small share of the candidates: clustered
//! twins (equal extents and variables, ranked by path alone), points and
//! boxes, a cluster at each pole (latitude gaps of nearly half the globe),
//! datasets with no bbox or no time, QA and hidden variables, and value
//! ranges that are NaN or infinite. The queries are near a point, over a
//! region or nowhere, with a time window or not, with 0 to 3 terms, limits
//! of 1, 2, 10, 50 and `MAX_LIMIT`, and weights that are zero now and then.
//!
//! With the indexes off every shard scores all it holds, and the answer is
//! `reference_search`'s. With them on, the probe's candidate generation is
//! an approximation of its own (`common` says where it is exact), so the
//! oracle is the reference over the candidates the probe admitted. Both at
//! 1, 2 and 8 shards. Over the sweep fewer than half the candidates may be
//! scored, so the bound path is not idle, though a limit of `MAX_LIMIT`
//! scores most of its candidates (about a third are scored over 1 000
//! seeds, a quarter over the default 4). A second test holds a latitude
//! beyond a pole: refused in a query, no box in a dataset. A third swaps
//! numbers in the JSON of swept queries: what is not refused is answered
//! as the reference answers it.
//!
//! `METAMESS_TORTURE_CASES` sets the number of seeds (default 4).

mod common;

use common::{assert_bit_equal, reference_scores, reference_search, reference_top, sweep, Rng};
use metamess_core::catalog::Catalog;
use metamess_core::feature::{DatasetFeature, NameResolution, VariableFeature};
use metamess_core::geo::{GeoBBox, GeoPoint};
use metamess_core::id::DatasetId;
use metamess_core::time::{TimeInterval, Timestamp};
use metamess_search::fanout::{self, ScoreWork};
use metamess_search::{
    Partitioner, Query, SearchEngine, SearchHit, ShardSpec, SpatialTerm, MAX_LIMIT,
};
use metamess_vocab::Vocabulary;
use std::collections::{BTreeSet, HashMap};

fn cases() -> u64 {
    std::env::var("METAMESS_TORTURE_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(4)
}

/// Where datasets and queries cluster: two coasts, the equator, and one
/// near each pole.
const CLUSTERS: [(f64, f64); 5] =
    [(46.0, -124.0), (-44.0, 150.0), (0.0, 10.0), (89.2, 40.0), (-89.2, -40.0)];

/// Names variables carry and terms ask for: vocabulary concepts at several
/// depths, their alternates and relatives, and names no vocabulary knows.
const NAMES: &[&str] = &[
    "water_temperature",
    "wtemp",
    "t_water",
    "temperature",
    "air_temperature",
    "atemp",
    "salinity",
    "sal",
    "physical",
    "fluorescence",
    "fluores375",
    "chlorophyll_fluorescence",
    "optics",
    "turbidity",
    "turb",
    "dissolved_oxygen",
    "mystery",
];

fn day(n: i64) -> Timestamp {
    Timestamp::from_ymd(2005, 1, 1).unwrap().plus_days(n)
}

fn located(rng: &mut Rng) -> (f64, f64) {
    let (lat, lon) = *rng.pick(&CLUSTERS);
    ((lat + rng.float(-0.7, 0.7)).clamp(-90.0, 90.0), lon + rng.float(-2.0, 2.0))
}

/// A value range as a column summary holds it: mostly finite, sometimes
/// NaN or infinite at either end, sometimes no number at all.
fn summarized(rng: &mut Rng, v: &mut VariableFeature) {
    let lo = rng.float(-5.0, 30.0);
    let hi = lo + rng.float(0.0, 20.0);
    let (lo, hi) = match rng.below(12) {
        0 => (f64::NAN, hi),
        1 => (lo, f64::NAN),
        2 => (f64::NEG_INFINITY, hi),
        3 => (lo, f64::INFINITY),
        4 => (f64::NEG_INFINITY, f64::INFINITY),
        5 => return,
        _ => (lo, hi),
    };
    v.summary.count = 1 + rng.below(100);
    (v.summary.min, v.summary.max, v.summary.mean) = (lo, hi, lo);
}

fn dataset(rng: &mut Rng, ix: u64) -> DatasetFeature {
    let dir = *rng.pick(&["casts", "moorings", "gliders/a", "gliders/b"]);
    let mut d = DatasetFeature::new(format!("{dir}/{:05}.csv", rng.below(100_000) * 10 + ix % 10));
    d.title = format!("dataset {ix}");
    match rng.below(8) {
        0 => {}
        1..=4 => {
            let (lat, lon) = located(rng);
            d.bbox = Some(GeoBBox::point(GeoPoint::new(lat, lon.clamp(-180.0, 180.0)).unwrap()));
        }
        _ => {
            let (lat, lon) = located(rng);
            let (h, w) = (rng.float(0.0, 1.5), rng.float(0.0, 3.0));
            d.bbox = Some(GeoBBox {
                min_lat: (lat - h).max(-90.0),
                max_lat: (lat + h).min(90.0),
                min_lon: lon - w,
                max_lon: lon + w,
            });
        }
    }
    if rng.below(8) > 0 {
        let start = day(rng.range(0, 3000));
        let end = if rng.below(6) == 0 { start } else { start.plus_days(rng.range(0, 400)) };
        d.time = Some(TimeInterval::new(start, end));
    }
    for _ in 0..rng.below(5) {
        let mut v = VariableFeature::new(*rng.pick(NAMES));
        if rng.coin() {
            v.resolve(*rng.pick(NAMES), NameResolution::KnownTranslation);
        }
        match rng.below(12) {
            0 => v.flags.qa = true,
            1 => v.flags.hidden = true,
            _ => {}
        }
        summarized(rng, &mut v);
        d.variables.push(v);
    }
    d
}

/// 200..2 000 datasets; one in five is the twin of the one before it.
fn catalog(rng: &mut Rng) -> Catalog {
    let mut c = Catalog::new();
    let mut last: Option<DatasetFeature> = None;
    for ix in 0..rng.range(200, 2001) as u64 {
        let d = match last.take() {
            Some(twin) if rng.below(5) == 0 => {
                let mut d = twin;
                d.path = format!("twins/{ix:05}.csv");
                d.id = DatasetId::from_path(&d.path);
                d
            }
            _ => dataset(rng, ix),
        };
        last = Some(d.clone());
        c.put(d);
    }
    c
}

fn weight(rng: &mut Rng) -> f64 {
    *rng.pick(&[0.0, 0.5, 1.0, 2.0])
}

fn query(rng: &mut Rng) -> Query {
    let limit = *rng.pick(&[1, 2, 10, 50, MAX_LIMIT]);
    let mut q = Query::new().limit(limit);
    match rng.below(10) {
        0..=3 => {
            let (lat, lon) = located(rng);
            q = q.near(lat, lon.clamp(-180.0, 180.0), rng.float(1.0, 300.0)).unwrap();
        }
        4..=6 => {
            let (lat, lon) = located(rng);
            let (h, w) = (rng.float(0.0, 2.0), rng.float(0.0, 4.0));
            q = q.in_region(GeoBBox {
                min_lat: (lat - h).max(-90.0),
                max_lat: (lat + h).min(90.0),
                min_lon: lon - w,
                max_lon: lon + w,
            });
        }
        _ => {}
    }
    if rng.coin() {
        let start = day(rng.range(0, 3000));
        q = q.between(start, start.plus_days(rng.range(0, 200)));
    }
    for _ in 0..rng.below(4) {
        let range = rng.coin().then(|| {
            let lo = rng.float(-5.0, 30.0);
            (lo, lo + rng.float(0.0, 10.0))
        });
        q = q.with_variable(*rng.pick(NAMES), range);
    }
    // weights [`Query::check`] refuses are the mutant test's
    if rng.below(4) == 0 {
        q.weights.space = weight(rng);
        q.weights.time = weight(rng);
        q.weights.variables = weight(rng);
    }
    q
}

/// The datasets the engine's probe admits for `query`: every dataset of a
/// shard the coordinator asks to score in full, the listed ones of the
/// others.
fn admitted(engine: &SearchEngine, query: &Query) -> BTreeSet<DatasetId> {
    let plan = engine.plan(query);
    let generous = fanout::generous(query.limit);
    let summaries: Vec<_> =
        engine.shards().iter().map(|s| fanout::probe_summary(s, query, &plan, generous)).collect();
    let (_, works) = fanout::plan_scatter(query, &summaries);
    let mut ids = BTreeSet::new();
    for (shard, work) in engine.shards().iter().zip(&works) {
        match work {
            ScoreWork::Skip => {}
            ScoreWork::Full => ids.extend(shard.rows().iter().map(|r| r.id())),
            ScoreWork::List(ixs) => ids.extend(ixs.iter().map(|&ix| shard.row(ix as usize).id())),
        }
    }
    ids
}

#[test]
fn bounded_scoring_returns_what_scoring_every_candidate_returns() {
    let vocab = Vocabulary::observatory_default();
    let (mut candidates, mut scored) = (0, 0);
    sweep(cases(), |rng| {
        let c = catalog(rng);
        let mut engines: Vec<(usize, SearchEngine)> = [1usize, 2, 8]
            .into_iter()
            .map(|n| {
                let spec = ShardSpec::new(n, Partitioner::Hash);
                (n, SearchEngine::build_sharded(&c, vocab.clone(), spec))
            })
            .collect();
        for _ in 0..6 {
            let q = query(rng);
            let every = reference_scores(&c, &vocab, &q);
            let by_id: HashMap<DatasetId, &SearchHit> = every.iter().map(|h| (h.id, h)).collect();
            let whole = reference_top(every.clone(), q.limit);
            for (shards, engine) in &mut engines {
                for use_indexes in [false, true] {
                    let what =
                        format!("{} datasets, {shards} shards, indexes {use_indexes}", c.len());
                    let what = format!("{what}: {q:?}");
                    let want = if use_indexes {
                        let some =
                            admitted(engine, &q).iter().map(|id| by_id[id].clone()).collect();
                        reference_top(some, q.limit)
                    } else {
                        whole.clone()
                    };
                    engine.use_indexes = use_indexes;
                    let (hits, explain) = engine.search_explain(&q);
                    assert_bit_equal(&hits, &want, &what);
                    assert!(explain.scored <= explain.candidates, "{what}: {explain:?}");
                    candidates += explain.candidates;
                    scored += explain.scored;
                }
            }
        }
    });
    println!("{scored} of {candidates} candidates scored");
    assert!(
        scored * 2 < candidates,
        "the bounds pruned too little: {scored} of {candidates} candidates scored"
    );
}

/// A latitude beyond ±90 is not a place, and the haversine the score takes
/// for it wraps over the pole: a dataset 20° of latitude from a query point
/// would score as if beside it. A query naming one is refused where it
/// enters, and gets no hits; a dataset's box reaching past a pole is no
/// box, to the engine as to the oracle, and its spatial score is 0.
#[test]
fn a_latitude_beyond_a_pole_is_refused_in_a_query_and_no_box_in_a_dataset() {
    let vocab = Vocabulary::observatory_default();
    let at =
        |lat: f64, lon: f64| GeoBBox { min_lat: lat, max_lat: lat, min_lon: lon, max_lon: lon };
    let engines = |datasets: &[GeoBBox]| {
        let mut c = Catalog::new();
        for (ix, bbox) in datasets.iter().enumerate() {
            let mut d = DatasetFeature::new(format!("casts/{ix:03}.csv"));
            d.bbox = Some(*bbox);
            c.put(d);
        }
        let engines: Vec<SearchEngine> = [1, 2]
            .into_iter()
            .map(|n| {
                SearchEngine::build_sharded(&c, vocab.clone(), ShardSpec::new(n, Partitioner::Hash))
            })
            .collect();
        (c, engines)
    };
    let near = |lat: f64, lon: f64| {
        let near = SpatialTerm::Near { point: GeoPoint { lat, lon }, radius_km: 25.0 };
        Query { spatial: Some(near), ..Query::new().limit(50) }
    };
    // the query's point beyond the north pole, a dataset 20° of latitude
    // from it that the haversine puts beside it
    let mut datasets = vec![at(80.0, 179.0)];
    datasets.extend((0..40).map(|i| at(89.5, i as f64 * 0.1)));
    let (_, engines_of) = engines(&datasets);
    let q = near(100.0, 0.0);
    assert!(q.check().is_err());
    for engine in &engines_of {
        assert!(engine.search(&q).is_empty());
        assert!(engine.search_uncached(&q).is_empty());
    }
    // a dataset's box reaching to 93°, the query's point in range
    let mut datasets =
        vec![GeoBBox { min_lat: 92.0, max_lat: 93.0, min_lon: 179.0, max_lon: 180.0 }];
    datasets.extend((0..40).map(|i| at(86.0, i as f64 * 0.1)));
    let (c, mut engines_of) = engines(&datasets);
    let q = near(88.0, 0.0);
    let every = reference_scores(&c, &vocab, &q);
    assert_eq!(
        every.iter().find(|h| h.path == "casts/000.csv").unwrap().breakdown.space,
        Some(0.0)
    );
    let want = reference_top(every, q.limit);
    for engine in &mut engines_of {
        for use_indexes in [false, true] {
            engine.use_indexes = use_indexes;
            let (hits, explain) = engine.search_explain(&q);
            let what = format!("{} shards, indexes {use_indexes}", engine.shard_count());
            assert_bit_equal(&hits, &want, &what);
            assert!(explain.scored <= explain.candidates, "{what}: {explain:?}");
        }
    }
}

/// What a mutant's numbers are swapped for: the JSON reader's NaN, signs,
/// zeros, a latitude and a longitude just off the globe, the largest
/// magnitudes and a subnormal.
const MUTANT_NUMBERS: [&str; 8] =
    ["null", "-1", "-0.0", "0", "90.0000001", "180.5", "1e308", "1e-320"];

/// The byte spans of the numbers in a JSON text, outside its strings.
fn number_spans(json: &str) -> Vec<(usize, usize)> {
    let (mut spans, mut in_string, mut escaped, mut start) = (Vec::new(), false, false, None);
    for (i, c) in json.char_indices() {
        let numeric = c.is_ascii_digit() || "+-.eE".contains(c);
        match start {
            Some(s) if !numeric => {
                spans.push((s, i));
                start = None;
            }
            None if !in_string && (c.is_ascii_digit() || c == '-') => start = Some(i),
            _ => {}
        }
        if in_string {
            (in_string, escaped) = (escaped || c != '"', !escaped && c == '\\');
        } else if c == '"' {
            in_string = true;
        }
    }
    spans
}

/// Swept queries as JSON with one number swapped for one of
/// [`MUTANT_NUMBERS`], or a region's corners swapped, read back: each is
/// refused — it does not deserialize, or [`Query::check`] errs and the
/// engine answers nothing — or answered bit for bit as the reference
/// answers it, with the indexes off, at 1 and 2 shards, scoring at most its
/// candidates. Both outcomes occur, and nothing panics.
#[test]
fn query_json_mutants_are_refused_or_answered_as_the_reference_answers() {
    let vocab = Vocabulary::observatory_default();
    let (mut refused, mut answered) = (0, 0);
    sweep(cases(), |rng| {
        let c = catalog(rng);
        let mut engines: Vec<SearchEngine> = [1, 2]
            .into_iter()
            .map(|n| {
                SearchEngine::build_sharded(&c, vocab.clone(), ShardSpec::new(n, Partitioner::Hash))
            })
            .collect();
        for engine in &mut engines {
            engine.use_indexes = false;
        }
        for _ in 0..3 {
            let mut q = query(rng);
            let json = serde_json::to_string(&q).unwrap();
            let spans = number_spans(&json);
            let (from, to) = spans[rng.below(spans.len() as u64) as usize];
            let mut mutants: Vec<String> = MUTANT_NUMBERS
                .iter()
                .map(|n| format!("{}{n}{}", &json[..from], &json[to..]))
                .collect();
            if let Some(SpatialTerm::Region(r)) = &mut q.spatial {
                (r.min_lat, r.max_lat, r.min_lon, r.max_lon) =
                    (r.max_lat, r.min_lat, r.max_lon, r.min_lon);
                mutants.push(serde_json::to_string(&q).unwrap());
            }
            for mutant in mutants {
                let Ok(m) = serde_json::from_str::<Query>(&mutant) else {
                    refused += 1;
                    continue;
                };
                if m.check().is_err() {
                    for engine in &engines {
                        assert!(engine.search(&m).is_empty(), "{mutant}");
                        assert!(engine.search_uncached(&m).is_empty(), "{mutant}");
                    }
                    refused += 1;
                    continue;
                }
                let want = reference_search(&c, &vocab, &m);
                for engine in &engines {
                    let (hits, explain) = engine.search_explain(&m);
                    let what = format!("{} shards: {mutant}", engine.shard_count());
                    assert_bit_equal(&hits, &want, &what);
                    assert!(explain.scored <= explain.candidates, "{what}: {explain:?}");
                }
                answered += 1;
            }
        }
    });
    println!("{refused} mutants refused, {answered} answered");
    assert!(refused > 0 && answered > 0, "{refused} refused, {answered} answered");
}
