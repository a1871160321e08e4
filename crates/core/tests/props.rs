//! Seeded sweeps over core invariants: each property runs on `CASES`
//! generators (see `common`); a failure names its seed.

mod common;

use common::{printable, sweep, Rng, LOWER};
use metamess_core::catalog::{Catalog, Mutation};
use metamess_core::feature::{DatasetFeature, ExternalMetadata};
use metamess_core::geo::{GeoBBox, GeoPoint};
use metamess_core::stats::NumericSummary;
use metamess_core::store::{apply_records, crc32, std_vfs, Row, Wal};
use metamess_core::time::{TimeInterval, Timestamp};
use metamess_core::value::Value;
use std::collections::BTreeMap;

const CASES: u64 = 256;

/// Roughly 1900..2100.
fn timestamp(rng: &mut Rng) -> Timestamp {
    Timestamp(rng.range(-2_208_988_800, 4_102_444_800))
}

fn interval(rng: &mut Rng) -> TimeInterval {
    TimeInterval::new(timestamp(rng), timestamp(rng))
}

fn point(rng: &mut Rng) -> GeoPoint {
    GeoPoint { lat: rng.float(-90.0, 90.0), lon: rng.float(-180.0, 180.0) }
}

fn bbox(rng: &mut Rng) -> GeoBBox {
    let (a, b) = (point(rng), point(rng));
    GeoBBox {
        min_lat: a.lat.min(b.lat),
        max_lat: a.lat.max(b.lat),
        min_lon: a.lon.min(b.lon),
        max_lon: a.lon.max(b.lon),
    }
}

#[test]
fn timestamp_iso_round_trip() {
    sweep(CASES, |rng| {
        let t = timestamp(rng);
        assert_eq!(Timestamp::parse(&t.to_iso8601()).unwrap(), t);
    });
}

#[test]
fn timestamp_civil_round_trip() {
    sweep(CASES, |rng| {
        let t = timestamp(rng);
        let (y, mo, d, h, mi, s) = t.to_civil();
        assert_eq!(Timestamp::from_ymd_hms(y, mo, d, h, mi, s).unwrap(), t);
    });
}

#[test]
fn civil_components_in_range() {
    sweep(CASES, |rng| {
        let (_, mo, d, h, mi, s) = timestamp(rng).to_civil();
        assert!((1..=12).contains(&mo));
        assert!((1..=31).contains(&d));
        assert!(h < 24 && mi < 60 && s < 60);
    });
}

#[test]
fn interval_overlap_symmetric() {
    sweep(CASES, |rng| {
        let (x, y) = (interval(rng), interval(rng));
        assert_eq!(x.overlaps(&y), y.overlaps(&x));
        assert_eq!(x.overlap_secs(&y), y.overlap_secs(&x));
        assert_eq!(x.gap_secs(&y), y.gap_secs(&x));
        // Exactly one of overlap/gap is nonzero unless both are zero (touching).
        if x.overlaps(&y) {
            assert_eq!(x.gap_secs(&y), 0);
        } else {
            assert!(x.gap_secs(&y) > 0);
        }
    });
}

#[test]
fn interval_union_contains_both() {
    sweep(CASES, |rng| {
        let (x, y) = (interval(rng), interval(rng));
        let u = x.union(&y);
        assert!(u.contains(x.start) && u.contains(x.end));
        assert!(u.contains(y.start) && u.contains(y.end));
    });
}

#[test]
fn haversine_metric_axioms() {
    sweep(CASES, |rng| {
        let (a, b) = (point(rng), point(rng));
        let dab = a.distance_km(&b);
        let dba = b.distance_km(&a);
        assert!(dab >= 0.0);
        assert!((dab - dba).abs() < 1e-6);
        // Bounded by half the Earth's circumference.
        assert!(dab <= std::f64::consts::PI * metamess_core::geo::EARTH_RADIUS_KM + 1.0);
    });
}

#[test]
fn bbox_distance_zero_iff_contains() {
    sweep(CASES, |rng| {
        let (b, p) = (bbox(rng), point(rng));
        let d = b.distance_km(&p);
        if b.contains(&p) {
            assert_eq!(d, 0.0);
        } else {
            assert!(d > 0.0);
        }
    });
}

#[test]
fn bbox_union_covers() {
    sweep(CASES, |rng| {
        let (b1, b2, p) = (bbox(rng), bbox(rng), point(rng));
        if b1.contains(&p) || b2.contains(&p) {
            assert!(b1.union(&b2).contains(&p));
        }
    });
}

#[test]
fn numeric_summary_is_the_range_and_mean_of_its_stream() {
    sweep(CASES, |rng| {
        let xs = rng.vec(0, 200, |rng| rng.float(-1e6, 1e6));
        let mut s = NumericSummary::new();
        xs.iter().for_each(|&x| s.observe(x));
        assert_eq!(s.count, xs.len() as u64);
        if xs.is_empty() {
            assert_eq!(s.range(), None);
            return;
        }
        let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(s.range(), Some((lo, hi)));
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((s.mean - mean).abs() < 1e-6, "{} vs {mean}", s.mean);
    });
}

#[test]
fn value_sniff_render_idempotent() {
    sweep(CASES, |rng| {
        // sniff(render(sniff(x))) == sniff(x): rendering is a fixpoint.
        let v1 = Value::sniff(&rng.string(&printable(), 0, 24));
        let v2 = Value::sniff(&v1.render());
        match (&v1, &v2) {
            (Value::Float(a), Value::Float(b)) => {
                assert!((a - b).abs() <= f64::EPSILON * a.abs().max(1.0))
            }
            _ => assert_eq!(&v1, &v2),
        }
    });
}

#[test]
fn crc_detects_mutation() {
    sweep(CASES, |rng| {
        let data = rng.bytes(1, 256);
        let mut mutated = data.clone();
        mutated[rng.size(0, data.len())] ^= 1 << rng.below(8);
        assert_ne!(crc32(&data), crc32(&mutated));
    });
}

#[test]
fn catalog_replay_equivalence() {
    sweep(CASES, |rng| {
        let paths = rng.vec(1, 20, |rng| rng.string(LOWER, 1, 8) + ".csv");
        let mut muts: Vec<Mutation> = Vec::new();
        for (i, p) in paths.iter().enumerate() {
            muts.push(Mutation::Put(Box::new(DatasetFeature::new(p.clone()))));
            if i % 3 == 2 {
                muts.push(Mutation::Delete(metamess_core::DatasetId::from_path(p)));
            }
        }
        let mut a = Catalog::new();
        for m in &muts {
            a.apply(m.clone());
        }
        let mut b = Catalog::new();
        for m in muts {
            b.apply(m);
        }
        assert_eq!(a, b);
    });
}

#[test]
fn catalog_diff_applies_to_target() {
    sweep(CASES, |rng| {
        let catalog = |rng: &mut Rng| {
            let mut c = Catalog::new();
            for p in rng.vec(0, 10, |rng| rng.string(LOWER, 1, 6)) {
                c.put(DatasetFeature::new(p));
            }
            c
        };
        let (mut a, b) = (catalog(rng), catalog(rng));
        for m in a.diff(&b) {
            a.apply(m);
        }
        // After applying the diff, the entries match.
        let ids_a: Vec<_> = a.iter().map(|d| d.id).collect();
        let ids_b: Vec<_> = b.iter().map(|d| d.id).collect();
        assert_eq!(ids_a, ids_b);
    });
}

#[test]
fn wal_replay_equals_memory_after_random_workload() {
    // Deterministic pseudo-random workload over a real WAL file.
    let dir = std::env::temp_dir().join(format!("metamess-props-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let wal_path = dir.join("wal.log");

    let mut mem = Catalog::new();
    {
        let mut wal = Wal::open(&wal_path, false).unwrap();
        let mut state = 0x9e3779b97f4a7c15u64;
        for i in 0..500 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let m = match state % 4 {
                0 | 1 => Mutation::Put(Box::new(DatasetFeature::new(format!("d{}.csv", i % 50)))),
                2 => Mutation::Delete(metamess_core::DatasetId::from_path(&format!(
                    "d{}.csv",
                    state % 50
                ))),
                _ => {
                    Mutation::SetProperty { key: format!("k{}", state % 5), value: format!("v{i}") }
                }
            };
            wal.append(&m).unwrap();
            mem.apply(m);
        }
        wal.flush_and_sync().unwrap();
    }
    let tail = Wal::read_from(std_vfs().as_ref(), &wal_path, 0).unwrap();
    assert!(tail.stopped_early.is_none());
    let (mut rows, mut properties) = (BTreeMap::new(), BTreeMap::new());
    let generation = apply_records(&mut rows, &mut properties, tail.records);
    assert_eq!(generation, mem.generation());
    assert!(rows.values().map(Row::decode).eq(mem.iter().cloned()));
    assert_eq!(&properties, mem.properties());
}

#[test]
fn external_metadata_reads_and_writes_as_a_btree_map() {
    sweep(CASES, |rng| {
        let (mut pairs, mut tree) = (ExternalMetadata::new(), BTreeMap::new());
        // few keys from a short alphabet, so inserts often replace
        let key = |rng: &mut Rng| rng.string("abc_", 0, 3);
        for _ in 0..rng.size(0, 12) {
            let (k, v) = (key(rng), rng.string(&printable(), 0, 6));
            assert_eq!(pairs.insert(k.clone(), v.clone()), tree.insert(k, v));
        }
        for _ in 0..4 {
            let k = key(rng);
            assert_eq!(pairs.get(&k), tree.get(&k));
        }
        assert_eq!((pairs.len(), pairs.is_empty()), (tree.len(), tree.is_empty()));
        assert!(pairs.iter().eq(tree.iter()));
        assert!((&pairs).into_iter().eq(&tree));
        let json = serde_json::to_string(&pairs).unwrap();
        assert_eq!(json, serde_json::to_string(&tree).unwrap());
        assert_eq!(serde_json::from_str::<ExternalMetadata>(&json).unwrap(), pairs);
        assert_eq!(
            serde_json::to_string_pretty(&pairs).unwrap(),
            serde_json::to_string_pretty(&tree).unwrap()
        );
        assert_eq!(format!("{pairs:?}"), format!("{tree:?}"));
        assert_eq!(format!("{pairs:#?}"), format!("{tree:#?}"));
    });
    // keys out of order, and one given twice, read as the map reads them
    let json = r#"{"b":"1","a":"2","b":"3"}"#;
    let pairs: ExternalMetadata = serde_json::from_str(json).unwrap();
    let tree: BTreeMap<String, String> = serde_json::from_str(json).unwrap();
    assert!(pairs.iter().eq(tree.iter()));
}
