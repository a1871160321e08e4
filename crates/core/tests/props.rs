//! Property-based tests for core invariants.

use metamess_core::catalog::{Catalog, Mutation};
use metamess_core::feature::DatasetFeature;
use metamess_core::geo::{GeoBBox, GeoPoint};
use metamess_core::stats::NumericSummary;
use metamess_core::store::{crc32, Wal};
use metamess_core::time::{TimeInterval, Timestamp};
use metamess_core::value::Value;
use proptest::prelude::*;

fn arb_timestamp() -> impl Strategy<Value = Timestamp> {
    // Roughly 1900..2100
    (-2_208_988_800i64..4_102_444_800i64).prop_map(Timestamp)
}

fn arb_point() -> impl Strategy<Value = GeoPoint> {
    (-90.0f64..=90.0, -180.0f64..=180.0).prop_map(|(lat, lon)| GeoPoint { lat, lon })
}

fn arb_bbox() -> impl Strategy<Value = GeoBBox> {
    (arb_point(), arb_point()).prop_map(|(a, b)| GeoBBox {
        min_lat: a.lat.min(b.lat),
        max_lat: a.lat.max(b.lat),
        min_lon: a.lon.min(b.lon),
        max_lon: a.lon.max(b.lon),
    })
}

proptest! {
    #[test]
    fn timestamp_iso_round_trip(t in arb_timestamp()) {
        let s = t.to_iso8601();
        let back = Timestamp::parse(&s).unwrap();
        prop_assert_eq!(back, t);
    }

    #[test]
    fn timestamp_civil_round_trip(t in arb_timestamp()) {
        let (y, mo, d, h, mi, s) = t.to_civil();
        let back = Timestamp::from_ymd_hms(y, mo, d, h, mi, s).unwrap();
        prop_assert_eq!(back, t);
    }

    #[test]
    fn civil_components_in_range(t in arb_timestamp()) {
        let (_, mo, d, h, mi, s) = t.to_civil();
        prop_assert!((1..=12).contains(&mo));
        prop_assert!((1..=31).contains(&d));
        prop_assert!(h < 24 && mi < 60 && s < 60);
    }

    #[test]
    fn interval_overlap_symmetric(a in arb_timestamp(), b in arb_timestamp(),
                                  c in arb_timestamp(), d in arb_timestamp()) {
        let x = TimeInterval::new(a, b);
        let y = TimeInterval::new(c, d);
        prop_assert_eq!(x.overlaps(&y), y.overlaps(&x));
        prop_assert_eq!(x.overlap_secs(&y), y.overlap_secs(&x));
        prop_assert_eq!(x.gap_secs(&y), y.gap_secs(&x));
        // Exactly one of overlap/gap is nonzero unless both are zero (touching).
        if x.overlaps(&y) { prop_assert_eq!(x.gap_secs(&y), 0); }
        else { prop_assert!(x.gap_secs(&y) > 0); }
    }

    #[test]
    fn interval_union_contains_both(a in arb_timestamp(), b in arb_timestamp(),
                                    c in arb_timestamp(), d in arb_timestamp()) {
        let x = TimeInterval::new(a, b);
        let y = TimeInterval::new(c, d);
        let u = x.union(&y);
        prop_assert!(u.contains(x.start) && u.contains(x.end));
        prop_assert!(u.contains(y.start) && u.contains(y.end));
    }

    #[test]
    fn haversine_metric_axioms(a in arb_point(), b in arb_point()) {
        let dab = a.distance_km(&b);
        let dba = b.distance_km(&a);
        prop_assert!(dab >= 0.0);
        prop_assert!((dab - dba).abs() < 1e-6);
        // Bounded by half the Earth's circumference.
        prop_assert!(dab <= std::f64::consts::PI * metamess_core::geo::EARTH_RADIUS_KM + 1.0);
    }

    #[test]
    fn bbox_distance_zero_iff_contains(b in arb_bbox(), p in arb_point()) {
        let d = b.distance_km(&p);
        if b.contains(&p) {
            prop_assert_eq!(d, 0.0);
        } else {
            prop_assert!(d > 0.0);
        }
    }

    #[test]
    fn bbox_union_covers(b1 in arb_bbox(), b2 in arb_bbox(), p in arb_point()) {
        let u = b1.union(&b2);
        if b1.contains(&p) || b2.contains(&p) {
            prop_assert!(u.contains(&p));
        }
    }

    #[test]
    fn numeric_summary_merge_associative(xs in prop::collection::vec(-1e6f64..1e6, 0..200),
                                         split in 0usize..200) {
        let split = split.min(xs.len());
        let mut whole = NumericSummary::new();
        for &x in &xs { whole.observe(x); }
        let mut l = NumericSummary::new();
        let mut r = NumericSummary::new();
        for &x in &xs[..split] { l.observe(x); }
        for &x in &xs[split..] { r.observe(x); }
        l.merge(&r);
        prop_assert_eq!(l.count, whole.count);
        if whole.count > 0 {
            prop_assert!((l.mean - whole.mean).abs() < 1e-6);
            prop_assert!((l.variance().unwrap() - whole.variance().unwrap()).abs() < 1e-3);
            prop_assert_eq!(l.range(), whole.range());
        }
    }

    #[test]
    fn value_sniff_render_idempotent(raw in "[ -~]{0,24}") {
        // sniff(render(sniff(x))) == sniff(x): rendering is a fixpoint.
        let v1 = Value::sniff(&raw);
        let v2 = Value::sniff(&v1.render());
        match (&v1, &v2) {
            (Value::Float(a), Value::Float(b)) => prop_assert!((a - b).abs() <= f64::EPSILON * a.abs().max(1.0)),
            _ => prop_assert_eq!(&v1, &v2),
        }
    }

    #[test]
    fn crc_detects_mutation(data in prop::collection::vec(any::<u8>(), 1..256),
                            ix in 0usize..256, bit in 0u8..8) {
        let ix = ix % data.len();
        let mut mutated = data.clone();
        mutated[ix] ^= 1 << bit;
        prop_assert_ne!(crc32(&data), crc32(&mutated));
    }

    #[test]
    fn catalog_replay_equivalence(paths in prop::collection::vec("[a-z]{1,8}\\.csv", 1..20)) {
        let mut muts: Vec<Mutation> = Vec::new();
        for (i, p) in paths.iter().enumerate() {
            muts.push(Mutation::Put(Box::new(DatasetFeature::new(p.clone()))));
            if i % 3 == 2 {
                muts.push(Mutation::Delete(metamess_core::DatasetId::from_path(p)));
            }
        }
        let mut a = Catalog::new();
        for m in &muts { a.apply(m.clone()); }
        let mut b = Catalog::new();
        for m in muts { b.apply(m); }
        prop_assert_eq!(a, b);
    }

    #[test]
    fn catalog_diff_applies_to_target(paths_a in prop::collection::vec("[a-z]{1,6}", 0..10),
                                      paths_b in prop::collection::vec("[a-z]{1,6}", 0..10)) {
        let mut a = Catalog::new();
        for p in &paths_a { a.put(DatasetFeature::new(p.clone())); }
        let mut b = Catalog::new();
        for p in &paths_b { b.put(DatasetFeature::new(p.clone())); }
        let delta = a.diff(&b);
        for m in delta { a.apply(m); }
        // After applying the diff, the entries match.
        let ids_a: Vec<_> = a.iter().map(|d| d.id).collect();
        let ids_b: Vec<_> = b.iter().map(|d| d.id).collect();
        prop_assert_eq!(ids_a, ids_b);
    }
}

#[test]
fn wal_replay_equals_memory_after_random_workload() {
    // Deterministic pseudo-random workload over a real WAL file.
    let dir = std::env::temp_dir().join(format!("metamess-proptest-wal-{}", std::process::id()));
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
    let tail = Wal::read_tail(&wal_path, 0).unwrap();
    assert!(tail.stopped_early.is_none());
    let mut rebuilt = Catalog::new();
    for m in tail.mutations {
        rebuilt.apply(m);
    }
    assert_eq!(rebuilt, mem);
}
