//! Seeded sweeps of the spatial and temporal indexes against brute force:
//! each property runs on `CASES` generators; a failure names its seed.

mod common;

use common::{sweep, Rng};
use metamess_core::geo::{GeoBBox, GeoPoint};
use metamess_core::time::{TimeInterval, Timestamp};
use metamess_search::{IntervalIndex, RTree};

const CASES: u64 = 256;

/// Boxes within the regional domain the catalog documents: the clamp-then-
/// haversine box distance is a true minimum there (it is *not* a sphere-wide
/// lower bound, which `GeoBBox::distance_km`'s docs call out), so nearest-
/// neighbour search is exact on this domain.
fn bbox(rng: &mut Rng) -> GeoBBox {
    let (lat, lon) = (rng.float(40.0, 50.0), rng.float(-130.0, -120.0));
    GeoBBox {
        min_lat: lat,
        max_lat: lat + rng.float(0.0, 2.0),
        min_lon: lon,
        max_lon: lon + rng.float(0.0, 2.0),
    }
}

fn interval(rng: &mut Rng) -> TimeInterval {
    let start = rng.range(0, 1_000_000);
    TimeInterval::new(Timestamp(start), Timestamp(start + rng.range(0, 50_000)))
}

/// `min..max` draws of `item`, each paired with its position.
fn entries<T>(
    rng: &mut Rng,
    min: usize,
    max: usize,
    item: impl FnMut(&mut Rng) -> T,
) -> Vec<(T, usize)> {
    rng.vec(min, max, item).into_iter().enumerate().map(|(i, x)| (x, i)).collect()
}

/// The positions of the entries `keep` holds of, ascending.
fn brute_force<T>(entries: &[(T, usize)], keep: impl Fn(&T) -> bool) -> Vec<usize> {
    entries.iter().filter(|(x, _)| keep(x)).map(|(_, p)| *p).collect()
}

/// What an `…_into` probe appends to a vector that already holds an entry,
/// checking it left that entry alone; ascending, for comparing with the
/// `Vec`-returning form.
fn appended(probe: impl FnOnce(&mut Vec<u32>)) -> Vec<usize> {
    let mut out = vec![u32::MAX];
    probe(&mut out);
    assert_eq!(out[0], u32::MAX, "an `_into` probe appends");
    let mut got: Vec<usize> = out[1..].iter().map(|&p| p as usize).collect();
    got.sort_unstable();
    got
}

#[test]
fn rtree_intersection_equals_brute_force() {
    sweep(CASES, |rng| {
        let entries = entries(rng, 0, 120, bbox);
        let query = bbox(rng);
        let tree = RTree::build(entries.clone());
        let want = brute_force(&entries, |b| b.intersects(&query));
        assert_eq!(tree.intersecting(&query), want);
        assert_eq!(appended(|out| tree.intersecting_into(&query, out)), want);
    });
}

#[test]
fn rtree_nearest_matches_brute_force() {
    sweep(CASES, |rng| {
        let entries = entries(rng, 1, 100, bbox);
        let p = GeoPoint { lat: rng.float(38.0, 52.0), lon: rng.float(-132.0, -118.0) };
        let k = rng.size(1, 12);
        let got = RTree::build(entries.clone()).nearest(&p, k);
        assert_eq!(got.len(), k.min(entries.len()));
        let mut all: Vec<f64> = entries.iter().map(|(b, _)| b.distance_km(&p)).collect();
        all.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (ix, (_, d)) in got.iter().enumerate() {
            assert!((d - all[ix]).abs() < 1e-9, "rank {ix}: {d} vs {}", all[ix]);
        }
        // nondecreasing distances
        for w in got.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    });
}

#[test]
fn interval_index_equals_brute_force() {
    sweep(CASES, |rng| {
        let entries = entries(rng, 0, 150, interval);
        let query = interval(rng);
        let ix = IntervalIndex::build(entries.clone());
        let want = brute_force(&entries, |iv| iv.overlaps(&query));
        assert_eq!(ix.overlapping(&query), want);
        assert_eq!(appended(|out| ix.overlapping_into(&query, out)), want);
    });
}

#[test]
fn interval_stabbing_equals_brute_force() {
    sweep(CASES, |rng| {
        let entries = entries(rng, 0, 150, interval);
        let t = Timestamp(rng.range(0, 1_050_000));
        let ix = IntervalIndex::build(entries.clone());
        assert_eq!(ix.stabbing(t), brute_force(&entries, |iv| iv.contains(t)));
    });
}
