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

/// `min..max` draws of `item`, each indexed by its position; one in five
/// repeats an earlier draw, so that ties are met.
fn entries<T: Copy>(
    rng: &mut Rng,
    min: usize,
    max: usize,
    mut item: impl FnMut(&mut Rng) -> T,
) -> Vec<T> {
    let mut out: Vec<T> = Vec::new();
    for _ in 0..rng.size(min, max) {
        let x = match out.len() {
            0 => item(rng),
            n => match rng.below(5) {
                0 => out[rng.size(0, n)],
                _ => item(rng),
            },
        };
        out.push(x);
    }
    out
}

/// `entries`, each left out of the index one time in six, as an index
/// over a shard's extents leaves out the members without one.
fn gaps<T: Copy>(rng: &mut Rng, entries: &[T]) -> Vec<Option<T>> {
    entries.iter().map(|&x| (rng.below(6) > 0).then_some(x)).collect()
}

/// The positions of the entries there are and `keep` holds of, ascending.
fn brute_force<T>(entries: &[Option<T>], keep: impl Fn(&T) -> bool) -> Vec<usize> {
    (0..entries.len()).filter(|&p| entries[p].as_ref().is_some_and(&keep)).collect()
}

/// What a `for_each_…` probe hands out, each once, ascending, for comparing
/// with the `Vec`-returning form.
fn handed_out(probe: impl FnOnce(&mut dyn FnMut(u32))) -> Vec<usize> {
    let mut got = Vec::new();
    probe(&mut |p| got.push(p as usize));
    got.sort_unstable();
    let before = got.len();
    got.dedup();
    assert_eq!(got.len(), before, "each payload is handed out once");
    got
}

#[test]
fn rtree_intersection_equals_brute_force() {
    sweep(CASES, |rng| {
        let drawn = entries(rng, 0, 120, bbox);
        let entries = gaps(rng, &drawn);
        let query = bbox(rng);
        let tree = RTree::build(entries.len(), |p| entries[p]);
        let at = |p: usize| entries[p];
        let want = brute_force(&entries, |b| b.intersects(&query));
        assert_eq!(tree.len(), entries.iter().flatten().count());
        assert_eq!(tree.intersecting(&query, at), want);
        assert_eq!(handed_out(|each| tree.for_each_intersecting(&query, at, each)), want);
    });
}

#[test]
fn rtree_nearest_matches_brute_force() {
    sweep(CASES, |rng| {
        let drawn = entries(rng, 1, 100, bbox);
        let entries = gaps(rng, &drawn);
        let p = GeoPoint { lat: rng.float(38.0, 52.0), lon: rng.float(-132.0, -118.0) };
        let k = rng.size(1, 12);
        let tree = RTree::build(entries.len(), |ix| entries[ix]);
        let got = tree.nearest(&p, k, |ix| entries[ix]);
        // the `(distance, payload)` order: ties go to the smaller payload
        let mut all: Vec<(usize, f64)> = (0..entries.len())
            .filter_map(|ix| entries[ix].map(|b| (ix, b.distance_km(&p))))
            .collect();
        all.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
        all.truncate(k);
        assert_eq!(got, all);
    });
}

#[test]
fn interval_index_equals_brute_force() {
    sweep(CASES, |rng| {
        let drawn = entries(rng, 0, 150, interval);
        let entries = gaps(rng, &drawn);
        let query = interval(rng);
        let ix = IntervalIndex::build(entries.len(), |p| entries[p]);
        let at = |p: usize| entries[p];
        let want = brute_force(&entries, |iv| iv.overlaps(&query));
        assert_eq!(ix.len(), entries.iter().flatten().count());
        assert_eq!(ix.overlapping(&query, at), want);
        assert_eq!(handed_out(|each| ix.for_each_overlapping(&query, at, each)), want);
    });
}

#[test]
fn interval_stabbing_equals_brute_force() {
    sweep(CASES, |rng| {
        let drawn = entries(rng, 0, 150, interval);
        let entries = gaps(rng, &drawn);
        let t = Timestamp(rng.range(0, 1_050_000));
        let ix = IntervalIndex::build(entries.len(), |p| entries[p]);
        let at = |p: usize| entries[p];
        assert_eq!(ix.stabbing(t, at), brute_force(&entries, |iv| iv.contains(t)));
    });
}
