//! A static STR-packed R-tree over dataset bounding boxes.
//!
//! The catalog is rebuilt (not incrementally mutated) on publish, so a
//! bulk-loaded static tree is the right shape: Sort-Tile-Recursive packing,
//! intersection queries, and best-first nearest-neighbour by box distance.

use metamess_core::geo::{GeoBBox, GeoPoint};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

const NODE_CAPACITY: usize = 8;

/// One indexed item: a bounding box and the caller's payload index.
#[derive(Debug, Clone)]
struct Item {
    bbox: GeoBBox,
    payload: u32,
}

#[derive(Debug)]
enum Node {
    Leaf { bbox: GeoBBox, items: Vec<Item> },
    Inner { bbox: GeoBBox, children: Vec<Node> },
}

impl Node {
    fn bbox(&self) -> &GeoBBox {
        match self {
            Node::Leaf { bbox, .. } | Node::Inner { bbox, .. } => bbox,
        }
    }
}

fn union_all(boxes: impl Iterator<Item = GeoBBox>) -> GeoBBox {
    let mut it = boxes;
    let first = it.next().expect("non-empty");
    it.fold(first, |acc, b| acc.union(&b))
}

/// Static R-tree mapping bounding boxes to payload indices.
#[derive(Debug)]
pub struct RTree {
    root: Option<Node>,
    len: usize,
}

impl RTree {
    /// Bulk-loads the tree (STR packing) from `(bbox, payload)` pairs.
    ///
    /// # Panics
    ///
    /// When a payload does not fit a `u32`.
    pub fn build(entries: Vec<(GeoBBox, usize)>) -> RTree {
        let len = entries.len();
        if entries.is_empty() {
            return RTree { root: None, len: 0 };
        }
        let mut items: Vec<Item> = entries
            .into_iter()
            .map(|(bbox, payload)| Item {
                bbox,
                payload: u32::try_from(payload).expect("payloads fit a u32"),
            })
            .collect();
        // STR: sort by center lon, slice, sort each slice by center lat.
        items.sort_by(|a, b| {
            a.bbox.center().lon.partial_cmp(&b.bbox.center().lon).unwrap_or(Ordering::Equal)
        });
        let leaf_count = items.len().div_ceil(NODE_CAPACITY);
        let slice_count = (leaf_count as f64).sqrt().ceil() as usize;
        let slice_size = items.len().div_ceil(slice_count);
        let mut leaves: Vec<Node> = Vec::with_capacity(leaf_count);
        for slice in items.chunks_mut(slice_size.max(1)) {
            slice.sort_by(|a, b| {
                a.bbox.center().lat.partial_cmp(&b.bbox.center().lat).unwrap_or(Ordering::Equal)
            });
            for group in slice.chunks(NODE_CAPACITY) {
                let bbox = union_all(group.iter().map(|i| i.bbox));
                leaves.push(Node::Leaf { bbox, items: group.to_vec() });
            }
        }
        // Pack upward until a single root remains.
        let mut level = leaves;
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(NODE_CAPACITY));
            let mut iter = level.into_iter().peekable();
            while iter.peek().is_some() {
                let children: Vec<Node> = iter.by_ref().take(NODE_CAPACITY).collect();
                let bbox = union_all(children.iter().map(|c| *c.bbox()));
                next.push(Node::Inner { bbox, children });
            }
            level = next;
        }
        RTree { root: level.pop(), len }
    }

    /// Number of indexed items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Payload indices whose boxes intersect `query`, in ascending payload
    /// order (deterministic).
    pub fn intersecting(&self, query: &GeoBBox) -> Vec<usize> {
        let mut out = Vec::new();
        self.intersecting_into(query, &mut out);
        let mut out: Vec<usize> = out.into_iter().map(|p| p as usize).collect();
        out.sort_unstable();
        out
    }

    /// Appends to `out` the payload indices whose boxes intersect `query`,
    /// in no particular order, allocating nothing but `out`'s growth.
    pub fn intersecting_into(&self, query: &GeoBBox, out: &mut Vec<u32>) {
        fn walk(node: &Node, query: &GeoBBox, out: &mut Vec<u32>) {
            if !node.bbox().intersects(query) {
                return;
            }
            match node {
                Node::Leaf { items, .. } => {
                    out.extend(items.iter().filter(|i| i.bbox.intersects(query)).map(|i| i.payload))
                }
                Node::Inner { children, .. } => children.iter().for_each(|c| walk(c, query, out)),
            }
        }
        if let Some(root) = &self.root {
            walk(root, query, out);
        }
    }

    /// The `k` payloads whose boxes are nearest to `point` (by box
    /// distance), nearest first. Best-first search over node distances.
    pub fn nearest(&self, point: &GeoPoint, k: usize) -> Vec<(usize, f64)> {
        #[derive(Debug)]
        struct Candidate<'a> {
            dist: f64,
            node: Option<&'a Node>, // None = concrete item
            payload: usize,
        }
        impl PartialEq for Candidate<'_> {
            fn eq(&self, other: &Self) -> bool {
                self.dist == other.dist
            }
        }
        impl Eq for Candidate<'_> {}
        impl PartialOrd for Candidate<'_> {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Candidate<'_> {
            fn cmp(&self, other: &Self) -> Ordering {
                // min-heap by distance
                other
                    .dist
                    .partial_cmp(&self.dist)
                    .unwrap_or(Ordering::Equal)
                    .then_with(|| other.payload.cmp(&self.payload))
            }
        }

        let mut out = Vec::new();
        let Some(root) = &self.root else { return out };
        if k == 0 {
            return out;
        }
        let mut heap = BinaryHeap::new();
        heap.push(Candidate { dist: root.bbox().distance_km(point), node: Some(root), payload: 0 });
        while let Some(c) = heap.pop() {
            match c.node {
                None => {
                    out.push((c.payload, c.dist));
                    if out.len() == k {
                        break;
                    }
                }
                Some(Node::Leaf { items, .. }) => {
                    for i in items {
                        heap.push(Candidate {
                            dist: i.bbox.distance_km(point),
                            node: None,
                            payload: i.payload as usize,
                        });
                    }
                }
                Some(Node::Inner { children, .. }) => {
                    for ch in children {
                        heap.push(Candidate {
                            dist: ch.bbox().distance_km(point),
                            node: Some(ch),
                            payload: 0,
                        });
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn boxes(n: usize) -> Vec<(GeoBBox, usize)> {
        // deterministic grid of small boxes over the estuary region
        (0..n)
            .map(|i| {
                let lat = 45.0 + (i % 20) as f64 * 0.05;
                let lon = -124.5 + (i / 20) as f64 * 0.05;
                (
                    GeoBBox {
                        min_lat: lat,
                        max_lat: lat + 0.02,
                        min_lon: lon,
                        max_lon: lon + 0.02,
                    },
                    i,
                )
            })
            .collect()
    }

    fn linear_intersecting(entries: &[(GeoBBox, usize)], q: &GeoBBox) -> Vec<usize> {
        let mut v: Vec<usize> =
            entries.iter().filter(|(b, _)| b.intersects(q)).map(|(_, p)| *p).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn empty_tree() {
        let t = RTree::build(vec![]);
        assert!(t.is_empty());
        let q = GeoBBox::new(0.0, 1.0, 0.0, 1.0).unwrap();
        assert!(t.intersecting(&q).is_empty());
        assert!(t.nearest(&GeoPoint { lat: 0.0, lon: 0.0 }, 3).is_empty());
    }

    #[test]
    fn intersection_matches_linear_scan() {
        let entries = boxes(137);
        let tree = RTree::build(entries.clone());
        assert_eq!(tree.len(), 137);
        for (qlat, qlon, dlat, dlon) in [
            (45.0, -124.5, 0.3, 0.3),
            (45.4, -124.0, 0.01, 0.01),
            (46.0, -123.0, 1.0, 1.0),
            (10.0, 10.0, 1.0, 1.0), // far away: empty
        ] {
            let q = GeoBBox {
                min_lat: qlat,
                max_lat: qlat + dlat,
                min_lon: qlon,
                max_lon: qlon + dlon,
            };
            assert_eq!(tree.intersecting(&q), linear_intersecting(&entries, &q), "{q}");
        }
    }

    #[test]
    fn nearest_matches_linear_scan() {
        let entries = boxes(100);
        let tree = RTree::build(entries.clone());
        let p = GeoPoint { lat: 45.37, lon: -124.12 };
        let got = tree.nearest(&p, 5);
        // linear reference
        let mut all: Vec<(usize, f64)> =
            entries.iter().map(|(b, ix)| (*ix, b.distance_km(&p))).collect();
        all.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
        let want: Vec<f64> = all[..5].iter().map(|x| x.1).collect();
        let got_d: Vec<f64> = got.iter().map(|x| x.1).collect();
        for (g, w) in got_d.iter().zip(&want) {
            assert!((g - w).abs() < 1e-9, "{got_d:?} vs {want:?}");
        }
        // distances are nondecreasing
        for w in got.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn nearest_k_larger_than_len() {
        let entries = boxes(3);
        let tree = RTree::build(entries);
        let p = GeoPoint { lat: 45.0, lon: -124.5 };
        assert_eq!(tree.nearest(&p, 10).len(), 3);
    }

    #[test]
    fn single_item_tree() {
        let b = GeoBBox::new(45.0, 46.0, -124.0, -123.0).unwrap();
        let t = RTree::build(vec![(b, 7)]);
        assert_eq!(t.intersecting(&b), vec![7]);
        let inside = GeoPoint { lat: 45.5, lon: -123.5 };
        assert_eq!(t.nearest(&inside, 1), vec![(7, 0.0)]);
    }

    #[test]
    fn duplicate_boxes_all_returned() {
        let b = GeoBBox::new(45.0, 45.1, -124.0, -123.9).unwrap();
        let t = RTree::build(vec![(b, 0), (b, 1), (b, 2)]);
        assert_eq!(t.intersecting(&b), vec![0, 1, 2]);
    }
}
