//! A static STR-packed R-tree over boxes the caller keeps.
//!
//! The catalog is rebuilt (not incrementally mutated) on publish, so a
//! bulk-loaded static tree is the right shape: Sort-Tile-Recursive packing,
//! intersection queries, and best-first nearest-neighbour by box distance.
//!
//! The tree holds one box per node and the items' order, nothing per item:
//! a query reads an item's box through the caller's `bbox` function, from
//! wherever the caller already keeps it (a shard reads its extents). It is
//! one flat array, implicit in its indices: leaf `j` holds the items
//! `order[8j..8j + 8]`, and node `k` of a level above the leaves has the
//! nodes `8k..8k + 8` of the level below as its children.

use metamess_core::geo::{GeoBBox, GeoPoint};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::ops::Range;

const NODE_CAPACITY: usize = 8;

/// The box of payload `p`, which the tree holds.
fn item_box(bbox: impl Fn(usize) -> Option<GeoBBox>, p: usize) -> GeoBBox {
    bbox(p).expect("an indexed item has a box")
}

fn union_all(boxes: impl Iterator<Item = GeoBBox>) -> GeoBBox {
    let mut it = boxes;
    let first = it.next().expect("non-empty");
    it.fold(first, |acc, b| acc.union(&b))
}

/// Static R-tree mapping bounding boxes to payload indices.
#[derive(Debug)]
pub struct RTree {
    /// The payloads in STR order: the items of the leaves, leaf by leaf.
    order: Vec<u32>,
    /// Node boxes, level by level from the leaves up to the root, which is
    /// the last: level `l` is `nodes[levels[l]..levels[l + 1]]`.
    nodes: Vec<GeoBBox>,
    levels: Vec<usize>,
}

impl RTree {
    /// Bulk-loads the tree (STR packing) over items `0..len`, each item's
    /// payload its position and `bbox` its box; an item without a box is
    /// left out. Every query must read the same boxes through its `bbox`.
    ///
    /// # Panics
    ///
    /// When a payload does not fit a `u32`.
    pub fn build(len: usize, bbox: impl Fn(usize) -> Option<GeoBBox>) -> RTree {
        let boxed = || (0..len).filter(|&p| bbox(p).is_some());
        let mut order: Vec<u32> = Vec::with_capacity(boxed().count());
        order.extend(boxed().map(|p| u32::try_from(p).expect("payloads fit a u32")));
        if order.is_empty() {
            return RTree { order, nodes: Vec::new(), levels: vec![0] };
        }
        let at = |p: &u32| item_box(&bbox, *p as usize);
        let by = |key: fn(&GeoPoint) -> f64| {
            move |a: &u32, b: &u32| {
                key(&at(a).center()).partial_cmp(&key(&at(b).center())).unwrap_or(Ordering::Equal)
            }
        };
        // STR: sort by center lon, slice, sort each slice by center lat.
        // Each slice is a whole number of leaves, so every leaf but the last
        // is full and leaf `j` starts at item `8j`.
        order.sort_by(by(|c| c.lon));
        let leaf_count = order.len().div_ceil(NODE_CAPACITY);
        let slice_count = (leaf_count as f64).sqrt().ceil() as usize;
        let slice_size = order.len().div_ceil(slice_count).next_multiple_of(NODE_CAPACITY);
        for slice in order.chunks_mut(slice_size) {
            slice.sort_by(by(|c| c.lat));
        }
        // a level has an eighth of the nodes of the one below, rounded up
        let mut nodes_total = 0;
        let mut level = leaf_count;
        while level > 1 {
            nodes_total += level;
            level = level.div_ceil(NODE_CAPACITY);
        }
        let mut nodes: Vec<GeoBBox> = Vec::with_capacity(nodes_total + 1);
        nodes.extend(order.chunks(NODE_CAPACITY).map(|leaf| union_all(leaf.iter().map(at))));
        let mut levels = vec![0, nodes.len()];
        // Pack upward until a single root remains.
        while levels[levels.len() - 1] - levels[levels.len() - 2] > 1 {
            let below = levels[levels.len() - 2]..levels[levels.len() - 1];
            for start in below.clone().step_by(NODE_CAPACITY) {
                let children = start..(start + NODE_CAPACITY).min(below.end);
                nodes.push(union_all(children.map(|c| nodes[c])));
            }
            levels.push(nodes.len());
        }
        RTree { order, nodes, levels }
    }

    /// Number of indexed items.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Levels of nodes, the leaves' included.
    fn height(&self) -> usize {
        self.levels.len() - 1
    }

    /// The box of node `node` of level `level`.
    fn node(&self, level: usize, node: usize) -> &GeoBBox {
        &self.nodes[self.levels[level] + node]
    }

    /// What node `node` of level `level` holds: indices into `order` for a
    /// leaf, node numbers of the level below otherwise.
    fn children(&self, level: usize, node: usize) -> Range<usize> {
        let below =
            if level == 0 { self.order.len() } else { self.levels[level] - self.levels[level - 1] };
        node * NODE_CAPACITY..((node + 1) * NODE_CAPACITY).min(below)
    }

    /// Payload indices whose boxes intersect `query`, in ascending payload
    /// order (deterministic). `bbox` is each payload's box, as built.
    pub fn intersecting(
        &self,
        query: &GeoBBox,
        bbox: impl Fn(usize) -> Option<GeoBBox>,
    ) -> Vec<usize> {
        let mut out = Vec::new();
        self.for_each_intersecting(query, bbox, |p| out.push(p as usize));
        out.sort_unstable();
        out
    }

    /// Hands `each` the payload indices whose boxes intersect `query`, in
    /// no particular order, allocating nothing. `bbox` is each payload's
    /// box, as built.
    pub fn for_each_intersecting(
        &self,
        query: &GeoBBox,
        bbox: impl Fn(usize) -> Option<GeoBBox>,
        mut each: impl FnMut(u32),
    ) {
        fn walk(
            tree: &RTree,
            level: usize,
            node: usize,
            query: &GeoBBox,
            bbox: &impl Fn(usize) -> Option<GeoBBox>,
            each: &mut impl FnMut(u32),
        ) {
            if !tree.node(level, node).intersects(query) {
                return;
            }
            if level == 0 {
                for &p in &tree.order[tree.children(0, node)] {
                    if item_box(bbox, p as usize).intersects(query) {
                        each(p);
                    }
                }
            } else {
                for child in tree.children(level, node) {
                    walk(tree, level - 1, child, query, bbox, each);
                }
            }
        }
        if !self.is_empty() {
            walk(self, self.height() - 1, 0, query, &bbox, &mut each);
        }
    }

    /// The `k` payloads whose boxes are nearest to `point` (by box
    /// distance), nearest first, ties by ascending payload. Best-first
    /// search over node distances. `bbox` is each payload's box, as built.
    pub fn nearest(
        &self,
        point: &GeoPoint,
        k: usize,
        bbox: impl Fn(usize) -> Option<GeoBBox>,
    ) -> Vec<(usize, f64)> {
        /// A node `(level, number)`, or an item when `node` is `None`.
        struct Candidate {
            dist: f64,
            node: Option<(usize, usize)>,
            payload: usize,
        }
        impl PartialEq for Candidate {
            fn eq(&self, other: &Self) -> bool {
                self.dist == other.dist
            }
        }
        impl Eq for Candidate {}
        impl PartialOrd for Candidate {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Candidate {
            fn cmp(&self, other: &Self) -> Ordering {
                // min-heap by distance; a node (payload 0) opens before an
                // item at its distance, so items leave in payload order
                other
                    .dist
                    .partial_cmp(&self.dist)
                    .unwrap_or(Ordering::Equal)
                    .then_with(|| other.payload.cmp(&self.payload))
            }
        }

        let mut out = Vec::new();
        if self.is_empty() || k == 0 {
            return out;
        }
        let root = (self.height() - 1, 0);
        let mut heap = BinaryHeap::new();
        let dist = self.node(root.0, root.1).distance_km(point);
        heap.push(Candidate { dist, node: Some(root), payload: 0 });
        while let Some(c) = heap.pop() {
            match c.node {
                None => {
                    out.push((c.payload, c.dist));
                    if out.len() == k {
                        break;
                    }
                }
                Some((0, leaf)) => {
                    for &p in &self.order[self.children(0, leaf)] {
                        let payload = p as usize;
                        let dist = item_box(&bbox, payload).distance_km(point);
                        heap.push(Candidate { dist, node: None, payload });
                    }
                }
                Some((level, node)) => {
                    for child in self.children(level, node) {
                        let dist = self.node(level - 1, child).distance_km(point);
                        heap.push(Candidate { dist, node: Some((level - 1, child)), payload: 0 });
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

    fn boxes(n: usize) -> Vec<Option<GeoBBox>> {
        // deterministic grid of small boxes over the estuary region
        (0..n)
            .map(|i| {
                let lat = 45.0 + (i % 20) as f64 * 0.05;
                let lon = -124.5 + (i / 20) as f64 * 0.05;
                Some(GeoBBox {
                    min_lat: lat,
                    max_lat: lat + 0.02,
                    min_lon: lon,
                    max_lon: lon + 0.02,
                })
            })
            .collect()
    }

    fn build(boxes: &[Option<GeoBBox>]) -> RTree {
        RTree::build(boxes.len(), |p| boxes[p])
    }

    fn linear_intersecting(boxes: &[Option<GeoBBox>], q: &GeoBBox) -> Vec<usize> {
        (0..boxes.len()).filter(|&i| boxes[i].unwrap().intersects(q)).collect()
    }

    #[test]
    fn empty_tree() {
        let t = RTree::build(3, |_| None);
        assert!(t.is_empty());
        let q = GeoBBox::new(0.0, 1.0, 0.0, 1.0).unwrap();
        let never = |_: usize| -> Option<GeoBBox> { unreachable!("an empty tree reads no box") };
        assert!(t.intersecting(&q, never).is_empty());
        assert!(t.nearest(&GeoPoint { lat: 0.0, lon: 0.0 }, 3, never).is_empty());
    }

    #[test]
    fn intersection_matches_linear_scan() {
        let entries = boxes(137);
        let tree = build(&entries);
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
            assert_eq!(
                tree.intersecting(&q, |i| entries[i]),
                linear_intersecting(&entries, &q),
                "{q}"
            );
        }
    }

    #[test]
    fn nearest_matches_linear_scan() {
        let entries = boxes(100);
        let tree = build(&entries);
        let p = GeoPoint { lat: 45.37, lon: -124.12 };
        let got = tree.nearest(&p, 5, |i| entries[i]);
        let mut all: Vec<(usize, f64)> =
            entries.iter().enumerate().map(|(ix, b)| (ix, b.unwrap().distance_km(&p))).collect();
        all.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
        assert_eq!(got, all[..5]);
    }

    #[test]
    fn nearest_k_larger_than_len() {
        let entries = boxes(3);
        let tree = build(&entries);
        let p = GeoPoint { lat: 45.0, lon: -124.5 };
        assert_eq!(tree.nearest(&p, 10, |i| entries[i]).len(), 3);
    }

    #[test]
    fn single_item_tree() {
        let b = GeoBBox::new(45.0, 46.0, -124.0, -123.0).unwrap();
        let mut boxes = vec![None; 8];
        boxes[7] = Some(b);
        let t = build(&boxes);
        assert_eq!(t.len(), 1);
        assert_eq!(t.intersecting(&b, |p| boxes[p]), vec![7]);
        let inside = GeoPoint { lat: 45.5, lon: -123.5 };
        assert_eq!(t.nearest(&inside, 1, |p| boxes[p]), vec![(7, 0.0)]);
    }

    #[test]
    fn duplicate_boxes_all_returned() {
        let b = GeoBBox::new(45.0, 45.1, -124.0, -123.9).unwrap();
        let t = build(&[Some(b); 3]);
        assert_eq!(t.intersecting(&b, |_| Some(b)), vec![0, 1, 2]);
    }

    #[test]
    fn every_leaf_but_the_last_is_full() {
        // slices of 8 leaves' worth, one short slice at the end
        for n in [1, 7, 8, 9, 64, 65, 100, 137, 1000] {
            let t = build(&boxes(n));
            assert_eq!(t.levels[1], n.div_ceil(NODE_CAPACITY), "{n} items");
            assert_eq!(t.levels[t.height()] - t.levels[t.height() - 1], 1, "one root");
            assert_eq!(t.nodes.len(), t.nodes.capacity(), "{n} items: nodes sized once");
        }
    }
}
