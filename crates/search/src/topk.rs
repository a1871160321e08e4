//! Bounded top-k selection over scored candidates.
//!
//! Fully sorting every scored candidate and then truncating to `limit` is
//! O(n log n) on full-catalog fallback scans. A bounded binary heap keeps
//! only the best `k` seen so far, O(n log k), and because the rank order
//! `(score desc, path asc)` is a *strict total order* (paths are unique
//! within a catalog), the selected set — and therefore the final sorted
//! output — is identical to sort-then-truncate. The same property makes
//! per-shard top-k lists mergeable without losing determinism.

use crate::engine::SearchHit;
use std::cmp::Ordering;

/// Total rank order over hits: higher score first, ties broken by
/// lexicographically smaller path. Scores are finite (always in `[0, 1]`),
/// and paths are unique per catalog, so the order is total and strict.
pub(crate) fn rank_cmp(a: &SearchHit, b: &SearchHit) -> Ordering {
    b.score.partial_cmp(&a.score).unwrap_or(Ordering::Equal).then_with(|| a.path.cmp(&b.path))
}

/// A candidate in the allocation-free scoring pass: `(total score, local
/// index)`. Sixteen bytes of copyable data instead of a materialized
/// [`SearchHit`] with its strings and breakdown — only the final `k`
/// survivors are ever materialized.
pub(crate) type LightHit = (f64, u32);

/// Bounded top-k over [`LightHit`]s with **caller-owned storage** and a
/// **caller-supplied order** (ranking ties break on dataset path, which
/// only the shard can look up).
///
/// `rank_lt(a, b)` must be a strict total order meaning "a ranks before
/// b" — the same `(score desc, path asc)` order as [`rank_cmp`], so the
/// kept set equals sort-then-truncate exactly.
///
/// The buffer is maintained as a binary max-heap under "ranks later", so
/// the root is always the current eviction candidate.
pub(crate) struct LightTopK<'a> {
    k: usize,
    heap: &'a mut Vec<LightHit>,
}

impl<'a> LightTopK<'a> {
    /// Wraps (and clears) a reusable buffer.
    pub(crate) fn new(k: usize, heap: &'a mut Vec<LightHit>) -> LightTopK<'a> {
        heap.clear();
        LightTopK { k, heap }
    }

    /// Offers one candidate; kept only while it ranks among the best `k`.
    pub(crate) fn push(&mut self, c: LightHit, rank_lt: &dyn Fn(&LightHit, &LightHit) -> bool) {
        if self.k == 0 {
            return;
        }
        if self.heap.len() < self.k {
            self.heap.push(c);
            self.sift_up(self.heap.len() - 1, rank_lt);
            return;
        }
        if rank_lt(&c, &self.heap[0]) {
            self.heap[0] = c;
            self.sift_down(0, rank_lt);
        }
    }

    /// The `k`-th best candidate kept, once `k` are: one that ranks after it
    /// cannot be kept any more.
    pub(crate) fn kth(&self) -> Option<LightHit> {
        (self.k > 0 && self.heap.len() == self.k).then(|| self.heap[0])
    }

    fn sift_up(&mut self, mut ix: usize, rank_lt: &dyn Fn(&LightHit, &LightHit) -> bool) {
        while ix > 0 {
            let parent = (ix - 1) / 2;
            // heap property: parent ranks no earlier than child
            if rank_lt(&self.heap[parent], &self.heap[ix]) {
                self.heap.swap(parent, ix);
                ix = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut ix: usize, rank_lt: &dyn Fn(&LightHit, &LightHit) -> bool) {
        loop {
            let (l, r) = (2 * ix + 1, 2 * ix + 2);
            let mut worst = ix;
            if l < self.heap.len() && rank_lt(&self.heap[worst], &self.heap[l]) {
                worst = l;
            }
            if r < self.heap.len() && rank_lt(&self.heap[worst], &self.heap[r]) {
                worst = r;
            }
            if worst == ix {
                break;
            }
            self.heap.swap(ix, worst);
            ix = worst;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random scores without pulling in `rand`.
    fn lcg_scores(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect()
    }

    #[test]
    fn light_topk_matches_sort_then_truncate() {
        // order: score desc, ties by local index asc — any strict total
        // order exercises the heap the same way the shard's path order
        // does.
        let lt = |a: &LightHit, b: &LightHit| match b.0.partial_cmp(&a.0).unwrap() {
            Ordering::Less => true,
            Ordering::Greater => false,
            Ordering::Equal => a.1 < b.1,
        };
        for (n, k, seed) in [(100usize, 5usize, 7u64), (37, 10, 99), (8, 8, 3), (5, 20, 1)] {
            let cands: Vec<LightHit> =
                lcg_scores(n, seed).into_iter().enumerate().map(|(ix, s)| (s, ix as u32)).collect();
            let mut buf = Vec::new();
            let mut topk = LightTopK::new(k, &mut buf);
            for &c in &cands {
                topk.push(c, &lt);
            }
            let mut kept = buf.clone();
            kept.sort_by(|a, b| if lt(a, b) { Ordering::Less } else { Ordering::Greater });
            let mut reference = cands.clone();
            reference.sort_by(|a, b| if lt(a, b) { Ordering::Less } else { Ordering::Greater });
            reference.truncate(k);
            assert_eq!(kept, reference, "n={n} k={k}");
        }
    }

    #[test]
    fn light_topk_zero_k_and_buffer_reuse() {
        let lt = |a: &LightHit, b: &LightHit| a.0 > b.0;
        let mut buf = vec![(0.9, 0); 4]; // stale garbage from a prior query
        let mut topk = LightTopK::new(0, &mut buf);
        topk.push((1.0, 1), &lt);
        assert!(buf.is_empty(), "new() clears, k=0 keeps nothing");
        let mut topk = LightTopK::new(2, &mut buf);
        for s in [0.1, 0.5, 0.3, 0.9] {
            topk.push((s, (s * 10.0) as u32), &lt);
        }
        assert_eq!(buf.len(), 2);
        assert!(buf.iter().all(|c| c.0 >= 0.5));
    }
}
