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
use std::collections::BinaryHeap;

/// Total rank order over hits: higher score first, ties broken by
/// lexicographically smaller path. Scores are finite (always in `[0, 1]`),
/// and paths are unique per catalog, so the order is total and strict.
pub(crate) fn rank_cmp(a: &SearchHit, b: &SearchHit) -> Ordering {
    b.score.partial_cmp(&a.score).unwrap_or(Ordering::Equal).then_with(|| a.path.cmp(&b.path))
}

/// Heap wrapper ordering hits worst-rank-first, so the max-heap root is the
/// current eviction candidate.
struct Worst(SearchHit);

impl PartialEq for Worst {
    fn eq(&self, other: &Self) -> bool {
        rank_cmp(&self.0, &other.0) == Ordering::Equal
    }
}

impl Eq for Worst {}

impl PartialOrd for Worst {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Worst {
    fn cmp(&self, other: &Self) -> Ordering {
        // greater under rank_cmp = ranks later = worse
        rank_cmp(&self.0, &other.0)
    }
}

/// A bounded top-k accumulator: push every scored hit, keep the best `k`.
pub struct TopK {
    k: usize,
    heap: BinaryHeap<Worst>,
}

impl TopK {
    /// An empty accumulator holding at most `k` hits. Preallocation is
    /// capped — a huge `k` (queries clamp theirs, but `TopK` is a public
    /// building block) must not become a huge upfront allocation; the heap
    /// grows on demand past the cap.
    pub fn new(k: usize) -> TopK {
        TopK { k, heap: BinaryHeap::with_capacity(k.saturating_add(1).min(4096)) }
    }

    /// Offers one hit; kept only while it ranks among the best `k` seen.
    pub fn push(&mut self, hit: SearchHit) {
        if self.k == 0 {
            return;
        }
        if self.heap.len() < self.k {
            self.heap.push(Worst(hit));
            return;
        }
        if let Some(worst) = self.heap.peek() {
            if rank_cmp(&hit, &worst.0) == Ordering::Less {
                self.heap.pop();
                self.heap.push(Worst(hit));
            }
        }
    }

    /// Folds another accumulator in (used to combine partial results).
    pub fn merge(&mut self, other: TopK) {
        for w in other.heap {
            self.push(w.0);
        }
    }

    /// Number of hits currently held.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no hits are held.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The kept hits, best first.
    pub fn into_sorted(self) -> Vec<SearchHit> {
        let mut out: Vec<SearchHit> = self.heap.into_iter().map(|w| w.0).collect();
        out.sort_by(rank_cmp);
        out
    }
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
/// kept set equals sort-then-truncate exactly, like [`TopK`]'s.
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
    use crate::score::ScoreBreakdown;
    use metamess_core::id::DatasetId;

    fn hit(path: &str, score: f64) -> SearchHit {
        SearchHit {
            id: DatasetId::from_path(path),
            path: path.to_string(),
            title: path.to_string(),
            score,
            breakdown: ScoreBreakdown::default(),
        }
    }

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

    fn reference(hits: &[SearchHit], k: usize) -> Vec<SearchHit> {
        let mut v = hits.to_vec();
        v.sort_by(rank_cmp);
        v.truncate(k);
        v
    }

    #[test]
    fn matches_sort_then_truncate() {
        for (n, k, seed) in [(100usize, 5usize, 7u64), (37, 10, 99), (8, 8, 3), (5, 20, 1)] {
            let hits: Vec<SearchHit> = lcg_scores(n, seed)
                .into_iter()
                .enumerate()
                .map(|(ix, s)| hit(&format!("ds/{ix:04}.csv"), s))
                .collect();
            let mut topk = TopK::new(k);
            for h in hits.iter().cloned() {
                topk.push(h);
            }
            assert_eq!(topk.into_sorted(), reference(&hits, k), "n={n} k={k}");
        }
    }

    #[test]
    fn merge_agrees_with_single_accumulator() {
        let hits: Vec<SearchHit> = lcg_scores(64, 42)
            .into_iter()
            .enumerate()
            .map(|(ix, s)| hit(&format!("ds/{ix:04}.csv"), s))
            .collect();
        for parts in [2usize, 3, 7] {
            let chunk = hits.len().div_ceil(parts);
            let mut merged = TopK::new(6);
            for c in hits.chunks(chunk) {
                let mut local = TopK::new(6);
                for h in c.iter().cloned() {
                    local.push(h);
                }
                merged.merge(local);
            }
            assert_eq!(merged.into_sorted(), reference(&hits, 6), "parts={parts}");
        }
    }

    #[test]
    fn score_ties_break_by_path() {
        let mut topk = TopK::new(2);
        topk.push(hit("b.csv", 0.5));
        topk.push(hit("a.csv", 0.5));
        topk.push(hit("c.csv", 0.5));
        let out = topk.into_sorted();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].path, "a.csv");
        assert_eq!(out[1].path, "b.csv");
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

    #[test]
    fn zero_k_keeps_nothing() {
        let mut topk = TopK::new(0);
        topk.push(hit("a.csv", 1.0));
        assert!(topk.is_empty());
        assert_eq!(topk.len(), 0);
        assert!(topk.into_sorted().is_empty());
    }
}
