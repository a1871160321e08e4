//! A static interval index over dataset time extents.
//!
//! Intervals are stored sorted by start with a prefix-maximum of ends;
//! stabbing/overlap queries binary-search the start array and walk only the
//! prefix that can still overlap, pruning with the max-end table. O(log n +
//! answer) in practice for the skewed, short-interval workloads catalogs
//! have.

use metamess_core::time::{TimeInterval, Timestamp};

/// Static interval index mapping intervals to payload indices.
#[derive(Debug)]
pub struct IntervalIndex {
    /// Entries sorted by (start, payload).
    starts: Vec<(TimeInterval, u32)>,
    /// `max_end[i]` = max end among `starts[..=i]`.
    max_end: Vec<Timestamp>,
}

impl IntervalIndex {
    /// Builds the index from `(interval, payload)` pairs.
    ///
    /// # Panics
    ///
    /// When a payload does not fit a `u32`.
    pub fn build(entries: Vec<(TimeInterval, usize)>) -> IntervalIndex {
        let mut entries: Vec<(TimeInterval, u32)> = entries
            .into_iter()
            .map(|(iv, payload)| (iv, u32::try_from(payload).expect("payloads fit a u32")))
            .collect();
        entries.sort_by(|a, b| a.0.start.cmp(&b.0.start).then(a.1.cmp(&b.1)));
        let mut max_end = Vec::with_capacity(entries.len());
        let mut cur = Timestamp(i64::MIN);
        for (iv, _) in &entries {
            if iv.end > cur {
                cur = iv.end;
            }
            max_end.push(cur);
        }
        IntervalIndex { starts: entries, max_end }
    }

    /// Number of indexed intervals.
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }

    /// Payloads of all intervals overlapping `query`, ascending payload order.
    pub fn overlapping(&self, query: &TimeInterval) -> Vec<usize> {
        let mut out = Vec::new();
        self.overlapping_into(query, &mut out);
        let mut out: Vec<usize> = out.into_iter().map(|p| p as usize).collect();
        out.sort_unstable();
        out
    }

    /// Appends to `out` the payloads of all intervals overlapping `query`,
    /// in no particular order, allocating nothing but `out`'s growth.
    pub fn overlapping_into(&self, query: &TimeInterval, out: &mut Vec<u32>) {
        // Entries with start > query.end can never overlap.
        let hi = self.starts.partition_point(|(iv, _)| iv.start <= query.end);
        // Walk backward from hi, pruning when even the best end is too early.
        let mut i = hi;
        while i > 0 {
            i -= 1;
            if self.max_end[i] < query.start {
                break; // nothing in the prefix reaches the query
            }
            let (iv, payload) = &self.starts[i];
            if iv.end >= query.start {
                out.push(*payload);
            }
        }
    }

    /// Payloads of intervals containing the instant `t`.
    pub fn stabbing(&self, t: Timestamp) -> Vec<usize> {
        self.overlapping(&TimeInterval::instant(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(a: i64, b: i64) -> TimeInterval {
        TimeInterval::new(Timestamp(a), Timestamp(b))
    }

    fn entries() -> Vec<(TimeInterval, usize)> {
        vec![
            (iv(0, 10), 0),
            (iv(5, 15), 1),
            (iv(20, 30), 2),
            (iv(25, 26), 3),
            (iv(40, 100), 4),
            (iv(50, 60), 5),
            (iv(0, 200), 6), // long interval spanning everything
        ]
    }

    fn linear(entries: &[(TimeInterval, usize)], q: &TimeInterval) -> Vec<usize> {
        let mut v: Vec<usize> =
            entries.iter().filter(|(i, _)| i.overlaps(q)).map(|(_, p)| *p).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn empty() {
        let ix = IntervalIndex::build(vec![]);
        assert!(ix.is_empty());
        assert!(ix.overlapping(&iv(0, 10)).is_empty());
    }

    #[test]
    fn overlap_matches_linear() {
        let e = entries();
        let ix = IntervalIndex::build(e.clone());
        assert_eq!(ix.len(), e.len());
        for q in [iv(0, 5), iv(12, 22), iv(27, 45), iv(300, 400), iv(-10, -1), iv(55, 55)] {
            assert_eq!(ix.overlapping(&q), linear(&e, &q), "query {q}");
        }
    }

    #[test]
    fn stabbing() {
        let ix = IntervalIndex::build(entries());
        assert_eq!(ix.stabbing(Timestamp(7)), vec![0, 1, 6]);
        assert_eq!(ix.stabbing(Timestamp(25)), vec![2, 3, 6]);
        assert_eq!(ix.stabbing(Timestamp(199)), vec![6]);
        assert_eq!(ix.stabbing(Timestamp(201)), Vec::<usize>::new());
    }

    #[test]
    fn closed_boundaries() {
        let ix = IntervalIndex::build(vec![(iv(10, 20), 0)]);
        assert_eq!(ix.overlapping(&iv(20, 30)), vec![0]); // touch at end
        assert_eq!(ix.overlapping(&iv(0, 10)), vec![0]); // touch at start
        assert_eq!(ix.overlapping(&iv(21, 30)), Vec::<usize>::new());
    }

    #[test]
    fn pseudo_random_against_linear() {
        // deterministic LCG workload
        let mut state = 88172645463325252u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let e: Vec<(TimeInterval, usize)> = (0..300)
            .map(|i| {
                let a = (next() % 10_000) as i64;
                let len = (next() % 500) as i64;
                (iv(a, a + len), i)
            })
            .collect();
        let ix = IntervalIndex::build(e.clone());
        for _ in 0..100 {
            let a = (next() % 11_000) as i64 - 500;
            let len = (next() % 800) as i64;
            let q = iv(a, a + len);
            assert_eq!(ix.overlapping(&q), linear(&e, &q), "query {q}");
        }
    }
}
