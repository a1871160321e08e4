//! A static interval index over time extents the caller keeps.
//!
//! The index holds the items in order of start, with a prefix-maximum of
//! ends, and reads each item's interval through the caller's `interval`
//! function, from wherever the caller already keeps it (a shard reads its
//! extents). Stabbing/overlap queries binary-search the start order and walk
//! only the prefix that can still overlap, pruning with the max-end table.
//! O(log n + answer) in practice for the skewed, short-interval workloads
//! catalogs have.

use metamess_core::time::{TimeInterval, Timestamp};

/// The interval of payload `p`, which the index holds.
fn item_interval(interval: impl Fn(usize) -> Option<TimeInterval>, p: usize) -> TimeInterval {
    interval(p).expect("an indexed item has an interval")
}

/// Static interval index mapping intervals to payload indices.
#[derive(Debug)]
pub struct IntervalIndex {
    /// Payloads sorted by (start, payload).
    order: Vec<u32>,
    /// `max_end[i]` = max end among the intervals of `order[..=i]`.
    max_end: Vec<Timestamp>,
}

impl IntervalIndex {
    /// Builds the index over items `0..len`, each item's payload its
    /// position and `interval` its interval; an item without one is left
    /// out. Every query must read the same intervals through its
    /// `interval`.
    ///
    /// # Panics
    ///
    /// When a payload does not fit a `u32`.
    pub fn build(len: usize, interval: impl Fn(usize) -> Option<TimeInterval>) -> IntervalIndex {
        let timed = || (0..len).filter(|&p| interval(p).is_some());
        let mut order: Vec<u32> = Vec::with_capacity(timed().count());
        order.extend(timed().map(|p| u32::try_from(p).expect("payloads fit a u32")));
        let at = |p: u32| item_interval(&interval, p as usize);
        order.sort_by(|&a, &b| at(a).start.cmp(&at(b).start).then(a.cmp(&b)));
        let mut cur = Timestamp(i64::MIN);
        let max_end = order
            .iter()
            .map(|&p| {
                cur = cur.max(at(p).end);
                cur
            })
            .collect();
        IntervalIndex { order, max_end }
    }

    /// Number of indexed intervals.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Payloads of all intervals overlapping `query`, ascending payload
    /// order. `interval` is each payload's interval, as built.
    pub fn overlapping(
        &self,
        query: &TimeInterval,
        interval: impl Fn(usize) -> Option<TimeInterval>,
    ) -> Vec<usize> {
        let mut out = Vec::new();
        self.for_each_overlapping(query, interval, |p| out.push(p as usize));
        out.sort_unstable();
        out
    }

    /// Hands `each` the payloads of all intervals overlapping `query`, in
    /// no particular order, allocating nothing. `interval` is each
    /// payload's interval, as built.
    pub fn for_each_overlapping(
        &self,
        query: &TimeInterval,
        interval: impl Fn(usize) -> Option<TimeInterval>,
        mut each: impl FnMut(u32),
    ) {
        // Entries with start > query.end can never overlap.
        let at = |p: u32| item_interval(&interval, p as usize);
        let hi = self.order.partition_point(|&p| at(p).start <= query.end);
        // Walk backward from hi, pruning when even the best end is too early.
        let mut i = hi;
        while i > 0 {
            i -= 1;
            if self.max_end[i] < query.start {
                break; // nothing in the prefix reaches the query
            }
            let payload = self.order[i];
            if at(payload).end >= query.start {
                each(payload);
            }
        }
    }

    /// Payloads of intervals containing the instant `t`, ascending.
    /// `interval` is each payload's interval, as built.
    pub fn stabbing(
        &self,
        t: Timestamp,
        interval: impl Fn(usize) -> Option<TimeInterval>,
    ) -> Vec<usize> {
        self.overlapping(&TimeInterval::instant(t), interval)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(a: i64, b: i64) -> TimeInterval {
        TimeInterval::new(Timestamp(a), Timestamp(b))
    }

    fn entries() -> Vec<Option<TimeInterval>> {
        [
            iv(0, 10),
            iv(5, 15),
            iv(20, 30),
            iv(25, 26),
            iv(40, 100),
            iv(50, 60),
            iv(0, 200), // long interval spanning everything
        ]
        .map(Some)
        .to_vec()
    }

    fn build(entries: &[Option<TimeInterval>]) -> IntervalIndex {
        IntervalIndex::build(entries.len(), |p| entries[p])
    }

    fn linear(entries: &[Option<TimeInterval>], q: &TimeInterval) -> Vec<usize> {
        (0..entries.len()).filter(|&i| entries[i].unwrap().overlaps(q)).collect()
    }

    #[test]
    fn empty() {
        let ix = IntervalIndex::build(2, |_| None);
        assert!(ix.is_empty());
        assert!(ix.overlapping(&iv(0, 10), |_| unreachable!("nothing indexed")).is_empty());
    }

    #[test]
    fn overlap_matches_linear() {
        let e = entries();
        let ix = build(&e);
        assert_eq!(ix.len(), e.len());
        for q in [iv(0, 5), iv(12, 22), iv(27, 45), iv(300, 400), iv(-10, -1), iv(55, 55)] {
            assert_eq!(ix.overlapping(&q, |i| e[i]), linear(&e, &q), "query {q}");
        }
    }

    #[test]
    fn stabbing() {
        let e = entries();
        let ix = build(&e);
        assert_eq!(ix.stabbing(Timestamp(7), |i| e[i]), vec![0, 1, 6]);
        assert_eq!(ix.stabbing(Timestamp(25), |i| e[i]), vec![2, 3, 6]);
        assert_eq!(ix.stabbing(Timestamp(199), |i| e[i]), vec![6]);
        assert_eq!(ix.stabbing(Timestamp(201), |i| e[i]), Vec::<usize>::new());
    }

    #[test]
    fn closed_boundaries() {
        let e = [Some(iv(10, 20))];
        let ix = build(&e);
        assert_eq!(ix.overlapping(&iv(20, 30), |i| e[i]), vec![0]); // touch at end
        assert_eq!(ix.overlapping(&iv(0, 10), |i| e[i]), vec![0]); // touch at start
        assert_eq!(ix.overlapping(&iv(21, 30), |i| e[i]), Vec::<usize>::new());
    }

    #[test]
    fn payloads_are_positions_and_gaps_are_skipped() {
        let e = [None, Some(iv(0, 10)), None, Some(iv(5, 6))];
        let ix = build(&e);
        assert_eq!(ix.len(), 2);
        assert_eq!(ix.overlapping(&iv(5, 5), |i| e[i]), vec![1, 3]);
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
        let e: Vec<Option<TimeInterval>> = (0..300)
            .map(|_| {
                let a = (next() % 10_000) as i64;
                let len = (next() % 500) as i64;
                Some(iv(a, a + len))
            })
            .collect();
        let ix = build(&e);
        for _ in 0..100 {
            let a = (next() % 11_000) as i64 - 500;
            let len = (next() % 800) as i64;
            let q = iv(a, a + len);
            assert_eq!(ix.overlapping(&q, |i| e[i]), linear(&e, &q), "query {q}");
        }
    }
}
