//! A shard's term postings at their size, and the bitmap a probe unions
//! its candidates in.
//!
//! Each term's posting is the smaller of two forms (the split Roaring
//! bitmaps make, Chambi et al. 2016): a term that holds more than 1/32 of
//! the shard's rows is a bitmap over them, `rows / 8` bytes; any other is an
//! ascending list of `u32` row numbers, 4 bytes an entry. All of a shard's
//! bitmaps lie back to back in one arena, all its lists in another.

use std::collections::BTreeMap;
use std::sync::Arc;

/// A term holding more than `rows / DENSE_SHARE` rows is a bitmap: from
/// there on the bitmap is the smaller form.
const DENSE_SHARE: usize = 32;

/// Words of a bitmap over `rows` rows.
fn words(rows: usize) -> usize {
    rows.div_ceil(64)
}

/// Where one term's posting lies in its shard's arenas.
#[derive(Debug, Clone, Copy)]
enum Slot {
    /// A bitmap starting at this word of `bits`.
    Dense(u32),
    /// The list `rows[start..end]`.
    Sparse(u32, u32),
}

/// One term's rows, as its shard holds them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Posting<'a> {
    /// A bitmap over the shard's rows.
    Dense(&'a [u64]),
    /// The rows, ascending.
    Sparse(&'a [u32]),
}

/// Every term's posting in one shard.
#[derive(Debug, Default)]
pub(crate) struct Postings {
    terms: BTreeMap<Arc<str>, Slot>,
    /// Every dense term's bitmap, back to back, each `words(rows)` long.
    bits: Vec<u64>,
    /// Every sparse term's rows, back to back.
    rows: Vec<u32>,
    /// Rows in the shard: each bitmap's width.
    width: usize,
}

impl Postings {
    /// The postings of a shard of `rows` rows over the index keys
    /// `0..keys`, key `k` named `name(k)`. `file` hands `add` every `(key,
    /// row)` pair of the shard, each once and each key's rows ascending; it
    /// is called twice, to count and then to fill, so that every posting is
    /// allocated once, at its size. Keys with no rows are left out.
    pub(crate) fn build(
        rows: usize,
        keys: usize,
        name: impl Fn(u32) -> Arc<str>,
        file: impl Fn(&mut dyn FnMut(u32, u32)),
    ) -> Postings {
        let mut counts = vec![0usize; keys];
        file(&mut |k, _| counts[k as usize] += 1);
        let at = |n: usize| u32::try_from(n).expect("a shard's postings fit a u32");
        let (mut bitmaps, mut listed) = (0, 0);
        let mut slots: Vec<Option<Slot>> = counts
            .iter()
            .map(|&count| match count {
                0 => None,
                _ if count * DENSE_SHARE > rows => {
                    bitmaps += words(rows);
                    Some(Slot::Dense(at(bitmaps - words(rows))))
                }
                _ => {
                    listed += count;
                    Some(Slot::Sparse(at(listed - count), at(listed - count)))
                }
            })
            .collect();
        let mut bits = vec![0; bitmaps];
        let mut listed = vec![0; listed];
        // a list's end moves up as its rows are filed, to where the next
        // list starts
        file(&mut |k, row| match &mut slots[k as usize] {
            Some(Slot::Dense(start)) => set(&mut bits[*start as usize..], row),
            Some(Slot::Sparse(_, end)) => {
                listed[*end as usize] = row;
                *end += 1;
            }
            None => unreachable!("a key filed twice is counted"),
        });
        let terms = (0u32..).zip(slots).filter_map(|(k, slot)| Some((name(k), slot?))).collect();
        Postings { terms, bits, rows: listed, width: rows }
    }

    /// The rows of `term`, or `None` when no row holds it.
    pub(crate) fn get(&self, term: &str) -> Option<Posting<'_>> {
        self.terms.get(term).map(|&slot| match slot {
            Slot::Dense(start) => {
                Posting::Dense(&self.bits[start as usize..start as usize + words(self.width)])
            }
            Slot::Sparse(start, end) => Posting::Sparse(&self.rows[start as usize..end as usize]),
        })
    }

    /// Every term and its posting, in term order.
    #[cfg(test)]
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&str, Posting<'_>)> {
        self.terms.keys().map(|term| (&**term, self.get(term).expect("a filed term")))
    }
}

fn set(bits: &mut [u64], row: u32) {
    bits[row as usize / 64] |= 1 << (row % 64);
}

/// A set of a shard's rows, one bit each: what a probe unions its
/// candidates in.
pub(crate) struct Bitmap(Vec<u64>);

impl Bitmap {
    /// The empty set over `rows` rows.
    pub(crate) fn new(rows: usize) -> Bitmap {
        Bitmap(vec![0; words(rows)])
    }

    /// Adds `row`.
    pub(crate) fn insert(&mut self, row: u32) {
        set(&mut self.0, row);
    }

    /// Whether `row` is in the set.
    #[inline]
    pub(crate) fn contains(&self, row: u32) -> bool {
        self.0[row as usize / 64] & (1 << (row % 64)) != 0
    }

    /// Adds every row of `posting`, which is over the same rows.
    pub(crate) fn union(&mut self, posting: Posting<'_>) {
        match posting {
            Posting::Dense(bits) => self.0.iter_mut().zip(bits).for_each(|(w, b)| *w |= b),
            Posting::Sparse(rows) => rows.iter().for_each(|&row| self.insert(row)),
        }
    }

    /// The rows in the set, ascending.
    pub(crate) fn rows(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.0.iter().map(|w| w.count_ones() as usize).sum());
        for (base, &word) in (0u32..).step_by(64).zip(&self.0) {
            let mut w = word;
            while w != 0 {
                out.push(base + w.trailing_zeros());
                w &= w - 1;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decoded(posting: Posting<'_>) -> Vec<u32> {
        let mut set = Bitmap::new(posting_width(posting));
        set.union(posting);
        set.rows()
    }

    fn posting_width(posting: Posting<'_>) -> usize {
        match posting {
            Posting::Dense(bits) => bits.len() * 64,
            Posting::Sparse(rows) => rows.last().map_or(0, |&r| r as usize + 1),
        }
    }

    #[test]
    fn a_term_is_a_bitmap_only_past_a_32nd_of_the_rows() {
        let rows = 640;
        let lists: [(&str, Vec<u32>); 4] = [
            ("at", (0..20).map(|r| r * 32).collect()),
            ("past", (0..21).map(|r| r * 30).collect()),
            ("everything", (0..640).collect()),
            ("nothing", vec![]),
        ];
        let p = Postings::build(
            rows,
            lists.len(),
            |k| lists[k as usize].0.into(),
            |add| {
                for (k, (_, list)) in (0u32..).zip(&lists) {
                    list.iter().for_each(|&row| add(k, row));
                }
            },
        );
        assert!(matches!(p.get("at"), Some(Posting::Sparse(r)) if r.len() == 20));
        assert!(matches!(p.get("past"), Some(Posting::Dense(b)) if b.len() == 10));
        assert!(matches!(p.get("everything"), Some(Posting::Dense(_))));
        assert_eq!(p.get("nothing"), None);
        assert_eq!((p.bits.len(), p.bits.capacity()), (2 * 10, 2 * 10));
        assert_eq!((p.rows.len(), p.rows.capacity()), (20, 20));
        for (term, list) in lists.iter().filter(|(_, l)| !l.is_empty()) {
            assert_eq!(decoded(p.get(term).unwrap()), *list, "{term}");
        }
        assert_eq!(p.iter().count(), 3);
    }

    #[test]
    fn a_bitmap_reads_back_its_rows_ascending() {
        let mut set = Bitmap::new(130);
        for row in [129, 0, 64, 63, 0, 65] {
            set.insert(row);
        }
        set.union(Posting::Sparse(&[1, 63]));
        set.union(Posting::Dense(&[1 << 2, 0, 1 << 1]));
        assert_eq!(set.rows(), [0, 1, 2, 63, 64, 65, 129]);
        assert!(Bitmap::new(0).rows().is_empty());
    }
}
