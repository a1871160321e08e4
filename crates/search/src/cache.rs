//! Generation-stamped LRU result cache.
//!
//! Scoring is deterministic, so a query against an unchanged published
//! catalog always produces the same hits — repeated queries can be served
//! without rescoring. Every entry is stamped with the catalog generation it
//! was computed against (see `Catalog::generation` / the publish flow in
//! `metamess-core`); a lookup only hits when the stamp matches the engine's
//! current generation, so republishing invalidates stale entries without
//! any explicit flush.
//!
//! Result lists are stored as `Arc<[SearchHit]>`: a hit bumps a reference
//! count instead of cloning every `SearchHit` (each of which owns strings
//! and a score breakdown), so the hot hit path allocates nothing.
//!
//! Guarded by a mutex; hit/miss counters are exposed for the
//! benches and experiment binaries.

use crate::engine::SearchHit;
use metamess_telemetry::{trace, Stopwatch};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Default number of cached result lists per engine.
pub const DEFAULT_CACHE_CAPACITY: usize = 64;

struct Entry {
    generation: u64,
    last_used: u64,
    hits: Arc<[SearchHit]>,
}

struct Inner {
    capacity: usize,
    tick: u64,
    entries: HashMap<String, Entry>,
}

/// Cumulative hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to rescore (absent key or stale generation).
    pub misses: u64,
}

impl CacheStats {
    /// Total lookups.
    pub fn total(&self) -> u64 {
        self.hits + self.misses
    }

    /// hits / total, 0 when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.hits as f64 / self.total() as f64
        }
    }
}

/// An LRU map from canonical query keys to ranked result lists, each entry
/// stamped with the catalog generation it was computed against.
pub struct ResultCache {
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ResultCache {
    /// The LRU map. A poisoned lock is taken over: an entry is inserted or
    /// evicted whole, so the map is valid at every step.
    fn inner(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// An empty cache holding at most `capacity` result lists (0 disables
    /// caching entirely — every lookup misses and nothing is stored).
    pub fn new(capacity: usize) -> ResultCache {
        ResultCache {
            inner: Mutex::new(Inner { capacity, tick: 0, entries: HashMap::new() }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Looks up a result list; hits only when the entry's generation stamp
    /// matches `generation`. A hit clones the `Arc`, never the hits.
    pub fn get(&self, key: &str, generation: u64) -> Option<Arc<[SearchHit]>> {
        let sw = Stopwatch::start_if(metamess_telemetry::enabled());
        let mut inner = self.inner();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.entries.get_mut(key) {
            Some(e) if e.generation == generation => {
                e.last_used = tick;
                let hits = e.hits.clone();
                drop(inner);
                self.hits.fetch_add(1, Ordering::Relaxed);
                trace::record_span("cache.lookup", sw.micros(), None);
                Some(hits)
            }
            _ => {
                drop(inner);
                self.misses.fetch_add(1, Ordering::Relaxed);
                trace::record_span("cache.lookup", sw.micros(), None);
                None
            }
        }
    }

    /// Stores a result list under `key`, stamped with `generation`,
    /// evicting the least-recently-used entry when over capacity.
    pub fn put(&self, key: String, generation: u64, hits: Arc<[SearchHit]>) {
        let mut inner = self.inner();
        if inner.capacity == 0 {
            return;
        }
        inner.tick += 1;
        let tick = inner.tick;
        inner.entries.insert(key, Entry { generation, last_used: tick, hits });
        if inner.entries.len() > inner.capacity {
            if let Some(lru) =
                inner.entries.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| k.clone())
            {
                inner.entries.remove(&lru);
            }
        }
    }

    /// Cumulative hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Number of cached result lists.
    pub fn len(&self) -> usize {
        self.inner().entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry (counters are kept).
    pub fn clear(&self) {
        self.inner().entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::score::ScoreBreakdown;
    use metamess_core::id::DatasetId;

    fn hits(path: &str) -> Arc<[SearchHit]> {
        vec![SearchHit {
            id: DatasetId::from_path(path),
            path: path.to_string(),
            title: path.to_string(),
            score: 1.0,
            breakdown: ScoreBreakdown::default(),
        }]
        .into()
    }

    #[test]
    fn get_put_roundtrip_and_counters() {
        let c = ResultCache::new(4);
        assert!(c.get("q1", 7).is_none());
        c.put("q1".into(), 7, hits("a.csv"));
        let got = c.get("q1", 7).expect("hit");
        assert_eq!(got[0].path, "a.csv");
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(s.total(), 2);
    }

    #[test]
    fn hits_are_allocation_free() {
        // The regression this guards: `get` used to clone the whole
        // `Vec<SearchHit>` per hit. Stored as `Arc<[SearchHit]>`, every
        // hit must hand back the same allocation, only refcounted.
        let c = ResultCache::new(4);
        let stored = hits("a.csv");
        c.put("q1".into(), 1, stored.clone());
        let first = c.get("q1", 1).expect("hit");
        let second = c.get("q1", 1).expect("hit");
        assert!(Arc::ptr_eq(&stored, &first), "hit must be the stored allocation");
        assert!(Arc::ptr_eq(&first, &second), "repeat hits share it too");
    }

    #[test]
    fn stale_generation_misses() {
        let c = ResultCache::new(4);
        c.put("q1".into(), 7, hits("a.csv"));
        assert!(c.get("q1", 8).is_none(), "newer generation must miss");
        assert!(c.get("q1", 7).is_some());
        // overwriting with the new generation replaces the stamp
        c.put("q1".into(), 8, hits("b.csv"));
        assert!(c.get("q1", 7).is_none());
        assert_eq!(c.get("q1", 8).unwrap()[0].path, "b.csv");
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_eviction_keeps_recently_used() {
        let c = ResultCache::new(2);
        c.put("q1".into(), 1, hits("a.csv"));
        c.put("q2".into(), 1, hits("b.csv"));
        // touch q1 so q2 is the LRU
        assert!(c.get("q1", 1).is_some());
        c.put("q3".into(), 1, hits("c.csv"));
        assert_eq!(c.len(), 2);
        assert!(c.get("q1", 1).is_some());
        assert!(c.get("q2", 1).is_none(), "LRU entry must be evicted");
        assert!(c.get("q3", 1).is_some());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let c = ResultCache::new(0);
        c.put("q1".into(), 1, hits("a.csv"));
        assert!(c.is_empty());
        assert!(c.get("q1", 1).is_none());
    }

    #[test]
    fn clear_keeps_counters() {
        let c = ResultCache::new(4);
        c.put("q1".into(), 1, hits("a.csv"));
        assert!(c.get("q1", 1).is_some());
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.stats().hits, 1);
    }
}
