//! Shared serving state: the store, an epoch-swapped engine, hot reload.
//!
//! The catalog is served through an [`EngineEpoch`] held behind an
//! `RwLock<Arc<…>>`: every request clones the `Arc` once (a read lock held
//! for nanoseconds) and then runs entirely against that immutable epoch. A
//! hot reload builds the next epoch **off to the side** and swaps the
//! pointer — in-flight requests keep the epoch they started with, so a
//! reload never invalidates a request mid-execution.
//!
//! The [`ResultCache`] is shared *across* epochs: entries are stamped with
//! the catalog generation (PR 1), so a reload that advances the generation
//! invalidates stale entries by construction, while a reload that finds
//! the same generation keeps the warm cache.
//!
//! Fault model under reload: if reopening the store fails (mid-publish
//! state, or `fsck --repair` holding the exclusive store lock), the error
//! is reported to the caller and the server **keeps serving the previous
//! epoch** — a bad reload never takes the service down.
//!
//! ## Delta publication
//!
//! When a live writer (`metamess watch`) appends published deltas to the
//! store WAL without checkpointing, the poll path skips reopening the
//! store entirely: it follows the WAL tail with the non-truncating
//! [`Wal::read_tail`] and swaps in an epoch whose engine is the current
//! engine's [`successor`](SearchEngine::successor) under the decoded
//! mutations — sharing every feature they leave alone, and preserving
//! generation continuity (the generation is the mutation count, so the
//! successor lands on exactly the generation a full reload would
//! compute). Before the swap, provably-unaffected result-cache
//! entries are re-stamped in place ([`ResultCache::retarget`] +
//! `metamess_search::delta`), so cached lists for untouched queries keep
//! pointer identity across the delta. Anything the delta path cannot
//! prove — snapshot replaced (compaction), vocabulary changed, WAL reset,
//! a `Clear` mutation — falls back to a full reload; full reloads use
//! [`RecoveryMode::Strict`] so a torn tail mid-append by the live writer
//! is never truncated out from under it (the reload fails, the previous
//! epoch keeps serving, and the next poll retries).

use crate::metrics;
use metamess_core::store::{lock_path, StoreLock, Wal};
use metamess_core::{DurableCatalog, RecoveryMode, Result, StoreOptions};
use metamess_remote::RemoteShardSet;
use metamess_search::{
    compute_touches, entry_survives, BrowseTree, ResultCache, SearchEngine, ShardSpec,
    DEFAULT_CACHE_CAPACITY,
};
use metamess_vocab::Vocabulary;
use parking_lot::{Mutex, RwLock};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::SystemTime;

/// One immutable generation of serving state.
pub struct EngineEpoch {
    /// The search engine over the store's published catalog. It owns the
    /// dataset features: the process holds no other copy of them.
    pub engine: SearchEngine,
    /// Browse trees precomputed at load (drill-down counts are
    /// materialized per epoch rather than per request).
    pub browse: Vec<BrowseTree>,
    /// Catalog generation this epoch serves.
    pub generation: u64,
    /// Monotonic epoch number (0 on first open, +1 per swap).
    pub epoch: u64,
    /// Datasets in the catalog.
    pub datasets: usize,
}

impl EngineEpoch {
    /// Epoch number `epoch` over `engine`.
    fn new(engine: SearchEngine, epoch: u64) -> EngineEpoch {
        EngineEpoch {
            browse: engine.browse(),
            generation: engine.generation(),
            datasets: engine.len(),
            engine,
            epoch,
        }
    }
}

/// What a reload attempt concluded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReloadOutcome {
    /// Store generation unchanged; previous epoch kept (cache stays warm).
    Unchanged {
        /// The generation still being served.
        generation: u64,
    },
    /// A new epoch was swapped in.
    Reloaded {
        /// Generation served before the swap.
        from: u64,
        /// Generation served after the swap.
        to: u64,
        /// The new epoch number.
        epoch: u64,
    },
    /// A WAL-tail delta was applied in place: the store was **not**
    /// reopened, and provably-unaffected cache entries survived the
    /// generation bump.
    DeltaApplied {
        /// Generation served before the delta.
        from: u64,
        /// Generation served after the delta.
        to: u64,
        /// The new epoch number.
        epoch: u64,
        /// Mutations decoded from the WAL tail and applied.
        mutations: usize,
    },
}

/// Consecutive polls allowed to see WAL growth without decoding a single
/// complete record before the delta path gives up and escalates to a full
/// reload (real tail damage looks exactly like a writer stuck mid-append).
const MAX_DELTA_STALLS: u32 = 3;

/// Length + mtime of the files whose change implies a republish; lets the
/// poll loop skip rebuilding the engine when nothing moved on disk.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct StoreSignature(Vec<(PathBuf, Option<(u64, Option<SystemTime>)>)>);

impl StoreSignature {
    const SNAPSHOT: usize = 0;
    const WAL: usize = 1;
    const VOCAB: usize = 2;

    fn capture(store_dir: &Path) -> StoreSignature {
        let files = [
            store_dir.join("catalog").join("snapshot.bin"),
            store_dir.join("catalog").join("wal.log"),
            store_dir.join("vocabulary.json"),
        ];
        StoreSignature(
            files
                .into_iter()
                .map(|p| {
                    let sig = std::fs::metadata(&p).ok().map(|m| (m.len(), m.modified().ok()));
                    (p, sig)
                })
                .collect(),
        )
    }

    /// The delta-publication precondition: the WAL strictly grew (or
    /// appeared) and nothing else moved. A changed snapshot means a
    /// checkpoint or compaction replaced the base; a changed vocabulary
    /// invalidates every index-key proof; a shrunk WAL means a reset. All
    /// of those need a full reload.
    fn only_wal_grew(&self, newer: &StoreSignature) -> bool {
        if self.0[Self::SNAPSHOT] != newer.0[Self::SNAPSHOT]
            || self.0[Self::VOCAB] != newer.0[Self::VOCAB]
        {
            return false;
        }
        let len = |sig: &StoreSignature| sig.0[Self::WAL].1.map(|(len, _)| len);
        match (len(self), len(newer)) {
            (Some(old), Some(new)) => new > old,
            (None, Some(_)) => true,
            _ => false,
        }
    }
}

/// Where the next delta resumes: how many WAL bytes the current epoch's
/// engine already reflects. The catalog itself is not kept — the engine
/// has the features, and a delta derives the next engine from it.
struct DeltaSource {
    wal_offset: u64,
    /// Consecutive polls that saw growth but decoded nothing (see
    /// [`MAX_DELTA_STALLS`]).
    stalls: u32,
}

/// Everything the reload lock guards: the last on-disk signature for cheap
/// change detection, and the delta-application state.
struct ReloadState {
    signature: StoreSignature,
    source: Option<DeltaSource>,
}

/// What the delta fast path concluded.
enum DeltaTry {
    /// Handled — either applied in place or provably nothing to do yet.
    Done(ReloadOutcome),
    /// Cannot be handled incrementally; caller must fully reload.
    FullReload,
}

/// Everything the worker pool shares: store handle, current epoch, cache.
pub struct ServeState {
    store_dir: PathBuf,
    /// Shard layout every epoch is built with: a hot reload rebuilds the
    /// whole shard set off to the side and swaps it atomically inside the
    /// epoch, so requests never observe a half-resharded catalog.
    spec: ShardSpec,
    /// Generation-stamped result cache, shared across epochs.
    cache: Arc<ResultCache>,
    current: RwLock<Arc<EngineEpoch>>,
    /// Serializes reloads (poll thread vs `/admin/reload`) and holds the
    /// last on-disk signature plus the delta-application source.
    reload_state: Mutex<ReloadState>,
    reloads: AtomicU64,
    /// Cached `/healthz` JSON body keyed by `(epoch, reloads)`: the
    /// liveness probe is the hottest route and its body only changes when
    /// an epoch swap (or a no-op reload) lands, so the steady state skips
    /// serialization entirely.
    healthz_cache: Mutex<Option<(u64, u64, Arc<str>)>>,
    /// Slow-query threshold in µs (traces whose root exceeds it enter the
    /// slow log regardless of sampling). Defaults to 100ms.
    trace_slow_micros: AtomicU64,
    /// Head-sampling rate as `f64` bits (atomics hold integers). Defaults
    /// to 1.0 — sample everything until told otherwise.
    trace_sample_bits: AtomicU64,
    /// When set, `/search` scatter-gathers across this remote shardd
    /// fleet instead of the local epoch's engine (browse, summaries, and
    /// reloads still run against the local store). Installed once at
    /// startup via [`ServeState::set_remote`].
    remote: Option<Arc<RemoteShardSet>>,
    /// Held for the server's lifetime: lets other readers and wranglers
    /// coexist, but makes `fsck --repair` fail fast instead of truncating
    /// files out from under live requests.
    _lock: StoreLock,
}

/// One row of the `/healthz` `shard_states` array.
#[derive(serde::Serialize)]
struct ShardStateRow {
    id: u32,
    mode: &'static str,
    state: &'static str,
    last_rtt_us: Option<u64>,
    generation: u64,
}

impl ServeState {
    /// Opens the store and builds the first (unsharded) epoch.
    pub fn open(store_dir: impl Into<PathBuf>) -> Result<ServeState> {
        ServeState::open_sharded(store_dir, ShardSpec::default())
    }

    /// Opens the store and builds the first epoch partitioned per `spec`.
    /// Every subsequent hot reload rebuilds the same layout (clamped to
    /// the supported shard range by the spec itself).
    pub fn open_sharded(store_dir: impl Into<PathBuf>, spec: ShardSpec) -> Result<ServeState> {
        let store_dir = store_dir.into();
        let lock = StoreLock::shared(lock_path(&store_dir.join("catalog")))?;
        let cache = Arc::new(ResultCache::new(DEFAULT_CACHE_CAPACITY));
        // Signature before open: a publish landing mid-load then shows up
        // as a change on the first poll (one redundant reload) instead of
        // being folded into the stored signature and never noticed.
        let signature = StoreSignature::capture(&store_dir);
        let (epoch, source) = load_epoch(&store_dir, &cache, 0, spec, StoreOptions::default())?;
        Ok(ServeState {
            store_dir,
            spec,
            cache,
            current: RwLock::new(Arc::new(epoch)),
            reload_state: Mutex::new(ReloadState { signature, source: Some(source) }),
            reloads: AtomicU64::new(0),
            healthz_cache: Mutex::new(None),
            trace_slow_micros: AtomicU64::new(100_000),
            trace_sample_bits: AtomicU64::new(1.0f64.to_bits()),
            remote: None,
            _lock: lock,
        })
    }

    /// Routes `/search` through a connected remote shardd fleet. Must be
    /// called before the state is shared with workers.
    pub fn set_remote(&mut self, remote: Arc<RemoteShardSet>) {
        self.remote = Some(remote);
    }

    /// The remote fleet, when `--remote` is in effect.
    pub fn remote(&self) -> Option<&Arc<RemoteShardSet>> {
        self.remote.as_ref()
    }

    /// Applies the tracing knobs (`--slow-ms`, `--trace-sample-rate`). The
    /// rate is clamped into `0.0..=1.0`; the threshold converts to µs with
    /// saturation.
    pub fn set_trace_config(&self, slow_ms: u64, sample_rate: f64) {
        self.trace_slow_micros.store(slow_ms.saturating_mul(1000), Ordering::Relaxed);
        let rate = metamess_telemetry::trace::clamp_sample_rate(sample_rate);
        self.trace_sample_bits.store(rate.to_bits(), Ordering::Relaxed);
    }

    /// Slow-query threshold in µs.
    pub fn trace_slow_micros(&self) -> u64 {
        self.trace_slow_micros.load(Ordering::Relaxed)
    }

    /// Head-sampling rate in `0.0..=1.0`.
    pub fn trace_sample_rate(&self) -> f64 {
        f64::from_bits(self.trace_sample_bits.load(Ordering::Relaxed))
    }

    /// The shard layout every epoch is built with.
    pub fn shard_spec(&self) -> ShardSpec {
        self.spec
    }

    /// The store being served.
    pub fn store_dir(&self) -> &Path {
        &self.store_dir
    }

    /// The current epoch; requests clone the `Arc` once and keep it for
    /// their whole execution.
    pub fn epoch(&self) -> Arc<EngineEpoch> {
        self.current.read().clone()
    }

    /// Epoch swaps performed so far.
    pub fn reloads(&self) -> u64 {
        self.reloads.load(Ordering::Relaxed)
    }

    /// The `/healthz` JSON body. In local mode it is cached until the
    /// epoch or the reload counter moves (field order matches the
    /// historical rendering, with the `shard_states` array appended). In
    /// remote mode the body reflects live circuit state, so it is built
    /// per request — the fleet health is the point of probing it.
    pub fn healthz_body(&self) -> Arc<str> {
        let epoch = self.epoch();
        let reloads = self.reloads();
        if let Some(remote) = &self.remote {
            let rows: Vec<ShardStateRow> = remote
                .health()
                .iter()
                .map(|h| ShardStateRow {
                    id: h.shard_id,
                    mode: "remote",
                    state: h.state.as_str(),
                    last_rtt_us: h.last_rtt_us,
                    generation: h.generation,
                })
                .collect();
            return render_healthz(&epoch, remote.shard_count(), reloads, &rows).into();
        }
        let mut cache = self.healthz_cache.lock();
        if let Some((e, r, body)) = cache.as_ref() {
            if *e == epoch.epoch && *r == reloads {
                return Arc::clone(body);
            }
        }
        let rows: Vec<ShardStateRow> = (0..epoch.engine.shard_count())
            .map(|k| ShardStateRow {
                id: k as u32,
                mode: "local",
                state: "healthy",
                last_rtt_us: None,
                generation: epoch.generation,
            })
            .collect();
        let body: Arc<str> =
            render_healthz(&epoch, epoch.engine.shard_count(), reloads, &rows).into();
        *cache = Some((epoch.epoch, reloads, Arc::clone(&body)));
        body
    }

    /// Reopens the store and swaps in a new epoch if the generation
    /// advanced. On error the previous epoch keeps serving.
    pub fn reload(&self) -> Result<ReloadOutcome> {
        let mut guard = self.reload_state.lock();
        let previous = self.epoch();
        // Capture before reopening: a publish landing between the capture
        // and the open makes the next poll see a signature change and
        // reload redundantly — the safe direction. Capturing after would
        // fold that publish into the stored signature and serve the stale
        // epoch until yet another publish.
        let observed = StoreSignature::capture(&self.store_dir);
        // Strict recovery: a live `metamess watch` writer may be holding
        // the WAL mid-append, and default TruncateTail recovery would chop
        // its half-written record out from under it. A torn tail instead
        // fails this reload — the previous epoch keeps serving and the
        // next poll retries once the writer's append completes.
        let options = StoreOptions { recovery: RecoveryMode::Strict, ..StoreOptions::default() };
        let (next, source) =
            load_epoch(&self.store_dir, &self.cache, previous.epoch + 1, self.spec, options)?;
        guard.signature = observed;
        guard.source = Some(source);
        if next.generation == previous.generation {
            return Ok(ReloadOutcome::Unchanged { generation: previous.generation });
        }
        let outcome = ReloadOutcome::Reloaded {
            from: previous.generation,
            to: next.generation,
            epoch: next.epoch,
        };
        *self.current.write() = Arc::new(next);
        self.reloads.fetch_add(1, Ordering::Relaxed);
        metrics::record_reload();
        Ok(outcome)
    }

    /// Cheap poll-path reload: does nothing when the on-disk signature
    /// (sizes + mtimes) is unchanged; applies the WAL tail in place when
    /// only the WAL grew (live delta publication); reopens the store for
    /// everything else.
    pub fn poll_reload(&self) -> Result<ReloadOutcome> {
        let observed = StoreSignature::capture(&self.store_dir);
        {
            let mut guard = self.reload_state.lock();
            if guard.signature == observed {
                return Ok(ReloadOutcome::Unchanged { generation: self.epoch().generation });
            }
            if guard.signature.only_wal_grew(&observed) {
                match self.try_delta(&mut guard, observed) {
                    DeltaTry::Done(outcome) => return Ok(outcome),
                    DeltaTry::FullReload => {}
                }
            }
        }
        self.reload()
    }

    /// The delta fast path: follow the WAL tail from the last consumed
    /// offset, derive the next engine from the current one and the decoded
    /// mutations, retarget the cache, and swap the epoch in without
    /// reopening the store. Caller has verified `only_wal_grew` and holds
    /// the reload lock.
    fn try_delta(&self, guard: &mut ReloadState, observed: StoreSignature) -> DeltaTry {
        let Some(source) = guard.source.as_mut() else { return DeltaTry::FullReload };
        let wal_path = self.store_dir.join("catalog").join("wal.log");
        let tail = match Wal::read_tail(&wal_path, source.wal_offset) {
            Ok(t) => t,
            // Offset beyond the file or bad magic: the log was reset or
            // replaced underneath us — only a full reload resynchronizes.
            Err(_) => return DeltaTry::FullReload,
        };
        if tail.mutations.is_empty() {
            let generation = self.epoch().generation;
            if tail.stopped_early.is_some() {
                // Growth but no complete record: a writer mid-append.
                // Leave the stored signature stale so the next poll
                // retries; escalate if it never resolves (real damage
                // looks identical from here).
                source.stalls += 1;
                if source.stalls >= MAX_DELTA_STALLS {
                    source.stalls = 0;
                    return DeltaTry::FullReload;
                }
            } else {
                // Clean end of log — the growth was already consumed by an
                // earlier poll that read past its own signature capture.
                source.stalls = 0;
                guard.signature = observed;
            }
            return DeltaTry::Done(ReloadOutcome::Unchanged { generation });
        }
        source.stalls = 0;
        let started = std::time::Instant::now();
        let previous = self.epoch();
        let from = previous.generation;
        // A `Clear` rebuilds the world; nothing in the cache survives and
        // nothing would be shared — reopen instead.
        let Some(engine) = previous.engine.successor(&tail.mutations) else {
            return DeltaTry::FullReload;
        };
        let Some(touches) = compute_touches(&previous.engine, &engine, &tail.mutations) else {
            return DeltaTry::FullReload;
        };
        let to = engine.generation();
        // Retarget BEFORE the swap: every cache entry either carries the
        // new stamp already (and the new epoch hits the same Arc) or is
        // gone. Retargeting after the swap would race the new epoch
        // recomputing a survivor and overwriting it, losing the
        // pointer-identity guarantee.
        let (survived, dropped) = self.cache.retarget(from, to, |key, hits| {
            entry_survives(key, hits, &touches, engine.vocabulary())
        });
        *self.current.write() = Arc::new(EngineEpoch::new(engine, previous.epoch + 1));
        self.reloads.fetch_add(1, Ordering::Relaxed);
        source.wal_offset = tail.new_offset;
        guard.signature = observed;
        metrics::record_reload();
        metrics::record_delta_apply(
            tail.mutations.len(),
            survived,
            dropped,
            started.elapsed().as_micros() as u64,
        );
        DeltaTry::Done(ReloadOutcome::DeltaApplied {
            from,
            to,
            epoch: previous.epoch + 1,
            mutations: tail.mutations.len(),
        })
    }
}

/// Renders the `/healthz` body: the historical fields in their original
/// order (the `shards` count is kept), then the machine-readable
/// `shard_states` array.
fn render_healthz(
    epoch: &EngineEpoch,
    shard_count: usize,
    reloads: u64,
    rows: &[ShardStateRow],
) -> String {
    format!(
        "{{\"status\":\"ok\",\"generation\":{},\"epoch\":{},\"datasets\":{},\
         \"shards\":{},\"reloads\":{},\"shard_states\":{}}}",
        epoch.generation,
        epoch.epoch,
        epoch.datasets,
        shard_count,
        reloads,
        serde_json::to_string(rows).expect("shard rows serialize"),
    )
}

/// Opens the durable store and builds one serving epoch out of it — the
/// recovered catalog is moved into the engine, and the store handle is gone
/// before the indexes are built; the `ServeState` lifetime lock is what
/// keeps repairers out — plus where future polls resume reading the WAL.
fn load_epoch(
    store_dir: &Path,
    cache: &Arc<ResultCache>,
    epoch: u64,
    spec: ShardSpec,
    options: StoreOptions,
) -> Result<(EngineEpoch, DeltaSource)> {
    let store = DurableCatalog::open(store_dir.join("catalog"), options)?;
    // Everything up to here is already folded into the catalog; the delta
    // path resumes reading the WAL from this byte onwards.
    let wal_offset = store.wal_bytes();
    let vocab_path = store_dir.join("vocabulary.json");
    let vocab = if vocab_path.exists() {
        Vocabulary::load(&vocab_path)?
    } else {
        Vocabulary::observatory_default()
    };
    let engine = SearchEngine::from_catalog(store.into_catalog(), vocab, spec)
        .with_shared_cache(cache.clone());
    Ok((EngineEpoch::new(engine, epoch), DeltaSource { wal_offset, stalls: 0 }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use metamess_core::{DatasetFeature, VariableFeature};
    use metamess_search::Query;

    fn fixture_store(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("metamess-state-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        let mut s = DurableCatalog::open(d.join("catalog"), StoreOptions::default()).unwrap();
        s.put(DatasetFeature::new("2014/07/a.csv")).unwrap();
        s.put(DatasetFeature::new("2014/07/b.csv")).unwrap();
        s.checkpoint().unwrap();
        d
    }

    fn publish_one_more(dir: &Path, path: &str) {
        let mut s = DurableCatalog::open(dir.join("catalog"), StoreOptions::default()).unwrap();
        s.put(DatasetFeature::new(path)).unwrap();
        s.checkpoint().unwrap();
    }

    fn dataset(path: &str, var: &str) -> DatasetFeature {
        let mut f = DatasetFeature::new(path);
        f.variables.push(VariableFeature::new(var));
        f
    }

    /// A store whose datasets carry variables, checkpointed so the WAL
    /// starts empty — the shape a `metamess watch` writer leaves behind.
    fn fixture_store_vars(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("metamess-state-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        let mut s = DurableCatalog::open(d.join("catalog"), StoreOptions::default()).unwrap();
        s.put(dataset("2014/07/s1.csv", "salinity")).unwrap();
        s.put(dataset("2014/07/s2.csv", "salinity")).unwrap();
        s.checkpoint().unwrap();
        d
    }

    /// Appends to the WAL without checkpointing — what the group-commit
    /// publish path does between compactions.
    fn append_without_checkpoint(dir: &Path, f: DatasetFeature) {
        let mut s = DurableCatalog::open(dir.join("catalog"), StoreOptions::default()).unwrap();
        s.put(f).unwrap();
        s.flush().unwrap();
    }

    #[test]
    fn open_builds_first_epoch() {
        let dir = fixture_store("open");
        let state = ServeState::open(&dir).unwrap();
        let epoch = state.epoch();
        assert_eq!(epoch.datasets, 2);
        assert_eq!(epoch.epoch, 0);
        assert!(epoch.generation > 0);
    }

    #[test]
    fn open_sharded_clamps_and_keeps_layout_across_reloads() {
        use metamess_search::Partitioner;
        let dir = fixture_store("sharded");
        let spec = ShardSpec::new(0, Partitioner::Spatial); // clamped to 1
        let state = ServeState::open_sharded(&dir, spec).unwrap();
        assert_eq!(state.shard_spec().count(), 1);
        let dir = fixture_store("sharded4");
        let state = ServeState::open_sharded(&dir, ShardSpec::new(4, Partitioner::Hash)).unwrap();
        assert_eq!(state.epoch().engine.shard_count(), 4);
        // a publish + reload swaps the whole shard set atomically inside
        // the epoch — the new epoch has the same layout
        publish_one_more(&dir, "2014/08/c.csv");
        match state.reload().unwrap() {
            ReloadOutcome::Reloaded { .. } => {}
            other => panic!("expected a swap, got {other:?}"),
        }
        let epoch = state.epoch();
        assert_eq!(epoch.engine.shard_count(), 4);
        assert_eq!(epoch.datasets, 3);
    }

    #[test]
    fn healthz_body_is_cached_until_a_swap() {
        let dir = fixture_store("healthz");
        let state = ServeState::open(&dir).unwrap();
        let first = state.healthz_body();
        let second = state.healthz_body();
        assert!(Arc::ptr_eq(&first, &second), "steady state reuses the cached body");
        let v: serde_json::Value = serde_json::from_str(&first).unwrap();
        assert_eq!(v["status"].as_str(), Some("ok"));
        assert_eq!(v["datasets"].as_u64(), Some(2));
        assert_eq!(v["reloads"].as_u64(), Some(0));
        publish_one_more(&dir, "2014/08/c.csv");
        state.reload().unwrap();
        let third = state.healthz_body();
        assert!(!Arc::ptr_eq(&second, &third), "an epoch swap invalidates the cache");
        let v: serde_json::Value = serde_json::from_str(&third).unwrap();
        assert_eq!(v["datasets"].as_u64(), Some(3));
        assert_eq!(v["reloads"].as_u64(), Some(1));
    }

    #[test]
    fn healthz_reports_local_shard_states() {
        use metamess_search::Partitioner;
        let dir = fixture_store("healthzshards");
        let state = ServeState::open_sharded(&dir, ShardSpec::new(2, Partitioner::Hash)).unwrap();
        let v: serde_json::Value = serde_json::from_str(&state.healthz_body()).unwrap();
        assert_eq!(v["shards"].as_u64(), Some(2), "the historical count field is kept");
        let rows = v["shard_states"].as_array().unwrap();
        assert_eq!(rows.len(), 2);
        for (k, row) in rows.iter().enumerate() {
            assert_eq!(row["id"].as_u64(), Some(k as u64));
            assert_eq!(row["mode"].as_str(), Some("local"));
            assert_eq!(row["state"].as_str(), Some("healthy"));
            assert!(row["last_rtt_us"].is_null(), "local shards have no rtt");
            assert_eq!(row["generation"], v["generation"]);
        }
    }

    #[test]
    fn reload_is_unchanged_without_a_publish() {
        let dir = fixture_store("same");
        let state = ServeState::open(&dir).unwrap();
        let generation = state.epoch().generation;
        assert_eq!(state.reload().unwrap(), ReloadOutcome::Unchanged { generation });
        assert_eq!(state.poll_reload().unwrap(), ReloadOutcome::Unchanged { generation });
        assert_eq!(state.reloads(), 0);
    }

    #[test]
    fn reload_swaps_epoch_after_a_publish() {
        let dir = fixture_store("swap");
        let state = ServeState::open(&dir).unwrap();
        let before = state.epoch();
        publish_one_more(&dir, "2014/08/c.csv");
        match state.reload().unwrap() {
            ReloadOutcome::Reloaded { from, to, epoch } => {
                assert_eq!(from, before.generation);
                assert!(to > from);
                assert_eq!(epoch, before.epoch + 1);
            }
            other => panic!("expected a swap, got {other:?}"),
        }
        let after = state.epoch();
        assert_eq!(after.datasets, 3);
        assert_eq!(state.reloads(), 1);
        // The old epoch is still usable by requests that hold it.
        assert_eq!(before.datasets, 2);
    }

    #[test]
    fn poll_reload_detects_disk_change() {
        let dir = fixture_store("poll");
        let state = ServeState::open(&dir).unwrap();
        publish_one_more(&dir, "2014/09/d.csv");
        match state.poll_reload().unwrap() {
            ReloadOutcome::Reloaded { .. } => {}
            other => panic!("expected a swap, got {other:?}"),
        }
    }

    #[test]
    fn failed_reload_keeps_previous_epoch() {
        let dir = fixture_store("failrel");
        Vocabulary::observatory_default().save(dir.join("vocabulary.json")).unwrap();
        let state = ServeState::open(&dir).unwrap();
        let before = state.epoch();
        publish_one_more(&dir, "2014/08/c.csv");
        std::fs::write(dir.join("vocabulary.json"), b"{broken").unwrap();
        assert!(state.reload().is_err(), "corrupt vocabulary must fail the reload");
        let after = state.epoch();
        assert_eq!(after.epoch, before.epoch, "failed reload must not swap the epoch");
        assert_eq!(after.datasets, before.datasets);
    }

    #[test]
    fn delta_publication_applies_wal_tail_without_reopening() {
        let dir = fixture_store_vars("delta");
        let state = ServeState::open(&dir).unwrap();
        let before = state.epoch();
        // Warm the cache with a full-list, non-spatial query the delta
        // provably cannot affect.
        let q = Query::parse("with salinity limit 2").unwrap();
        let cached = before.engine.search(&q);
        assert_eq!(cached.len(), 2);
        // A live writer appends an unrelated dataset to the WAL only:
        // turbidity sits under `biogeochemical`, salinity under `physical`,
        // so no index key of the cached query reaches the newcomer.
        append_without_checkpoint(&dir, dataset("2014/08/turb01.csv", "turbidity"));
        match state.poll_reload().unwrap() {
            ReloadOutcome::DeltaApplied { from, to, epoch, mutations } => {
                assert_eq!(from, before.generation);
                assert!(to > from, "generation must advance monotonically");
                assert_eq!(epoch, before.epoch + 1);
                assert_eq!(mutations, 1);
            }
            other => panic!("expected a delta apply, got {other:?}"),
        }
        let after = state.epoch();
        assert_eq!(after.datasets, 3, "the delta-applied epoch sees the new dataset");
        let t = Query::parse("with turbidity").unwrap();
        let hits = after.engine.search(&t);
        assert!(hits.iter().any(|h| h.path.contains("turb01")), "new dataset must be searchable");
        // The unaffected cached list survived the generation bump — same
        // allocation, not a recompute.
        let again = after.engine.search(&q);
        assert!(Arc::ptr_eq(&cached, &again), "unaffected cache entry must keep pointer identity");
        assert_eq!(state.reloads(), 1);
    }

    #[test]
    fn delta_evicts_affected_cache_entries() {
        let dir = fixture_store_vars("deltaev");
        let state = ServeState::open(&dir).unwrap();
        let q = Query::parse("with salinity limit 2").unwrap();
        let cached = state.epoch().engine.search(&q);
        assert_eq!(cached.len(), 2);
        // A third salinity dataset is a new candidate for the cached query
        // — the entry must be evicted and recomputed.
        append_without_checkpoint(&dir, dataset("2014/07/s0.csv", "salinity"));
        match state.poll_reload().unwrap() {
            ReloadOutcome::DeltaApplied { .. } => {}
            other => panic!("expected a delta apply, got {other:?}"),
        }
        let again = state.epoch().engine.search(&q);
        assert!(!Arc::ptr_eq(&cached, &again), "affected entry must be recomputed");
    }

    #[test]
    fn delta_generation_matches_a_full_reload() {
        let dir = fixture_store_vars("deltagen");
        let state = ServeState::open(&dir).unwrap();
        append_without_checkpoint(&dir, dataset("2014/08/temp01.csv", "water_temperature"));
        let to = match state.poll_reload().unwrap() {
            ReloadOutcome::DeltaApplied { to, .. } => to,
            other => panic!("expected a delta apply, got {other:?}"),
        };
        // A checkpoint replaces the snapshot, forcing the next poll down
        // the full-reload path — which must agree on the generation the
        // delta computed (generation continuity).
        let mut s = DurableCatalog::open(dir.join("catalog"), StoreOptions::default()).unwrap();
        s.checkpoint().unwrap();
        drop(s);
        match state.poll_reload().unwrap() {
            ReloadOutcome::Unchanged { generation } => assert_eq!(generation, to),
            other => panic!("a checkpoint of already-applied state must be unchanged: {other:?}"),
        }
    }

    #[test]
    fn trace_config_defaults_and_clamps() {
        let dir = fixture_store("traceconf");
        let state = ServeState::open(&dir).unwrap();
        assert_eq!(state.trace_slow_micros(), 100_000, "default --slow-ms is 100");
        assert_eq!(state.trace_sample_rate(), 1.0, "default samples everything");
        state.set_trace_config(250, 7.5);
        assert_eq!(state.trace_slow_micros(), 250_000);
        assert_eq!(state.trace_sample_rate(), 1.0, "rate clamps high");
        state.set_trace_config(0, -2.0);
        assert_eq!(state.trace_slow_micros(), 0);
        assert_eq!(state.trace_sample_rate(), 0.0, "rate clamps low");
    }

    #[cfg(unix)]
    #[test]
    fn serve_excludes_repairers_while_open() {
        let dir = fixture_store("lock");
        let state = ServeState::open(&dir).unwrap();
        assert!(StoreLock::exclusive(lock_path(&dir.join("catalog"))).is_err());
        drop(state);
        assert!(StoreLock::exclusive(lock_path(&dir.join("catalog"))).is_ok());
    }
}
