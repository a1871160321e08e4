//! Shared serving state: the store, an epoch-swapped engine, hot reload.
//!
//! The catalog is served through an [`EngineEpoch`] held behind an
//! `RwLock<Arc<…>>`: every request clones the `Arc` once (a read lock held
//! for nanoseconds) and then runs entirely against that immutable epoch. A
//! hot reload builds the next epoch **off to the side** and swaps the
//! pointer — in-flight requests keep the epoch they started with, so a
//! reload never invalidates a request mid-execution. Each epoch's engine
//! owns its result cache: an epoch is swapped in only when the catalog
//! generation moved, so no cached entry could be served across a swap.
//!
//! The server is a **reader** of a store that `metamess watch` may be
//! appending to: it loads through [`read_published`], which never modifies
//! `snapshot.bin` or `wal.log`. A half-written record at the end of the log
//! is simply not served yet.
//!
//! Fault model under reload: if reading the store fails (a snapshot or
//! vocabulary that does not decode, or `fsck --repair` holding the
//! exclusive store lock), the error is reported to the caller, logged and
//! counted, and the server **keeps serving the previous epoch** — a bad
//! reload never takes the service down.
//!
//! ## One way forward
//!
//! [`ServeState::reload`] and [`ServeState::poll_reload`] are the same
//! routine, `advance`, forced or not. A poll that finds the store's files
//! as it last saw them does nothing; anything else reads the store afresh,
//! as an open does, and builds the next engine with
//! [`SearchEngine::from_rows`]. A poll whose `vocabulary.json` is the one
//! the serving epoch was read with keeps that epoch's vocabulary (an
//! `Arc`, not a copy); a forced reload reads it too.

use crate::metrics;
use metamess_core::store::{lock_path, read_published, StoreLock};
use metamess_core::Result;
use metamess_remote::RemoteShardSet;
use metamess_search::{BrowseTree, SearchEngine, ShardSpec};
use metamess_telemetry::{event, Level};
use metamess_vocab::Vocabulary;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::time::{Instant, SystemTime};

/// One immutable generation of serving state.
pub struct EngineEpoch {
    /// The search engine over the store's published catalog. It holds every
    /// dataset as its encoded row, sharing the images the store read
    /// returned: the process holds no decoded copy of them.
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
}

/// A file's length and mtime; `None` when it is not there.
type FileStamp = Option<(u64, Option<SystemTime>)>;

fn stamp(path: &Path) -> FileStamp {
    std::fs::metadata(path).ok().map(|m| (m.len(), m.modified().ok()))
}

/// Stamps of the files whose change implies a republish; lets the poll
/// loop skip reading the store when nothing moved on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StoreSignature {
    /// `catalog/snapshot.bin` and `catalog/wal.log`.
    catalog: [FileStamp; 2],
    vocabulary: FileStamp,
}

impl StoreSignature {
    fn capture(store_dir: &Path) -> StoreSignature {
        let catalog = store_dir.join("catalog");
        StoreSignature {
            catalog: [stamp(&catalog.join("snapshot.bin")), stamp(&catalog.join("wal.log"))],
            vocabulary: stamp(&store_dir.join("vocabulary.json")),
        }
    }
}

/// Everything the reload lock guards.
struct ReloadState {
    /// The store's files when a reload last looked at them.
    seen: StoreSignature,
    /// `vocabulary.json` when the serving epoch's vocabulary was read.
    vocabulary: FileStamp,
}

/// Everything the worker pool shares: store handle, current epoch.
pub struct ServeState {
    store_dir: PathBuf,
    /// Shard layout every epoch is built with: a hot reload rebuilds the
    /// whole shard set off to the side and swaps it atomically inside the
    /// epoch, so requests never observe a half-resharded catalog.
    spec: ShardSpec,
    current: RwLock<Arc<EngineEpoch>>,
    /// Serializes reloads (poll thread vs `/admin/reload`) and holds what
    /// they saw of the store.
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
        // Signature before the load: a publish landing mid-load then shows
        // up as a change on the first poll (one redundant reload) instead
        // of being folded into the stored signature and never noticed.
        let seen = StoreSignature::capture(&store_dir);
        let epoch = load(&store_dir, spec, None, 0)?;
        Ok(ServeState {
            store_dir,
            spec,
            current: RwLock::new(Arc::new(epoch)),
            reload_state: Mutex::new(ReloadState { seen, vocabulary: seen.vocabulary }),
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
        self.current.read().unwrap_or_else(PoisonError::into_inner).clone()
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
        let mut cache = self.healthz_cache.lock().unwrap_or_else(PoisonError::into_inner);
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

    /// Reads the store afresh and swaps in a new epoch if the generation
    /// advanced. On error the previous epoch keeps serving.
    pub fn reload(&self) -> Result<ReloadOutcome> {
        self.advance(true)
    }

    /// Cheap poll-path reload: does nothing when the on-disk signature
    /// (sizes + mtimes) is unchanged, and reads the store afresh otherwise.
    pub fn poll_reload(&self) -> Result<ReloadOutcome> {
        self.advance(false)
    }

    /// Brings the served epoch up to what the store holds now. `force`
    /// reads the store, vocabulary included, even when nothing moved.
    fn advance(&self, force: bool) -> Result<ReloadOutcome> {
        let mut at = self.reload_state.lock().unwrap_or_else(PoisonError::into_inner);
        // Capture before reading: a publish landing in between makes the
        // next poll see a signature change and read again — the safe
        // direction. Capturing after would fold that publish into the
        // stored signature and serve the stale epoch until yet another one.
        let observed = StoreSignature::capture(&self.store_dir);
        let previous = self.epoch();
        let from = previous.generation;
        if !force && at.seen == observed {
            return Ok(ReloadOutcome::Unchanged { generation: from });
        }
        let started = Instant::now();
        // A poll keeps the serving vocabulary unless its file moved since
        // that vocabulary was read.
        let keep = !force && at.vocabulary == observed.vocabulary;
        let vocab = keep.then(|| Arc::clone(previous.engine.vocabulary()));
        let epoch = previous.epoch + 1;
        let next = load(&self.store_dir, self.spec, vocab, epoch).inspect_err(|e| {
            metrics::record_reload_failure();
            event!(
                Level::Warn,
                "serve",
                "reload of {} failed, generation {from} keeps serving: {e}",
                self.store_dir.display()
            );
        })?;
        at.seen = observed;
        if next.generation == from {
            return Ok(ReloadOutcome::Unchanged { generation: from });
        }
        at.vocabulary = observed.vocabulary;
        let to = next.generation;
        *self.current.write().unwrap_or_else(PoisonError::into_inner) = Arc::new(next);
        self.reloads.fetch_add(1, Ordering::Relaxed);
        let micros = started.elapsed().as_micros() as u64;
        metrics::record_reload(previous.engine.cache().len(), micros);
        Ok(ReloadOutcome::Reloaded { from, to, epoch })
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

/// Reads what the store published into serving epoch number `epoch` — the
/// rows the read returned go into the engine as they are, none decoded —
/// with `vocab`, or with the store's vocabulary read afresh when that is
/// `None`. Nothing on disk is touched; the `ServeState` lifetime lock is
/// what keeps repairers out.
fn load(
    store_dir: &Path,
    spec: ShardSpec,
    vocab: Option<Arc<Vocabulary>>,
    epoch: u64,
) -> Result<EngineEpoch> {
    let published = read_published(store_dir.join("catalog"))?;
    let vocab = match vocab {
        Some(vocab) => vocab,
        None => Arc::new(Vocabulary::load_or_default(store_dir.join("vocabulary.json"))?),
    };
    if let Some(reason) = &published.stopped_early {
        // A writer mid-append (a later read picks the record up) looks the
        // same from here as a damaged tail (which stays until `fsck
        // --repair` or the writer's next open), so an operator seeing this
        // repeat for one store should run fsck.
        event!(
            Level::Warn,
            "serve",
            "wal of {} has bytes past its last complete record ({reason}); serving the prefix",
            store_dir.display()
        );
    }
    let engine = SearchEngine::from_rows(published.rows, published.generation, vocab, spec);
    Ok(EngineEpoch {
        browse: engine.browse(),
        generation: engine.generation(),
        datasets: engine.len(),
        engine,
        epoch,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use metamess_core::{DatasetFeature, DurableCatalog, StoreOptions, VariableFeature};
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

    /// Appends to the WAL without checkpointing — what the watch
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
        let spec = ShardSpec::new(0, Partitioner::Hash); // clamped to 1
        let state = ServeState::open_sharded(&dir, spec).unwrap();
        assert_eq!(state.shard_spec().count(), 1);
        for shards in [1usize, 2, 4, 8] {
            let dir = fixture_store(&format!("sharded{shards}"));
            let spec = ShardSpec::new(shards, Partitioner::Hash);
            let state = ServeState::open_sharded(&dir, spec).unwrap();
            assert_eq!(state.epoch().engine.shard_count(), shards);
            // a publish + reload swaps the whole shard set atomically inside
            // the epoch — the new epoch has the same layout
            publish_one_more(&dir, "2014/08/c.csv");
            match state.reload().unwrap() {
                ReloadOutcome::Reloaded { .. } => {}
                other => panic!("{shards} shards: expected a swap, got {other:?}"),
            }
            let epoch = state.epoch();
            assert_eq!(epoch.engine.shard_count(), shards);
            assert_eq!(epoch.datasets, 3);
        }
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
        let failures = || {
            let snap = metamess_telemetry::global().snapshot();
            snap.counters.get("metamess_server_reload_failures_total").copied().unwrap_or(0)
        };
        let failed_before = failures();
        assert!(state.reload().is_err(), "corrupt vocabulary must fail the reload");
        assert!(state.poll_reload().is_err(), "… and keeps failing the poll, which retries");
        if metamess_telemetry::enabled() {
            assert_eq!(failures(), failed_before + 2, "the admin route and the poll count alike");
        }
        let after = state.epoch();
        assert_eq!(after.epoch, before.epoch, "failed reload must not swap the epoch");
        assert_eq!(after.datasets, before.datasets);
        // Once the store reads again the same poll goes through, with the
        // vocabulary read afresh: its file moved since the serving epoch's.
        Vocabulary::observatory_default().save(dir.join("vocabulary.json")).unwrap();
        assert!(matches!(state.poll_reload().unwrap(), ReloadOutcome::Reloaded { .. }));
        assert!(!Arc::ptr_eq(state.epoch().engine.vocabulary(), before.engine.vocabulary()));
    }

    /// Warms the cache with `with salinity limit 2`, lets a live writer
    /// append one `var` dataset at `path` to the WAL only, and checks the
    /// poll that follows: it swaps in an epoch one generation on, with the
    /// serving vocabulary and a cache of its own, whose answer to the
    /// cached query is what a server opening the store afresh answers, the
    /// newcomer in it exactly when `ranks`.
    fn check_delta_put(name: &str, var: &str, path: &str, ranks: bool) {
        let dir = fixture_store_vars(name);
        let state = ServeState::open(&dir).unwrap();
        let before = state.epoch();
        let q = Query::parse("with salinity limit 2").unwrap();
        let cached = before.engine.search(&q);
        assert_eq!(cached.len(), 2);
        append_without_checkpoint(&dir, dataset(path, var));
        let (from, to) = (before.generation, before.generation + 1);
        let epoch = before.epoch + 1;
        assert_eq!(state.poll_reload().unwrap(), ReloadOutcome::Reloaded { from, to, epoch });
        assert_eq!(state.reloads(), 1);
        let after = state.epoch();
        assert_eq!(after.datasets, 3, "the polled epoch sees the new dataset");
        assert!(Arc::ptr_eq(after.engine.vocabulary(), before.engine.vocabulary()));
        let hits = after.engine.search(&Query::parse(&format!("with {var}")).unwrap());
        assert!(hits.iter().any(|h| h.path == path), "new dataset must be searchable");
        // The new epoch's cache starts empty, so the query is scored again …
        let again = after.engine.search(&q);
        assert!(!Arc::ptr_eq(&cached, &again), "a stale entry must be recomputed");
        // … into what a server opening the store afresh answers.
        let fresh = ServeState::open(&dir).unwrap().epoch().engine.search(&q);
        assert_eq!(again, fresh);
        for (a, f) in again.iter().zip(fresh.iter()) {
            assert_eq!(a.score.to_bits(), f.score.to_bits(), "score of {}", a.path);
        }
        assert_eq!(again.iter().any(|h| h.path == path), ranks, "does {path} rank?");
    }

    #[test]
    fn a_polled_wal_put_answers_like_a_reopened_store() {
        // Turbidity sits under `biogeochemical`, salinity under `physical`:
        // the newcomer is no candidate for the cached query.
        check_delta_put("delta", "turbidity", "2014/08/turb01.csv", false);
    }

    #[test]
    fn delta_evicts_affected_cache_entries() {
        // A third salinity dataset is a candidate for the cached query and
        // ranks first (an equal score, an earlier path).
        check_delta_put("deltaev", "salinity", "2014/07/s0.csv", true);
    }

    #[test]
    fn delta_generation_matches_a_full_reload() {
        let dir = fixture_store_vars("deltagen");
        let state = ServeState::open(&dir).unwrap();
        append_without_checkpoint(&dir, dataset("2014/08/temp01.csv", "water_temperature"));
        let to = match state.poll_reload().unwrap() {
            ReloadOutcome::Reloaded { to, .. } => to,
            other => panic!("expected a swap, got {other:?}"),
        };
        // A checkpoint folds the WAL into a new snapshot: the next poll
        // reads it, and it must land on the generation the WAL's record
        // gave (generation continuity).
        let mut s = DurableCatalog::open(dir.join("catalog"), StoreOptions::default()).unwrap();
        s.checkpoint().unwrap();
        drop(s);
        match state.poll_reload().unwrap() {
            ReloadOutcome::Unchanged { generation } => assert_eq!(generation, to),
            other => panic!("a checkpoint of already-served state must be unchanged: {other:?}"),
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
