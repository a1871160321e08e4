//! Group commit: many small harvest batches, one shared fsync.
//!
//! A [`GroupCommit`] wraps a [`DurableCatalog`] behind a commit queue.
//! Submitters append their mutations to the WAL (buffered, not yet synced)
//! and receive a [`CommitTicket`]; a background flusher thread wakes when
//! work is pending, sleeps one `commit_interval` so concurrent submissions
//! coalesce, then performs a *single* `flush_and_sync` covering every batch
//! appended so far. Tickets resolve only after that shared fsync lands —
//! an acknowledgement is a durability guarantee, never a promise.
//!
//! The protocol's crash window is therefore exactly the WAL's: a batch
//! submitted but not yet flushed may be wholly or partially lost (torn
//! tail), but its ticket has not resolved, so nothing was acked. The
//! torture suite (`crates/core/tests/torture_group_commit.rs`) drives this
//! queue over the fault-injecting VFS and asserts the recovered catalog
//! equals the acked-ticket prefix.
//!
//! A zero `commit_interval` degenerates to one fsync per submission —
//! the baseline `tests::one_window_means_one_fsync` counts a window's
//! fsyncs against.

use super::durable::{CompactionPolicy, CompactionReport, DurableCatalog};
use super::metrics::store_metrics;
use crate::catalog::Mutation;
use crate::error::{Error, Result};
use metamess_telemetry::Stopwatch;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Tuning for a [`GroupCommit`] queue.
#[derive(Debug, Clone, Default)]
pub struct GroupCommitOptions {
    /// How long the flusher waits after noticing pending work before it
    /// issues the shared fsync, letting concurrent submissions coalesce
    /// into the same window. Zero means fsync inline on every submission.
    pub commit_interval: Duration,
    /// When set, the flusher checks this policy after each flushed window
    /// and compacts the store in the background when the WAL has outgrown
    /// the snapshot.
    pub compaction: Option<CompactionPolicy>,
}

/// Shared queue state. The store itself lives inside the mutex: whoever
/// flushes (the flusher thread, or a submitter in zero-interval mode)
/// holds the lock for the duration of the fsync, which is what makes one
/// fsync cover every batch appended before it.
struct State {
    store: Option<DurableCatalog>,
    /// Sequence number handed to the next submission (first is 1).
    next_seq: u64,
    /// Highest sequence number covered by a successful fsync.
    durable_seq: u64,
    /// Sticky failure: set when a flush errors; every unresolved and
    /// future ticket then fails rather than falsely acking.
    failed: Option<String>,
    shutdown: bool,
    /// Most recent background compaction, for observability.
    last_compaction: Option<CompactionReport>,
}

struct Shared {
    state: Mutex<State>,
    /// Wakes the flusher when a submission arrives (or on shutdown).
    submitted: Condvar,
    /// Wakes ticket waiters when `durable_seq` advances or a flush fails.
    durable: Condvar,
}

/// A claim on durability for one submitted batch.
///
/// [`CommitTicket::wait`] blocks until the shared fsync covering this
/// batch succeeds (`Ok`) or the queue fails or closes first (`Err`).
#[derive(Debug)]
pub struct CommitTicket {
    shared: Arc<Shared>,
    seq: u64,
}

impl CommitTicket {
    /// The batch's position in the commit sequence (1-based).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Blocks until this batch is durable. Returns an error when the queue
    /// failed or shut down before the covering fsync landed — in that case
    /// the batch must be considered lost (it was never acked).
    pub fn wait(self) -> Result<()> {
        let on = metamess_telemetry::enabled();
        let timer = Stopwatch::start_if(on);
        let mut state = self.shared.state.lock().expect("group-commit lock poisoned");
        loop {
            if state.durable_seq >= self.seq {
                if on {
                    let m = store_metrics();
                    m.group_commit_acked.inc();
                    m.group_commit_wait_micros.record(timer.micros());
                }
                return Ok(());
            }
            if let Some(reason) = &state.failed {
                return Err(Error::io(
                    format!("group commit batch {}", self.seq),
                    std::io::Error::other(reason.clone()),
                ));
            }
            if state.shutdown {
                return Err(Error::invalid(format!(
                    "group commit queue closed before batch {} was durable",
                    self.seq
                )));
            }
            state = self.shared.durable.wait(state).expect("group-commit lock poisoned");
        }
    }
}

/// A [`DurableCatalog`] behind a group-commit queue (see module docs).
#[derive(Debug)]
pub struct GroupCommit {
    shared: Arc<Shared>,
    options: GroupCommitOptions,
    flusher: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.lock().expect("group-commit lock poisoned");
        f.debug_struct("GroupCommitState")
            .field("next_seq", &state.next_seq)
            .field("durable_seq", &state.durable_seq)
            .field("failed", &state.failed)
            .field("shutdown", &state.shutdown)
            .finish()
    }
}

impl GroupCommit {
    /// Wraps `store` in a commit queue. The store should be opened with
    /// `sync_on_append: false` — a sync-on-append store stays correct but
    /// pays one fsync per mutation, defeating the batching this queue
    /// exists to provide.
    pub fn new(store: DurableCatalog, options: GroupCommitOptions) -> GroupCommit {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                store: Some(store),
                next_seq: 1,
                durable_seq: 0,
                failed: None,
                shutdown: false,
                last_compaction: None,
            }),
            submitted: Condvar::new(),
            durable: Condvar::new(),
        });
        let flusher = if options.commit_interval.is_zero() {
            None
        } else {
            let shared = Arc::clone(&shared);
            let interval = options.commit_interval;
            let compaction = options.compaction.clone();
            Some(
                std::thread::Builder::new()
                    .name("metamess-group-commit".into())
                    .spawn(move || flusher_loop(&shared, interval, compaction.as_ref()))
                    .expect("spawn group-commit flusher"),
            )
        };
        GroupCommit { shared, options, flusher }
    }

    /// Submits one batch of mutations. They are appended (buffered) to the
    /// WAL and applied to the store's rows before this returns; the
    /// returned ticket resolves once the covering fsync lands.
    pub fn submit(&self, batch: Vec<Mutation>) -> Result<CommitTicket> {
        let mut state = self.shared.state.lock().expect("group-commit lock poisoned");
        if state.shutdown {
            return Err(Error::invalid("group commit queue is closed"));
        }
        if let Some(reason) = &state.failed {
            return Err(Error::io("group commit submit", std::io::Error::other(reason.clone())));
        }
        let store = state.store.as_mut().expect("store present until close");
        for m in batch {
            if let Err(e) = store.apply(m) {
                // The WAL tail is now suspect: fail the queue rather than
                // let later batches ack over a hole.
                state.failed = Some(e.to_string());
                self.shared.durable.notify_all();
                return Err(e);
            }
        }
        let seq = state.next_seq;
        state.next_seq += 1;
        if self.options.commit_interval.is_zero() {
            // Degenerate mode: the submitter is its own flusher.
            flush_covering(&mut state, seq, self.options.compaction.as_ref());
            self.shared.durable.notify_all();
        } else {
            self.shared.submitted.notify_one();
        }
        Ok(CommitTicket { shared: Arc::clone(&self.shared), seq })
    }

    /// Highest sequence number known durable.
    pub fn durable_seq(&self) -> u64 {
        self.shared.state.lock().expect("group-commit lock poisoned").durable_seq
    }

    /// Runs `f` against the wrapped store (e.g. to inspect the catalog).
    /// Fails once the queue is closed.
    pub fn with_store<R>(&self, f: impl FnOnce(&DurableCatalog) -> R) -> Result<R> {
        let state = self.shared.state.lock().expect("group-commit lock poisoned");
        match &state.store {
            Some(store) => Ok(f(store)),
            None => Err(Error::invalid("group commit queue is closed")),
        }
    }

    /// The most recent background compaction, if any has run.
    pub fn last_compaction(&self) -> Option<CompactionReport> {
        self.shared.state.lock().expect("group-commit lock poisoned").last_compaction.clone()
    }

    /// Shuts the queue down: flushes everything still pending, stops the
    /// flusher thread, and hands the store back. Unresolved tickets whose
    /// batches made it into the final flush resolve `Ok`; if the final
    /// flush fails they resolve with that error.
    pub fn close(mut self) -> Result<DurableCatalog> {
        {
            let mut state = self.shared.state.lock().expect("group-commit lock poisoned");
            state.shutdown = true;
            self.shared.submitted.notify_all();
        }
        if let Some(handle) = self.flusher.take() {
            handle.join().map_err(|_| Error::invalid("group-commit flusher panicked"))?;
        }
        let mut state = self.shared.state.lock().expect("group-commit lock poisoned");
        // Zero-interval mode has no flusher; everything submitted was
        // already flushed inline, so there is nothing pending here.
        let store = state.store.take().expect("store present until close");
        self.shared.durable.notify_all();
        if let Some(reason) = &state.failed {
            // Surface the sticky failure to the closer too: the store is
            // dropped (its WAL tail is suspect) rather than handed back.
            return Err(Error::io("group commit close", std::io::Error::other(reason.clone())));
        }
        Ok(store)
    }
}

impl Drop for GroupCommit {
    fn drop(&mut self) {
        // `close` detaches the flusher; a plain drop must not leave the
        // thread parked forever.
        let mut state = self.shared.state.lock().expect("group-commit lock poisoned");
        state.shutdown = true;
        self.shared.submitted.notify_all();
        self.shared.durable.notify_all();
        drop(state);
        if let Some(handle) = self.flusher.take() {
            let _ = handle.join();
        }
    }
}

/// One shared fsync covering every batch appended up to and including
/// `target`; advances `durable_seq` on success, poisons the queue on
/// failure. Runs the compaction policy afterwards while the WAL is known
/// clean. Caller holds the state lock and notifies waiters.
fn flush_covering(state: &mut State, target: u64, compaction: Option<&CompactionPolicy>) {
    let Some(store) = state.store.as_mut() else { return };
    match store.flush() {
        Ok(()) => {
            state.durable_seq = target;
            if metamess_telemetry::enabled() {
                store_metrics().group_commit_batches.inc();
            }
            if let Some(policy) = compaction {
                match store.maybe_compact(policy) {
                    Ok(Some(report)) => state.last_compaction = Some(report),
                    Ok(None) => {}
                    // A failed compaction does not lose acked data (the
                    // flush above already landed); poison the queue so the
                    // operator sees it instead of silently retrying.
                    Err(e) => state.failed = Some(format!("compaction failed: {e}")),
                }
            }
        }
        Err(e) => state.failed = Some(e.to_string()),
    }
}

/// The background flusher: wait for work, hold the commit window open for
/// one `interval` (interruptible by shutdown), then flush once.
fn flusher_loop(shared: &Shared, interval: Duration, compaction: Option<&CompactionPolicy>) {
    use std::time::Instant;
    let mut state = shared.state.lock().expect("group-commit lock poisoned");
    loop {
        // Park until there is unflushed work (a poisoned queue parks until
        // shutdown — nothing further can ever be acked).
        while !state.shutdown && (state.failed.is_some() || state.next_seq - 1 <= state.durable_seq)
        {
            state = shared.submitted.wait(state).expect("group-commit lock poisoned");
        }
        if state.shutdown {
            // Drain: one final covering flush for whatever is pending.
            let target = state.next_seq - 1;
            if state.failed.is_none() && target > state.durable_seq {
                flush_covering(&mut state, target, compaction);
            }
            shared.durable.notify_all();
            return;
        }
        // The commit window: submissions arriving while we wait here ride
        // the same fsync. `wait_timeout` releases the lock so they can.
        let deadline = Instant::now() + interval;
        while !state.shutdown {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let (s, timeout) = shared
                .submitted
                .wait_timeout(state, deadline - now)
                .expect("group-commit lock poisoned");
            state = s;
            if timeout.timed_out() {
                break;
            }
        }
        let target = state.next_seq - 1;
        if state.failed.is_none() && target > state.durable_seq {
            flush_covering(&mut state, target, compaction);
        }
        shared.durable.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature::DatasetFeature;
    use crate::store::{FaultKind, FaultPlan, FaultVfs, StoreOptions, Wal};
    use std::fs;
    use std::path::PathBuf;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("metamess-gc-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn put(path: &str) -> Mutation {
        Mutation::Put(Box::new(DatasetFeature::new(path)))
    }

    fn open(dir: &PathBuf) -> DurableCatalog {
        DurableCatalog::open(dir, StoreOptions::default()).unwrap()
    }

    #[test]
    fn acked_batches_are_durable_across_reopen() {
        let dir = tmpdir("ack");
        let gc = GroupCommit::new(
            open(&dir),
            GroupCommitOptions {
                commit_interval: Duration::from_millis(5),
                ..GroupCommitOptions::default()
            },
        );
        let t1 = gc.submit(vec![put("a.csv"), put("b.csv")]).unwrap();
        let t2 = gc.submit(vec![put("c.csv")]).unwrap();
        t1.wait().unwrap();
        t2.wait().unwrap();
        assert_eq!(gc.durable_seq(), 2);
        drop(gc); // no clean close: the ack alone must suffice
        let s = open(&dir);
        assert_eq!(s.catalog().len(), 3);
    }

    #[test]
    fn one_window_means_one_fsync() {
        // Fsyncs of a 50-submission burst, counted by a fault VFS whose
        // fault never comes.
        let fsyncs_of_burst = |name: &str, commit_interval: Duration| -> u64 {
            let plan = FaultPlan { crash_at: u64::MAX, kind: FaultKind::FsyncError, seed: 0 };
            let vfs = Arc::new(FaultVfs::new(plan));
            let store =
                DurableCatalog::open_with(vfs.clone(), tmpdir(name), StoreOptions::default())
                    .unwrap();
            let options = GroupCommitOptions { commit_interval, ..GroupCommitOptions::default() };
            let gc = GroupCommit::new(store, options);
            let before = vfs.sites();
            let tickets: Vec<CommitTicket> =
                (0..50).map(|i| gc.submit(vec![put(&format!("f{i}.csv"))]).unwrap()).collect();
            for t in tickets {
                t.wait().unwrap();
            }
            assert_eq!(gc.durable_seq(), 50);
            let fsyncs = vfs.sites() - before;
            assert_eq!(gc.close().unwrap().catalog().len(), 50);
            fsyncs
        };
        // No window: the submitter is its own flusher. With a wide one the
        // quick submissions share a sync (or, on a stalled machine, a few).
        let each = fsyncs_of_burst("window-zero", Duration::ZERO);
        let windowed = fsyncs_of_burst("window", Duration::from_millis(40));
        assert_eq!(each, 50);
        assert!(windowed >= 1 && each >= 4 * windowed, "{windowed} fsyncs in the window");
    }

    #[test]
    fn zero_interval_flushes_inline() {
        let dir = tmpdir("inline");
        let gc = GroupCommit::new(open(&dir), GroupCommitOptions::default());
        let t = gc.submit(vec![put("a.csv")]).unwrap();
        // Already durable before wait: the submit flushed inline.
        assert_eq!(gc.durable_seq(), 1);
        t.wait().unwrap();
        let store = gc.close().unwrap();
        assert_eq!(store.catalog().len(), 1);
    }

    #[test]
    fn close_drains_pending_batches() {
        let dir = tmpdir("drain");
        let gc = GroupCommit::new(
            open(&dir),
            GroupCommitOptions {
                commit_interval: Duration::from_secs(3600), // window longer than the test
                ..GroupCommitOptions::default()
            },
        );
        let t = gc.submit(vec![put("a.csv")]).unwrap();
        let store = gc.close().unwrap(); // must not wait an hour
        assert_eq!(store.catalog().len(), 1);
        drop(store);
        t.wait().unwrap();
        let s = open(&dir);
        assert_eq!(s.catalog().len(), 1);
    }

    #[test]
    fn submit_after_close_is_refused() {
        let dir = tmpdir("closed");
        let gc = GroupCommit::new(open(&dir), GroupCommitOptions::default());
        let shared = Arc::clone(&gc.shared);
        let _ = gc.close().unwrap();
        let gc2 = GroupCommit { shared, options: GroupCommitOptions::default(), flusher: None };
        assert!(gc2.submit(vec![put("x.csv")]).is_err());
        assert!(gc2.with_store(|_| ()).is_err());
    }

    #[test]
    fn background_compaction_runs_when_policy_trips() {
        let dir = tmpdir("compact");
        let gc = GroupCommit::new(
            open(&dir),
            GroupCommitOptions {
                commit_interval: Duration::ZERO,
                compaction: Some(CompactionPolicy { wal_ratio: 0.0, min_wal_bytes: 1, retain: 1 }),
            },
        );
        gc.submit(vec![put("a.csv")]).unwrap().wait().unwrap();
        assert!(gc.last_compaction().is_some());
        let store = gc.close().unwrap();
        // The WAL was folded: everything lives in the snapshot now.
        assert_eq!(store.pending_wal_records(), 0);
        let r = Wal::read_tail(dir.join("wal.log"), 0).unwrap();
        assert!(r.mutations.is_empty() && r.stopped_early.is_none());
        assert_eq!(store.catalog().len(), 1);
    }
}
