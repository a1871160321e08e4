//! The remote side of the scatter-gather: N shardd processes behind the
//! search crate's one coordinator, with explicit policy for everything
//! that can go wrong on a network.
//!
//! [`RemoteShardSet::search`] runs `metamess_search::fanout::scatter_gather`
//! — the same function the in-process `ShardedEngine` runs — over a
//! [`ShardBackend`] whose probe and score are frame round trips. The
//! sequence (probe, global admission, full-scan decision, score, merge)
//! is therefore not written here; what is:
//!
//! * **Transport and fan-out.** Each phase dials its shards side by side
//!   on scoped threads. An empty shard is not asked to probe, and a shard
//!   the probe left without candidates is not asked to score.
//! * **Retries.** Probes are idempotent, so failures are retried within a
//!   budget (exponential backoff with deterministic jitter). Scoring gets
//!   one attempt — by the time it starts the shard answered its probe
//!   milliseconds ago, and the partial policy handles the rare mid-query
//!   death.
//!
//! # Failure policy
//!
//! `PartialPolicy::Fail` turns any shard failure into a typed error.
//! `PartialPolicy::Degrade` drops the failed shards — a shard that failed
//! its probe is not asked to score, so the answer is *exactly* what a
//! coordinator over only the healthy shards would return — and marks the
//! response `partial` (surfaced as the `X-Metamess-Partial` header and a
//! JSON field by the server). A catalog-generation mismatch between
//! shards — or between phases — is never degradable: merging hits from
//! two different catalogs would be silently wrong, so it is always a
//! conflict error.
//!
//! # Circuit state
//!
//! Consecutive failures per shard drive a small circuit: `Healthy` (0),
//! `Degraded` (some), `Open` (at least `failure_threshold` — dials are
//! skipped until a cooldown elapses, then one half-open attempt may heal
//! it). The state is visible in `/healthz`, `metamess stats`, and the
//! `metamess_remote_*` metrics.

use crate::frame::{Frame, FrameKind};
use crate::metrics::remote_metrics;
use crate::transport::{TcpTransport, Transport, TransportError};
use crate::wire::{
    HelloRequest, HelloResponse, ProbeRequest, ProbeResponse, ScoreRequest, ScoreResponse,
    WireError,
};
use metamess_core::error::{Error, Result};
use metamess_search::fanout::{scatter_gather, ProbeSummary, ScoreWork, ShardBackend};
use metamess_search::{Query, SearchHit};
use metamess_telemetry::trace;
use serde::de::DeserializeOwned;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// What to do when a shard cannot answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartialPolicy {
    /// Any shard failure fails the whole query with a typed error.
    Fail,
    /// Serve the healthy shards' merge, marked `partial: true`.
    Degrade,
}

impl PartialPolicy {
    /// Parses the CLI spelling (`fail` | `degrade`).
    pub fn parse(text: &str) -> Option<PartialPolicy> {
        match text.trim().to_ascii_lowercase().as_str() {
            "fail" => Some(PartialPolicy::Fail),
            "degrade" => Some(PartialPolicy::Degrade),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            PartialPolicy::Fail => "fail",
            PartialPolicy::Degrade => "degrade",
        }
    }
}

/// Knobs for deadlines, retries, and circuits. The defaults suit a
/// same-rack fleet; everything is overridable.
#[derive(Debug, Clone)]
pub struct RemoteOptions {
    /// TCP connect deadline per dial.
    pub connect_timeout: Duration,
    /// Read/write deadline per exchange.
    pub read_timeout: Duration,
    /// Retries after the first failed attempt (idempotent phases only:
    /// hello and probe; scoring gets exactly one attempt).
    pub retries: u32,
    /// First backoff step; doubles per retry.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Seed for the deterministic backoff jitter.
    pub jitter_seed: u64,
    /// What a shard failure does to the query.
    pub partial_policy: PartialPolicy,
    /// Consecutive failures that trip a shard's circuit open.
    pub failure_threshold: u32,
    /// How long an open circuit blocks dials before a half-open retry.
    pub cooldown: Duration,
}

impl Default for RemoteOptions {
    fn default() -> RemoteOptions {
        RemoteOptions {
            connect_timeout: Duration::from_secs(1),
            read_timeout: Duration::from_secs(5),
            retries: 2,
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(1),
            jitter_seed: 0x6d65_7461_6d65_7373, // "metamess"
            partial_policy: PartialPolicy::Fail,
            failure_threshold: 3,
            cooldown: Duration::from_secs(2),
        }
    }
}

/// A shard's circuit position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
#[serde(rename_all = "lowercase")]
pub enum CircuitState {
    /// Last exchange succeeded.
    Healthy,
    /// Recent failures, below the open threshold.
    Degraded,
    /// Tripped: dials are skipped until the cooldown elapses.
    Open,
}

impl CircuitState {
    /// The spelling used in `/healthz` and stats.
    pub fn as_str(&self) -> &'static str {
        match self {
            CircuitState::Healthy => "healthy",
            CircuitState::Degraded => "degraded",
            CircuitState::Open => "open",
        }
    }
}

/// One shard's health, as reported in `/healthz` and `metamess stats`.
#[derive(Debug, Clone, serde::Serialize)]
pub struct ShardHealth {
    /// Shard id in the layout.
    pub shard_id: u32,
    /// Dial address.
    pub addr: String,
    /// Circuit position.
    pub state: CircuitState,
    /// Round-trip time of the last successful exchange, when any.
    pub last_rtt_us: Option<u64>,
    /// Catalog generation the shard reported at hello.
    pub generation: u64,
    /// Consecutive failures behind the circuit state.
    pub consecutive_failures: u32,
}

/// Per-shard mutable circuit bookkeeping.
#[derive(Debug, Default)]
struct CircuitInner {
    consecutive_failures: u32,
    last_rtt_us: Option<u64>,
    opened_at: Option<Instant>,
}

/// Why a shard did not produce a usable answer.
#[derive(Debug, Clone)]
enum ShardFailure {
    Transport(TransportError),
    /// The shardd answered an `Error` frame.
    Remote(String),
    /// The shardd's catalog generation no longer matches the fleet's.
    Generation(u64),
    /// The circuit was open; the dial was never attempted.
    CircuitOpen,
}

/// The remote counterpart of the in-process `ShardedEngine`: the same
/// scatter-gather, over [`Transport`] instead of memory.
pub struct RemoteShardSet {
    transport: Arc<dyn Transport>,
    opts: RemoteOptions,
    /// Hello responses, indexed by **shard id** (not dial order).
    hello: Vec<HelloResponse>,
    /// Transport slot per shard id (the fleet may be listed in any order).
    slots: Vec<usize>,
    /// Dial addresses per shard id, for health reporting.
    addrs: Vec<String>,
    circuits: Vec<Mutex<CircuitInner>>,
    generation: u64,
}

impl RemoteShardSet {
    /// Dials every address, validates the fleet (one shardd per shard of
    /// one layout at one catalog generation), and returns the connected
    /// set. The addresses may list shards in any order.
    pub fn connect(addrs: &[String], opts: RemoteOptions) -> Result<RemoteShardSet> {
        let transport =
            Arc::new(TcpTransport::new(addrs.to_vec(), opts.connect_timeout, opts.read_timeout));
        RemoteShardSet::with_transport_labeled(transport, addrs.to_vec(), opts)
    }

    /// Builds a set over an arbitrary transport (the fault suite injects
    /// failures here). Shard `k` of the transport is labeled `shard[k]`.
    pub fn with_transport(
        transport: Arc<dyn Transport>,
        opts: RemoteOptions,
    ) -> Result<RemoteShardSet> {
        let labels = (0..transport.shard_count()).map(|k| format!("shard[{k}]")).collect();
        RemoteShardSet::with_transport_labeled(transport, labels, opts)
    }

    fn with_transport_labeled(
        transport: Arc<dyn Transport>,
        labels: Vec<String>,
        opts: RemoteOptions,
    ) -> Result<RemoteShardSet> {
        let n = transport.shard_count();
        if n == 0 {
            return Err(Error::invalid("a remote shard set needs at least one address"));
        }
        // Hello every slot (idempotent → retried within the budget).
        let mut by_slot: Vec<HelloResponse> = Vec::with_capacity(n);
        for (slot, label) in labels.iter().enumerate() {
            let frame = Frame::new(FrameKind::Hello, 0, &HelloRequest::default());
            let hello: HelloResponse =
                match exchange_checked(transport.as_ref(), slot, &frame, FrameKind::HelloOk) {
                    Ok(h) => h,
                    Err(ShardFailure::Transport(e)) => {
                        return Err(transport_error(label, "hello", &e));
                    }
                    Err(ShardFailure::Remote(m)) => {
                        return Err(Error::invalid(format!("{label} rejected hello: {m}")));
                    }
                    Err(_) => unreachable!("hello checks neither generation nor circuits"),
                };
            by_slot.push(hello);
        }
        let first = by_slot[0].clone();
        if first.shard_count as usize != n {
            return Err(Error::invalid(format!(
                "{} hosts shard {}/{} but {} addresses were given",
                labels[0], first.shard_id, first.shard_count, n
            )));
        }
        let mut hello: Vec<Option<HelloResponse>> = vec![None; n];
        let mut slots = vec![0usize; n];
        let mut addrs = vec![String::new(); n];
        for (slot, h) in by_slot.into_iter().enumerate() {
            if h.shard_count != first.shard_count {
                return Err(Error::invalid(format!(
                    "{} disagrees on the layout: {} shards vs {}",
                    labels[slot], h.shard_count, first.shard_count
                )));
            }
            if h.generation != first.generation {
                return Err(Error::conflict(format!(
                    "{} is at catalog generation {} but the fleet is at {}",
                    labels[slot], h.generation, first.generation
                )));
            }
            let id = h.shard_id as usize;
            if id >= n || hello[id].is_some() {
                return Err(Error::invalid(format!(
                    "{} hosts shard {} — duplicate or out of range for {} shards",
                    labels[slot], h.shard_id, n
                )));
            }
            slots[id] = slot;
            addrs[id] = labels[slot].clone();
            hello[id] = Some(h);
        }
        let hello: Vec<HelloResponse> =
            hello.into_iter().map(|h| h.expect("all slots placed")).collect();
        let generation = first.generation;
        let circuits = (0..n).map(|_| Mutex::new(CircuitInner::default())).collect();
        Ok(RemoteShardSet { transport, opts, hello, slots, addrs, circuits, generation })
    }

    /// Shards in the fleet.
    pub fn shard_count(&self) -> usize {
        self.hello.len()
    }

    /// The fleet's catalog generation (validated identical at connect).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The configured partial policy.
    pub fn partial_policy(&self) -> PartialPolicy {
        self.opts.partial_policy
    }

    /// Total datasets across the fleet.
    pub fn datasets(&self) -> u64 {
        self.hello.iter().map(|h| h.datasets).sum()
    }

    /// Per-shard health for `/healthz` and stats.
    pub fn health(&self) -> Vec<ShardHealth> {
        (0..self.hello.len())
            .map(|k| {
                let c = self.circuit(k);
                ShardHealth {
                    shard_id: k as u32,
                    addr: self.addrs[k].clone(),
                    state: state_of(c.consecutive_failures, self.opts.failure_threshold),
                    last_rtt_us: c.last_rtt_us,
                    generation: self.hello[k].generation,
                    consecutive_failures: c.consecutive_failures,
                }
            })
            .collect()
    }

    /// Runs one fan-out search. See the module docs for the failure
    /// semantics. A query [`Query::check`] refuses is an error before any
    /// shard is asked, so it never counts against a shard's circuit.
    pub fn search(&self, query: &Query) -> Result<RemoteSearch> {
        query.check()?;
        let on = metamess_telemetry::enabled();
        if on {
            remote_metrics().queries.inc();
        }
        let fleet = Fleet { set: self, trace_id: trace::current_trace_id().unwrap_or(0) };
        let gathered = scatter_gather(&fleet, query, true, None)?;
        let partial = !gathered.failed.is_empty();
        if on && partial {
            remote_metrics().partials.inc();
        }
        Ok(RemoteSearch {
            hits: gathered.hits,
            partial,
            failed: gathered.failed,
            generation: self.generation,
        })
    }

    /// One phase's request to one shard: the retry budget, the generation
    /// check (`split` takes the response apart into its generation and its
    /// answer), then the round-trip metric and the shard's circuit.
    fn call<R: DeserializeOwned, T>(
        &self,
        shard: usize,
        request: &Frame,
        expect: FrameKind,
        idempotent: bool,
        split: impl FnOnce(R) -> (u64, T),
    ) -> std::result::Result<T, ShardFailure> {
        let on = metamess_telemetry::enabled();
        let started = Instant::now();
        let answered = self.call_with_retries(shard, request, expect, idempotent);
        let rtt = started.elapsed().as_micros() as u64;
        if on && answered.is_ok() {
            remote_metrics().rtt_micros.record_with_exemplar(rtt, request.trace_id);
        }
        let outcome = answered.and_then(|response: R| {
            let (generation, answer) = split(response);
            if generation == self.generation {
                Ok(answer)
            } else {
                Err(ShardFailure::Generation(generation))
            }
        });
        match &outcome {
            Ok(_) => self.record_success(shard, rtt),
            Err(failure) => {
                if !matches!(failure, ShardFailure::CircuitOpen) {
                    self.record_failure(shard);
                }
                if on {
                    match failure {
                        ShardFailure::Transport(TransportError::Timeout) => {
                            remote_metrics().timeouts.inc()
                        }
                        ShardFailure::Transport(_) => remote_metrics().resets.inc(),
                        _ => {}
                    }
                }
            }
        }
        outcome
    }

    fn hard_error(&self, shard: usize, phase: &str, failure: &ShardFailure) -> Error {
        let ctx = format!("remote shard {shard} ({}) {phase}", self.addrs[shard]);
        match failure {
            ShardFailure::Transport(e) => transport_error(&ctx, "", e),
            ShardFailure::Remote(m) => Error::invalid(format!("{ctx} failed remotely: {m}")),
            ShardFailure::Generation(got) => Error::conflict(format!(
                "{ctx} moved to catalog generation {got} mid-query (fleet is at {})",
                self.generation
            )),
            ShardFailure::CircuitOpen => Error::io(
                ctx,
                std::io::Error::new(std::io::ErrorKind::ConnectionRefused, "circuit open"),
            ),
        }
    }

    /// One request to one shard with the retry budget: `1 + retries`
    /// attempts when `idempotent`, exactly one otherwise. An open
    /// circuit short-circuits before any dial until its cooldown
    /// elapses (then the attempt doubles as the half-open trial).
    fn call_with_retries<T: DeserializeOwned>(
        &self,
        shard: usize,
        request: &Frame,
        expect: FrameKind,
        idempotent: bool,
    ) -> std::result::Result<T, ShardFailure> {
        {
            let c = self.circuit(shard);
            if c.consecutive_failures >= self.opts.failure_threshold {
                let cooled = c.opened_at.map(|t| t.elapsed() >= self.opts.cooldown).unwrap_or(true);
                if !cooled {
                    return Err(ShardFailure::CircuitOpen);
                }
            }
        }
        let on = metamess_telemetry::enabled();
        let attempts = if idempotent { 1 + self.opts.retries } else { 1 };
        let mut last = ShardFailure::Transport(TransportError::Reset);
        for attempt in 0..attempts {
            if attempt > 0 {
                if on {
                    remote_metrics().retries.inc();
                }
                std::thread::sleep(self.backoff(shard, attempt));
            }
            if on {
                remote_metrics().dials.inc();
            }
            match exchange_checked(self.transport.as_ref(), self.slots[shard], request, expect) {
                Ok(v) => return Ok(v),
                // Only transient transport failures are worth re-dialing;
                // a remote-side error is deterministic.
                Err(f @ ShardFailure::Transport(_)) => last = f,
                Err(f) => return Err(f),
            }
        }
        Err(last)
    }

    /// Exponential backoff with deterministic full-ish jitter: half the
    /// step is fixed, half is mixed from `(seed, shard, attempt)` — no
    /// global RNG, reproducible under test.
    fn backoff(&self, shard: usize, attempt: u32) -> Duration {
        let step = self
            .opts
            .backoff_base
            .saturating_mul(1u32 << attempt.saturating_sub(1).min(16))
            .min(self.opts.backoff_cap);
        let half = step.as_micros() as u64 / 2;
        let mixed =
            splitmix64(self.opts.jitter_seed ^ (shard as u64).rotate_left(17) ^ u64::from(attempt));
        Duration::from_micros(half + if half == 0 { 0 } else { mixed % (half + 1) })
    }

    /// Shard `shard`'s circuit. A poisoned lock is taken over: the circuit
    /// is counters and timestamps, each valid whatever the others hold.
    fn circuit(&self, shard: usize) -> MutexGuard<'_, CircuitInner> {
        self.circuits[shard].lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn record_success(&self, shard: usize, rtt_us: u64) {
        let mut c = self.circuit(shard);
        c.consecutive_failures = 0;
        c.opened_at = None;
        c.last_rtt_us = Some(rtt_us);
        drop(c);
        self.refresh_open_gauge();
    }

    fn record_failure(&self, shard: usize) {
        let mut c = self.circuit(shard);
        c.consecutive_failures = c.consecutive_failures.saturating_add(1);
        if c.consecutive_failures >= self.opts.failure_threshold {
            // (Re-)arm the cooldown from the latest failure, so a dead
            // shard is probed at most once per cooldown window.
            c.opened_at = Some(Instant::now());
        }
        drop(c);
        self.refresh_open_gauge();
    }

    fn refresh_open_gauge(&self) {
        if !metamess_telemetry::enabled() {
            return;
        }
        let open = (0..self.circuits.len())
            .filter(|&k| self.circuit(k).consecutive_failures >= self.opts.failure_threshold)
            .count();
        remote_metrics().open_circuits.set(open as i64);
    }
}

/// One query's view of the fleet: the frame-RPC [`ShardBackend`].
struct Fleet<'a> {
    set: &'a RemoteShardSet,
    /// The coordinating thread's trace, stamped on every request frame.
    trace_id: u128,
}

impl ShardBackend for Fleet<'_> {
    type Failure = ShardFailure;
    type Error = Error;
    const SPANS: (&'static str, &'static str) = ("remote.probe", "remote.score");

    fn shard_count(&self) -> usize {
        self.set.hello.len()
    }

    fn shard_len(&self, shard: usize) -> usize {
        self.set.hello[shard].datasets as usize
    }

    fn probe(
        &self,
        shard: usize,
        query: &Query,
    ) -> std::result::Result<ProbeSummary, ShardFailure> {
        let request =
            Frame::new(FrameKind::Probe, self.trace_id, &ProbeRequest { query: query.clone() });
        self.set.call(shard, &request, FrameKind::ProbeOk, true, |r: ProbeResponse| {
            (r.generation, r.summary)
        })
    }

    fn score(
        &self,
        shard: usize,
        query: &Query,
        work: &ScoreWork,
    ) -> std::result::Result<(Vec<SearchHit>, usize), ShardFailure> {
        let request = Frame::new(
            FrameKind::Score,
            self.trace_id,
            &ScoreRequest { query: query.clone(), work: work.clone() },
        );
        self.set.call(shard, &request, FrameKind::ScoreOk, false, |r: ScoreResponse| {
            (r.generation, (r.hits, r.scored as usize))
        })
    }

    /// One scoped thread per shard: the calls wait on the network.
    fn scatter<T: Send>(&self, call: impl Fn(usize) -> T + Sync) -> Vec<T> {
        let n = self.shard_count();
        if n == 1 {
            return vec![call(0)];
        }
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n)
                .map(|k| {
                    let call = &call;
                    scope.spawn(move || call(k))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("scatter call never panics")).collect()
        })
    }

    /// Fail or degrade; a generation conflict is never degradable.
    fn tolerate(&self, shard: usize, phase: &'static str, failure: ShardFailure) -> Result<()> {
        if self.set.opts.partial_policy == PartialPolicy::Fail
            || matches!(failure, ShardFailure::Generation(_))
        {
            return Err(self.set.hard_error(shard, phase, &failure));
        }
        Ok(())
    }
}

/// What a fan-out search returned.
#[derive(Debug, Clone)]
pub struct RemoteSearch {
    /// The merged top-`limit` hits, best first.
    pub hits: Vec<SearchHit>,
    /// True when any shard was dropped under the degrade policy.
    pub partial: bool,
    /// Shard ids that failed to contribute.
    pub failed: Vec<u32>,
    /// The fleet's catalog generation.
    pub generation: u64,
}

fn state_of(consecutive_failures: u32, threshold: u32) -> CircuitState {
    if consecutive_failures == 0 {
        CircuitState::Healthy
    } else if consecutive_failures < threshold {
        CircuitState::Degraded
    } else {
        CircuitState::Open
    }
}

/// One exchange, expecting `expect` (or an `Error` frame): transport and
/// protocol failures map to [`ShardFailure`].
fn exchange_checked<T: DeserializeOwned>(
    transport: &dyn Transport,
    slot: usize,
    request: &Frame,
    expect: FrameKind,
) -> std::result::Result<T, ShardFailure> {
    let response = transport.exchange(slot, request).map_err(ShardFailure::Transport)?;
    if response.kind == FrameKind::Error {
        let e: WireError = response
            .parse_payload()
            .unwrap_or(WireError { message: "unparseable error frame".to_string() });
        return Err(ShardFailure::Remote(e.message));
    }
    if response.kind != expect {
        return Err(ShardFailure::Transport(TransportError::Protocol(format!(
            "expected {expect:?}, got {:?}",
            response.kind
        ))));
    }
    response
        .parse_payload()
        .map_err(|e| ShardFailure::Transport(TransportError::Protocol(e.to_string())))
}

fn transport_error(ctx: &str, phase: &str, e: &TransportError) -> Error {
    let ctx = if phase.is_empty() { ctx.to_string() } else { format!("{ctx} {phase}") };
    match e {
        TransportError::Timeout => {
            Error::io(ctx, std::io::Error::new(std::io::ErrorKind::TimedOut, "deadline exceeded"))
        }
        TransportError::Reset => Error::io(
            ctx,
            std::io::Error::new(std::io::ErrorKind::ConnectionReset, "connection reset"),
        ),
        TransportError::Protocol(m) => Error::parse("remote shard response", format!("{ctx}: {m}")),
    }
}

/// SplitMix64 — the workspace's standard cheap mixer.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partial_policy_parses_cli_spellings() {
        assert_eq!(PartialPolicy::parse("fail"), Some(PartialPolicy::Fail));
        assert_eq!(PartialPolicy::parse(" DEGRADE "), Some(PartialPolicy::Degrade));
        assert_eq!(PartialPolicy::parse("maybe"), None);
        for p in [PartialPolicy::Fail, PartialPolicy::Degrade] {
            assert_eq!(PartialPolicy::parse(p.as_str()), Some(p));
        }
    }

    #[test]
    fn circuit_state_thresholds() {
        assert_eq!(state_of(0, 3), CircuitState::Healthy);
        assert_eq!(state_of(1, 3), CircuitState::Degraded);
        assert_eq!(state_of(2, 3), CircuitState::Degraded);
        assert_eq!(state_of(3, 3), CircuitState::Open);
        assert_eq!(state_of(200, 3), CircuitState::Open);
    }

    #[test]
    fn backoff_is_bounded_and_deterministic() {
        let opts = RemoteOptions::default();
        let set_opts = |o: &RemoteOptions| o.clone();
        let _ = set_opts(&opts);
        // exercise the pure pieces without a transport
        for attempt in 1..6u32 {
            let step = opts
                .backoff_base
                .saturating_mul(1u32 << attempt.saturating_sub(1).min(16))
                .min(opts.backoff_cap);
            assert!(step <= opts.backoff_cap);
        }
        assert_eq!(splitmix64(42), splitmix64(42));
        assert_ne!(splitmix64(1), splitmix64(2));
    }
}
