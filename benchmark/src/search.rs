//! The three search workloads. All of them publish the same synthetic
//! catalog to a durable store, open a server over it and send `POST /search`
//! through the load generator; they differ in the query stream (`search-hot`)
//! and in who scores (`search-remote`).

use crate::client::{self, Keep, Kept, SegmentResult, Stream, KEEP_NONE};
use crate::reference::reference_search;
use crate::report::Report;
use crate::synth::{self, SynthCatalog, Terms};
use crate::util::{self, RegistryDelta};
use crate::{layers, Args};
use metamess_core::{DatasetId, DurableCatalog, StoreOptions};
use metamess_remote::{RemoteOptions, RemoteShardSet, ShardHost, Shardd};
use metamess_search::{Partitioner, Query, ShardSpec};
use metamess_server::{ServeState, ServeSummary, Server, ServerConfig, ShutdownHandle};
use metamess_vocab::Vocabulary;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Datasets in the synthetic catalog (README, "Sizes"). README, "Memory
/// guard": halve this for all three workloads together if `search-remote`
/// passes 4096 MiB.
pub const DATASETS: usize = 25_000;
/// Complete set-ups per untraced run, each from generating the inputs to the
/// end of the warm-up; `setup_s` is the median of their wall times. The driver
/// asks for several per run. The first serves the measured phase; the others
/// follow it, once `peak_rss_mb` has been read, so that memory left over from
/// one set-up cannot count towards the next.
pub const SET_UPS: usize = 3;
/// Shards of the serving engine and hosts of the remote fleet.
pub const SHARDS: usize = 2;
pub const WORKERS: usize = 2;
/// Distinct queries of `search-hot`; the result cache holds 64.
const HOT_QUERIES: usize = 32;
/// Stream positions whose responses go into `answers_digest`.
const DIGEST_REQUESTS: usize = 200;
/// Untraced runs check every this-many-th response against the oracle.
const CHECK_EVERY: usize = 50;
/// Wall time the oracle may take after the measured phase.
const CHECK_BUDGET: Duration = Duration::from_millis(1500);
/// Share of the measured phase spent in the closed segment.
const CLOSED_SHARE: f64 = 0.4;

/// Open-loop arrival rates, requests per second: a quarter of the closed-loop
/// `search_qps` measured when the benchmark was calibrated, two significant
/// figures (README, "Calibration"). Frozen: a faster program must not get a
/// heavier load. `wrangle-live` searches at a fixed 200/s beside its ingest.
pub fn open_rate(workload: &str) -> f64 {
    match workload {
        "search-cold" => 720.0,
        "search-hot" => 8200.0,
        "search-remote" => 290.0,
        _ => 200.0,
    }
}

/// A server under test and everything that has to outlive it.
pub struct Served {
    pub state: Arc<ServeState>,
    pub addr: SocketAddr,
    shutdown: ShutdownHandle,
    thread: JoinHandle<metamess_core::Result<ServeSummary>>,
}

impl Served {
    /// Binds a server over `state` and waits until `/healthz` answers 200.
    pub fn start(state: Arc<ServeState>) -> Served {
        let config =
            ServerConfig { workers: WORKERS, poll_interval: None, ..ServerConfig::default() };
        let server = Server::bind(state.clone(), config).expect("bind the server");
        let addr = server.local_addr().expect("server address");
        let shutdown = server.shutdown_handle();
        let thread = std::thread::spawn(move || server.run());
        let mut conn = client::Conn::connect(addr).expect("connect for the health probe");
        let mut body = Vec::new();
        let status = conn.round_trip(&client::get("/healthz"), &mut body).expect("healthz");
        assert_eq!(status, 200, "healthz: {}", String::from_utf8_lossy(&body));
        Served { state, addr, shutdown, thread }
    }

    pub fn stop(self) -> ServeSummary {
        self.shutdown.trigger();
        let summary = self.thread.join().expect("server thread").expect("server run");
        wait_until_sole_owner(&self.state);
        summary
    }
}

/// Waits until nobody else holds `shared`: a thread that is still winding
/// down would keep a whole engine alive into the next set-up and make
/// `peak_rss_mb` come out as one of two values.
fn wait_until_sole_owner<T>(shared: &Arc<T>) {
    let deadline = Instant::now() + Duration::from_secs(2);
    while Arc::strong_count(shared) > 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
}

pub struct Remote {
    pub set: Arc<RemoteShardSet>,
    pub hosts: Vec<Arc<ShardHost>>,
    daemons: Vec<Shardd>,
}

/// One complete set-up: the inputs, a published store, a server over it that
/// has answered the warm-up traffic.
pub struct Setup {
    pub synth: SynthCatalog,
    pub vocab: Vocabulary,
    pub opened: Opened,
    pub requests: Requests,
    /// Wall time of all of the above.
    pub setup_s: f64,
}

pub fn shard_spec() -> ShardSpec {
    ShardSpec::new(SHARDS, Partitioner::Hash)
}

/// Cold publish: every dataset through the WAL, then a snapshot, each fsynced.
pub fn publish(store_dir: &Path, catalog: &metamess_core::Catalog) -> f64 {
    let t = Instant::now();
    let mut store = DurableCatalog::open(store_dir.join("catalog"), StoreOptions::default())
        .expect("open the store");
    store.replace_with(catalog).expect("write the catalog to the WAL");
    store.checkpoint().expect("checkpoint");
    drop(store);
    t.elapsed().as_secs_f64()
}

impl Remote {
    fn stop(self) {
        drop(self.set);
        for d in self.daemons {
            d.shutdown();
        }
        for host in &self.hosts {
            wait_until_sole_owner(host);
        }
    }
}

/// Restart-to-ready over a published store: recover it, build the index
/// (and on `search-remote` the shard hosts and their connections), bind the
/// server, get a 200 from `/healthz`.
fn open(
    args: &Args,
    store_dir: &Path,
    synth: &SynthCatalog,
    vocab: &Vocabulary,
) -> (Served, Option<Remote>, f64, f64) {
    let t = Instant::now();
    let mut state = ServeState::open_sharded(store_dir, shard_spec()).expect("open the store");
    let server_open_ms = t.elapsed().as_secs_f64() * 1e3;
    let mut host_build_ms = 0.0;
    let remote = (args.workload == "search-remote").then(|| {
        let t = Instant::now();
        let hosts: Vec<Arc<ShardHost>> = (0..SHARDS)
            .map(|k| {
                let host = ShardHost::build(&synth.catalog, vocab.clone(), shard_spec(), k);
                Arc::new(host.expect("build a shard host"))
            })
            .collect();
        host_build_ms = t.elapsed().as_secs_f64() * 1e3;
        let daemons: Vec<Shardd> = hosts
            .iter()
            .map(|h| Shardd::spawn(h.clone(), "127.0.0.1:0").expect("spawn a shard daemon"))
            .collect();
        let addrs: Vec<String> = daemons.iter().map(|d| d.local_addr().to_string()).collect();
        let set = RemoteShardSet::connect(&addrs, RemoteOptions::default())
            .expect("connect to the shard daemons");
        let set = Arc::new(set);
        state.set_remote(set.clone());
        Remote { set, hosts, daemons }
    });
    (Served::start(Arc::new(state)), remote, server_open_ms, host_build_ms)
}

/// One publish and one open from scratch, into a store directory of its own.
pub struct Opened {
    pub served: Served,
    pub remote: Option<Remote>,
    pub store_dir: std::path::PathBuf,
    pub publish_s: f64,
    /// Bytes of the store directory after the publish.
    pub store_bytes: u64,
    pub open_s: f64,
    /// The `ServeState::open_sharded` part of `open_s`.
    pub server_open_ms: f64,
    pub host_build_ms: f64,
}

impl Opened {
    fn new(args: &Args, nth: usize, synth: &SynthCatalog, vocab: &Vocabulary) -> Opened {
        let store_dir = args.work_dir.join(format!("store-{nth}"));
        let publish_s = publish(&store_dir, &synth.catalog);
        let store_bytes = util::dir_bytes(&store_dir);
        let t = Instant::now();
        let (served, remote, server_open_ms, host_build_ms) = open(args, &store_dir, synth, vocab);
        let open_s = t.elapsed().as_secs_f64();
        Opened {
            served,
            remote,
            store_dir,
            publish_s,
            store_bytes,
            open_s,
            server_open_ms,
            host_build_ms,
        }
    }

    /// Stops the server and the shard daemons and removes the store.
    fn stop(self) -> ServeSummary {
        let summary = self.served.stop();
        if let Some(remote) = self.remote {
            remote.stop();
        }
        let _ = std::fs::remove_dir_all(&self.store_dir);
        summary
    }
}

/// Set-up number `nth` of the run, timed from `since`: process start for
/// the first, so that everything before the first measured request counts.
fn set_up(args: &Args, nth: usize, since: Instant) -> Setup {
    let vocab = Vocabulary::observatory_default();
    let synth = synth::catalog(args.seed, DATASETS, &vocab);
    let opened = Opened::new(args, nth, &synth, &vocab);
    let requests = requests(args, &synth);
    warm_up(opened.served.addr, &requests, args.workload == "search-hot");
    Setup { synth, vocab, opened, requests, setup_s: since.elapsed().as_secs_f64() }
}

/// The requests of a run: the distinct bodies and the order they go out in.
pub struct Requests {
    pub queries: Vec<Query>,
    pub bodies: Vec<Vec<u8>>,
    pub wire: Vec<Vec<u8>>,
    pub order: Vec<u32>,
    /// Stream position where the open segment starts, so that its requests
    /// do not depend on how far the closed segment got.
    pub open_from: usize,
    /// Stream position where a traced run's replay starts.
    pub replay_from: usize,
}

fn zipf_order(seed: u64, items: usize, len: usize) -> Vec<u32> {
    let weights: Vec<f64> = (1..=items).map(|rank| 1.0 / rank as f64).collect();
    let total: f64 = weights.iter().sum();
    let mut cumulative = Vec::with_capacity(items);
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total;
        cumulative.push(acc);
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7a69_7066);
    (0..len)
        .map(|_| {
            let u: f64 = rng.random();
            cumulative.partition_point(|&c| c < u).min(items - 1) as u32
        })
        .collect()
}

fn requests(args: &Args, synth: &SynthCatalog) -> Requests {
    let hot = args.workload == "search-hot";
    // Long enough that no segment runs out: a segment that did would stop
    // early and its missing requests would count as failures.
    let (distinct, len) = if hot { (HOT_QUERIES, 900_000) } else { (60_000, 60_000) };
    let terms = if hot { Terms::Vocabulary } else { Terms::Rare };
    let queries = synth::query_stream(args.seed, &synth.anchors, terms, distinct);
    let bodies: Vec<Vec<u8>> =
        queries.iter().map(|q| serde_json::to_vec(q).expect("a query serializes")).collect();
    let wire = bodies.iter().map(|b| client::post("/search", b)).collect();
    let order = if hot { zipf_order(args.seed, distinct, len) } else { (0..len as u32).collect() };
    Requests { queries, bodies, wire, order, open_from: len / 3, replay_from: len / 3 * 2 }
}

/// `(id, score)` of each hit in a `/search` response body, and whether the
/// response was marked partial.
pub fn parse_hits(body: &[u8]) -> Result<(Vec<(DatasetId, f64)>, bool), String> {
    let v: serde_json::Value = serde_json::from_slice(body).map_err(|e| e.to_string())?;
    let hits = v.get("hits").and_then(|h| h.as_array()).ok_or("no hits array")?;
    let partial = v.get("partial").and_then(|p| p.as_bool()).unwrap_or(false);
    let mut out = Vec::with_capacity(hits.len());
    for h in hits {
        let id = h.get("id").and_then(|x| x.as_u64()).ok_or("hit without id")?;
        let score = h.get("score").and_then(|x| x.as_f64()).ok_or("hit without score")?;
        out.push((DatasetId(id), score));
    }
    if v.get("count").and_then(|c| c.as_u64()) != Some(out.len() as u64) {
        return Err("count disagrees with hits".into());
    }
    Ok((out, partial))
}

/// Checks kept responses against the oracle until the budget runs out, and
/// folds the first `DIGEST_REQUESTS` stream positions into the digest.
/// Returns `(digest, checked)`; mismatches are counted as failed operations.
fn check(setup: &Setup, mut kept: Vec<Kept>, report: &mut Report) -> (u64, usize) {
    let reqs = &setup.requests;
    kept.sort_by_key(|k| k.at);
    kept.dedup_by_key(|k| k.at);
    let started = Instant::now();
    let mut oracle: HashMap<u32, Vec<(DatasetId, f64)>> = HashMap::new();
    let mut digest = util::FNV_OFFSET;
    let mut checked = 0;
    // Spread the oracle's time over the whole run, not just its start.
    let stride = (kept.len() / 64).max(1);
    for (n, k) in kept.iter().enumerate() {
        let which = reqs.order[k.at];
        let (hits, partial) = match parse_hits(&k.body) {
            Ok(parsed) => parsed,
            Err(why) => {
                report.failed += 1;
                report.note(format!("request {}: unreadable response: {why}", k.at));
                continue;
            }
        };
        if k.at < DIGEST_REQUESTS {
            digest = util::fnv(digest, &(k.at as u64).to_le_bytes());
            for (id, score) in &hits {
                digest = util::fnv(digest, &id.0.to_le_bytes());
                digest = util::fnv(digest, &score.to_bits().to_le_bytes());
            }
        }
        let limit = reqs.queries[which as usize].limit;
        if partial || hits.len() > limit || hits.windows(2).any(|w| w[0].1 < w[1].1) {
            report.failed += 1;
            report.note(format!("request {}: partial, too long or unsorted: {hits:?}", k.at));
            continue;
        }
        let known = oracle.contains_key(&which);
        if !known && (n % stride != 0 || started.elapsed() > CHECK_BUDGET) {
            continue;
        }
        let expected = oracle.entry(which).or_insert_with(|| {
            reference_search(&setup.synth.catalog, &setup.vocab, &reqs.queries[which as usize])
        });
        checked += 1;
        if !same_answer(expected, &hits) {
            report.failed += 1;
            report.note(format!(
                "request {}: wrong answer: expected {expected:?}, got {hits:?}",
                k.at
            ));
        }
    }
    (digest, checked)
}

/// Same datasets in the same order with bit-equal scores.
pub fn same_answer(expected: &[(DatasetId, f64)], hits: &[(DatasetId, f64)]) -> bool {
    expected.len() == hits.len()
        && expected.iter().zip(hits).all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits())
}

pub fn note_failures(report: &mut Report, what: &str, segment: &SegmentResult) {
    report.attempted += segment.attempted;
    report.failed += segment.failed;
    for e in &segment.errors {
        report.note(format!("{what}: {e}"));
    }
}

/// `search_p50_ms` and `search_p95_ms` of an open segment.
pub fn report_latency(report: &mut Report, open: &SegmentResult) {
    report.set("search_p50_ms", util::windowed_quantile(&open.answered_s, &open.latencies_ms, 0.5));
    report.set("search_p95_ms", util::quantile(&util::sorted(open.latencies_ms.clone()), 0.95));
}

/// The measured load: a closed segment, then an open segment at the
/// workload's frozen rate. Returns both results.
pub fn load(
    addr: SocketAddr,
    stream: &Stream<'_>,
    open_from: usize,
    seed: u64,
    rate: f64,
    seconds: f64,
    keep: Keep<'_>,
) -> (SegmentResult, SegmentResult) {
    let closed_for = Duration::from_secs_f64(seconds * CLOSED_SHARE);
    let open_for = Duration::from_secs_f64(seconds * (1.0 - CLOSED_SHARE));
    let closed_part = Stream { requests: stream.requests, order: &stream.order[..open_from] };
    let closed = client::closed_loop(addr, &closed_part, 0, closed_for, keep);
    let due = client::arrivals(seed, rate, open_for);
    let open = client::open_loop(addr, stream, open_from, &due, open_for, keep);
    (closed, open)
}

/// Unmeasured traffic before the measured phase. `search-hot` sends every
/// distinct query, so that the measured phase only hits; the others page in
/// the index, grow the buffers and start the threads with requests from the
/// far end of the stream.
fn warm_up(addr: SocketAddr, reqs: &Requests, hot: bool) {
    let every: Vec<u32> = (0..reqs.wire.len() as u32).collect();
    let (order, from, length) = if hot {
        (&every, 0, Duration::from_secs(60))
    } else {
        (&reqs.order, reqs.order.len() - 400, Duration::from_millis(400))
    };
    let stream = Stream { requests: &reqs.wire, order };
    let done = client::closed_loop(addr, &stream, from, length, KEEP_NONE);
    assert_eq!(done.failed, 0, "warm-up failed: {:?}", done.errors);
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::new(&args.workload);
    let before = metamess_telemetry::global().snapshot();
    let setup = set_up(args, 0, args.started);
    let warm = RegistryDelta::since(before);
    let measured_from = metamess_telemetry::global().snapshot();

    let reqs = &setup.requests;
    let stream = Stream { requests: &reqs.wire, order: &reqs.order };
    let rate = open_rate(&args.workload);
    let addr = setup.opened.served.addr;
    // A traced run spends half its time under the standard load shape (the
    // client.* numbers and the server's counters) and half replaying
    // requests layer by layer.
    let (load_s, sampled): (f64, Keep<'_>) = if args.trace {
        (args.seconds * 0.5, KEEP_NONE)
    } else {
        (args.seconds, &|i| i < DIGEST_REQUESTS || i.is_multiple_of(CHECK_EVERY))
    };
    let (closed, open) = load(addr, &stream, reqs.open_from, args.seed, rate, load_s, sampled);
    note_failures(&mut report, "closed", &closed);
    note_failures(&mut report, "open", &open);
    let shed = RegistryDelta::since(measured_from).counter("metamess_server_shed_total");
    report.set("search_qps", util::windowed_rate(&closed.answered_s));
    report_latency(&mut report, &open);
    report.note(format!(
        "closed: {} requests in {:.3} s; open: {} requests at {rate}/s, backlog_max {}, shed {shed}",
        closed.latencies_ms.len(),
        closed.elapsed_s,
        open.latencies_ms.len(),
        open.backlog_max
    ));
    report.set("store_bytes_per_dataset", setup.opened.store_bytes as f64 / DATASETS as f64);
    let mut publish_s = vec![setup.opened.publish_s];
    let mut open_s = vec![setup.opened.open_s];
    let mut setup_s = vec![setup.setup_s];

    if args.trace {
        layers::client_metrics(&mut report, &closed, &open);
        report.set(
            "server.shed_share",
            util::share(shed, (closed.attempted + open.attempted) as f64),
        );
        let replay_for = Duration::from_secs_f64(args.seconds * 0.5);
        let kept = layers::replay_search(args, &setup, replay_for, &mut report);
        let (_, checked) = check(&setup, kept, &mut report);
        report.note(format!("checked {checked} replayed responses against the oracle"));
        layers::setup_layers(&setup, &warm, &mut report);
    } else {
        let mut kept = closed.kept;
        kept.extend(open.kept);
        let sampled = kept.len();
        let (digest, checked) = check(&setup, kept, &mut report);
        report.note(format!("answers_digest {digest:016x}"));
        report.note(format!("checked {checked} of {sampled} sampled responses against the oracle"));
        report.set("peak_rss_mb", util::peak_rss_mib());
    }

    let summary = setup.opened.stop();
    if summary.dropped > 0 {
        report.failed += summary.dropped;
        report.note(format!("server dropped {} connections at shutdown", summary.dropped));
    }
    if !args.trace {
        for nth in 1..SET_UPS {
            let again = set_up(args, nth, Instant::now());
            publish_s.push(again.opened.publish_s);
            open_s.push(again.opened.open_s);
            setup_s.push(again.setup_s);
            again.opened.stop();
        }
        report.note(format!("set-ups took {setup_s:.3?} s"));
        report.set("setup_s", util::median(setup_s));
    }
    // Every search workload publishes and opens the same way; the numbers
    // are reported where the issue lists them.
    if args.workload == "search-cold" {
        report.set("publish_s", util::median(publish_s));
    }
    if args.workload != "search-hot" {
        report.set("open_s", util::median(open_s));
    }
    report
}
