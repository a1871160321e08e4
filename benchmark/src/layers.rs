//! The traced run's per-layer measurements. Every number here is timed from
//! the benchmark around a public call into one crate (plus the re-compiled
//! HTTP parser, see `main.rs`), or read from a counter the program keeps at
//! that boundary.

use crate::client::{Conn, Kept, SegmentResult};
use crate::report::Report;
use crate::search::{self, Remote, Setup};
use crate::trace::Tracer;
use crate::util::{self, RegistryDelta};
use crate::{server_http, Args};
use metamess_core::{Catalog, DurableCatalog, StoreOptions};
use metamess_remote::frame::{self, Frame, FrameKind};
use metamess_remote::wire::{ProbeRequest, ProbeResponse, ScoreRequest, ScoreResponse};
use metamess_search::fanout::{self, ProbeSummary, ScoreWork};
use metamess_search::{Query, SearchEngine, SearchHit};
use metamess_server::{Request, Response};
use serde::Serialize;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Datasets in the slice the set-up layers are timed on. A traced run cannot
/// afford to recover, clone and index the whole catalog a second time, so
/// these numbers are tenth-scale; each moves with its full-scale cost.
const SLICE: usize = 10_000;
/// How far ahead in the stream the replayed request lies of the one sent.
const REPLAY_AHEAD: usize = 10_000;

pub fn client_metrics(report: &mut Report, closed: &SegmentResult, open: &SegmentResult) {
    let open_ms = util::sorted(open.latencies_ms.clone());
    if !open_ms.is_empty() {
        report.set("client.p99_ms", util::quantile(&open_ms, 0.99));
        report.set("client.max_ms", open_ms[open_ms.len() - 1]);
    }
    let late = util::sorted(open.late_send_us.clone());
    if !late.is_empty() {
        report.set("client.late_send_p99_us", util::quantile(&late, 0.99));
    }
    report.set("client.backlog_max", open.backlog_max as f64);
    let answered = (closed.latencies_ms.len() + open.latencies_ms.len()) as f64;
    report.set(
        "client.bytes_per_response",
        util::share((closed.response_bytes + open.response_bytes) as f64, answered),
    );
}

/// The body `POST /search` answers with; the server's own struct is private.
#[derive(Serialize)]
struct SearchBody<'a> {
    generation: u64,
    count: usize,
    hits: &'a [SearchHit],
}

/// The spans that make up a request's handling; a round trip is these plus
/// transport. `remote.search` stands in for the `search.*` ones on
/// `search-remote`.
const ROUND_TRIP_LAYERS: [&str; 10] = [
    "server.parse",
    "json.decode_query",
    "search.cache_lookup",
    "search.plan",
    "search.probe",
    "search.score",
    "search.merge",
    "remote.search",
    "json.encode_hits",
    "server.serialize",
];

/// Replayed queries whose counts go into the per-query metrics. A fixed
/// number, so that the counts repeat exactly for a seed however many
/// requests a run gets through.
const COUNTED_QUERIES: u64 = 200;

#[derive(Default)]
struct Counts {
    /// Queries that went through plan/probe/score/merge.
    searched: u64,
    /// Candidates scored, over all of them.
    candidates: u64,
    /// Over the first `COUNTED_QUERIES` only.
    counted: u64,
    counted_candidates: u64,
    counted_results: u64,
    counted_full_scans: u64,
    lookups: u64,
    lookup_hits: u64,
    frame_bytes: u64,
    /// Nanoseconds of codec and host work on the longest path of a remote
    /// query: the hosts of a phase work side by side, the phases in turn.
    remote_path_ns: u64,
}

/// The local search path, one crate boundary per span, as
/// `fanout`'s own tests compose it. `None` on a result-cache hit.
fn replay_local(
    t: &mut Tracer,
    engine: &SearchEngine,
    query: &Query,
    counts: &mut Counts,
) -> Arc<[SearchHit]> {
    let key = format!("true|{}", serde_json::to_string(query).expect("a query serializes"));
    let cached = t.span("search.cache_lookup", |_| engine.cache().get(&key, engine.generation()));
    counts.lookups += 1;
    if let Some(hits) = cached {
        counts.lookup_hits += 1;
        return hits;
    }
    let vocab = engine.vocabulary();
    let plan = t.span("search.plan", |_| engine.plan(query));
    let generous = fanout::generous(query.limit);
    let summaries: Vec<ProbeSummary> = t.span("search.probe", |_| {
        engine.shards().iter().map(|s| fanout::probe_summary(s, query, &plan, generous)).collect()
    });
    let (full_scan, works) = t.span("search.merge", |_| fanout::plan_scatter(query, &summaries));
    let candidates: u64 = engine
        .shards()
        .iter()
        .zip(&works)
        .map(|(shard, work)| match work {
            ScoreWork::Skip => 0,
            ScoreWork::Full => shard.len() as u64,
            ScoreWork::List(ixs) => ixs.len() as u64,
        })
        .sum();
    let per_shard: Vec<Vec<SearchHit>> = t.span("search.score", |_| {
        engine
            .shards()
            .iter()
            .zip(&works)
            .map(|(s, w)| fanout::score_top(s, query, &plan, vocab, w))
            .collect()
    });
    let hits = t.span("search.merge", |_| fanout::merge_hits(per_shard, query.limit));
    counts.searched += 1;
    counts.candidates += candidates;
    if counts.counted < COUNTED_QUERIES {
        counts.counted += 1;
        counts.counted_candidates += candidates;
        counts.counted_results += hits.len() as u64;
        counts.counted_full_scans += u64::from(full_scan);
    }
    hits.into()
}

/// One request/response pair through the frame codec and a shard host,
/// without the socket: what the remote layer adds besides the wire.
fn through_host<Q: Serialize, R: serde::de::DeserializeOwned>(
    t: &mut Tracer,
    host: &metamess_remote::ShardHost,
    kind: FrameKind,
    payload: &Q,
    counts: &mut Counts,
    slowest_ns: &mut u64,
) -> R {
    let started = Instant::now();
    let sent = t.span("remote.frame_encode", |_| Frame::new(kind, 0, payload).encode());
    let request =
        t.span("remote.frame_decode", |_| frame::decode(&sent)).expect("own frame decodes");
    let response = t.span("remote.host_handle", |_| host.handle_frame(&request));
    let returned = t.span("remote.frame_encode", |_| response.encode());
    counts.frame_bytes += (sent.len() + returned.len()) as u64;
    let answer = t
        .span("remote.frame_decode", |_| {
            frame::decode(&returned).and_then(|f| f.parse_payload::<R>())
        })
        .expect("host answers with the expected frame");
    *slowest_ns = (*slowest_ns).max(started.elapsed().as_nanos() as u64);
    answer
}

/// The remote search path: the coordinator's call over loopback, then the
/// same frames handed to the hosts directly.
fn replay_remote(
    t: &mut Tracer,
    remote: &Remote,
    query: &Query,
    counts: &mut Counts,
    report: &mut Report,
) -> Arc<[SearchHit]> {
    let found = t.span("remote.search", |_| remote.set.search(query));
    let hits: Arc<[SearchHit]> = match found {
        Ok(out) => out.hits.into(),
        Err(e) => {
            report.failed += 1;
            report.note(format!("remote search: {e}"));
            Vec::new().into()
        }
    };
    t.span("remote.direct", |t| {
        let (mut probe_ns, mut score_ns) = (0, 0);
        let summaries: Vec<ProbeSummary> = remote
            .hosts
            .iter()
            .map(|h| {
                let request = ProbeRequest { query: query.clone() };
                let kind = FrameKind::Probe;
                through_host::<_, ProbeResponse>(t, h, kind, &request, counts, &mut probe_ns)
                    .summary
            })
            .collect();
        let (_, works) = fanout::plan_scatter(query, &summaries);
        for (h, work) in remote.hosts.iter().zip(works) {
            if work != ScoreWork::Skip {
                let request = ScoreRequest { query: query.clone(), work };
                let kind = FrameKind::Score;
                through_host::<_, ScoreResponse>(t, h, kind, &request, counts, &mut score_ns);
            }
        }
        counts.remote_path_ns += probe_ns + score_ns;
    });
    counts.searched += 1;
    hits
}

/// Replays the stream one request at a time on one connection for `length`:
/// first the layers one by one, then the request itself, alternately over
/// HTTP and by calling the handler. Returns the HTTP responses for checking.
pub fn replay_search(
    args: &Args,
    setup: &Setup,
    length: Duration,
    report: &mut Report,
) -> Vec<Kept> {
    let reqs = &setup.requests;
    let state = &setup.opened.served.state;
    let limits = server_http::Limits::default();
    let before = metamess_telemetry::global().snapshot();
    let mut conn = Conn::connect(setup.opened.served.addr).expect("connect for the replay");
    let mut t = Tracer::new();
    let mut counts = Counts::default();
    let mut kept = Vec::new();
    let mut response = Vec::new();
    let mut serialized = Vec::new();
    let started = Instant::now();
    let mut at = reqs.replay_from;
    while started.elapsed() < length && at < reqs.order.len() {
        // The layers replay another request of the stream than the one that
        // is sent: replaying the same one would leave its datasets in the CPU
        // cache and the result in the result cache for the request proper.
        let which = reqs.order[at] as usize;
        let replayed = reqs.order[(at + REPLAY_AHEAD).min(reqs.order.len() - 1)] as usize;
        let wire = &reqs.wire[which];
        let body = &reqs.bodies[replayed];
        let request = Request {
            method: "POST".into(),
            path: "/search".into(),
            headers: vec![
                ("host".into(), "bench".into()),
                ("content-type".into(), "application/json".into()),
                ("content-length".into(), reqs.bodies[which].len().to_string()),
            ],
            body: reqs.bodies[which].clone(),
            ..Request::default()
        };
        t.span("request", |t| {
            let parsed =
                t.span("server.parse", |_| server_http::try_parse(&reqs.wire[replayed], &limits));
            assert!(matches!(parsed, server_http::Parse::Complete { .. }), "own request parses");
            let query: Query = t.span("json.decode_query", |_| {
                let value: serde_json::Value = serde_json::from_slice(body).expect("own body");
                serde_json::from_value(value).expect("own query")
            });
            t.span("vocab.expand", |_| {
                for term in &query.variables {
                    std::hint::black_box(setup.vocab.expand_keys(&term.name));
                }
            });
            let epoch = state.epoch();
            let hits = match &setup.opened.remote {
                Some(remote) => replay_remote(t, remote, &query, &mut counts, report),
                None => replay_local(t, &epoch.engine, &query, &mut counts),
            };
            let json = t.span("json.encode_hits", |_| {
                let body =
                    SearchBody { generation: epoch.generation, count: hits.len(), hits: &hits };
                serde_json::to_string(&body).expect("hits serialize")
            });
            t.span("server.serialize", |_| {
                serialized.clear();
                Response::json(200, json).serialize_into(&mut serialized, true);
            });
            report.attempted += 1;
            if at % 2 == 1 {
                match t.span("client.http", |_| conn.round_trip(wire, &mut response)) {
                    Ok(200) => kept.push(Kept { at, body: response.clone() }),
                    other => {
                        report.failed += 1;
                        report.note(format!("replayed request {at}: {other:?}"));
                    }
                }
            } else {
                let (_, answer) =
                    t.span("server.handle", |_| metamess_server::handle(state, &request));
                if answer.status != 200 {
                    report.failed += 1;
                    report.note(format!("handled request {at}: status {}", answer.status));
                }
            }
        });
        t.end_request();
        at += 1;
    }

    let requests = t.requests().max(1) as f64;
    let per_request_us = |name: &str| t.self_ns_sum(name) / requests / 1e3;
    let rtt_us = t.mean_total_us("client.http");
    let handle_us = t.mean_total_us("server.handle");
    let transport_us = (rtt_us - handle_us).max(0.0);
    let searched = counts.searched.max(1) as f64;
    let per_search_us = |name: &str| t.self_ns_sum(name) / searched / 1e3;
    report.set("server.parse_us", per_request_us("server.parse"));
    report.set("server.handle_us", handle_us);
    report.set("server.serialize_us", per_request_us("server.serialize"));
    report.set("server.transport_us", transport_us);
    report.set("json.decode_query_us", per_request_us("json.decode_query"));
    report.set("json.encode_hits_us", per_request_us("json.encode_hits"));
    report.set("vocab.expand_us", per_request_us("vocab.expand"));
    if setup.opened.remote.is_none() {
        report.set("search.cache_lookup_us", t.self_us("search.cache_lookup"));
        // The plan span runs the vocabulary expansion inside it; report the rest.
        let plan_us = per_search_us("search.plan") - per_request_us("vocab.expand");
        report.set("search.plan_us", plan_us.max(0.0));
        report.set("search.probe_us", per_search_us("search.probe"));
        report.set("search.score_us", per_search_us("search.score"));
        report.set("search.merge_us", per_search_us("search.merge"));
        report.set(
            "search.score_ns_per_candidate",
            util::share(t.self_ns_sum("search.score"), counts.candidates as f64),
        );
        let counted = counts.counted.max(1) as f64;
        report.set("search.candidates_per_query", counts.counted_candidates as f64 / counted);
        report.set(
            "search.scored_per_result",
            util::share(counts.counted_candidates as f64, counts.counted_results as f64),
        );
        report.set("search.full_scan_share", counts.counted_full_scans as f64 / counted);
        report.set(
            "search.cache_hit_share",
            util::share(counts.lookup_hits as f64, counts.lookups as f64),
        );
    }
    let delta = RegistryDelta::since(before);
    if setup.opened.remote.is_some() {
        report.set("remote.search_us", per_request_us("remote.search"));
        report.set("remote.host_handle_us", per_request_us("remote.host_handle"));
        report.set("remote.frame_encode_us", per_request_us("remote.frame_encode"));
        report.set("remote.frame_decode_us", per_request_us("remote.frame_decode"));
        // Host and codec times above are summed over both hosts; what the
        // coordinator waits for is the slower host of each phase.
        let path_us = counts.remote_path_ns as f64 / searched / 1e3;
        report.set("remote.wire_us", (per_request_us("remote.search") - path_us).max(0.0));
        report.set("remote.bytes_per_query", counts.frame_bytes as f64 / searched);
        let queries = delta.counter("metamess_remote_queries_total");
        report.set(
            "remote.round_trips_per_query",
            util::share(delta.counter("metamess_remote_shardd_requests_total"), queries),
        );
        report.set("remote.retries", delta.counter("metamess_remote_retries_total"));
        report.set(
            "remote.partial_share",
            util::share(delta.counter("metamess_remote_partial_total"), queries),
        );
    }

    // What of a round trip the layers account for. The handler's work is
    // the replayed layers; the rest of the round trip is transport.
    let attributed: f64 = ROUND_TRIP_LAYERS.iter().map(|name| per_request_us(name)).sum();
    let search_us: f64 = ROUND_TRIP_LAYERS
        .iter()
        .filter(|name| name.starts_with("search."))
        .map(|name| per_request_us(name))
        .sum();
    assert!(rtt_us > 0.0, "no request was replayed over HTTP");
    report.set("bench.unattributed_share", 1.0 - (attributed + transport_us) / rtt_us);
    if setup.opened.remote.is_none() {
        report.set("search.self_share", search_us / rtt_us);
    }
    // A span costs two clock reads and a push; a replayed request has about
    // a dozen of them.
    let spans_per_request = t.spans() as f64 / requests;
    report.set("bench.trace_overhead_share", span_cost_ns() * spans_per_request / (rtt_us * 1e3));
    report.note(format!(
        "replayed {} requests: round trip {rtt_us:.1} us, handler {handle_us:.1} us, layers {attributed:.1} us",
        t.requests()
    ));
    write_trace(&t, args, report);
    kept
}

/// Writes the kept spans to `trace-<workload>.json` beside the run's work
/// directory and says where.
pub fn write_trace(tracer: &Tracer, args: &Args, report: &mut Report) {
    let path = args.work_dir.with_file_name(format!("trace-{}.json", args.workload));
    match tracer.write(&path) {
        Ok(()) => report.note(format!("first spans: {}", path.display())),
        Err(e) => report.note(format!("could not write {}: {e}", path.display())),
    }
}

/// Cost of one of the benchmark's own spans, in nanoseconds.
fn span_cost_ns() -> f64 {
    const N: u32 = 20_000;
    let mut t = Tracer::new();
    let started = Instant::now();
    for _ in 0..N {
        t.span("probe", |_| std::hint::black_box(()));
        t.end_request();
    }
    started.elapsed().as_nanos() as f64 / f64::from(N)
}

/// Cost of the program's own instruments: one telemetry span, one counter
/// increment.
pub fn telemetry_costs(report: &mut Report) {
    const N: u32 = 100_000;
    let started = Instant::now();
    for _ in 0..N {
        let _span = metamess_telemetry::Span::enter("bench.probe");
    }
    report.set("telemetry.span_ns", started.elapsed().as_nanos() as f64 / f64::from(N));
    let counter = metamess_telemetry::global().counter("metamess_bench_probe_total");
    let started = Instant::now();
    for _ in 0..N {
        counter.inc();
    }
    report.set("telemetry.counter_ns", started.elapsed().as_nanos() as f64 / f64::from(N));
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// The first `SLICE` datasets of `catalog`, as a catalog.
fn slice_of(catalog: &Catalog) -> Catalog {
    let mut slice = Catalog::new();
    for d in catalog.iter().take(SLICE) {
        slice.put(d.clone());
    }
    slice
}

/// Times the pieces of publish and open on a slice of the catalog.
pub fn store_layers(
    catalog: &Catalog,
    vocab: &metamess_vocab::Vocabulary,
    dir: &std::path::Path,
    report: &mut Report,
) {
    let slice = slice_of(catalog);
    let t = Instant::now();
    let encoded = serde_json::to_vec(&slice).expect("a catalog serializes");
    report.set("json.snapshot_encode_mb_s", encoded.len() as f64 / 1e6 / t.elapsed().as_secs_f64());
    let t = Instant::now();
    let decoded: Catalog = serde_json::from_slice(&encoded).expect("own snapshot decodes");
    report.set("json.snapshot_decode_mb_s", encoded.len() as f64 / 1e6 / t.elapsed().as_secs_f64());
    assert_eq!(decoded.len(), slice.len());

    search::publish(dir, &slice);
    let t = Instant::now();
    let store = DurableCatalog::open(dir.join("catalog"), StoreOptions::default())
        .expect("reopen the slice");
    report.set("core.store.open_ms", ms(t));
    assert_eq!(store.catalog().len(), slice.len());
    drop(store);

    let t = Instant::now();
    let mut edited = slice.clone();
    report.set("core.catalog.clone_ms", ms(t));
    let touched: Vec<_> = edited.iter().take(8).map(|d| d.id).collect();
    for id in touched {
        edited.get_mut(id).expect("dataset of the slice").record_count += 1;
    }
    let t = Instant::now();
    let diff = slice.diff(&edited);
    report.set("core.catalog.diff_ms", ms(t));
    assert_eq!(diff.len(), 8);

    let t = Instant::now();
    let engine = SearchEngine::build_sharded(&slice, vocab.clone(), search::shard_spec());
    report.set("search.build_ms", ms(t));
    assert_eq!(engine.len(), slice.len());
}

/// The set-up layers of a search workload: full-scale numbers the program
/// counted while the run set up, slice-scale timings for the rest.
pub fn setup_layers(setup: &Setup, warm: &RegistryDelta, report: &mut Report) {
    let snapshot = setup.opened.store_dir.join("catalog").join("snapshot.bin");
    let snapshot_bytes = std::fs::metadata(snapshot).map_or(0, |m| m.len());
    report.set("server.open_ms", setup.opened.server_open_ms);
    if setup.opened.remote.is_some() {
        report.set("remote.host_build_ms", setup.opened.host_build_ms);
    }
    report.set("core.store.snapshot_write_ms", warm.mean_ms("metamess_core_checkpoint_micros"));
    report.set(
        "core.store.snapshot_bytes_per_dataset",
        snapshot_bytes as f64 / search::DATASETS as f64,
    );
    report.set("core.store.fsyncs_per_publish", warm.counter("metamess_core_wal_fsyncs_total"));
    report.set(
        "core.store.wal_bytes_per_mutation",
        util::share(
            warm.counter("metamess_core_wal_bytes_total"),
            warm.counter("metamess_core_wal_appends_total"),
        ),
    );
    let dir = setup.opened.served.state.store_dir().with_file_name("slice-store");
    store_layers(&setup.synth.catalog, &setup.vocab, &dir, report);
    telemetry_costs(report);
}

/// The wrangling layers, each called on its own over the generated archive.
pub fn pipeline_layers(
    archive: &metamess_archive::GeneratedArchive,
    published: &Catalog,
    store_dir: &std::path::Path,
    report: &mut Report,
) {
    use metamess_discover::{
        key_collision_clusters, knn_clusters, KeyMethod, KnnConfig, ValueCount,
    };
    use metamess_formats::{parse_cdl, parse_csv, parse_obslog, CsvOptions};
    use metamess_pipeline::{load_state, save_state, ArchiveInput, PipelineContext};
    use metamess_transform::{apply_operations, Operation};

    // formats: every generated file of a kind, parsed from memory.
    for (ext, metric) in [
        ("csv", "formats.csv_mb_s"),
        ("cdl", "formats.cdl_mb_s"),
        ("obslog", "formats.obslog_mb_s"),
    ] {
        let files: Vec<&str> = archive
            .files
            .iter()
            .filter(|(rel, _)| rel.ends_with(ext) && !rel.starts_with("malformed/"))
            .map(|(_, text)| text.as_str())
            .collect();
        let bytes: usize = files.iter().map(|t| t.len()).sum();
        let t = Instant::now();
        for text in &files {
            let parsed = match ext {
                "csv" => parse_csv(text, &CsvOptions::default()),
                "cdl" => parse_cdl(text),
                _ => parse_obslog(text),
            };
            std::hint::black_box(parsed.expect("a generated file parses"));
        }
        report.set(metric, bytes as f64 / 1e6 / t.elapsed().as_secs_f64());
    }

    // The harvested names with their counts: what discovery clusters and
    // what the discovered rules are applied to.
    let mut names: std::collections::BTreeMap<String, u64> = Default::default();
    for d in published.iter() {
        for v in &d.variables {
            *names.entry(v.name.clone()).or_insert(0) += 1;
        }
    }
    let values: Vec<ValueCount> =
        names.iter().map(|(n, c)| ValueCount::new(n.clone(), *c)).collect();
    let t = Instant::now();
    std::hint::black_box(key_collision_clusters(&values, KeyMethod::Fingerprint));
    report.set("discover.key_collision_ms", ms(t));
    let t = Instant::now();
    std::hint::black_box(knn_clusters(&values, &KnnConfig::default()));
    report.set("discover.knn_ms", ms(t));

    // transform: a discovered rule set over the name table, one record per
    // variable occurrence.
    let mut records: Vec<metamess_core::Record> = published
        .iter()
        .flat_map(|d| d.variables.iter())
        .map(|v| {
            let mut r = metamess_core::Record::new();
            r.set("field", v.name.clone());
            r
        })
        .collect();
    let mut ops = vec![Operation::text_transform("field", "value.trim()")];
    for (name, _) in names.iter().take(20) {
        ops.push(Operation::mass_edit("field", vec![name.clone()], &name.to_lowercase()));
    }
    let t = Instant::now();
    let applied = apply_operations(&mut records, &ops).expect("own operations apply");
    report.set("transform.apply_us_per_record", ms(t) * 1e3 / records.len().max(1) as f64);
    std::hint::black_box(applied);

    // pipeline: the resume state a watcher saves after every cycle.
    let state_dir = store_dir.join("state");
    let mut ctx = PipelineContext::new(
        ArchiveInput::Dir(store_dir.to_path_buf()),
        metamess_vocab::Vocabulary::observatory_default(),
    );
    let t = Instant::now();
    let resumed = load_state(&mut ctx, &state_dir).expect("load the watcher's state");
    report.set("pipeline.load_state_ms", ms(t));
    assert!(resumed, "the watcher left no state to load");
    let t = Instant::now();
    save_state(&ctx, store_dir.with_file_name("state-copy")).expect("save the state");
    report.set("pipeline.save_state_ms", ms(t));
}
