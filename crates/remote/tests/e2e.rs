//! End-to-end: real `shardd` listeners on loopback TCP, a real
//! [`RemoteShardSet`] dialing them — asserting the tentpole guarantee
//! (bit-identical to in-process sharding at any layout) and the failure
//! story (killing a shardd mid-run degrades cleanly, trips its circuit,
//! and never panics the coordinator).

use metamess_core::catalog::Catalog;
use metamess_core::error::Error;
use metamess_core::feature::{DatasetFeature, NameResolution, VariableFeature};
use metamess_core::geo::{GeoBBox, GeoPoint};
use metamess_core::time::{TimeInterval, Timestamp};
use metamess_remote::{
    CircuitState, PartialPolicy, RemoteOptions, RemoteShardSet, ShardHost, Shardd,
};
use metamess_search::fanout::{
    generous, merge_hits, plan_scatter, probe_summary, score_top, ProbeSummary, ScoreWork,
};
use metamess_search::{Partitioner, Query, QueryPlan, SearchHit, ShardSpec, ShardedEngine};
use metamess_vocab::Vocabulary;
use std::sync::Arc;
use std::time::Duration;

fn make_dataset(path: &str, lat: f64, lon: f64, month: u32, var: (&str, &str)) -> DatasetFeature {
    let mut d = DatasetFeature::new(path);
    d.title = path.to_string();
    d.bbox = Some(GeoBBox::point(GeoPoint::new(lat, lon).unwrap()));
    d.time = Some(TimeInterval::new(
        Timestamp::from_ymd(2011, month, 1).unwrap(),
        Timestamp::from_ymd(2011, month, 28).unwrap(),
    ));
    let mut v = VariableFeature::new(var.0);
    v.resolve(var.1, NameResolution::KnownTranslation);
    v.summary.observe(4.0);
    v.summary.observe(11.0);
    d.variables.push(v);
    d
}

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    for i in 0..40 {
        c.put(make_dataset(
            &format!("buoy/{i:02}.csv"),
            47.0 + (i % 8) as f64 * 0.01,
            -125.0,
            1 + (i % 6) as u32,
            ("temp", "water_temperature"),
        ));
    }
    for i in 0..40 {
        c.put(make_dataset(
            &format!("glider/{i:02}.csv"),
            -43.0 - (i % 8) as f64 * 0.01,
            151.0,
            7 + (i % 6) as u32,
            ("sal", "salinity"),
        ));
    }
    c
}

fn queries() -> Vec<Query> {
    vec![
        Query::parse("in 46.9,-125.1..47.1,-124.9 limit 5").unwrap(),
        Query::parse("near 47.0,-125.0 within 15km with water_temperature limit 4").unwrap(),
        Query::parse("from 2011-07-01 to 2011-09-30 with salinity limit 6").unwrap(),
        Query::parse("from 2011-01-01 to 2011-02-15 limit 5").unwrap(),
        Query::parse("with water_temperature limit 100").unwrap(),
        Query::new(),
    ]
}

/// Spawns one shardd per shard of `spec` on loopback and returns the
/// daemons plus their dial addresses.
fn spawn_fleet(c: &Catalog, vocab: &Vocabulary, spec: ShardSpec) -> (Vec<Shardd>, Vec<String>) {
    let mut daemons = Vec::new();
    let mut addrs = Vec::new();
    for k in 0..spec.count() {
        let host = Arc::new(ShardHost::build(c, vocab.clone(), spec, k).unwrap());
        let d = Shardd::spawn(host, "127.0.0.1:0").unwrap();
        addrs.push(d.local_addr().to_string());
        daemons.push(d);
    }
    (daemons, addrs)
}

/// Fast deadlines so the kill test converges in milliseconds.
fn fast_opts(policy: PartialPolicy) -> RemoteOptions {
    RemoteOptions {
        connect_timeout: Duration::from_millis(300),
        read_timeout: Duration::from_secs(1),
        retries: 1,
        backoff_base: Duration::from_micros(500),
        backoff_cap: Duration::from_millis(2),
        partial_policy: policy,
        ..RemoteOptions::default()
    }
}

fn assert_bit_identical(got: &[SearchHit], want: &[SearchHit], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: hit counts differ");
    for (a, b) in got.iter().zip(want.iter()) {
        assert_eq!(a, b, "{ctx}");
        assert_eq!(a.score.to_bits(), b.score.to_bits(), "{ctx}: score bits for {}", a.path);
    }
}

#[test]
fn shardd_fleet_is_bit_identical_to_local_sharding() {
    let c = catalog();
    let vocab = Vocabulary::observatory_default();
    for count in [1usize, 2, 4, 8] {
        let spec = ShardSpec::new(count, Partitioner::Hash);
        let reference = ShardedEngine::build_sharded(&c, vocab.clone(), spec);
        let (daemons, addrs) = spawn_fleet(&c, &vocab, spec);
        let set = RemoteShardSet::connect(&addrs, fast_opts(PartialPolicy::Fail)).unwrap();
        assert_eq!(set.shard_count(), count);
        assert_eq!(set.generation(), c.generation());
        assert_eq!(set.datasets(), 80);
        for q in &queries() {
            let out = set.search(q).unwrap();
            assert!(!out.partial);
            assert!(out.failed.is_empty());
            let expected = reference.search_uncached(q);
            assert_bit_identical(&out.hits, &expected, &format!("{count} shards"));
        }
        for d in daemons {
            d.shutdown();
        }
    }
}

#[test]
fn fleet_addresses_may_be_listed_in_any_order() {
    let c = catalog();
    let vocab = Vocabulary::observatory_default();
    let spec = ShardSpec::new(2, Partitioner::Hash);
    let reference = ShardedEngine::build_sharded(&c, vocab.clone(), spec);
    let (daemons, mut addrs) = spawn_fleet(&c, &vocab, spec);
    addrs.reverse(); // the coordinator reorders by the shard ids in hello
    let set = RemoteShardSet::connect(&addrs, fast_opts(PartialPolicy::Fail)).unwrap();
    let q = Query::parse("with salinity limit 6").unwrap();
    assert_bit_identical(&set.search(&q).unwrap().hits, &reference.search_uncached(&q), "reversed");
    for d in daemons {
        d.shutdown();
    }
}

#[test]
fn killing_one_shardd_mid_run_degrades_cleanly_and_trips_the_circuit() {
    let c = catalog();
    let vocab = Vocabulary::observatory_default();
    let spec = ShardSpec::new(2, Partitioner::Hash);
    let (mut daemons, addrs) = spawn_fleet(&c, &vocab, spec);
    let degrade = RemoteShardSet::connect(&addrs, fast_opts(PartialPolicy::Degrade)).unwrap();
    let fail = RemoteShardSet::connect(&addrs, fast_opts(PartialPolicy::Fail)).unwrap();
    let q = Query::parse("with water_temperature limit 8").unwrap();

    // Healthy first: both policies answer, nothing partial.
    assert!(!degrade.search(&q).unwrap().partial);
    assert!(!fail.search(&q).unwrap().partial);

    // Kill shard 1 mid-run.
    daemons.remove(1).shutdown();

    // Degrade: partial answer, exactly the healthy shard's merge.
    let out = degrade.search(&q).unwrap();
    assert!(out.partial, "losing a shard must be marked partial");
    assert_eq!(out.failed, vec![1]);
    let survivor = metamess_search::fanout::build_shard(&c, &vocab, spec, 0);
    let plan = QueryPlan::prepare(&q, &vocab);
    let summaries =
        vec![probe_summary(&survivor, &q, &plan, generous(q.limit)), ProbeSummary::default()];
    let (_full, mut works) = plan_scatter(&q, &summaries);
    works[1] = ScoreWork::Skip;
    let expected =
        merge_hits(vec![score_top(&survivor, &q, &plan, &vocab, &works[0]), Vec::new()], q.limit);
    assert_bit_identical(&out.hits, &expected, "degraded");

    // Fail: a typed error, not a panic.
    match fail.search(&q) {
        Err(Error::Io { .. }) => {}
        other => panic!("expected typed I/O error, got {other:?}"),
    }

    // Repeated failures trip the circuit; /healthz surfaces it.
    for _ in 0..2 {
        assert!(degrade.search(&q).unwrap().partial);
    }
    let health = degrade.health();
    assert_eq!(health[1].state, CircuitState::Open);
    assert_eq!(health[1].state.as_str(), "open");
    assert_eq!(health[0].state, CircuitState::Healthy);
    assert!(health[0].last_rtt_us.is_some());

    // With the circuit open the coordinator still answers, still partial.
    assert!(degrade.search(&q).unwrap().partial);
    for d in daemons {
        d.shutdown();
    }
}

#[test]
fn a_refused_query_gets_an_error_frame_from_shardd_not_hits() {
    use metamess_remote::wire::{ProbeRequest, ScoreRequest, WireError};
    use metamess_remote::{Frame, FrameKind, TcpTransport, Transport};
    use metamess_search::SpatialTerm;
    let c = catalog();
    let vocab = Vocabulary::observatory_default();
    let spec = ShardSpec::new(2, Partitioner::Hash);
    let (daemons, addrs) = spawn_fleet(&c, &vocab, spec);
    let point = GeoPoint { lat: 100.0, lon: -125.0 };
    let query =
        Query { spatial: Some(SpatialTerm::Near { point, radius_km: 25.0 }), ..Query::new() };
    let transport =
        TcpTransport::new(addrs.clone(), Duration::from_millis(300), Duration::from_secs(1));
    let probe = Frame::new(FrameKind::Probe, 7, &ProbeRequest { query: query.clone() });
    let score = Frame::new(
        FrameKind::Score,
        8,
        &ScoreRequest { query: query.clone(), work: ScoreWork::Full },
    );
    for (shard, request) in [(0, &probe), (1, &score)] {
        let response = transport.exchange(shard, request).unwrap();
        assert_eq!(response.kind, FrameKind::Error, "shard {shard}");
        assert_eq!(response.trace_id, request.trace_id);
        let e: WireError = response.parse_payload().unwrap();
        assert!(e.message.contains("near: latitude 100"), "{}", e.message);
    }
    // the coordinator refuses it before asking a shard, and the shards
    // still answer a query that names a place
    let set = RemoteShardSet::connect(&addrs, fast_opts(PartialPolicy::Degrade)).unwrap();
    assert!(matches!(set.search(&query), Err(Error::Invalid { .. })));
    let q = Query::parse("near 47.0,-125.0 with water_temperature limit 4").unwrap();
    let out = set.search(&q).unwrap();
    assert!(!out.partial && !out.hits.is_empty());
    assert!(set.health().iter().all(|h| h.state == CircuitState::Healthy));
    for d in daemons {
        d.shutdown();
    }
}
