//! Fault-injection tests for the coordinator, in the store layer's
//! `FaultVfs` idiom: real shard hosts behind a [`FaultTransport`] with
//! seeded failure schedules, so every policy branch — fail vs degrade,
//! retry budgets, circuits — is asserted deterministically, down to the
//! exact dial counts.

use metamess_core::catalog::Catalog;
use metamess_core::error::Error;
use metamess_core::feature::{DatasetFeature, NameResolution, VariableFeature};
use metamess_core::geo::{GeoBBox, GeoPoint};
use metamess_core::time::{TimeInterval, Timestamp};
use metamess_remote::{
    CircuitState, FaultAction, FaultTransport, PartialPolicy, RemoteOptions, RemoteShardSet,
    ShardHost,
};
use metamess_search::fanout::{
    build_shard, generous, merge_hits, plan_scatter, probe_summary, score_top, ProbeSummary,
    ScoreWork,
};
use metamess_search::{Partitioner, Query, QueryPlan, SearchHit, ShardEngine, ShardSpec};
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

/// Fast-failing options so the suite stays in the milliseconds.
fn fast_opts(policy: PartialPolicy) -> RemoteOptions {
    RemoteOptions {
        backoff_base: Duration::from_micros(200),
        backoff_cap: Duration::from_millis(2),
        partial_policy: policy,
        ..RemoteOptions::default()
    }
}

/// A connected coordinator over `n` real hosts behind a fault
/// transport, plus standalone shard engines for computing expectations.
fn fleet(
    n: usize,
    policy: PartialPolicy,
) -> (RemoteShardSet, Arc<FaultTransport>, Vec<ShardEngine>, Vocabulary) {
    let c = catalog();
    let vocab = Vocabulary::observatory_default();
    let spec = ShardSpec::new(n, Partitioner::Hash);
    let hosts: Vec<Arc<ShardHost>> =
        (0..n).map(|k| Arc::new(ShardHost::build(&c, vocab.clone(), spec, k).unwrap())).collect();
    let transport = Arc::new(FaultTransport::new(hosts));
    let set = RemoteShardSet::with_transport(transport.clone(), fast_opts(policy)).unwrap();
    transport.reset_attempts(); // count only the queries under test
    let shards: Vec<ShardEngine> = (0..n).map(|k| build_shard(&c, &vocab, spec, k)).collect();
    (set, transport, shards, vocab)
}

/// Replays the coordinator's exact degrade semantics locally:
/// probe-dead shards contribute an empty summary and are skipped at
/// scoring; score-dead shards contribute no hits.
fn expected_merge(
    shards: &[ShardEngine],
    vocab: &Vocabulary,
    q: &Query,
    dead_probe: &[usize],
    dead_score: &[usize],
) -> Vec<SearchHit> {
    let plan = QueryPlan::prepare(q, vocab);
    let g = generous(q.limit);
    let summaries: Vec<ProbeSummary> = shards
        .iter()
        .enumerate()
        .map(|(k, s)| {
            if dead_probe.contains(&k) {
                ProbeSummary::default()
            } else {
                probe_summary(s, q, &plan, g)
            }
        })
        .collect();
    let (_full, mut works) = plan_scatter(q, &summaries);
    for &k in dead_probe {
        works[k] = ScoreWork::Skip;
    }
    let per: Vec<Vec<SearchHit>> = shards
        .iter()
        .enumerate()
        .map(|(k, s)| {
            if dead_score.contains(&k) {
                Vec::new()
            } else {
                score_top(s, q, &plan, vocab, &works[k])
            }
        })
        .collect();
    merge_hits(per, q.limit)
}

fn assert_bit_identical(got: &[SearchHit], want: &[SearchHit]) {
    assert_eq!(got.len(), want.len(), "hit counts differ");
    for (a, b) in got.iter().zip(want.iter()) {
        assert_eq!(a, b);
        assert_eq!(a.score.to_bits(), b.score.to_bits(), "score bits differ for {}", a.path);
    }
}

#[test]
fn fail_policy_turns_a_dead_shard_into_a_typed_error() {
    let (set, transport, _, _) = fleet(2, PartialPolicy::Fail);
    transport.push_actions(0, &[FaultAction::Timeout; 3]); // exhaust 1 + 2 retries
    let q = Query::parse("with water_temperature limit 5").unwrap();
    match set.search(&q) {
        Err(Error::Io { .. }) => {}
        other => panic!("expected a typed I/O error, got {other:?}"),
    }
    assert_eq!(transport.attempts(0), 3, "retry budget is 1 + retries, never more");
    assert_eq!(transport.attempts(1), 1, "probe only — the failure aborts before scoring");
}

#[test]
fn degrade_returns_exactly_the_healthy_shard_merge() {
    let (set, transport, shards, vocab) = fleet(3, PartialPolicy::Degrade);
    transport.push_actions(1, &[FaultAction::Timeout, FaultAction::Reset, FaultAction::Timeout]);
    let q = Query::parse("with salinity limit 6").unwrap();
    let out = set.search(&q).unwrap();
    assert!(out.partial, "a dropped shard must be marked");
    assert_eq!(out.failed, vec![1]);
    assert_bit_identical(&out.hits, &expected_merge(&shards, &vocab, &q, &[1], &[]));
    assert_eq!(transport.attempts(1), 3, "retry budget never exceeded");
    for k in [0usize, 2] {
        assert!(transport.attempts(k) <= 2, "healthy shard {k}: one probe + one score at most");
    }
}

#[test]
fn score_phase_gets_one_attempt_and_degrades_cleanly() {
    let (set, transport, shards, vocab) = fleet(2, PartialPolicy::Degrade);
    // probe succeeds, score times out — scoring is not idempotent-retried
    transport.push_actions(1, &[FaultAction::Ok, FaultAction::Timeout]);
    let q = Query::parse("near 47.0,-125.0 within 20km limit 5").unwrap();
    let out = set.search(&q).unwrap();
    assert!(out.partial);
    assert_eq!(out.failed, vec![1]);
    assert_bit_identical(&out.hits, &expected_merge(&shards, &vocab, &q, &[], &[1]));
    assert_eq!(transport.attempts(1), 2, "one probe attempt + exactly one score attempt");
}

#[test]
fn retries_rescue_a_transient_reset_under_the_fail_policy() {
    let (set, transport, shards, vocab) = fleet(2, PartialPolicy::Fail);
    transport.push_actions(0, &[FaultAction::Reset]); // first probe dies, retry lands
    transport.push_actions(1, &[FaultAction::Slow(300)]); // slow but healthy
    let q = Query::parse("with water_temperature limit 8").unwrap();
    let out = set.search(&q).unwrap();
    assert!(!out.partial);
    assert!(out.failed.is_empty());
    assert_bit_identical(&out.hits, &expected_merge(&shards, &vocab, &q, &[], &[]));
    assert_eq!(transport.attempts(0), 3, "two probe attempts + one score");
    let health = set.health();
    assert_eq!(health[0].state, CircuitState::Healthy, "a success resets the circuit");
    assert!(health[1].last_rtt_us.is_some(), "successful exchanges record rtt");
}

#[test]
fn repeated_failures_trip_the_circuit_open_and_skip_dials() {
    let (set, transport, _, _) = fleet(2, PartialPolicy::Degrade);
    let q = Query::parse("with salinity limit 4").unwrap();
    // Each failed query records one circuit failure; threshold is 3.
    for round in 1..=3u32 {
        transport.push_actions(0, &[FaultAction::Timeout; 3]);
        let out = set.search(&q).unwrap();
        assert!(out.partial);
        assert_eq!(set.health()[0].consecutive_failures, round);
    }
    assert_eq!(set.health()[0].state, CircuitState::Open);
    // With the circuit open (cooldown not elapsed), the next query never
    // dials shard 0 — and still degrades instead of failing.
    let before = transport.attempts(0);
    let out = set.search(&q).unwrap();
    assert!(out.partial);
    assert_eq!(out.failed, vec![0]);
    assert_eq!(transport.attempts(0), before, "open circuit short-circuits the dial");
}

#[test]
fn fleets_that_disagree_are_rejected_at_connect() {
    let c = catalog();
    let vocab = Vocabulary::observatory_default();
    let spec = ShardSpec::new(2, Partitioner::Hash);

    // Two processes both claiming shard 0 of 2.
    let dup: Vec<Arc<ShardHost>> =
        (0..2).map(|_| Arc::new(ShardHost::build(&c, vocab.clone(), spec, 0).unwrap())).collect();
    let t = Arc::new(FaultTransport::new(dup));
    match RemoteShardSet::with_transport(t, fast_opts(PartialPolicy::Fail)).map(|_| ()) {
        Err(Error::Invalid { message }) => assert!(message.contains("duplicate"), "{message}"),
        other => panic!("expected Invalid, got {other:?}"),
    }

    // Shards built from different catalog generations.
    let mut newer = catalog();
    newer.put(make_dataset("late/extra.csv", 47.0, -125.0, 3, ("temp", "water_temperature")));
    let skewed = vec![
        Arc::new(ShardHost::build(&c, vocab.clone(), spec, 0).unwrap()),
        Arc::new(ShardHost::build(&newer, vocab.clone(), spec, 1).unwrap()),
    ];
    let t = Arc::new(FaultTransport::new(skewed));
    match RemoteShardSet::with_transport(t, fast_opts(PartialPolicy::Fail)).map(|_| ()) {
        Err(Error::Conflict { .. }) => {}
        other => panic!("expected Conflict, got {other:?}"),
    }
}
