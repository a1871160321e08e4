//! Differential sweep, frame backend: the coordinator over real shard
//! hosts behind the in-memory [`FaultTransport`] (production codec and
//! handler, no faults injected) returns the naive reference search's
//! answer, bit for bit, at hashed shard counts {1, 2, 4, 8} — the same
//! cases and oracle as the direct-backend sweep in `crates/search/tests/`
//! (the fleet always searches with its indexes: there is no index-off mode
//! to sweep). One degrade case per seed: with a shard dead the
//! answer is the reference over the healthy shards' datasets.

#[path = "../../search/tests/common/mod.rs"]
mod common;

use common::{assert_bit_equal, catalog, queries, reference_search, Rng};
use metamess_core::catalog::Catalog;
use metamess_remote::{
    FaultAction, FaultTransport, PartialPolicy, RemoteOptions, RemoteShardSet, ShardHost,
};
use metamess_search::fanout::build_shard;
use metamess_search::{Partitioner, ShardSpec};
use metamess_vocab::Vocabulary;
use std::sync::Arc;
use std::time::Duration;

fn fleet(
    c: &Catalog,
    vocab: &Vocabulary,
    spec: ShardSpec,
    policy: PartialPolicy,
) -> (RemoteShardSet, Arc<FaultTransport>) {
    let hosts = (0..spec.count())
        .map(|k| Arc::new(ShardHost::build(c, vocab.clone(), spec, k).unwrap()))
        .collect();
    let transport = Arc::new(FaultTransport::new(hosts));
    let opts = RemoteOptions {
        backoff_base: Duration::from_micros(50),
        backoff_cap: Duration::from_micros(200),
        partial_policy: policy,
        ..RemoteOptions::default()
    };
    (RemoteShardSet::with_transport(transport.clone(), opts).unwrap(), transport)
}

#[test]
fn every_remote_layout_agrees_with_the_reference() {
    let vocab = Vocabulary::observatory_default();
    for seed in 0..40u64 {
        let mut rng = Rng(seed);
        let c = catalog(&mut rng);
        let qs = queries(&mut rng, c.len());
        let expected: Vec<_> = qs.iter().map(|q| reference_search(&c, &vocab, q)).collect();
        for shards in [1usize, 2, 4, 8] {
            let spec = ShardSpec::new(shards, Partitioner::Hash);
            let (set, _) = fleet(&c, &vocab, spec, PartialPolicy::Fail);
            for (q, want) in qs.iter().zip(&expected) {
                let out = set.search(q).unwrap();
                assert!(!out.partial && out.failed.is_empty());
                let what = format!("seed {seed}, {shards} shards, {q:?}");
                assert_bit_equal(&out.hits, want, &what);
            }
        }
    }
}

#[test]
fn a_degraded_answer_is_the_reference_over_the_healthy_shards() {
    let vocab = Vocabulary::observatory_default();
    for seed in 0..40u64 {
        let mut rng = Rng(seed);
        let c = catalog(&mut rng);
        // the spatial query: every shard with data is dialed
        let q = &queries(&mut rng, c.len())[2];
        let spec = ShardSpec::new(4, Partitioner::Hash);
        let lost = build_shard(&c, &vocab, spec, seed as usize % 4);
        let mut healthy = c.clone();
        for l in 0..lost.len() {
            healthy.delete(lost.row(l).id());
        }
        let (set, transport) = fleet(&c, &vocab, spec, PartialPolicy::Degrade);
        transport.push_actions(seed as usize % 4, &[FaultAction::Timeout; 3]);
        let out = set.search(q).unwrap();
        // an empty shard is never dialed, so it cannot fail
        assert_eq!(out.partial, !lost.is_empty(), "seed {seed}");
        let what = format!("seed {seed}, shard {} of 4 lost, {q:?}", seed % 4);
        assert_bit_equal(&out.hits, &reference_search(&healthy, &vocab, q), &what);
    }
}
