//! Registry correctness: concurrent updates sum exactly, histogram bucket
//! boundaries are monotone and stable, and the Prometheus/JSON renders
//! round-trip a snapshot.

#[path = "../../core/tests/common/mod.rs"]
mod common;

use common::sweep;
use metamess_telemetry::{
    bucket_bound, bucket_index, labeled, Histogram, HistogramSnapshot, MetricsRegistry,
    MetricsSnapshot,
};

#[test]
fn concurrent_counter_updates_sum_exactly() {
    let r = MetricsRegistry::new(true);
    let threads = 8usize;
    let per_thread = 10_000u64;
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let c = r.counter("metamess_test_concurrent_total");
            scope.spawn(move || {
                for _ in 0..per_thread {
                    c.inc();
                }
            });
        }
    });
    assert_eq!(r.counter("metamess_test_concurrent_total").get(), threads as u64 * per_thread);
}

#[test]
fn concurrent_histogram_updates_sum_exactly() {
    let r = MetricsRegistry::new(true);
    let threads = 8u64;
    let per_thread = 5_000u64;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let h = r.histogram("metamess_test_concurrent_micros");
            scope.spawn(move || {
                for i in 0..per_thread {
                    h.record(t * per_thread + i);
                }
            });
        }
    });
    let s = r.histogram("metamess_test_concurrent_micros").snapshot();
    assert_eq!(s.count, threads * per_thread);
    let n = threads * per_thread;
    assert_eq!(s.sum, n * (n - 1) / 2, "every observation accounted for");
    assert_eq!(s.buckets.iter().map(|&(_, c)| c).sum::<u64>(), n);
    assert_eq!((s.min, s.max), (0, n - 1));
}

#[test]
fn concurrent_registration_yields_one_metric() {
    let r = MetricsRegistry::new(true);
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let r = &r;
            scope.spawn(move || {
                for i in 0..100 {
                    r.counter(&format!("metamess_reg_race_{i}_total")).inc();
                }
            });
        }
    });
    let s = r.snapshot();
    assert_eq!(s.counters.len(), 100);
    for (name, v) in &s.counters {
        assert_eq!(*v, 8, "{name}: every thread's increment must land on one counter");
    }
}

/// Cases per seeded property; a failure names its seed.
const CASES: u64 = 256;

/// Bucket boundaries are strictly monotone and stable: the bound of a
/// value's bucket is ≥ the value, the previous bucket's bound is < it,
/// and re-deriving the index from the bound is the identity.
#[test]
fn bucket_scheme_is_monotone_and_stable() {
    sweep(CASES, |rng| {
        // every magnitude up to 2^40, not mostly the top one
        let v = rng.below(1 << 40) >> rng.below(40);
        let ix = bucket_index(v);
        assert!(v <= bucket_bound(ix));
        if ix > 0 {
            assert!(v > bucket_bound(ix - 1));
            assert!(bucket_bound(ix) > bucket_bound(ix - 1));
        }
        assert_eq!(bucket_index(bucket_bound(ix)), ix);
    });
}

fn recorded(values: &[u64]) -> HistogramSnapshot {
    let h = Histogram::new();
    values.iter().for_each(|&v| h.record(v));
    h.snapshot()
}

/// A recorded value is visible in exactly the snapshot bucket whose
/// bound brackets it, and quantiles stay within the observed range.
#[test]
fn snapshot_brackets_observations() {
    sweep(CASES, |rng| {
        let values = rng.vec(1, 200, |rng| rng.below(1_000_000));
        let s = recorded(&values);
        assert_eq!(s.count, values.len() as u64);
        assert_eq!(s.sum, values.iter().sum::<u64>());
        let lo = *values.iter().min().unwrap();
        let hi = *values.iter().max().unwrap();
        assert_eq!((s.min, s.max), (lo, hi));
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            let est = s.quantile(q);
            assert!(est <= hi, "quantile {q} = {est} beyond max {hi}");
        }
        assert!(s.quantile(1.0) >= hi, "p100 must reach the max");
    });
}

/// merge() is equivalent to recording both value sets into one
/// histogram.
#[test]
fn merge_matches_combined_recording() {
    sweep(CASES, |rng| {
        let a = rng.vec(0, 100, |rng| rng.below(1_000_000));
        let b = rng.vec(0, 100, |rng| rng.below(1_000_000));
        let mut m = recorded(&a);
        m.merge(&recorded(&b));
        assert_eq!(m, recorded(&[a, b].concat()));
    });
}

fn sample_snapshot() -> MetricsSnapshot {
    let r = MetricsRegistry::new(true);
    r.counter("metamess_a_total").add(7);
    r.counter(&labeled("metamess_b_total", "kind", "x")).add(3);
    r.gauge("metamess_g").set(-11);
    let h = r.histogram(&labeled("metamess_h_micros", "span", "s.t"));
    for v in [0u64, 1, 9, 200, 4096, 123_456] {
        h.record(v);
    }
    r.snapshot()
}

/// Rebuilds a `MetricsSnapshot` from its own JSON render.
fn snapshot_from_json(text: &str) -> MetricsSnapshot {
    let v: serde_json::Value = serde_json::from_str(text).expect("render_json emits valid JSON");
    let mut out = MetricsSnapshot::default();
    for (k, n) in v["counters"].as_object().unwrap() {
        out.counters.insert(k.clone(), n.as_u64().unwrap());
    }
    for (k, n) in v["gauges"].as_object().unwrap() {
        out.gauges.insert(k.clone(), n.as_i64().unwrap());
    }
    for (k, h) in v["histograms"].as_object().unwrap() {
        out.histograms.insert(
            k.clone(),
            HistogramSnapshot {
                count: h["count"].as_u64().unwrap(),
                sum: h["sum"].as_u64().unwrap(),
                min: h["min"].as_u64().unwrap(),
                max: h["max"].as_u64().unwrap(),
                buckets: h["buckets"]
                    .as_array()
                    .unwrap()
                    .iter()
                    .map(|b| (b[0].as_u64().unwrap(), b[1].as_u64().unwrap()))
                    .collect(),
                exemplar: h.get("exemplar").map(|ex| {
                    (
                        ex["value"].as_u64().unwrap(),
                        u128::from_str_radix(ex["trace_id"].as_str().unwrap(), 16).unwrap(),
                    )
                }),
            },
        );
    }
    out
}

#[test]
fn json_render_round_trips() {
    let snap = sample_snapshot();
    let rebuilt = snapshot_from_json(&snap.render_json());
    assert_eq!(rebuilt, snap);
    // a second render of the rebuilt snapshot is byte-identical
    assert_eq!(rebuilt.render_json(), snap.render_json());
}

#[test]
fn prometheus_render_round_trips_scalars() {
    let snap = sample_snapshot();
    let text = snap.render_prometheus();
    // every counter and gauge line parses back to its exact value
    for (name, v) in &snap.counters {
        let line = text.lines().find(|l| l.starts_with(name.as_str())).expect("counter rendered");
        let parsed: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
        assert_eq!(parsed, *v, "{name}");
    }
    for (name, v) in &snap.gauges {
        let line = text.lines().find(|l| l.starts_with(name.as_str())).expect("gauge rendered");
        let parsed: i64 = line.rsplit(' ').next().unwrap().parse().unwrap();
        assert_eq!(parsed, *v, "{name}");
    }
    // histogram sum/count series carry the snapshot totals, and the +Inf
    // bucket equals the count
    for (name, h) in &snap.histograms {
        let (base, labels) = name.split_once('{').expect("sample histogram is labeled");
        let labels = labels.strip_suffix('}').unwrap();
        let find = |suffix: &str, extra: &str| -> u64 {
            let needle = if extra.is_empty() {
                format!("{base}_{suffix}{{{labels}}} ")
            } else {
                format!("{base}_{suffix}{{{labels},{extra}}} ")
            };
            let line = text.lines().find(|l| l.starts_with(&needle)).expect("series rendered");
            line.rsplit(' ').next().unwrap().parse().unwrap()
        };
        assert_eq!(find("sum", ""), h.sum);
        assert_eq!(find("count", ""), h.count);
        assert_eq!(find("bucket", "le=\"+Inf\""), h.count);
    }
}
