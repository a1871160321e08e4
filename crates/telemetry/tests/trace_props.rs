//! Seeded sweeps over request-scoped tracing: parent/child span durations
//! nest (the sum of direct children never exceeds their parent), and the
//! flight-recorder ring never exceeds its bound, tears a record or
//! reorders a writer's records under concurrent writers and readers.

#[path = "../../core/tests/common/mod.rs"]
mod common;

use common::sweep;
use metamess_telemetry::trace::{
    self, FlightRecorder, SpanRecord, TraceRecord, MAX_SPANS, NO_PARENT, NO_SHARD,
};
use metamess_telemetry::TraceContext;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

const NESTING_CASES: u64 = 32;
const RING_CASES: u64 = 8;

/// Static span names by nesting depth (trace spans require `&'static str`).
const NAMES: [&str; 6] = ["depth.0", "depth.1", "depth.2", "depth.3", "depth.4", "depth.5"];

/// A little opaque work so spans accumulate nonzero time now and then.
fn spin() {
    for i in 0..64u64 {
        std::hint::black_box(i.wrapping_mul(0x9E37_79B9));
    }
}

/// Drives a random open/close/work sequence of nested spans through
/// the real clock path, then checks the recorded tree: parents precede
/// children, children start no earlier than their parent, and the sum
/// of direct children's micros never exceeds the parent's micros.
#[test]
fn child_micros_nest_within_parent() {
    sweep(NESTING_CASES, |rng| {
        let ops = rng.vec(0, 48, |rng| rng.below(3));
        let ctx = TraceContext::start(1.0);
        assert!(ctx.sampled, "rate 1.0 always samples");
        assert!(trace::begin(&ctx, "root"));
        let mut stack = Vec::new();
        for op in ops {
            match op {
                0 if stack.len() < NAMES.len() => stack.push(trace::enter(NAMES[stack.len()])),
                1 => {
                    // Vec::pop drops the most recently opened guard — the
                    // LIFO order the parent stack requires.
                    let _ = stack.pop();
                }
                _ => spin(),
            }
        }
        while let Some(guard) = stack.pop() {
            drop(guard);
        }
        let fin = trace::end(u64::MAX).expect("a trace was active");
        let rec = trace::flight().find(fin.trace_id).expect("sampled trace reaches the ring");
        let spans = rec.spans();
        assert!(!spans.is_empty());
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!(rec.root_micros(), fin.micros);
        let mut child_sum = vec![0u64; spans.len()];
        for (ix, s) in spans.iter().enumerate().skip(1) {
            let p = s.parent as usize;
            assert!(p < ix, "parent index precedes the child");
            assert!(
                s.start_micros >= spans[p].start_micros,
                "child {} starts before parent {}",
                s.name,
                spans[p].name
            );
            child_sum[p] += s.micros;
        }
        for (ix, s) in spans.iter().enumerate() {
            assert!(
                child_sum[ix] <= s.micros,
                "children of {} sum to {}µs > parent's {}µs",
                s.name,
                child_sum[ix],
                s.micros
            );
        }
    });
}

/// A record whose every span carries its id, so a copy mixing two
/// records shows.
fn record_with_id(id: u128) -> TraceRecord {
    let span = SpanRecord {
        name: "t",
        parent: NO_PARENT,
        start_micros: 0,
        micros: id as u64,
        shard: NO_SHARD,
    };
    TraceRecord {
        trace_id: id,
        sampled: true,
        slow: false,
        shards_visited: 0,
        shards_pruned: 0,
        dropped_spans: 0,
        span_count: 1,
        spans: [span; MAX_SPANS],
    }
}

/// Writer `t`'s `i`-th record id.
fn writer_id(t: usize, i: usize) -> u128 {
    ((t as u128) << 32) | (i as u128 + 1)
}

/// What a snapshot must be at any instant: within the bound, no torn
/// record, no id twice, and each writer's records newest first.
fn check_snapshot(snap: &[TraceRecord], cap: usize) {
    assert!(snap.len() <= cap, "ring exceeded its bound: {} > {cap}", snap.len());
    let mut seen = HashSet::new();
    let mut newest_seen: HashMap<u128, u128> = HashMap::new();
    for rec in snap {
        assert!(
            rec.spans.iter().all(|s| s.micros == rec.trace_id as u64),
            "torn record {:x}",
            rec.trace_id
        );
        assert!(seen.insert(rec.trace_id), "id {:x} twice in one snapshot", rec.trace_id);
        let (writer, seq) = (rec.trace_id >> 32, rec.trace_id & 0xffff_ffff);
        if let Some(later) = newest_seen.insert(writer, seq) {
            assert!(seq < later, "writer {writer}: record {seq} listed after {later}");
        }
    }
}

/// Hammers a ring from several writers while readers snapshot it; every
/// snapshot passes `check_snapshot`, every push is counted, and the ring
/// ends exactly full.
#[test]
fn ring_never_exceeds_bound_under_concurrent_writers() {
    sweep(RING_CASES, |rng| {
        let (cap, threads, per_thread) = (rng.size(1, 24), rng.size(1, 5), rng.size(1, 40));
        let readers = rng.size(1, 3);
        let ring = FlightRecorder::new(cap);
        let start = Barrier::new(threads + readers);
        let writing = AtomicUsize::new(threads);
        std::thread::scope(|scope| {
            for t in 0..threads {
                let (ring, start, writing) = (&ring, &start, &writing);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..per_thread {
                        ring.push(&record_with_id(writer_id(t, i)));
                        assert!(ring.snapshot().len() <= cap, "ring exceeded its bound");
                    }
                    writing.fetch_sub(1, Ordering::SeqCst);
                });
            }
            for _ in 0..readers {
                let (ring, start, writing) = (&ring, &start, &writing);
                scope.spawn(move || {
                    start.wait();
                    loop {
                        let last = writing.load(Ordering::SeqCst) == 0;
                        check_snapshot(&ring.snapshot(), cap);
                        if last {
                            break;
                        }
                    }
                });
            }
        });
        assert_eq!(ring.completed(), (threads * per_thread) as u64);
        let snap = ring.snapshot();
        check_snapshot(&snap, cap);
        assert_eq!(snap.len(), cap.min(threads * per_thread));
    });
}
