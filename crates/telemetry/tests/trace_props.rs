//! Seeded sweeps over request-scoped tracing: parent/child span durations
//! nest (the sum of direct children never exceeds their parent), and the
//! flight-recorder ring never exceeds its bound under concurrent writers.

#[path = "../../core/tests/common/mod.rs"]
mod common;

use common::sweep;
use metamess_telemetry::trace::{
    self, FlightRecorder, SpanRecord, TraceRecord, MAX_SPANS, NO_PARENT, NO_SHARD,
};
use metamess_telemetry::TraceContext;

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

fn record_with_id(id: u128) -> TraceRecord {
    let empty =
        SpanRecord { name: "", parent: NO_PARENT, start_micros: 0, micros: 0, shard: NO_SHARD };
    let mut spans = [empty; MAX_SPANS];
    spans[0] =
        SpanRecord { name: "t", parent: NO_PARENT, start_micros: 0, micros: 1, shard: NO_SHARD };
    TraceRecord {
        trace_id: id,
        sampled: true,
        slow: false,
        shards_visited: 0,
        shards_pruned: 0,
        dropped_spans: 0,
        span_count: 1,
        spans,
    }
}

/// Hammers a ring from several threads at once; the snapshot must
/// never exceed the configured bound, every push must be accounted
/// for, and (absent lapping skips) the ring must end exactly full.
#[test]
fn ring_never_exceeds_bound_under_concurrent_writers() {
    sweep(RING_CASES, |rng| {
        let (cap, threads, per_thread) = (rng.size(1, 24), rng.size(1, 5), rng.size(1, 40));
        let ring = FlightRecorder::new(cap);
        std::thread::scope(|scope| {
            for t in 0..threads {
                let ring = &ring;
                scope.spawn(move || {
                    for i in 0..per_thread {
                        ring.push(&record_with_id((t * 10_000 + i + 1) as u128));
                        assert!(ring.snapshot().len() <= cap, "ring exceeded its bound");
                    }
                });
            }
        });
        assert_eq!(ring.completed(), (threads * per_thread) as u64);
        let snap = ring.snapshot();
        assert!(snap.len() <= cap);
        if ring.skipped() == 0 {
            assert_eq!(snap.len(), cap.min(threads * per_thread));
        }
    });
}
