//! Request-scoped tracing: trace contexts, parent-linked span trees, a
//! flight recorder, and an always-capture slow-query log.
//!
//! The PR 3 telemetry aggregates phase histograms, which answers "where
//! does time go on average" but never "why was *this* request slow". This
//! module adds the per-request half:
//!
//! * A [`TraceContext`] — 128-bit trace id + 64-bit span id + sampling
//!   bit, SplitMix64-generated — is created at the edge (the server's
//!   request handler, the wrangle run, the search CLI) and propagated
//!   implicitly through a thread-local span-tree builder.
//! * Instrumented layers attach **parent-linked spans**: scope guards
//!   ([`enter`]) for phases that enclose other work, and pre-measured
//!   leaves ([`record_span`]) for per-shard work units whose duration the
//!   caller already timed with a `Stopwatch`.
//! * Completed traces land in a bounded, mutex-guarded [`FlightRecorder`]
//!   ring (default 256 records, `METAMESS_TRACE_BUFFER` override) when
//!   sampled, and **always** in the slow-query log when the root span
//!   exceeds the caller's threshold — the slow log is exempt from
//!   sampling by design.
//!
//! # Allocation discipline
//!
//! Span storage is arena-backed: every trace is built inside a fixed
//! `[SpanRecord; MAX_SPANS]` array owned by a per-thread builder that is
//! recycled across requests, and each ring is preallocated. After the
//! first trace on a thread, the begin → span… → end cycle performs no
//! heap allocation; with telemetry disabled the whole module costs one
//! relaxed load and a branch per call (verified by the counting-allocator
//! test in `metamess-server`).
//!
//! # Clocks
//!
//! All durations come from the monotonic `Instant` clock — never wall
//! time — so tests are immune to clock steps. The id generator seeds from
//! OS randomness (`RandomState`), not the time of day.

use crate::registry::json_escape;
use std::cell::{Cell, RefCell};
use std::collections::hash_map::RandomState;
use std::collections::VecDeque;
use std::hash::{BuildHasher, Hasher};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// Spans one trace can hold; later spans are counted as dropped instead
/// of reallocating (the arena is the bound).
pub const MAX_SPANS: usize = 64;

/// Sentinel parent index for the root span.
pub const NO_PARENT: u16 = u16::MAX;

/// Sentinel shard attribution for spans not tied to a shard.
pub const NO_SHARD: u32 = u32::MAX;

/// Default flight-recorder capacity (completed traces retained).
pub const DEFAULT_TRACE_BUFFER: usize = 256;

/// Slow-query log capacity. Separate from the flight recorder so a burst
/// of fast traffic can never evict the evidence of a slow request.
pub const SLOW_LOG_CAPACITY: usize = 64;

/// Largest accepted `METAMESS_TRACE_BUFFER`; clamped like every other
/// limit in the workspace.
pub const MAX_TRACE_BUFFER: usize = 65_536;

/// Clamps a flight-recorder capacity into `1..=MAX_TRACE_BUFFER`.
pub fn clamp_trace_buffer(n: usize) -> usize {
    n.clamp(1, MAX_TRACE_BUFFER)
}

/// Clamps a head-sampling rate into `0.0..=1.0` (non-finite input falls
/// back to 1.0 — sample everything rather than silently nothing).
pub fn clamp_sample_rate(rate: f64) -> f64 {
    if rate.is_finite() {
        rate.clamp(0.0, 1.0)
    } else {
        1.0
    }
}

// ── id generation ───────────────────────────────────────────────────────

/// SplitMix64 finalizer over a golden-gamma counter: every call returns a
/// fresh, well-mixed 64-bit value; the shared state is one relaxed
/// `fetch_add`, so id generation is lock-free and thread-safe.
fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn rng_state() -> &'static AtomicU64 {
    static STATE: OnceLock<AtomicU64> = OnceLock::new();
    // Seeded from the OS via RandomState — no wall clock involved, and
    // distinct across processes.
    STATE.get_or_init(|| AtomicU64::new(RandomState::new().build_hasher().finish()))
}

fn next_random() -> u64 {
    splitmix64(rng_state().fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed))
}

/// Formats a 128-bit trace id the way every surface shows it: 32 lowercase
/// hex digits (the `X-Metamess-Trace-Id` header value).
pub fn trace_id_hex(trace_id: u128) -> String {
    format!("{trace_id:032x}")
}

/// Parses the 32-hex-digit form back into a trace id.
pub fn parse_trace_id(s: &str) -> Option<u128> {
    let s = s.trim();
    if s.is_empty() || s.len() > 32 {
        return None;
    }
    u128::from_str_radix(s, 16).ok()
}

/// The identity of one request-scoped trace: who it is (128-bit trace
/// id), the root span's id, and whether head-based sampling selected it
/// for the flight recorder (the slow-query log ignores this bit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// 128-bit trace id; never zero.
    pub trace_id: u128,
    /// Root span id; never zero.
    pub span_id: u64,
    /// Head-sampling decision made at trace start.
    pub sampled: bool,
}

impl TraceContext {
    /// Creates a fresh context, deciding sampling with `sample_rate`
    /// (clamped into `0.0..=1.0`).
    pub fn start(sample_rate: f64) -> TraceContext {
        let rate = clamp_sample_rate(sample_rate);
        let hi = next_random();
        let lo = next_random();
        let trace_id = (((hi as u128) << 64) | lo as u128).max(1);
        let span_id = next_random().max(1);
        let sampled = if rate >= 1.0 {
            true
        } else if rate <= 0.0 {
            false
        } else {
            ((next_random() >> 11) as f64) / ((1u64 << 53) as f64) < rate
        };
        TraceContext { trace_id, span_id, sampled }
    }

    /// The 32-hex-digit rendering of the trace id.
    pub fn trace_id_hex(&self) -> String {
        trace_id_hex(self.trace_id)
    }
}

// ── span records ────────────────────────────────────────────────────────

/// One completed span inside a [`TraceRecord`]: a static name, a parent
/// link (index into the same record's span array), micros, and optional
/// shard attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name (instrumentation sites use static phase names).
    pub name: &'static str,
    /// Index of the parent span, or [`NO_PARENT`] for the root.
    pub parent: u16,
    /// Offset of the span's start from the trace's start, in µs.
    pub start_micros: u64,
    /// Span duration in µs.
    pub micros: u64,
    /// Shard this span worked on, or [`NO_SHARD`].
    pub shard: u32,
}

impl SpanRecord {
    const EMPTY: SpanRecord =
        SpanRecord { name: "", parent: NO_PARENT, start_micros: 0, micros: 0, shard: NO_SHARD };
}

/// One completed trace: fixed-capacity span arena plus the summary the
/// exposure surfaces need. Plain `Copy` data so ring slots can hold it
/// without allocation.
#[derive(Debug, Clone, Copy)]
pub struct TraceRecord {
    /// The trace id.
    pub trace_id: u128,
    /// Whether head sampling selected this trace.
    pub sampled: bool,
    /// Whether the root span exceeded the caller's slow threshold.
    pub slow: bool,
    /// Shards probed (work done) during this trace.
    pub shards_visited: u32,
    /// Shards skipped by probe pruning during this trace.
    pub shards_pruned: u32,
    /// Spans that did not fit in the arena.
    pub dropped_spans: u16,
    /// Valid prefix length of `spans`.
    pub span_count: u16,
    /// The span arena; `spans[0]` is the root.
    pub spans: [SpanRecord; MAX_SPANS],
}

impl TraceRecord {
    #[cfg(test)]
    const EMPTY: TraceRecord = TraceRecord {
        trace_id: 0,
        sampled: false,
        slow: false,
        shards_visited: 0,
        shards_pruned: 0,
        dropped_spans: 0,
        span_count: 0,
        spans: [SpanRecord::EMPTY; MAX_SPANS],
    };

    /// The recorded spans (valid prefix of the arena).
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans[..self.span_count as usize]
    }

    /// Root span duration in µs (0 for an empty record).
    pub fn root_micros(&self) -> u64 {
        self.spans().first().map(|s| s.micros).unwrap_or(0)
    }

    /// Converts into the heap-backed form used by JSON exposition and the
    /// CLI renderer.
    pub fn to_owned_trace(&self) -> OwnedTrace {
        OwnedTrace {
            trace_id: trace_id_hex(self.trace_id),
            sampled: self.sampled,
            slow: self.slow,
            shards_visited: self.shards_visited,
            shards_pruned: self.shards_pruned,
            dropped_spans: self.dropped_spans,
            spans: self
                .spans()
                .iter()
                .map(|s| OwnedSpan {
                    name: s.name.to_string(),
                    parent: (s.parent != NO_PARENT).then_some(s.parent),
                    start_micros: s.start_micros,
                    micros: s.micros,
                    shard: (s.shard != NO_SHARD).then_some(s.shard),
                })
                .collect(),
        }
    }
}

// ── the flight recorder ─────────────────────────────────────────────────

/// A bounded ring of the last N completed traces, newest at the back.
///
/// One mutex guards the ring; a push is one copy of the record under it,
/// evicting the oldest when full. The ring is preallocated to capacity,
/// so a push never allocates, and no update can leave it half-changed:
/// a poisoned lock is recovered, not propagated.
pub struct FlightRecorder {
    ring: Mutex<VecDeque<TraceRecord>>,
    capacity: usize,
    completed: AtomicU64,
}

impl FlightRecorder {
    /// A ring holding the last `capacity` traces (clamped into
    /// `1..=MAX_TRACE_BUFFER`).
    pub fn new(capacity: usize) -> FlightRecorder {
        let capacity = clamp_trace_buffer(capacity);
        FlightRecorder {
            ring: Mutex::new(VecDeque::with_capacity(capacity)),
            capacity,
            completed: AtomicU64::new(0),
        }
    }

    fn ring(&self) -> MutexGuard<'_, VecDeque<TraceRecord>> {
        self.ring.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Ring capacity (the bound `snapshot` never exceeds).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Traces pushed so far.
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// Records one completed trace, evicting the oldest when full. No
    /// allocation.
    pub fn push(&self, rec: &TraceRecord) {
        let mut ring = self.ring();
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(*rec);
        self.completed.fetch_add(1, Ordering::Relaxed);
    }

    /// A copy of the ring's records, newest first. Never longer than
    /// [`FlightRecorder::capacity`].
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        self.ring().iter().rev().copied().collect()
    }

    /// The newest record with this trace id.
    pub fn find(&self, trace_id: u128) -> Option<TraceRecord> {
        self.ring().iter().rev().find(|r| r.trace_id == trace_id).copied()
    }
}

fn env_capacity(var: &str, default: usize) -> usize {
    match std::env::var(var) {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) => clamp_trace_buffer(n),
            Err(_) => default,
        },
        Err(_) => default,
    }
}

/// The process-wide flight recorder (capacity `METAMESS_TRACE_BUFFER`,
/// default 256, clamped).
pub fn flight() -> &'static FlightRecorder {
    static FLIGHT: OnceLock<FlightRecorder> = OnceLock::new();
    FLIGHT.get_or_init(|| {
        FlightRecorder::new(env_capacity("METAMESS_TRACE_BUFFER", DEFAULT_TRACE_BUFFER))
    })
}

/// The process-wide slow-query log. Fed by every trace whose root span
/// exceeds the caller's threshold, sampled or not.
pub fn slow_log() -> &'static FlightRecorder {
    static SLOW: OnceLock<FlightRecorder> = OnceLock::new();
    SLOW.get_or_init(|| FlightRecorder::new(SLOW_LOG_CAPACITY))
}

// ── the per-thread builder ──────────────────────────────────────────────

struct TraceBuilder {
    trace_id: u128,
    sampled: bool,
    start: Instant,
    len: u16,
    dropped: u16,
    parent: u16,
    shards_visited: u32,
    shards_pruned: u32,
    spans: [SpanRecord; MAX_SPANS],
}

impl TraceBuilder {
    fn fresh(ctx: &TraceContext, root: &'static str) -> TraceBuilder {
        let mut b = TraceBuilder {
            trace_id: 0,
            sampled: false,
            start: Instant::now(),
            len: 0,
            dropped: 0,
            parent: 0,
            shards_visited: 0,
            shards_pruned: 0,
            spans: [SpanRecord::EMPTY; MAX_SPANS],
        };
        b.reset(ctx, root);
        b
    }

    fn reset(&mut self, ctx: &TraceContext, root: &'static str) {
        self.trace_id = ctx.trace_id;
        self.sampled = ctx.sampled;
        self.start = Instant::now();
        self.len = 1;
        self.dropped = 0;
        self.parent = 0;
        self.shards_visited = 0;
        self.shards_pruned = 0;
        self.spans[0] = SpanRecord {
            name: root,
            parent: NO_PARENT,
            start_micros: 0,
            micros: 0,
            shard: NO_SHARD,
        };
    }

    fn offset_micros(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    /// Opens a nested span; later leaves/spans parent under it until it
    /// closes. `None` when the arena is full (counted as dropped).
    fn open_span(&mut self, name: &'static str) -> Option<u16> {
        if (self.len as usize) >= MAX_SPANS {
            self.dropped = self.dropped.saturating_add(1);
            return None;
        }
        let ix = self.len;
        self.spans[ix as usize] = SpanRecord {
            name,
            parent: self.parent,
            start_micros: self.offset_micros(),
            micros: 0,
            shard: NO_SHARD,
        };
        self.len += 1;
        self.parent = ix;
        Some(ix)
    }

    fn close_span(&mut self, ix: u16, micros: u64) {
        let ix = ix as usize;
        if ix < self.len as usize {
            self.spans[ix].micros = micros;
            self.parent = self.spans[ix].parent;
        }
    }

    /// Records a pre-measured leaf under the current parent.
    fn record_leaf(&mut self, name: &'static str, micros: u64, shard: u32) {
        if (self.len as usize) >= MAX_SPANS {
            self.dropped = self.dropped.saturating_add(1);
            return;
        }
        let now = self.offset_micros();
        self.spans[self.len as usize] = SpanRecord {
            name,
            parent: self.parent,
            start_micros: now.saturating_sub(micros),
            micros,
            shard,
        };
        self.len += 1;
    }

    fn to_record(&self, slow: bool) -> TraceRecord {
        TraceRecord {
            trace_id: self.trace_id,
            sampled: self.sampled,
            slow,
            shards_visited: self.shards_visited,
            shards_pruned: self.shards_pruned,
            dropped_spans: self.dropped,
            span_count: self.len,
            spans: self.spans,
        }
    }
}

thread_local! {
    /// The trace currently being built on this thread, if any.
    static CURRENT: RefCell<Option<Box<TraceBuilder>>> = const { RefCell::new(None) };
    /// The recycled builder: `end` parks the box here, the next `begin`
    /// reuses it — steady state performs no allocation.
    static SPARE: RefCell<Option<Box<TraceBuilder>>> = const { RefCell::new(None) };
    /// Trace id of the most recently completed trace on this thread (0 =
    /// none); lets late metric sites attach exemplars after `end`.
    static LAST: Cell<u128> = const { Cell::new(0) };
}

/// Starts building a trace on this thread. Returns `false` (and records
/// nothing) when telemetry is disabled or a trace is already active —
/// nested begins keep the outer trace. The begin/end pair must not
/// interleave across threads; spans recorded on other threads are simply
/// not attached.
pub fn begin(ctx: &TraceContext, root: &'static str) -> bool {
    if !crate::enabled() {
        return false;
    }
    CURRENT.with(|cur| {
        let mut cur = cur.borrow_mut();
        if cur.is_some() {
            return false;
        }
        let boxed = match SPARE.with(|s| s.borrow_mut().take()) {
            Some(mut b) => {
                b.reset(ctx, root);
                b
            }
            None => Box::new(TraceBuilder::fresh(ctx, root)),
        };
        *cur = Some(boxed);
        true
    })
}

/// What [`end`] reports about a completed trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FinishedTrace {
    /// The trace id.
    pub trace_id: u128,
    /// Root span duration in µs — the request's server-side latency.
    pub micros: u64,
    /// Whether the root exceeded the slow threshold.
    pub slow: bool,
    /// Whether head sampling put the trace in the flight recorder.
    pub sampled: bool,
}

impl FinishedTrace {
    /// The 32-hex-digit rendering of the trace id.
    pub fn trace_id_hex(&self) -> String {
        trace_id_hex(self.trace_id)
    }
}

/// Finishes the active trace: closes the root span, publishes to the
/// flight recorder when sampled, and to the slow-query log whenever the
/// root reached `slow_threshold_micros` (sampling-exempt). Returns `None`
/// when no trace was active.
pub fn end(slow_threshold_micros: u64) -> Option<FinishedTrace> {
    let mut b = CURRENT.with(|cur| cur.borrow_mut().take())?;
    let micros = b.start.elapsed().as_micros() as u64;
    b.spans[0].micros = micros;
    let slow = micros >= slow_threshold_micros;
    let rec = b.to_record(slow);
    if rec.sampled {
        flight().push(&rec);
    }
    if slow {
        slow_log().push(&rec);
    }
    let out = FinishedTrace { trace_id: b.trace_id, micros, slow, sampled: b.sampled };
    LAST.with(|c| c.set(b.trace_id));
    SPARE.with(|s| *s.borrow_mut() = Some(b));
    Some(out)
}

/// A scope guard opened by [`enter`]; closing it records the span's
/// duration and restores the previous parent.
#[must_use = "a trace span records on drop — bind it with `let _span = trace::enter(..)`"]
pub struct TraceSpan {
    open: Option<(u16, Instant)>,
}

/// Opens a nested span under the current parent. Inert (single branch)
/// when telemetry is disabled or no trace is active. The guard must be
/// dropped before [`end`] runs.
pub fn enter(name: &'static str) -> TraceSpan {
    if !crate::enabled() {
        return TraceSpan { open: None };
    }
    CURRENT.with(|cur| {
        let mut cur = cur.borrow_mut();
        let Some(b) = cur.as_mut() else {
            return TraceSpan { open: None };
        };
        match b.open_span(name) {
            Some(ix) => TraceSpan { open: Some((ix, Instant::now())) },
            None => TraceSpan { open: None },
        }
    })
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        if let Some((ix, started)) = self.open.take() {
            let micros = started.elapsed().as_micros() as u64;
            CURRENT.with(|cur| {
                if let Some(b) = cur.borrow_mut().as_mut() {
                    b.close_span(ix, micros);
                }
            });
        }
    }
}

/// Attaches a pre-measured leaf span (e.g. one shard's probe, already
/// timed by a `Stopwatch`) under the current parent, with optional shard
/// attribution. Inert when telemetry is disabled or no trace is active.
pub fn record_span(name: &'static str, micros: u64, shard: Option<u32>) {
    if !crate::enabled() {
        return;
    }
    CURRENT.with(|cur| {
        if let Some(b) = cur.borrow_mut().as_mut() {
            b.record_leaf(name, micros, shard.unwrap_or(NO_SHARD));
        }
    });
}

/// Adds shard scatter-gather attribution to the active trace.
pub fn note_shards(visited: u32, pruned: u32) {
    if !crate::enabled() {
        return;
    }
    CURRENT.with(|cur| {
        if let Some(b) = cur.borrow_mut().as_mut() {
            b.shards_visited = b.shards_visited.saturating_add(visited);
            b.shards_pruned = b.shards_pruned.saturating_add(pruned);
        }
    });
}

/// Trace id of the trace currently being built on this thread, for
/// exemplar attachment mid-request.
pub fn current_trace_id() -> Option<u128> {
    if !crate::enabled() {
        return None;
    }
    CURRENT.with(|cur| cur.borrow().as_ref().map(|b| b.trace_id))
}

/// Trace id of the most recently completed trace on this thread — lets
/// metric sites that run just after [`end`] (the server's request
/// recorder) attach an exemplar for the finished request.
pub fn last_trace_id() -> Option<u128> {
    let id = LAST.with(|c| c.get());
    (id != 0).then_some(id)
}

// ── exposition: owned traces, JSON, tree rendering ──────────────────────

/// Heap-backed span used by JSON exposition and the CLI (names parsed
/// from JSON are owned strings).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OwnedSpan {
    /// Span name.
    pub name: String,
    /// Parent span index, `None` for the root.
    pub parent: Option<u16>,
    /// Start offset from trace start, µs.
    pub start_micros: u64,
    /// Duration, µs.
    pub micros: u64,
    /// Shard attribution, when any.
    pub shard: Option<u32>,
}

/// Heap-backed trace used by JSON exposition and the CLI renderer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OwnedTrace {
    /// 32-hex-digit trace id.
    pub trace_id: String,
    /// Head-sampling decision.
    pub sampled: bool,
    /// Slow-threshold verdict.
    pub slow: bool,
    /// Shards probed.
    pub shards_visited: u32,
    /// Shards pruned.
    pub shards_pruned: u32,
    /// Spans that did not fit the arena.
    pub dropped_spans: u16,
    /// The span tree in recording order (parents precede children).
    pub spans: Vec<OwnedSpan>,
}

impl OwnedTrace {
    /// Root span duration in µs.
    pub fn root_micros(&self) -> u64 {
        self.spans.first().map(|s| s.micros).unwrap_or(0)
    }

    /// Renders the span tree as an indented text block, one span per
    /// line with micros and shard attribution — the `metamess trace`
    /// view.
    pub fn render_tree(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "trace {}  {}µs  shards visited={} pruned={}",
            self.trace_id,
            self.root_micros(),
            self.shards_visited,
            self.shards_pruned
        );
        if self.slow {
            out.push_str("  [slow]");
        }
        if !self.sampled {
            out.push_str("  [unsampled]");
        }
        if self.dropped_spans > 0 {
            let _ = write!(out, "  [{} spans dropped]", self.dropped_spans);
        }
        out.push('\n');
        for (ix, span) in self.spans.iter().enumerate() {
            let mut depth = 1usize;
            let mut cursor = span.parent;
            while let Some(p) = cursor {
                depth += 1;
                cursor = self.spans.get(p as usize).and_then(|s| s.parent);
                if depth > self.spans.len() {
                    break; // defensive: malformed parent cycle
                }
            }
            let indent = "  ".repeat(depth);
            let label = format!("{indent}{}", span.name);
            let _ = write!(out, "{label:<44} {:>9}µs", span.micros);
            if let Some(shard) = span.shard {
                let _ = write!(out, "  shard={shard}");
            }
            let _ = ix;
            out.push('\n');
        }
        out
    }
}

fn render_trace_object(t: &OwnedTrace, out: &mut String) {
    use std::fmt::Write as _;
    let _ = write!(
        out,
        "{{\"trace_id\":\"{}\",\"micros\":{},\"sampled\":{},\"slow\":{},\
         \"shards_visited\":{},\"shards_pruned\":{},\"dropped_spans\":{},\"spans\":[",
        json_escape(&t.trace_id),
        t.root_micros(),
        t.sampled,
        t.slow,
        t.shards_visited,
        t.shards_pruned,
        t.dropped_spans
    );
    for (ix, s) in t.spans.iter().enumerate() {
        if ix > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"parent\":{},\"start_micros\":{},\"micros\":{},\"shard\":{}}}",
            json_escape(&s.name),
            s.parent.map(|p| p.to_string()).unwrap_or_else(|| "null".to_string()),
            s.start_micros,
            s.micros,
            s.shard.map(|x| x.to_string()).unwrap_or_else(|| "null".to_string()),
        );
    }
    out.push_str("]}");
}

/// Renders traces as the `/debug/traces` JSON document:
/// `{"traces":[{...}, ...]}`.
pub fn render_traces_json(traces: &[OwnedTrace]) -> String {
    let mut out = String::from("{\"traces\":[");
    for (ix, t) in traces.iter().enumerate() {
        if ix > 0 {
            out.push(',');
        }
        render_trace_object(t, &mut out);
    }
    out.push_str("]}");
    out
}

fn parse_trace_value(v: &serde_json::Value) -> Option<OwnedTrace> {
    let mut t = OwnedTrace {
        trace_id: v.get("trace_id")?.as_str()?.to_string(),
        sampled: v.get("sampled")?.as_bool()?,
        slow: v.get("slow")?.as_bool()?,
        shards_visited: v.get("shards_visited")?.as_u64()? as u32,
        shards_pruned: v.get("shards_pruned")?.as_u64()? as u32,
        dropped_spans: v.get("dropped_spans")?.as_u64()? as u16,
        spans: Vec::new(),
    };
    for s in v.get("spans")?.as_array()? {
        t.spans.push(OwnedSpan {
            name: s.get("name")?.as_str()?.to_string(),
            parent: match s.get("parent")? {
                serde_json::Value::Null => None,
                p => Some(p.as_u64()? as u16),
            },
            start_micros: s.get("start_micros")?.as_u64()?,
            micros: s.get("micros")?.as_u64()?,
            shard: match s.get("shard")? {
                serde_json::Value::Null => None,
                x => Some(x.as_u64()? as u32),
            },
        });
    }
    Some(t)
}

// ── persistence ─────────────────────────────────────────────────────────

/// Where a store keeps its persisted traces (next to `telemetry.json`).
pub fn traces_path(store_dir: &Path) -> PathBuf {
    store_dir.join("state").join("traces.json")
}

/// Reads traces persisted by [`persist_traces`]:
/// `(recent, slow)`, newest first. Missing or undecodable reads as
/// `None`.
pub fn load_persisted_traces(path: &Path) -> Option<(Vec<OwnedTrace>, Vec<OwnedTrace>)> {
    let text = std::fs::read_to_string(path).ok()?;
    let v: serde_json::Value = serde_json::from_str(&text).ok()?;
    let mut recent = Vec::new();
    for t in v.get("recent")?.as_array()? {
        recent.push(parse_trace_value(t)?);
    }
    let mut slow = Vec::new();
    for t in v.get("slow")?.as_array()? {
        slow.push(parse_trace_value(t)?);
    }
    Some((recent, slow))
}

fn merge_newest_first(live: Vec<OwnedTrace>, old: Vec<OwnedTrace>, cap: usize) -> Vec<OwnedTrace> {
    let mut seen: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    let mut out = Vec::new();
    for t in live.into_iter().chain(old) {
        if out.len() >= cap {
            break;
        }
        if seen.insert(t.trace_id.clone()) {
            out.push(t);
        }
    }
    out
}

/// Folds this process's flight recorder and slow-query log into the
/// traces persisted at `path` (newest first, deduplicated by trace id,
/// truncated to each ring's capacity). A no-op when nothing was recorded,
/// so disabled-telemetry runs leave no file behind. Returns
/// `(recent, slow)` counts written.
pub fn persist_traces(path: &Path) -> std::io::Result<(usize, usize)> {
    let live_recent: Vec<OwnedTrace> =
        flight().snapshot().iter().map(TraceRecord::to_owned_trace).collect();
    let live_slow: Vec<OwnedTrace> =
        slow_log().snapshot().iter().map(TraceRecord::to_owned_trace).collect();
    if live_recent.is_empty() && live_slow.is_empty() {
        return Ok((0, 0));
    }
    let (old_recent, old_slow) = load_persisted_traces(path).unwrap_or_default();
    let recent = merge_newest_first(live_recent, old_recent, flight().capacity());
    let slow = merge_newest_first(live_slow, old_slow, slow_log().capacity());
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = String::from("{\"recent\":[");
    for (ix, t) in recent.iter().enumerate() {
        if ix > 0 {
            out.push(',');
        }
        render_trace_object(t, &mut out);
    }
    out.push_str("],\"slow\":[");
    for (ix, t) in slow.iter().enumerate() {
        if ix > 0 {
            out.push(',');
        }
        render_trace_object(t, &mut out);
    }
    out.push_str("]}");
    std::fs::write(path, out)?;
    Ok((recent.len(), slow.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enabled_guard() -> std::sync::MutexGuard<'static, ()> {
        let g = crate::test_support::enabled_lock();
        crate::global().set_enabled(true);
        g
    }

    #[test]
    fn trace_ids_are_nonzero_and_distinct() {
        let a = TraceContext::start(1.0);
        let b = TraceContext::start(1.0);
        assert_ne!(a.trace_id, 0);
        assert_ne!(a.span_id, 0);
        assert_ne!(a.trace_id, b.trace_id);
        assert_eq!(a.trace_id_hex().len(), 32);
        assert_eq!(parse_trace_id(&a.trace_id_hex()), Some(a.trace_id));
        assert_eq!(parse_trace_id(""), None);
        assert_eq!(parse_trace_id("zz"), None);
    }

    #[test]
    fn sample_rate_clamps_and_extremes_are_deterministic() {
        assert_eq!(clamp_sample_rate(7.0), 1.0);
        assert_eq!(clamp_sample_rate(-3.0), 0.0);
        assert_eq!(clamp_sample_rate(f64::NAN), 1.0);
        assert!(TraceContext::start(1.0).sampled);
        assert!(TraceContext::start(9.9).sampled, "clamped to 1.0");
        assert!(!TraceContext::start(0.0).sampled);
        assert!(!TraceContext::start(-1.0).sampled, "clamped to 0.0");
    }

    #[test]
    fn begin_spans_end_builds_a_parent_linked_tree() {
        let _g = enabled_guard();
        let ctx = TraceContext::start(1.0);
        assert!(begin(&ctx, "request"));
        {
            let _probe = enter("search.probe");
            record_span("shard.probe", 5, Some(0));
            record_span("shard.probe", 7, Some(1));
        }
        record_span("search.merge", 2, None);
        note_shards(2, 1);
        assert_eq!(current_trace_id(), Some(ctx.trace_id));
        let done = end(u64::MAX).expect("trace was active");
        assert_eq!(done.trace_id, ctx.trace_id);
        assert!(!done.slow);
        assert_eq!(last_trace_id(), Some(ctx.trace_id));

        let rec = flight().find(ctx.trace_id).expect("sampled trace reaches the ring");
        let spans = rec.spans();
        assert_eq!(spans[0].name, "request");
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!(spans[1].name, "search.probe");
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].name, "shard.probe");
        assert_eq!(spans[2].parent, 1, "shard probes nest under the probe phase");
        assert_eq!(spans[2].shard, 0);
        assert_eq!(spans[3].shard, 1);
        assert_eq!(spans[4].name, "search.merge");
        assert_eq!(spans[4].parent, 0, "after the guard closes, parent reverts to root");
        assert_eq!((rec.shards_visited, rec.shards_pruned), (2, 1));
        assert!(rec.root_micros() >= spans[1].micros, "root spans the whole request");
    }

    #[test]
    fn unsampled_slow_trace_reaches_only_the_slow_log() {
        let _g = enabled_guard();
        let ctx = TraceContext::start(0.0);
        assert!(begin(&ctx, "request"));
        let done = end(0).expect("active");
        assert!(done.slow, "threshold 0 marks everything slow");
        assert!(!done.sampled);
        assert!(flight().find(ctx.trace_id).is_none(), "unsampled: not in the ring");
        assert!(slow_log().find(ctx.trace_id).is_some(), "slow log is sampling-exempt");
    }

    #[test]
    fn disabled_telemetry_records_nothing() {
        let _g = crate::test_support::enabled_lock();
        crate::global().set_enabled(false);
        let ctx = TraceContext::start(1.0);
        assert!(!begin(&ctx, "request"));
        record_span("x", 1, None);
        let _s = enter("y");
        assert_eq!(current_trace_id(), None);
        assert!(end(0).is_none());
        crate::global().set_enabled(true);
        assert!(flight().find(ctx.trace_id).is_none());
    }

    #[test]
    fn span_arena_overflow_counts_dropped() {
        let _g = enabled_guard();
        let ctx = TraceContext::start(1.0);
        assert!(begin(&ctx, "request"));
        for _ in 0..(MAX_SPANS + 10) {
            record_span("leaf", 1, None);
        }
        end(u64::MAX).unwrap();
        let rec = flight().find(ctx.trace_id).unwrap();
        assert_eq!(rec.span_count as usize, MAX_SPANS);
        assert_eq!(rec.dropped_spans as usize, 11, "root occupies one arena slot");
    }

    #[test]
    fn ring_evicts_oldest_and_respects_capacity() {
        let ring = FlightRecorder::new(4);
        assert_eq!(ring.capacity(), 4);
        for i in 1..=9u128 {
            let mut rec = TraceRecord::EMPTY;
            rec.trace_id = i;
            rec.span_count = 1;
            ring.push(&rec);
        }
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 4);
        let ids: Vec<u128> = snap.iter().map(|r| r.trace_id).collect();
        assert_eq!(ids, vec![9, 8, 7, 6], "newest first, oldest evicted");
        assert_eq!(ring.completed(), 9);
        assert_eq!(clamp_trace_buffer(0), 1);
        assert_eq!(clamp_trace_buffer(usize::MAX), MAX_TRACE_BUFFER);
    }

    #[test]
    fn traces_json_round_trips() {
        let t = OwnedTrace {
            trace_id: "00000000000000000000000000000abc".to_string(),
            sampled: true,
            slow: true,
            shards_visited: 2,
            shards_pruned: 1,
            dropped_spans: 0,
            spans: vec![
                OwnedSpan {
                    name: "request".into(),
                    parent: None,
                    start_micros: 0,
                    micros: 120,
                    shard: None,
                },
                OwnedSpan {
                    name: "shard.probe".into(),
                    parent: Some(0),
                    start_micros: 3,
                    micros: 40,
                    shard: Some(1),
                },
            ],
        };
        // read back by the reader persisted traces go through
        let json = render_traces_json(std::slice::from_ref(&t));
        let doc: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        let traces = doc.get("traces").and_then(|v| v.as_array()).expect("a traces array");
        let parsed: Vec<OwnedTrace> =
            traces.iter().map(parse_trace_value).collect::<Option<_>>().expect("round trip");
        assert_eq!(parsed, vec![t.clone()]);
        let nope: serde_json::Value = serde_json::from_str("{\"nope\":1}").unwrap();
        assert!(parse_trace_value(&nope).is_none(), "a structural mismatch reads as None");
        let tree = t.render_tree();
        assert!(tree.contains("trace 00000000000000000000000000000abc"), "{tree}");
        assert!(tree.contains("[slow]"));
        assert!(tree.contains("shard=1"));
        assert!(tree.contains("shard.probe"));
    }

    #[test]
    fn persistence_merges_dedups_and_truncates() {
        let _g = enabled_guard();
        let dir = std::env::temp_dir().join(format!("metamess-traces-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = traces_path(&dir);
        let ctx = TraceContext::start(1.0);
        assert!(begin(&ctx, "request"));
        end(u64::MAX).unwrap();
        let (recent, _slow) = persist_traces(&path).unwrap();
        assert!(recent >= 1);
        let (loaded, _) = load_persisted_traces(&path).unwrap();
        assert!(loaded.iter().any(|t| t.trace_id == trace_id_hex(ctx.trace_id)));
        // A second persist of the same rings must not duplicate entries.
        let (recent2, _) = persist_traces(&path).unwrap();
        assert_eq!(recent, recent2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
