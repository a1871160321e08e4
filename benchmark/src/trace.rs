//! The benchmark's spans. A traced run wraps each call into a crate in a
//! span (name, start, end, parent, request id). Spans stay in memory; at the
//! end of a request each span's self time (its duration minus the part its
//! children cover) is added to its name's total, and the spans of the first
//! requests are kept for `trace-<workload>.json`.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Requests whose spans are written out; the rest only count in the totals.
const KEPT_REQUESTS: u32 = 500;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span within the same request, if any.
    pub parent: Option<usize>,
    pub request: u32,
}

#[derive(Default, Clone, Copy)]
pub struct LayerTotal {
    pub spans: u64,
    pub self_ns: u64,
    pub total_ns: u64,
}

pub struct Tracer {
    origin: Instant,
    request: u32,
    /// Spans of the request in progress.
    open: Vec<Span>,
    stack: Vec<usize>,
    kept: Vec<Span>,
    totals: BTreeMap<&'static str, LayerTotal>,
    requests: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            request: 0,
            open: Vec::new(),
            stack: Vec::new(),
            kept: Vec::new(),
            totals: BTreeMap::new(),
            requests: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, a child of the span in progress.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let ix = self.open.len();
        let parent = self.stack.last().copied();
        let start_ns = self.now_ns();
        self.open.push(Span { name, start_ns, end_ns: start_ns, parent, request: self.request });
        self.stack.push(ix);
        let out = f(self);
        self.stack.pop();
        self.open[ix].end_ns = self.now_ns();
        out
    }

    /// Closes the request: folds its spans into the totals.
    pub fn end_request(&mut self) {
        let mut child_ns = vec![0u64; self.open.len()];
        for s in &self.open {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        for (s, children) in self.open.iter().zip(&child_ns) {
            let total = s.end_ns - s.start_ns;
            let t = self.totals.entry(s.name).or_default();
            t.spans += 1;
            t.total_ns += total;
            t.self_ns += total.saturating_sub(*children);
        }
        if self.request < KEPT_REQUESTS {
            self.kept.append(&mut self.open);
        } else {
            self.open.clear();
        }
        self.request += 1;
        self.requests += 1;
    }

    pub fn requests(&self) -> u64 {
        self.requests
    }

    pub fn total(&self, name: &str) -> LayerTotal {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Mean self time of `name` per span, in microseconds.
    pub fn self_us(&self, name: &str) -> f64 {
        let t = self.total(name);
        if t.spans == 0 {
            0.0
        } else {
            t.self_ns as f64 / t.spans as f64 / 1000.0
        }
    }

    /// Mean duration of a `name` span, children included, in microseconds.
    pub fn mean_total_us(&self, name: &str) -> f64 {
        let t = self.total(name);
        t.total_ns as f64 / t.spans.max(1) as f64 / 1e3
    }

    /// Spans recorded so far, of every name.
    pub fn spans(&self) -> u64 {
        self.totals.values().map(|t| t.spans).sum()
    }

    /// Self time of `name` summed over all requests, in nanoseconds.
    pub fn self_ns_sum(&self, name: &str) -> f64 {
        self.total(name).self_ns as f64
    }

    /// Writes the kept spans as one JSON document.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        // Parents are written as positions in this array, so re-base the
        // per-request indices.
        let mut base = 0;
        let mut current = u32::MAX;
        writeln!(out, "{{\"unit\":\"ns\",\"spans\":[")?;
        for (i, s) in self.kept.iter().enumerate() {
            if s.request != current {
                current = s.request;
                base = i;
            }
            let parent = s.parent.map_or("null".to_string(), |p| (base + p).to_string());
            let comma = if i + 1 == self.kept.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"request\":{}}}{comma}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}
