//! `metamess_remote_*` metrics: fan-out health at a glance.

use metamess_telemetry::{Counter, Gauge, Histogram};
use std::sync::{Arc, OnceLock};

/// Counters and histograms for the remote coordinator. All named under
/// the `metamess_remote_` prefix so `metamess stats` groups them.
pub struct RemoteMetrics {
    /// `metamess_remote_queries_total` — fan-out searches started.
    pub queries: Arc<Counter>,
    /// `metamess_remote_dials_total` — shard round trips attempted
    /// (probe + score + hello, including retries).
    pub dials: Arc<Counter>,
    /// `metamess_remote_retries_total` — re-dials after a failed attempt.
    pub retries: Arc<Counter>,
    /// `metamess_remote_timeouts_total` — attempts lost to deadlines.
    pub timeouts: Arc<Counter>,
    /// `metamess_remote_resets_total` — attempts lost to connection
    /// failures (refused, reset, protocol violations).
    pub resets: Arc<Counter>,
    /// `metamess_remote_partial_total` — degraded responses served with
    /// `partial: true`.
    pub partials: Arc<Counter>,
    /// `metamess_remote_rtt_micros` — per-shard round-trip latency, with
    /// trace-id exemplars linking slow dials to request traces.
    pub rtt_micros: Arc<Histogram>,
    /// `metamess_remote_open_circuits` — shards currently tripped open.
    pub open_circuits: Arc<Gauge>,
}

/// The process-wide remote metrics (registered on first use).
pub fn remote_metrics() -> &'static RemoteMetrics {
    static METRICS: OnceLock<RemoteMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = metamess_telemetry::global();
        RemoteMetrics {
            queries: r.counter("metamess_remote_queries_total"),
            dials: r.counter("metamess_remote_dials_total"),
            retries: r.counter("metamess_remote_retries_total"),
            timeouts: r.counter("metamess_remote_timeouts_total"),
            resets: r.counter("metamess_remote_resets_total"),
            partials: r.counter("metamess_remote_partial_total"),
            rtt_micros: r.histogram("metamess_remote_rtt_micros"),
            open_circuits: r.gauge("metamess_remote_open_circuits"),
        }
    })
}
