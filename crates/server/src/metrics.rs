//! The server's own metric families, recorded into the global
//! `metamess-telemetry` registry so `/metrics` and `metamess stats` see
//! them alongside search/store/pipeline series.
//!
//! Families:
//!
//! * `metamess_server_requests_total{route=…,status=…}` — one counter per
//!   (route, status) pair, including protocol errors under
//!   `route="invalid"`.
//! * `metamess_server_request_micros` — handler latency histogram.
//! * `metamess_server_connections_total` / `metamess_server_shed_total` —
//!   accepted vs shed connections.
//! * `metamess_server_queue_depth` — connections waiting right now.
//! * `metamess_server_reloads_total` — hot catalog reloads that swapped an
//!   epoch.
//! * `metamess_server_reload_failures_total` — reloads (polled or
//!   `/admin/reload`) that could not read the store; the previous epoch
//!   kept serving.
//! * `metamess_server_delta_applies_total` /
//!   `metamess_server_delta_mutations_total` — epochs produced by applying
//!   a WAL-tail delta in place (no store reopen), and the mutations those
//!   deltas carried.
//! * `metamess_server_delta_cache_survived_total` /
//!   `metamess_server_delta_cache_dropped_total` — a delta keeps no cached
//!   result: `survived` is always 0, and `dropped` adds the entries the
//!   cache held at the swap, all of them stale from then on (the generation
//!   stamp moved, as on a full reload).
//! * `metamess_server_delta_apply_micros` — delta apply latency (the tail's
//!   records laid over the epoch's rows, the engine built from them and its
//!   browse trees, once the tail is read).
//! * `metamess_server_panics_total` — panics caught by the worker pool
//!   (the request gets a 500 or a dropped connection; the worker lives).
//! * `metamess_server_conn_open` — connections currently owned by the
//!   event loop (gauge; admission-capped at `workers + queue_depth`).
//! * `metamess_server_conn_timeouts_total` — connections closed by a
//!   deadline (idle, 408 read, or write stall).
//! * `metamess_server_drained_dropped_total` — connections still
//!   mid-request when the drain deadline expired (answered 503, closed).

use metamess_telemetry::global;

/// Records one served request: route/status counter + latency histogram.
/// The histogram carries a trace-id exemplar for the worst request seen,
/// so a bad p99 bucket in `/metrics` links straight to `/debug/traces?id=`.
pub(crate) fn record_request(route: &str, status: u16, micros: u64) {
    if !metamess_telemetry::enabled() {
        return;
    }
    // Two labels, hand-assembled in registry key syntax (the Prometheus
    // renderer splits at the first `{`).
    let name = format!("metamess_server_requests_total{{route=\"{route}\",status=\"{status}\"}}");
    global().counter(&name).add(1);
    // The handler's trace just ended on this worker thread, so its id is
    // the thread's "last" id — the exemplar for this exact request.
    global()
        .histogram("metamess_server_request_micros")
        .record_with_exemplar(micros, metamess_telemetry::trace::last_trace_id().unwrap_or(0));
}

/// Records one accepted connection.
pub(crate) fn record_connection() {
    if metamess_telemetry::enabled() {
        global().counter("metamess_server_connections_total").add(1);
    }
}

/// Records one shed (503) connection.
pub(crate) fn record_shed() {
    if metamess_telemetry::enabled() {
        global().counter("metamess_server_shed_total").add(1);
    }
}

/// Publishes the current accept-queue depth.
pub(crate) fn set_queue_depth(depth: usize) {
    if metamess_telemetry::enabled() {
        global().gauge("metamess_server_queue_depth").set(depth as i64);
    }
}

/// Records one epoch-swapping hot reload.
pub(crate) fn record_reload() {
    if metamess_telemetry::enabled() {
        global().counter("metamess_server_reloads_total").add(1);
    }
}

/// Records one reload that failed to read the store.
pub(crate) fn record_reload_failure() {
    if metamess_telemetry::enabled() {
        global().counter("metamess_server_reload_failures_total").add(1);
    }
}

/// Records one in-place delta application: the mutation count it carried,
/// the cached results it left stale, and how long the whole apply took.
pub(crate) fn record_delta_apply(mutations: usize, dropped: usize, micros: u64) {
    if !metamess_telemetry::enabled() {
        return;
    }
    let g = global();
    g.counter("metamess_server_delta_applies_total").add(1);
    g.counter("metamess_server_delta_mutations_total").add(mutations as u64);
    // Always 0, but registered: readers of the delta counters ask for it.
    g.counter("metamess_server_delta_cache_survived_total").add(0);
    g.counter("metamess_server_delta_cache_dropped_total").add(dropped as u64);
    g.histogram("metamess_server_delta_apply_micros").record(micros);
}

/// Records one caught panic (in a handler or a connection); the worker
/// survives, but a nonzero series here means a bug worth chasing.
pub(crate) fn record_panic() {
    if metamess_telemetry::enabled() {
        global().counter("metamess_server_panics_total").add(1);
    }
}

/// A connection entered the event loop.
pub(crate) fn conn_opened() {
    if metamess_telemetry::enabled() {
        global().gauge("metamess_server_conn_open").inc();
    }
}

/// A connection left the event loop (any reason).
pub(crate) fn conn_closed() {
    if metamess_telemetry::enabled() {
        global().gauge("metamess_server_conn_open").dec();
    }
}

/// A connection was closed by a deadline (idle, 408 read, write stall).
pub(crate) fn record_conn_timeout() {
    if metamess_telemetry::enabled() {
        global().counter("metamess_server_conn_timeouts_total").add(1);
    }
}

/// A connection was dropped at the drain deadline (answered 503).
pub(crate) fn record_drained_drop() {
    if metamess_telemetry::enabled() {
        global().counter("metamess_server_drained_dropped_total").add(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_metric_renders_with_both_labels() {
        record_request("search", 200, 1234);
        let snap = global().snapshot();
        if !metamess_telemetry::enabled() {
            return; // nothing recorded under METAMESS_TELEMETRY=0
        }
        let key = "metamess_server_requests_total{route=\"search\",status=\"200\"}";
        assert!(snap.counters.contains_key(key), "missing {key}");
        let text = snap.render_prometheus();
        assert!(
            text.contains("metamess_server_requests_total{route=\"search\",status=\"200\"}"),
            "{text}"
        );
    }

    #[test]
    fn conn_gauge_balances_open_and_close() {
        if !metamess_telemetry::enabled() {
            return;
        }
        let before = global().gauge("metamess_server_conn_open").get();
        conn_opened();
        conn_opened();
        conn_closed();
        let after = global().gauge("metamess_server_conn_open").get();
        assert_eq!(after - before, 1);
        conn_closed();
        record_drained_drop();
        record_conn_timeout();
        let snap = global().snapshot();
        assert!(snap.counters.contains_key("metamess_server_drained_dropped_total"));
        assert!(snap.counters.contains_key("metamess_server_conn_timeouts_total"));
    }
}
