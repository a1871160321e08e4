//! # metamess-telemetry
//!
//! Dependency-light observability for the metamess workspace
//! (std, plus `serde_json` for snapshot persistence): a
//! global [`MetricsRegistry`] of named counters, gauges and log-bucketed
//! histograms, lightweight duration [`Span`]s, and leveled stderr event
//! mirroring via `METAMESS_LOG`.
//!
//! ## Design
//!
//! * **Lock-free hot path.** Updating a metric is a handful of relaxed
//!   atomic operations. Registration (first lookup of a name) takes the
//!   registry lock once; hot paths cache their `Arc` handles in
//!   `OnceLock` statics.
//! * **Single-branch disabled path.** Every instrumentation site first
//!   checks [`enabled`] — one relaxed load and a branch. When disabled
//!   there is no clock read, no lock, and no allocation (verified by the
//!   `telemetry_overhead` bench in `metamess-bench`).
//! * **Snapshot-on-read.** Reporting clones the current values into a
//!   [`MetricsSnapshot`], which renders as a human table, Prometheus text
//!   ([`MetricsSnapshot::render_prometheus`]) or JSON
//!   ([`MetricsSnapshot::render_json`]), and merges losslessly with
//!   snapshots persisted by earlier processes.
//!
//! ## Naming scheme
//!
//! `metamess_<crate>_<name>` with `_total` for counters and `_micros` for
//! duration histograms; per-entity series append a Prometheus label via
//! [`labeled`], e.g. `metamess_pipeline_stage_micros{stage="publish"}`.
//!
//! ## Environment
//!
//! * `METAMESS_LOG` — `error`/`warn`/`info`/`debug`/`trace` mirrors
//!   events and span durations to stderr (default: off).
//! * `METAMESS_TELEMETRY` — `0`/`off`/`false` starts the global registry
//!   disabled (default: enabled).
//! * `METAMESS_TRACE_BUFFER` — flight-recorder capacity in completed
//!   traces (default 256, clamped; see [`trace`]).
//!
//! ## Tracing
//!
//! Aggregates answer "where does time go on average"; the [`trace`]
//! module answers "why was *this* request slow": request-scoped
//! [`TraceContext`]s, parent-linked span trees, a bounded flight
//! recorder, and a sampling-exempt slow-query log.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod io;
mod log;
mod metric;
mod registry;
mod span;
pub mod trace;

pub use crate::log::{log_enabled, log_write, Level};
pub use io::{load_snapshot, parse_json, persist_merged, telemetry_path};
pub use metric::{bucket_bound, bucket_index, Counter, Gauge, Histogram, HistogramSnapshot};
pub use registry::{labeled, MetricsRegistry, MetricsSnapshot};
pub use span::{Span, Stopwatch};
pub use trace::{FinishedTrace, FlightRecorder, OwnedSpan, OwnedTrace, TraceContext};

use std::sync::OnceLock;

/// The process-wide registry every instrumented crate records into.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let on = match std::env::var("METAMESS_TELEMETRY") {
            Ok(v) => !matches!(v.trim().to_ascii_lowercase().as_str(), "0" | "off" | "false"),
            Err(_) => true,
        };
        MetricsRegistry::new(on)
    })
}

/// Whether the global registry is recording — the one branch every
/// disabled-path instrumentation site pays.
pub fn enabled() -> bool {
    global().enabled()
}

#[cfg(test)]
pub(crate) mod test_support {
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// Serializes unit tests that flip the global enabled flag (span and
    /// trace tests share the registry, so the flips must not interleave).
    static ENABLED_LOCK: Mutex<()> = Mutex::new(());

    /// Takes the lock; a test that failed while holding it does not fail
    /// the others.
    pub(crate) fn enabled_lock() -> MutexGuard<'static, ()> {
        ENABLED_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_registry_is_shared() {
        global().counter("metamess_lib_test_total").add(2);
        assert!(global().snapshot().counters["metamess_lib_test_total"] >= 2);
    }
}
