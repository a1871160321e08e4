//! Lightweight duration spans.
//!
//! A span is a scope guard: entering takes a timestamp, dropping records
//! the elapsed microseconds into the global histogram
//! `metamess_span_micros{span="<name>"}` and mirrors the duration to
//! stderr at debug level (entry is mirrored at trace level). When
//! telemetry is disabled, [`Span::enter`] is a single flag check — no
//! clock read, no registry lookup, no allocation.

use crate::log::{log_enabled, log_write, Level};
use crate::metric::Histogram;
use crate::registry::labeled;
use std::sync::Arc;
use std::time::Instant;

/// A live span; records its duration when dropped.
#[must_use = "a span records on drop — bind it with `let _span = span!(..)`"]
pub struct Span {
    inner: Option<SpanInner>,
}

struct SpanInner {
    name: &'static str,
    hist: Arc<Histogram>,
    start: Instant,
}

impl Span {
    /// Enters a span. No-op (single branch) when telemetry is disabled.
    pub fn enter(name: &'static str) -> Span {
        if !crate::enabled() {
            return Span { inner: None };
        }
        if log_enabled(Level::Trace) {
            log_write(Level::Trace, "span", &format!("enter {name}"));
        }
        let hist = crate::global().histogram(&labeled("metamess_span_micros", "span", name));
        Span { inner: Some(SpanInner { name, hist, start: Instant::now() }) }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(i) = self.inner.take() {
            // A span unwound by a panic measures "work + unwind", which
            // would pollute the phase latency histogram; record the event
            // under a dedicated counter instead.
            if std::thread::panicking() {
                crate::global()
                    .counter(&labeled("metamess_span_panicked_total", "span", i.name))
                    .inc();
                return;
            }
            let micros = i.start.elapsed().as_micros() as u64;
            i.hist.record(micros);
            crate::trace::record_span(i.name, micros, None);
            if log_enabled(Level::Debug) {
                log_write(Level::Debug, "span", &format!("{} took {micros}µs", i.name));
            }
        }
    }
}

/// Opens a [`Span`] that records its duration when it goes out of scope:
///
/// ```
/// let _span = metamess_telemetry::span!("search.score");
/// // ... timed work ...
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::Span::enter($name)
    };
}

/// A conditionally armed phase timer: when `on` is false, construction and
/// reading are branch-only — no clock syscall. The instrumented hot paths
/// use this so the disabled-telemetry cost is exactly one flag check.
pub struct Stopwatch(Option<Instant>);

impl Stopwatch {
    /// Starts timing when `on`, otherwise stays inert.
    pub fn start_if(on: bool) -> Stopwatch {
        Stopwatch(on.then(Instant::now))
    }

    /// Elapsed microseconds (0 when inert).
    pub fn micros(&self) -> u64 {
        self.0.map(|t| t.elapsed().as_micros() as u64).unwrap_or(0)
    }

    /// True when armed.
    pub fn armed(&self) -> bool {
        self.0.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::enabled_lock;

    #[test]
    fn span_records_into_global_histogram() {
        let _guard = enabled_lock();
        crate::global().set_enabled(true);
        let name = labeled("metamess_span_micros", "span", "test.span");
        let before = crate::global().histogram(&name).count();
        {
            let _span = Span::enter("test.span");
        }
        assert_eq!(crate::global().histogram(&name).count(), before + 1);
    }

    #[test]
    fn disabled_span_records_nothing() {
        let _guard = enabled_lock();
        crate::global().set_enabled(true);
        let name = labeled("metamess_span_micros", "span", "test.disabled");
        let before = crate::global().histogram(&name).count();
        crate::global().set_enabled(false);
        {
            let _span = Span::enter("test.disabled");
        }
        crate::global().set_enabled(true);
        assert_eq!(crate::global().histogram(&name).count(), before);
    }

    #[test]
    fn panicking_span_records_counter_not_histogram() {
        let _guard = enabled_lock();
        crate::global().set_enabled(true);
        let hist = labeled("metamess_span_micros", "span", "test.panic");
        let ctr = labeled("metamess_span_panicked_total", "span", "test.panic");
        let hist_before = crate::global().histogram(&hist).count();
        let ctr_before = crate::global().counter(&ctr).get();
        let unwound = std::panic::catch_unwind(|| {
            let _span = Span::enter("test.panic");
            panic!("handler blew up");
        });
        assert!(unwound.is_err());
        assert_eq!(
            crate::global().histogram(&hist).count(),
            hist_before,
            "unwind time must not enter the latency histogram"
        );
        assert_eq!(crate::global().counter(&ctr).get(), ctr_before + 1);
    }

    #[test]
    fn stopwatch_inert_when_off() {
        let off = Stopwatch::start_if(false);
        assert!(!off.armed());
        assert_eq!(off.micros(), 0);
        let on = Stopwatch::start_if(true);
        assert!(on.armed());
    }
}
