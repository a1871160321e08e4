//! # metamess-server
//!
//! An embedded HTTP/1.1 JSON service over `std::net::TcpListener` that
//! turns the in-process "Data Near Here"
//! [`SearchEngine`](metamess_search::SearchEngine) into the network
//! service the paper describes — dependency-light (no async runtime; std +
//! serde), but with real robustness properties:
//!
//! * **Event-driven I/O.** A single nonblocking readiness loop (one
//!   `poll(2)` call per wait on every unix, the crate's only foreign call
//!   besides the signal install — still no async runtime) owns every
//!   socket and hands only *complete* requests to the worker pool. A slow
//!   or stalled client costs one connection slot and a few buffered
//!   bytes, never a worker thread.
//! * **Bounded concurrency.** A fixed worker pool serves parsed requests
//!   handed over through a bounded job queue ([`BoundedQueue`]); memory
//!   and thread use are constant under any offered load. Admitted
//!   connections are capped at `workers + queue_depth`.
//! * **Load shedding.** Past the admission cap, or when the job queue is
//!   full, clients are answered `503 Retry-After: 1` immediately, by the
//!   same path that answers protocol errors — backpressure is explicit
//!   and bounded, never an unbounded buffer or a hang.
//! * **Deadlines everywhere.** Idle keep-alive timeout, per-request read
//!   deadline (408), bounded head/body sizes (413), write deadlines —
//!   all enforced by the event loop's sweep, no per-connection timers.
//! * **Hot reload.** The catalog sits behind an epoch pointer
//!   ([`ServeState`]); a filesystem poll or `POST /admin/reload` swaps in
//!   a freshly built [`EngineEpoch`] when the published generation
//!   advances, without dropping in-flight requests. The generation-stamped
//!   result cache carries over (stale entries die by stamp mismatch).
//! * **Graceful shutdown.** SIGTERM / ctrl-c / [`ShutdownHandle::trigger`]
//!   stop the accept loop, drain queued connections, and report a
//!   [`ServeSummary`] with a `dropped` count (zero in a healthy drain).
//!
//! Endpoints: `POST /search` (`?explain=1` adds the per-phase breakdown),
//! `GET /datasets/<path>`, `GET /browse`, `GET /healthz`, `GET /metrics`
//! (Prometheus, byte-identical to `metamess stats --prometheus` for the
//! same snapshot — see [`store_snapshot`]), `GET /debug/traces`
//! (flight-recorder / slow-query-log JSON; `?slow=1`, `?id=<hex>`),
//! `POST /admin/reload`.
//!
//! Every handled response carries an `X-Metamess-Trace-Id` header; the
//! request's span tree is retrievable from `/debug/traces?id=` or
//! `metamess trace` while it remains in the ring (see
//! `metamess_telemetry::trace`).
//!
//! ```no_run
//! use metamess_server::{ServeState, Server, ServerConfig};
//! use std::sync::Arc;
//!
//! let state = Arc::new(ServeState::open("archive/.metamess")?);
//! let server = Server::bind(state, ServerConfig::default())?;
//! println!("listening on {}", server.local_addr()?);
//! let summary = server.run()?; // blocks until shutdown
//! println!("served {} requests", summary.served);
//! # Ok::<(), metamess_core::Error>(())
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

#[cfg(unix)]
mod conn;
#[cfg(unix)]
mod event_loop;
mod expose;
mod handlers;
mod http;
mod metrics;
mod pool;
mod router;
mod server;
mod shutdown;
mod state;

pub use expose::store_snapshot;
pub use handlers::handle;
pub use http::{percent_decode, status_text, Limits, Parse, Request, Response};
pub use pool::BoundedQueue;
pub use router::{route, Route};
pub use server::{
    clamp_queue_depth, clamp_workers, ServeSummary, Server, ServerConfig, MAX_QUEUE_DEPTH,
    MAX_WORKERS,
};
pub use shutdown::ShutdownHandle;
pub use state::{EngineEpoch, ReloadOutcome, ServeState};

// Workers share the job queue and one `Arc<ServeState>`; assert the whole
// state graph stays thread-safe at compile time.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ServeState>();
    assert_send_sync::<EngineEpoch>();
    assert_send_sync::<ShutdownHandle>();
    assert_send_sync::<BoundedQueue<Request>>();
};
