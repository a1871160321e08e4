//! The serving loop: a nonblocking readiness loop feeding a bounded
//! worker pool, with graceful drain.
//!
//! Threading model — one event thread (the caller of [`Server::run`]),
//! `workers` service threads, and an optional reload-poll thread:
//!
//! * The **event thread** owns every socket. It accepts, drives each
//!   connection's read/parse/write state machine ([`crate::conn`]) on
//!   readiness (one `poll(2)` per wait via [`crate::event_loop`], no
//!   async runtime), enforces all deadlines (idle, 408 read, write
//!   stall), and hands only *complete* requests to the worker pool. A slow-loris client costs
//!   one admission slot and a few bytes of buffer — never a worker.
//! * **Workers** pull complete requests from a bounded job queue, run the
//!   handler (panic-isolated: a panicking handler answers `500`, counted
//!   in `metamess_server_panics_total`, and the worker lives), serialize
//!   the response, and post it back to the event thread through a
//!   completion list plus a socket-pair wake.
//! * **Load shedding** answers `503 Retry-After: 1` in microseconds, at
//!   two points: admission caps concurrent connections at
//!   `workers + queue_depth` (the 503 is written inline on accept beyond
//!   that), and a parsed request that finds the job queue full is shed the
//!   same way. Every 503, like every protocol error, is built by one
//!   function, `closing_response`. With `queue_depth = 0` every request is
//!   refused deterministically — the E8 shed scenario.
//! * **Shutdown** (signal or [`crate::ShutdownHandle::trigger`]) stops
//!   accepting, closes idle keep-alive connections, and lets every
//!   connection with a request in flight finish, bounded by
//!   `drain_timeout`. Leftovers past the deadline are answered 503 and
//!   counted `dropped` (also `metamess_server_drained_dropped_total`).
//!   Worker joins are bounded by the configurable `drain_grace`.

use crate::http::{Limits, Request, Response};
use crate::pool::BoundedQueue;
use crate::shutdown::ShutdownHandle;
use crate::state::ServeState;
use metamess_core::{Error, Result};
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::Duration;

/// Upper bound for `--workers`: beyond this, threads thrash instead of
/// serving (clamped, like every other limit in the workspace).
pub const MAX_WORKERS: usize = 256;

/// Upper bound for `--queue-depth`: the shed threshold also caps
/// admitted connections, so this bounds event-loop memory.
pub const MAX_QUEUE_DEPTH: usize = 4096;

/// Clamps a worker count into `1..=MAX_WORKERS`.
pub fn clamp_workers(workers: usize) -> usize {
    workers.clamp(1, MAX_WORKERS)
}

/// Clamps a queue depth into `0..=MAX_QUEUE_DEPTH` (0 is a legitimate
/// shed-everything configuration, exercised by E8).
pub fn clamp_queue_depth(depth: usize) -> usize {
    depth.min(MAX_QUEUE_DEPTH)
}

/// Tunables for one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`host:port`; port 0 picks a free port).
    pub addr: String,
    /// Service threads.
    pub workers: usize,
    /// Requests allowed to wait beyond the workers; the shed threshold
    /// (and, with `workers`, the connection admission cap).
    pub queue_depth: usize,
    /// How long a keep-alive connection may sit idle between requests.
    pub idle_timeout: Duration,
    /// Deadline for writing a response once it is ready.
    pub request_timeout: Duration,
    /// How long shutdown waits for in-flight work to drain.
    pub drain_timeout: Duration,
    /// How long shutdown waits for worker threads to join after the
    /// drain completes (`--drain-grace-ms`; a worker pinned by a stalled
    /// handler is abandoned past this rather than holding exit hostage).
    pub drain_grace: Duration,
    /// Interval for the store-change poll (`None` disables polling;
    /// `POST /admin/reload` still works).
    pub poll_interval: Option<Duration>,
    /// Read-side request bounds.
    pub limits: Limits,
    /// Slow-query threshold in ms (`--slow-ms`): traces whose root span
    /// reaches it enter the slow-query log regardless of sampling.
    pub slow_ms: u64,
    /// Head-sampling rate for the flight recorder
    /// (`--trace-sample-rate`; clamped into `0.0..=1.0` at bind).
    pub trace_sample_rate: f64,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_depth: 64,
            idle_timeout: Duration::from_secs(30),
            request_timeout: Duration::from_secs(10),
            drain_timeout: Duration::from_secs(5),
            drain_grace: Duration::from_millis(500),
            poll_interval: Some(Duration::from_secs(2)),
            limits: Limits::default(),
            slow_ms: 100,
            trace_sample_rate: 1.0,
        }
    }
}

/// What one server lifetime did.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize)]
pub struct ServeSummary {
    /// Requests answered (including 4xx).
    pub served: u64,
    /// Connections/requests shed with 503 (admission cap or full queue).
    pub shed: u64,
    /// Connections still mid-request when the drain deadline expired.
    pub dropped: u64,
    /// Hot reloads that swapped an epoch.
    pub reloads: u64,
}

/// A complete request handed to the worker pool, tagged with the token of
/// the connection that must receive the response.
pub(crate) struct Job {
    pub(crate) token: u64,
    pub(crate) request: Request,
}

/// A serialized response on its way back to the event thread.
struct Completion {
    token: u64,
    bytes: Vec<u8>,
    keep_alive: bool,
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServeState>,
    config: ServerConfig,
    shutdown: ShutdownHandle,
}

impl Server {
    /// Binds the listener (so callers can learn the port before serving).
    /// `workers` and `queue_depth` are clamped to their documented bounds
    /// here, so every entry path — CLI, tests, embedding — is covered.
    pub fn bind(state: Arc<ServeState>, mut config: ServerConfig) -> Result<Server> {
        config.workers = clamp_workers(config.workers);
        config.queue_depth = clamp_queue_depth(config.queue_depth);
        config.trace_sample_rate =
            metamess_telemetry::trace::clamp_sample_rate(config.trace_sample_rate);
        state.set_trace_config(config.slow_ms, config.trace_sample_rate);
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| Error::io(format!("bind {}", config.addr), e))?;
        Ok(Server { listener, state, config, shutdown: ShutdownHandle::new() })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> Result<SocketAddr> {
        self.listener.local_addr().map_err(|e| Error::io("local_addr", e))
    }

    /// A handle that triggers graceful shutdown from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        self.shutdown.clone()
    }

    /// Serves until shutdown, then drains and reports. Blocks the calling
    /// thread (it becomes the event thread).
    #[cfg(unix)]
    pub fn run(self) -> Result<ServeSummary> {
        imp::run(self)
    }

    /// Serving requires a unix readiness primitive.
    #[cfg(not(unix))]
    pub fn run(self) -> Result<ServeSummary> {
        Err(Error::invalid("metamess serve requires a unix platform"))
    }
}

#[cfg(unix)]
mod imp {
    use super::*;
    use crate::conn::{Conn, ConnState, ReadEvent, WriteEvent};
    use crate::event_loop::{Event, Interest, Poller, Waker};
    use crate::{handlers, metrics};
    use std::collections::HashMap;
    use std::io::Write as _;
    use std::os::fd::AsRawFd;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Mutex, PoisonError};
    use std::time::Instant;

    /// The listener's poller token.
    const TOKEN_LISTENER: u64 = 0;
    /// The waker's poller token.
    const TOKEN_WAKER: u64 = 1;
    /// First connection token; tokens only ever increase, so a stale
    /// completion or event can never alias a newer connection.
    const TOKEN_FIRST_CONN: u64 = 2;
    /// Poll tick: upper bound on deadline/shutdown detection latency.
    const TICK: Duration = Duration::from_millis(25);
    /// The body of every shed 503.
    const SHED_MESSAGE: &str = "server at capacity, retry shortly";

    /// A response the event thread answers itself before closing: a
    /// protocol error (400/408/413/501) or a shed (503, with
    /// `retry-after: 1`). Neither reaches the handler's tracer; with
    /// telemetry on it gets a fresh trace id anyway, so even a rejected
    /// client has an id to quote back.
    fn closing_response(status: u16, message: &str) -> Vec<u8> {
        let mut response = Response::text(status, message);
        if status == 503 {
            response = response.with_header("retry-after", "1");
        }
        if metamess_telemetry::enabled() {
            let ctx = metamess_telemetry::trace::TraceContext::start(1.0);
            response = response.with_header("x-metamess-trace-id", ctx.trace_id_hex());
        }
        let mut bytes = Vec::with_capacity(160);
        response.serialize_into(&mut bytes, false);
        bytes
    }

    pub(super) fn run(server: Server) -> Result<ServeSummary> {
        let Server { listener, state, config, shutdown } = server;
        let queue = Arc::new(BoundedQueue::<Job>::new(config.queue_depth));
        let completions = Arc::new(Mutex::new(Vec::<Completion>::new()));
        let drain_complete = Arc::new(AtomicBool::new(false));

        let mut poller = Poller::new();
        let waker = Arc::new(Waker::new().map_err(|e| Error::io("create waker", e))?);
        listener.set_nonblocking(true).map_err(|e| Error::io("set_nonblocking", e))?;
        poller.register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ);
        poller.register(waker.fd(), TOKEN_WAKER, Interest::READ);

        let mut threads = Vec::new();
        for i in 0..config.workers {
            let queue = queue.clone();
            let completions = completions.clone();
            let waker = waker.clone();
            let state = state.clone();
            let shutdown = shutdown.clone();
            let drain_complete = drain_complete.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("metamess-worker-{i}"))
                    .spawn(move || {
                        worker_loop(
                            &queue,
                            &completions,
                            &waker,
                            &state,
                            &shutdown,
                            &drain_complete,
                        )
                    })
                    .map_err(|e| Error::io("spawn worker", e))?,
            );
        }
        if let Some(interval) = config.poll_interval {
            let state = state.clone();
            let shutdown = shutdown.clone();
            threads.push(
                std::thread::Builder::new()
                    .name("metamess-reload-poll".to_string())
                    .spawn(move || poll_loop(&state, &shutdown, interval))
                    .map_err(|e| Error::io("spawn reload poll", e))?,
            );
        }

        let mut lp = EventLoop {
            poller,
            conns: HashMap::new(),
            next_token: TOKEN_FIRST_CONN,
            queue: &queue,
            config: &config,
            max_conns: config.workers.saturating_add(config.queue_depth),
            served: 0,
            shed: 0,
            dropped: 0,
            draining: false,
        };

        let mut events: Vec<Event> = Vec::with_capacity(128);
        let result = (|| -> Result<()> {
            while !shutdown.is_shutdown() {
                lp.poller.wait(&mut events, Some(TICK)).map_err(|e| Error::io("poll wait", e))?;
                let now = Instant::now();
                for ev in &events {
                    match ev.token {
                        TOKEN_LISTENER => lp.accept_ready(&listener, now)?,
                        TOKEN_WAKER => waker.drain(),
                        token => lp.drive(token, ev, now),
                    }
                }
                lp.apply_completions(&completions, now);
                lp.sweep(now);
            }

            // ── drain ──────────────────────────────────────────────────
            lp.draining = true;
            lp.poller.deregister(listener.as_raw_fd());
            drop(listener);
            let deadline = Instant::now() + config.drain_timeout;
            while !lp.conns.is_empty() && Instant::now() < deadline {
                lp.poller.wait(&mut events, Some(TICK)).map_err(|e| Error::io("drain wait", e))?;
                let now = Instant::now();
                for ev in &events {
                    match ev.token {
                        TOKEN_LISTENER => {}
                        TOKEN_WAKER => waker.drain(),
                        token => lp.drive(token, ev, now),
                    }
                }
                lp.apply_completions(&completions, now);
                lp.sweep(now);
            }
            // Past the deadline: un-started jobs are abandoned and their
            // connections — like every other leftover — answered 503.
            let _ = lp.queue.drain();
            let leftovers: Vec<u64> = lp.conns.keys().copied().collect();
            for token in leftovers {
                lp.dropped += 1;
                metrics::record_drained_drop();
                if let Some(conn) = lp.conns.get_mut(&token) {
                    let _ = conn.stream.write(&closing_response(503, SHED_MESSAGE));
                }
                lp.close(token);
            }
            metrics::set_queue_depth(0);
            Ok(())
        })();

        // Whatever happened, release the workers: queue is drained (or the
        // error path abandons it), the flag lets them exit.
        let _ = queue.drain();
        drain_complete.store(true, Ordering::SeqCst);
        shutdown.trigger();
        let join_deadline = Instant::now() + config.drain_grace;
        for t in threads {
            while !t.is_finished() && Instant::now() < join_deadline {
                std::thread::sleep(Duration::from_millis(10));
            }
            if t.is_finished() {
                let _ = t.join();
            }
        }
        result?;

        Ok(ServeSummary {
            served: lp.served,
            shed: lp.shed,
            dropped: lp.dropped,
            reloads: state.reloads(),
        })
    }

    /// The single-threaded event loop state. All socket ownership and all
    /// counters live here; workers only ever see `Job`s and `Completion`s.
    struct EventLoop<'a> {
        poller: Poller,
        conns: HashMap<u64, Conn>,
        next_token: u64,
        queue: &'a BoundedQueue<Job>,
        config: &'a ServerConfig,
        max_conns: usize,
        served: u64,
        shed: u64,
        dropped: u64,
        draining: bool,
    }

    impl EventLoop<'_> {
        /// Accepts until the listener would block. Connections beyond the
        /// admission cap get the shed 503 written best-effort
        /// (nonblocking — a hostile peer cannot stall the event thread)
        /// and are closed.
        fn accept_ready(&mut self, listener: &TcpListener, now: Instant) -> Result<()> {
            loop {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        metrics::record_connection();
                        if self.conns.len() >= self.max_conns {
                            self.shed += 1;
                            metrics::record_shed();
                            let _ = stream.set_nonblocking(true);
                            let _ = (&stream).write(&closing_response(503, SHED_MESSAGE));
                            continue; // drop closes
                        }
                        let conn = match Conn::new(stream, now) {
                            Ok(c) => c,
                            Err(_) => continue,
                        };
                        let token = self.next_token;
                        self.next_token += 1;
                        self.poller.register(conn.stream.as_raw_fd(), token, Interest::READ);
                        metrics::conn_opened();
                        self.conns.insert(token, conn);
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(Error::io("accept", e)),
                }
            }
        }

        /// Routes one readiness event to the owning connection.
        fn drive(&mut self, token: u64, ev: &Event, now: Instant) {
            let Some(conn) = self.conns.get(&token) else { return }; // stale
            match conn.state {
                ConnState::Writing if ev.writable || ev.hangup => self.pump_write(token, now),
                ConnState::Reading if ev.readable || ev.hangup => self.pump_read(token, now),
                // Dispatched: backpressure — a hangup surfaces when the
                // completion tries to write.
                _ => {}
            }
        }

        /// Pumps the read side; a completed request is dispatched.
        fn pump_read(&mut self, token: u64, now: Instant) {
            let Some(conn) = self.conns.get_mut(&token) else { return };
            let limits = &self.config.limits;
            match conn.on_readable(limits, now) {
                ReadEvent::NeedMore => {}
                ReadEvent::Request(request) => self.dispatch(token, request, now),
                ReadEvent::Bad { status, message } => {
                    self.answer_error(token, status, message, now)
                }
                ReadEvent::Closed => self.close(token),
            }
            self.sync_interest(token);
        }

        /// Hands a complete request to the worker pool, or sheds it with
        /// an inline 503 when the job queue is full.
        fn dispatch(&mut self, token: u64, request: Request, now: Instant) {
            match self.queue.try_push(Job { token, request }) {
                Ok(()) => {
                    self.served += 1;
                    metrics::set_queue_depth(self.queue.len());
                }
                Err(_job) => {
                    self.shed += 1;
                    metrics::record_shed();
                    if let Some(conn) = self.conns.get_mut(&token) {
                        conn.begin_write(
                            closing_response(503, SHED_MESSAGE),
                            true,
                            now + self.config.request_timeout,
                        );
                    }
                    self.pump_write(token, now);
                }
            }
        }

        /// Answers a protocol error (400/408/413/501) and closes.
        fn answer_error(&mut self, token: u64, status: u16, message: String, now: Instant) {
            metrics::record_request("invalid", status, 0);
            let Some(conn) = self.conns.get_mut(&token) else { return };
            conn.begin_write(
                closing_response(status, &message),
                true,
                now + self.config.request_timeout,
            );
            self.pump_write(token, now);
        }

        /// Pumps the write side; on completion either closes or re-enters
        /// keep-alive (immediately parsing carried pipelined bytes).
        fn pump_write(&mut self, token: u64, now: Instant) {
            let Some(conn) = self.conns.get_mut(&token) else { return };
            match conn.on_writable() {
                WriteEvent::NeedMore => self.sync_interest(token),
                WriteEvent::Closed => self.close(token),
                WriteEvent::Done => {
                    if conn.close_after_write || self.draining {
                        self.close(token);
                        return;
                    }
                    let limits = &self.config.limits;
                    match conn.advance_keep_alive(limits, now) {
                        ReadEvent::NeedMore => self.sync_interest(token),
                        ReadEvent::Request(request) => {
                            self.dispatch(token, request, now);
                            self.sync_interest(token);
                        }
                        ReadEvent::Bad { status, message } => {
                            self.answer_error(token, status, message, now)
                        }
                        ReadEvent::Closed => self.close(token),
                    }
                }
            }
        }

        /// Applies worker completions: stale tokens (connection already
        /// timed out or dropped) are ignored safely.
        fn apply_completions(&mut self, completions: &Mutex<Vec<Completion>>, now: Instant) {
            let batch: Vec<Completion> =
                std::mem::take(&mut *completions.lock().unwrap_or_else(PoisonError::into_inner));
            for c in batch {
                let Some(conn) = self.conns.get_mut(&c.token) else { continue };
                if conn.state != ConnState::Dispatched {
                    continue;
                }
                conn.begin_write(c.bytes, !c.keep_alive, now + self.config.request_timeout);
                self.pump_write(c.token, now);
            }
        }

        /// Enforces deadlines: 408 for stalled request reads, silent close
        /// for idle keep-alive connections and stalled writers. During
        /// drain, idle connections are closed immediately.
        fn sweep(&mut self, now: Instant) {
            let mut to_408: Vec<u64> = Vec::new();
            let mut to_close: Vec<u64> = Vec::new();
            for (&token, conn) in &self.conns {
                match conn.state {
                    ConnState::Reading => {
                        if conn.read_deadline.is_some_and(|d| now >= d) {
                            to_408.push(token);
                        } else if conn.is_idle()
                            && (self.draining
                                || now.duration_since(conn.idle_since) >= self.config.idle_timeout)
                        {
                            to_close.push(token);
                        }
                    }
                    ConnState::Writing => {
                        if conn.write_deadline.is_some_and(|d| now >= d) {
                            to_close.push(token);
                        }
                    }
                    ConnState::Dispatched => {}
                }
            }
            for token in to_408 {
                metrics::record_conn_timeout();
                let message = match self.conns.get(&token) {
                    Some(c) if c.head_complete() => "timed out reading request body",
                    _ => "timed out reading request head",
                };
                self.answer_error(token, 408, message.to_string(), now);
            }
            for token in to_close {
                metrics::record_conn_timeout();
                self.close(token);
            }
        }

        /// Syncs the poller's interest with the connection's state.
        fn sync_interest(&mut self, token: u64) {
            let Some(conn) = self.conns.get_mut(&token) else { return };
            let want = match conn.state {
                ConnState::Reading => Interest::READ,
                ConnState::Dispatched => Interest::NONE,
                ConnState::Writing => Interest::WRITE,
            };
            if want != conn.registered {
                self.poller.modify(conn.stream.as_raw_fd(), want);
                conn.registered = want;
            }
        }

        /// Removes a connection (deregisters, closes, balances the gauge).
        fn close(&mut self, token: u64) {
            if let Some(conn) = self.conns.remove(&token) {
                self.poller.deregister(conn.stream.as_raw_fd());
                metrics::conn_closed();
            }
        }
    }

    /// One worker: pop a complete request, handle it (panic-isolated),
    /// serialize the response, post the completion, wake the event thread.
    fn worker_loop(
        queue: &BoundedQueue<Job>,
        completions: &Mutex<Vec<Completion>>,
        waker: &Waker,
        state: &ServeState,
        shutdown: &ShutdownHandle,
        drain_complete: &AtomicBool,
    ) {
        loop {
            match queue.pop(Duration::from_millis(50)) {
                Some(job) => {
                    metrics::set_queue_depth(queue.len());
                    let start = Instant::now();
                    let (route, response) =
                        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            handlers::handle(state, &job.request)
                        })) {
                            Ok(answered) => answered,
                            Err(_) => {
                                metrics::record_panic();
                                // The handler unwound mid-trace: finish the
                                // orphaned trace (it still documents what
                                // the request did before dying) so this
                                // worker's next request can begin afresh.
                                let response = Response::text(500, "internal error");
                                let response = match metamess_telemetry::trace::end(u64::MAX) {
                                    Some(fin) => response
                                        .with_header("x-metamess-trace-id", fin.trace_id_hex()),
                                    None => response,
                                };
                                ("panic", response)
                            }
                        };
                    // During drain, answer but close: no new keep-alive
                    // cycles once shutdown has been requested.
                    let keep_alive = job.request.wants_keep_alive() && !shutdown.is_shutdown();
                    metrics::record_request(
                        route,
                        response.status,
                        start.elapsed().as_micros() as u64,
                    );
                    let mut bytes = Vec::with_capacity(response.body.len() + 160);
                    response.serialize_into(&mut bytes, keep_alive);
                    completions.lock().unwrap_or_else(PoisonError::into_inner).push(Completion {
                        token: job.token,
                        bytes,
                        keep_alive,
                    });
                    waker.wake();
                }
                // Exit only once the event loop has finished draining AND
                // the queue is empty — dispatched work is never abandoned
                // by a live worker.
                None => {
                    if drain_complete.load(Ordering::SeqCst) && queue.is_empty() {
                        return;
                    }
                }
            }
        }
    }

    /// Polls the store signature, hot-reloading when a publish lands. A
    /// failed reload keeps the previous epoch serving and has already been
    /// counted and logged by the state, so there is nothing to do with it.
    fn poll_loop(state: &ServeState, shutdown: &ShutdownHandle, interval: Duration) {
        let mut last = Instant::now();
        while !shutdown.is_shutdown() {
            std::thread::sleep(Duration::from_millis(50).min(interval));
            if last.elapsed() >= interval {
                let _ = state.poll_reload();
                last = Instant::now();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_and_queue_clamps() {
        assert_eq!(clamp_workers(0), 1);
        assert_eq!(clamp_workers(4), 4);
        assert_eq!(clamp_workers(usize::MAX), MAX_WORKERS);
        assert_eq!(clamp_queue_depth(0), 0, "queue depth 0 is shed-everything, kept");
        assert_eq!(clamp_queue_depth(64), 64);
        assert_eq!(clamp_queue_depth(usize::MAX), MAX_QUEUE_DEPTH);
    }

    #[test]
    fn default_config_is_within_clamped_bounds() {
        let c = ServerConfig::default();
        assert_eq!(clamp_workers(c.workers), c.workers);
        assert_eq!(clamp_queue_depth(c.queue_depth), c.queue_depth);
        assert!(c.drain_grace > Duration::ZERO);
    }
}
