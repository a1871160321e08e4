//! The shardd side of the protocol: one [`ShardEngine`] behind a TCP
//! listener, answering Hello/Probe/Score frames.
//!
//! [`ShardHost`] is the pure request handler — frame in, frame out, no
//! I/O — shared verbatim by the TCP server and the in-process
//! [`FaultTransport`](crate::fault::FaultTransport), so the fault suite
//! exercises the exact production handler. Every failure becomes an
//! `Error` frame echoing the request's trace id; the handler never
//! panics on hostile input.
//!
//! [`Shardd`] is the listener: a deliberately lean blocking accept loop
//! with a bounded thread-per-connection pool, **not** the serve crate's
//! `poll(2)` readiness loop. The dependency points the other way (the server
//! crate consumes this one for `--remote`), and the fan-in here is tiny
//! by construction — one coordinator holds a handful of pooled
//! connections per shard — so nonblocking accept + capped threads covers
//! the load without duplicating the event loop.

use crate::frame::{Frame, FrameKind};
use crate::wire::{
    HelloResponse, ProbeRequest, ProbeResponse, ScoreRequest, ScoreResponse, WireError,
};
use metamess_core::catalog::Catalog;
use metamess_core::error::{Error, Result};
use metamess_core::store::Row;
use metamess_search::fanout::{
    build_shard, build_shard_from, generous, probe_summary, score_counted,
};
use metamess_search::{QueryPlan, ShardEngine, ShardSpec};
use metamess_vocab::Vocabulary;
use std::io::ErrorKind;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Concurrent connections one shardd serves; beyond this, new
/// connections are answered with an `Error` frame and closed.
const MAX_CONNS: usize = 64;

/// How long a connection may sit idle mid-stream before its thread gives
/// up on it.
const CONN_IDLE: Duration = Duration::from_secs(30);

/// One hosted shard: the engine, its identity in the layout, and the
/// vocabulary to plan queries with. Pure — all I/O lives in [`Shardd`].
pub struct ShardHost {
    engine: ShardEngine,
    vocab: Vocabulary,
    shard_id: u32,
    shard_count: u32,
    generation: u64,
}

impl ShardHost {
    /// Builds shard `shard_id` of the layout `spec` over a catalog
    /// snapshot — the same partition assignment the in-process sharded
    /// engine uses, so a fleet of hosts covers the catalog exactly. Only
    /// the hosted shard's features are encoded; none is cloned.
    pub fn build(
        catalog: &Catalog,
        vocab: Vocabulary,
        spec: ShardSpec,
        shard_id: usize,
    ) -> Result<ShardHost> {
        let generation = catalog.generation();
        ShardHost::host(vocab, spec, shard_id, generation, |v| {
            build_shard(catalog, v, spec, shard_id)
        })
    }

    /// [`ShardHost::build`] over the rows a store read returned (the ones
    /// `metamess shardd` just read), at catalog generation `generation`: the
    /// hosted shard keeps its rows and drops the other shards', decoding
    /// none.
    pub fn from_rows(
        rows: Vec<Row>,
        generation: u64,
        vocab: Vocabulary,
        spec: ShardSpec,
        shard_id: usize,
    ) -> Result<ShardHost> {
        ShardHost::host(vocab, spec, shard_id, generation, |v| {
            build_shard_from(rows, v, spec, shard_id)
        })
    }

    fn host(
        vocab: Vocabulary,
        spec: ShardSpec,
        shard_id: usize,
        generation: u64,
        engine: impl FnOnce(&Vocabulary) -> ShardEngine,
    ) -> Result<ShardHost> {
        if shard_id >= spec.count() {
            return Err(Error::invalid(format!(
                "shard id {shard_id} out of range for a {}-shard layout",
                spec.count()
            )));
        }
        Ok(ShardHost {
            engine: engine(&vocab),
            vocab,
            shard_id: shard_id as u32,
            shard_count: spec.count() as u32,
            generation,
        })
    }

    /// Datasets in the hosted shard.
    pub fn len(&self) -> usize {
        self.engine.len()
    }

    /// True when the hosted shard is empty.
    pub fn is_empty(&self) -> bool {
        self.engine.is_empty()
    }

    /// The catalog generation the hosted engine was built against.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Answers one request frame. Infallible by construction: every
    /// error becomes an `Error` frame carrying the request's trace id.
    pub fn handle_frame(&self, request: &Frame) -> Frame {
        match self.try_handle(request) {
            Ok(response) => response,
            Err(e) => Frame::new(
                FrameKind::Error,
                request.trace_id,
                &WireError { message: e.to_string() },
            ),
        }
    }

    fn try_handle(&self, request: &Frame) -> Result<Frame> {
        match request.kind {
            FrameKind::Hello => {
                let response = HelloResponse {
                    shard_id: self.shard_id,
                    shard_count: self.shard_count,
                    generation: self.generation,
                    datasets: self.engine.len() as u64,
                };
                Ok(Frame::new(FrameKind::HelloOk, request.trace_id, &response))
            }
            FrameKind::Probe => {
                let req: ProbeRequest = request.parse_payload()?;
                req.query.check()?;
                let plan = QueryPlan::prepare(&req.query, &self.vocab);
                let summary =
                    probe_summary(&self.engine, &req.query, &plan, generous(req.query.limit));
                let response = ProbeResponse { generation: self.generation, summary };
                Ok(Frame::new(FrameKind::ProbeOk, request.trace_id, &response))
            }
            FrameKind::Score => {
                let req: ScoreRequest = request.parse_payload()?;
                req.query.check()?;
                let plan = QueryPlan::prepare(&req.query, &self.vocab);
                let (hits, scored) =
                    score_counted(&self.engine, &req.query, &plan, &self.vocab, &req.work);
                let response =
                    ScoreResponse { generation: self.generation, hits, scored: scored as u64 };
                Ok(Frame::new(FrameKind::ScoreOk, request.trace_id, &response))
            }
            other => Err(Error::invalid(format!(
                "shardd answers Hello/Probe/Score requests, not {other:?}"
            ))),
        }
    }
}

/// A running shardd listener. Dropping it does **not** stop the server;
/// call [`Shardd::shutdown`].
pub struct Shardd {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl Shardd {
    /// Binds `addr` (e.g. `127.0.0.1:0`) and serves `host` until
    /// [`Shardd::shutdown`].
    pub fn spawn(host: Arc<ShardHost>, addr: &str) -> Result<Shardd> {
        let listener = TcpListener::bind(addr)
            .map_err(|e| Error::io(format!("binding shardd listener on {addr}"), e))?;
        let local =
            listener.local_addr().map_err(|e| Error::io("reading shardd listener address", e))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| Error::io("setting shardd listener nonblocking", e))?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_accept = stop.clone();
        let accept_thread = std::thread::spawn(move || {
            let live = Arc::new(AtomicUsize::new(0));
            while !stop_accept.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        if live.load(Ordering::Relaxed) >= MAX_CONNS {
                            reject_over_capacity(stream);
                            continue;
                        }
                        live.fetch_add(1, Ordering::Relaxed);
                        let host = host.clone();
                        let live = live.clone();
                        let stop = stop_accept.clone();
                        std::thread::spawn(move || {
                            serve_connection(stream, &host, &stop);
                            live.fetch_sub(1, Ordering::Relaxed);
                        });
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(5)),
                }
            }
        });
        Ok(Shardd { addr: local, stop, accept_thread: Some(accept_thread) })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Stops accepting and joins the accept loop. In-flight connections
    /// finish their current frame and then notice the flag.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Shardd {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

fn reject_over_capacity(mut stream: TcpStream) {
    let frame = Frame::new(
        FrameKind::Error,
        0,
        &WireError { message: "shardd at connection capacity".to_string() },
    );
    let _ = crate::frame::write_frame(&mut stream, &frame);
}

/// One connection: read a frame, answer it, repeat until the peer hangs
/// up, the idle deadline passes, or shutdown is requested. Read errors
/// that can be answered (bad CRC, truncation, wrong version) get an
/// `Error` frame before the close, so a confused coordinator sees *why*.
fn serve_connection(mut stream: TcpStream, host: &ShardHost, stop: &AtomicBool) {
    let on = metamess_telemetry::enabled();
    stream.set_read_timeout(Some(CONN_IDLE)).ok();
    stream.set_nodelay(true).ok();
    while !stop.load(Ordering::Relaxed) {
        let request = match crate::frame::read_frame(&mut stream) {
            Ok(Some(f)) => f,
            Ok(None) => break,
            Err(Error::Io { .. }) => break,
            Err(e) => {
                let frame = Frame::new(FrameKind::Error, 0, &WireError { message: e.to_string() });
                let _ = crate::frame::write_frame(&mut stream, &frame);
                break;
            }
        };
        // A request that arrives after shutdown is dropped, not answered:
        // the coordinator sees the close, fails the attempt, and its
        // circuit/partial machinery takes over deterministically.
        if stop.load(Ordering::Relaxed) {
            break;
        }
        if on {
            metamess_telemetry::global().counter("metamess_remote_shardd_requests_total").inc();
        }
        let response = host.handle_frame(&request);
        if crate::frame::write_frame(&mut stream, &response).is_err() {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::HelloRequest;
    use metamess_core::feature::DatasetFeature;
    use metamess_search::Query;

    fn tiny_catalog() -> Catalog {
        let mut c = Catalog::new();
        for i in 0..8 {
            let mut d = DatasetFeature::new(format!("d{i}.csv"));
            d.title = format!("dataset {i}");
            c.put(d);
        }
        c
    }

    #[test]
    fn handler_answers_hello_probe_score_and_rejects_the_rest() {
        let c = tiny_catalog();
        let host = ShardHost::build(&c, Vocabulary::observatory_default(), ShardSpec::single(), 0)
            .unwrap();
        let hello = host.handle_frame(&Frame::new(FrameKind::Hello, 7, &HelloRequest::default()));
        assert_eq!(hello.kind, FrameKind::HelloOk);
        assert_eq!(hello.trace_id, 7, "responses echo the request trace id");
        let parsed: HelloResponse = hello.parse_payload().unwrap();
        assert_eq!(parsed.shard_id, 0);
        assert_eq!(parsed.datasets, 8);

        let probe = host.handle_frame(&Frame::new(
            FrameKind::Probe,
            9,
            &ProbeRequest { query: Query::new() },
        ));
        assert_eq!(probe.kind, FrameKind::ProbeOk);

        // a response kind as a request is a clean error, not a panic
        let bogus = host.handle_frame(&Frame::new(FrameKind::ScoreOk, 3, &()));
        assert_eq!(bogus.kind, FrameKind::Error);
        assert_eq!(bogus.trace_id, 3);

        // garbage payload under a valid kind: typed error
        let garbage = Frame { kind: FrameKind::Probe, trace_id: 1, payload: b"not json".to_vec() };
        assert_eq!(host.handle_frame(&garbage).kind, FrameKind::Error);
    }

    #[test]
    fn a_host_over_rows_answers_like_a_host_over_the_catalog() {
        use metamess_core::store::Image;
        let c = tiny_catalog();
        let image = Arc::new(Image::encode(&c.iter().collect::<Vec<_>>()));
        let spec = ShardSpec::new(3, metamess_search::Partitioner::Hash);
        let vocab = Vocabulary::observatory_default();
        let q = ScoreRequest { query: Query::new(), work: metamess_search::ScoreWork::Full };
        for k in 0..3 {
            let built = ShardHost::build(&c, vocab.clone(), spec, k).unwrap();
            let rows = image.rows().collect();
            let kept = ShardHost::from_rows(rows, c.generation(), vocab.clone(), spec, k).unwrap();
            assert_eq!((kept.len(), kept.generation()), (built.len(), built.generation()));
            let score =
                |h: &ShardHost| h.handle_frame(&Frame::new(FrameKind::Score, 1, &q)).payload;
            assert_eq!(score(&kept), score(&built), "shard {k}");
        }
        // the hosts are gone, and every row they kept went with them
        assert_eq!(Arc::strong_count(&image), 1);
    }

    #[test]
    fn out_of_range_shard_id_is_rejected_at_build() {
        let c = tiny_catalog();
        let spec = ShardSpec::new(2, metamess_search::Partitioner::Hash);
        assert!(ShardHost::build(&c, Vocabulary::observatory_default(), spec, 2).is_err());
    }
}
