//! Socket-level integration tests: real `TcpStream` clients driving a
//! running server thread through the robustness properties the crate
//! promises — protocol errors, size bounds, keep-alive reuse, concurrent
//! correctness, deterministic shedding, graceful drain, and hot reload.

use metamess_core::{DatasetFeature, DurableCatalog, StoreOptions, VariableFeature};
use metamess_server::{Limits, ServeState, ServeSummary, Server, ServerConfig, ShutdownHandle};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

fn fixture_store(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("metamess-http-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut store = DurableCatalog::open(dir.join("catalog"), StoreOptions::default()).unwrap();
    let mut ctd = DatasetFeature::new("2014/07/saturn01_ctd.csv");
    ctd.variables.push(VariableFeature::new("water_temperature"));
    store.put(ctd).unwrap();
    store.put(DatasetFeature::new("2014/07/jetty_met.csv")).unwrap();
    store.checkpoint().unwrap();
    drop(store);
    dir
}

struct TestServer {
    addr: SocketAddr,
    dir: PathBuf,
    shutdown: ShutdownHandle,
    thread: JoinHandle<metamess_core::Result<ServeSummary>>,
}

impl TestServer {
    fn stop(self) -> ServeSummary {
        self.shutdown.trigger();
        self.thread.join().expect("server thread").expect("serve summary")
    }
}

/// Binds a server on a free port over the given store and runs it on a
/// background thread. Tests tweak the config through the closure.
fn serve(dir: PathBuf, tweak: impl FnOnce(&mut ServerConfig)) -> TestServer {
    let mut config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_depth: 16,
        idle_timeout: Duration::from_secs(5),
        request_timeout: Duration::from_secs(5),
        drain_timeout: Duration::from_secs(5),
        drain_grace: Duration::from_millis(500),
        poll_interval: None,
        limits: Limits::default(),
        ..ServerConfig::default()
    };
    tweak(&mut config);
    let state = Arc::new(ServeState::open(&dir).expect("open store"));
    let server = Server::bind(state, config).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let shutdown = server.shutdown_handle();
    let thread = std::thread::spawn(move || server.run());
    TestServer { addr, dir, shutdown, thread }
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream
}

/// Reads exactly one response off the stream: status, lowercased headers,
/// and a `Content-Length`-delimited body. The head is read a byte at a
/// time and the body to its exact length, so a pipelined next response
/// stays in the socket for the next call.
fn read_response(stream: &mut TcpStream) -> (u16, Vec<(String, String)>, Vec<u8>) {
    let mut buf: Vec<u8> = Vec::new();
    let mut byte = [0u8; 1];
    while !buf.ends_with(b"\r\n\r\n") {
        let n = stream.read(&mut byte).expect("read response head");
        assert!(n > 0, "connection closed before a full head: {:?}", String::from_utf8_lossy(&buf));
        buf.push(byte[0]);
    }
    let head = String::from_utf8(buf).expect("utf-8 head");
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let status: u16 =
        status_line.split(' ').nth(1).expect("status code").parse().expect("numeric status");
    let headers: Vec<(String, String)> = lines
        .filter(|l| !l.is_empty())
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    let content_length: usize = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .map(|(_, v)| v.parse().expect("numeric content-length"))
        .unwrap_or(0);
    let mut body = vec![0u8; content_length];
    stream.read_exact(&mut body).expect("read response body");
    (status, headers, body)
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
}

/// One-shot exchange: connect, write the raw request bytes, read one
/// response.
fn raw(addr: SocketAddr, bytes: &[u8]) -> (u16, Vec<(String, String)>, Vec<u8>) {
    let mut stream = connect(addr);
    stream.write_all(bytes).expect("write request");
    read_response(&mut stream)
}

fn get_bytes(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nhost: test\r\nconnection: close\r\n\r\n").into_bytes()
}

fn post_bytes(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn get(addr: SocketAddr, path: &str) -> (u16, Vec<(String, String)>, Vec<u8>) {
    raw(addr, &get_bytes(path))
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, Vec<(String, String)>, Vec<u8>) {
    raw(addr, &post_bytes(path, body))
}

#[test]
fn malformed_request_line_is_400() {
    let server = serve(fixture_store("malformed"), |_| {});
    let (status, _, body) = raw(server.addr, b"this is not http\r\n\r\n");
    assert_eq!(status, 400, "{:?}", String::from_utf8_lossy(&body));
    server.stop();
}

#[test]
fn oversized_head_is_413() {
    let server = serve(fixture_store("bighead"), |c| c.limits.max_header_bytes = 256);
    let mut request = b"GET /healthz HTTP/1.1\r\nx-pad: ".to_vec();
    request.extend(std::iter::repeat_n(b'a', 1024));
    // No terminating blank line: the head keeps growing past the cap.
    let (status, _, _) = raw(server.addr, &request);
    assert_eq!(status, 413);
    server.stop();
}

#[test]
fn oversized_body_is_413_without_reading_it() {
    let server = serve(fixture_store("bigbody"), |_| {});
    // Default cap is 1 MiB; announce more and send nothing — the 413 must
    // arrive from the Content-Length header alone.
    let (status, _, _) =
        raw(server.addr, b"POST /search HTTP/1.1\r\nhost: t\r\ncontent-length: 9999999\r\n\r\n");
    assert_eq!(status, 413);
    server.stop();
}

#[test]
fn unknown_route_is_404_and_wrong_method_is_405_with_allow() {
    let server = serve(fixture_store("routes"), |_| {});
    let (status, _, _) = get(server.addr, "/nope");
    assert_eq!(status, 404);
    let (status, headers, _) = get(server.addr, "/search");
    assert_eq!(status, 405);
    assert_eq!(header(&headers, "allow"), Some("POST"));
    server.stop();
}

#[test]
fn keep_alive_serves_many_requests_on_one_connection() {
    let server = serve(fixture_store("keepalive"), |_| {});
    let mut stream = connect(server.addr);
    for i in 0..3 {
        stream.write_all(b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n").unwrap();
        let (status, headers, body) = read_response(&mut stream);
        assert_eq!(status, 200, "request {i}");
        assert_eq!(header(&headers, "connection"), Some("keep-alive"), "request {i}");
        let v: serde_json::Value = serde_json::from_slice(&body).unwrap();
        assert_eq!(v["status"].as_str(), Some("ok"));
    }
    // An explicit close is honored: response says close, then EOF.
    stream.write_all(b"GET /healthz HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n").unwrap();
    let (status, headers, _) = read_response(&mut stream);
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "connection"), Some("close"));
    let mut extra = [0u8; 1];
    assert_eq!(stream.read(&mut extra).expect("read after close"), 0, "expected EOF");
    let summary = server.stop();
    assert_eq!(summary.served, 4);
}

#[test]
fn pipelined_requests_in_one_segment_are_both_served() {
    let server = serve(fixture_store("pipeline"), |_| {});
    let mut stream = connect(server.addr);
    // Both requests in a single write: the second one's bytes arrive in
    // the same read as the first one's body, and must be carried over to
    // the next request instead of being truncated away.
    let body = r#"{"q":"with water_temperature"}"#;
    let mut bytes =
        format!("POST /search HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n{body}", body.len())
            .into_bytes();
    bytes.extend_from_slice(b"GET /healthz HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n");
    stream.write_all(&bytes).unwrap();
    let (status, _, body) = read_response(&mut stream);
    assert_eq!(status, 200, "{:?}", String::from_utf8_lossy(&body));
    let v: serde_json::Value = serde_json::from_slice(&body).unwrap();
    assert!(v["count"].as_u64().unwrap() >= 1, "{v}");
    let (status, _, body) = read_response(&mut stream);
    assert_eq!(status, 200, "{:?}", String::from_utf8_lossy(&body));
    let v: serde_json::Value = serde_json::from_slice(&body).unwrap();
    assert_eq!(v["status"].as_str(), Some("ok"));
    let summary = server.stop();
    assert_eq!(summary.served, 2);
}

#[test]
fn absurd_limit_is_clamped_not_fatal() {
    let server = serve(fixture_store("hugelimit"), |_| {});
    // Used to panic the worker thread (unclamped TopK preallocation); a
    // few of these would permanently disable the whole pool.
    for _ in 0..4 {
        let (status, _, body) = post(
            server.addr,
            "/search",
            r#"{"q":"with water_temperature","limit":18446744073709551615}"#,
        );
        assert_eq!(status, 200, "{:?}", String::from_utf8_lossy(&body));
    }
    // The pool is still alive and serving.
    let (status, _, _) = get(server.addr, "/healthz");
    assert_eq!(status, 200);
    server.stop();
}

#[test]
fn a_query_that_names_no_place_or_weight_is_400_naming_the_field() {
    let server = serve(fixture_store("refused"), |_| {});
    let near = |radius: &str| {
        format!(
            r#"{{"spatial":{{"Near":{{"point":{{"lat":45,"lon":-124}},"radius_km":{radius}}}}}}}"#
        )
    };
    let weights = |space: &str| {
        format!(r#"{{"weights":{{"space":{space},"time":1,"variables":1}},"limit":3}}"#)
    };
    let inverted = r#"{"spatial":{"Region":{"min_lat":50,"max_lat":-50,"min_lon":0,"max_lon":1}}}"#;
    for (body, field) in [
        (near("null"), "radius_km NaN"),
        (weights("-1"), "weights.space -1"),
        (weights("null"), "weights.space NaN"),
        (inverted.to_string(), "region: bounding box not normalized"),
        (r#"{"q":"near 45,-124 within infkm"}"#.to_string(), "radius_km inf"),
    ] {
        let (status, _, got) = post(server.addr, "/search", &body);
        let got = String::from_utf8_lossy(&got);
        assert_eq!(status, 400, "{body}: {got}");
        assert!(got.contains(field), "{body}: {got}");
    }
    // the same shapes with numbers that name a place and a weight answer
    let (status, _, got) = post(server.addr, "/search", &near("25"));
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&got));
    let (status, _, got) = post(server.addr, "/search", &weights("0"));
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&got));
    server.stop();
}

#[test]
fn concurrent_responses_match_single_threaded_bit_for_bit() {
    let server = serve(fixture_store("concurrent"), |c| c.workers = 4);
    let requests: Vec<Vec<u8>> = vec![
        post_bytes("/search", r#"{"q":"with water_temperature"}"#),
        get_bytes("/datasets/2014/07/jetty_met.csv"),
        get_bytes("/browse"),
    ];
    let baseline: Vec<(u16, Vec<u8>)> = requests
        .iter()
        .map(|r| {
            let (status, _, body) = raw(server.addr, r);
            (status, body)
        })
        .collect();
    let addr = server.addr;
    let clients: Vec<_> = (0..4)
        .map(|t| {
            let requests = requests.clone();
            let baseline = baseline.clone();
            std::thread::spawn(move || {
                for i in 0..6 {
                    let which = (t + i) % requests.len();
                    let (status, _, body) = raw(addr, &requests[which]);
                    assert_eq!(status, baseline[which].0, "thread {t} request {i}");
                    assert_eq!(body, baseline[which].1, "thread {t} request {i} body diverged");
                }
            })
        })
        .collect();
    for client in clients {
        client.join().expect("client thread");
    }
    let summary = server.stop();
    assert_eq!(summary.served as usize, 3 + 4 * 6);
    assert_eq!(summary.dropped, 0);
}

/// A shed answer: 503, `retry-after: 1`, the connection closed, and — with
/// telemetry on — a fresh trace id the rejected client can quote back.
fn assert_shed(status: u16, headers: &[(String, String)]) {
    assert_eq!(status, 503);
    assert_eq!(header(headers, "retry-after"), Some("1"));
    assert_eq!(header(headers, "connection"), Some("close"));
    if metamess_telemetry::enabled() {
        let id = header(headers, "x-metamess-trace-id").expect("shed 503 carries a trace id");
        assert_eq!(id.len(), 32, "trace id is 128-bit hex: {id}");
        assert!(id.chars().all(|c| c.is_ascii_hexdigit()), "non-hex trace id: {id}");
        assert!(id.chars().any(|c| c != '0'), "shed trace id never zero: {id}");
    }
}

#[test]
fn full_queue_sheds_with_503_and_retry_after() {
    let server = serve(fixture_store("shed"), |c| {
        c.workers = 1;
        c.queue_depth = 1;
    });
    // The admission cap is workers + queue_depth = 2 connections. A holds
    // one slot with a started-but-incomplete request...
    let mut a = connect(server.addr);
    a.write_all(b"GET /healthz HTTP/1.1\r\nhost: t\r\n").unwrap();
    // ...and B holds the other as a served keep-alive connection. Reading
    // B's response also proves A (accepted first) is registered by now.
    let mut b = connect(server.addr);
    b.write_all(b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n").unwrap();
    let (status, headers, _) = read_response(&mut b);
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "connection"), Some("keep-alive"));
    // C arrives over the cap: an immediate 503, never a hang — the event
    // thread writes it at accept without queueing.
    let (status, headers, _) = raw(server.addr, b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n");
    assert_shed(status, &headers);
    // A's slot was healthy all along: completing the request serves it.
    a.write_all(b"connection: close\r\n\r\n").unwrap();
    let (status, _, _) = read_response(&mut a);
    assert_eq!(status, 200);
    let summary = server.stop();
    assert_eq!(summary.shed, 1);
    assert_eq!(summary.dropped, 0);
    assert_eq!(summary.served, 2);

    // A queue of depth zero takes nothing: the one admitted connection's
    // request is parsed and then refused by the pool, so everything offered
    // is shed and nothing is served.
    let refusing = serve(fixture_store("shed-all"), |c| {
        c.workers = 1;
        c.queue_depth = 0;
    });
    let offered = 20;
    for _ in 0..offered {
        let (status, headers, _) = get(refusing.addr, "/healthz");
        assert_shed(status, &headers);
    }
    let summary = refusing.stop();
    assert_eq!((summary.shed, summary.served), (offered, 0));
}

/// A client that sends its request and then shuts down its write half
/// still gets the whole response; the server then sees the EOF and closes
/// the connection as an idle one, not as a drop.
#[test]
fn half_closed_client_gets_its_response_then_the_server_closes() {
    let server = serve(fixture_store("half-close"), |_| {});
    let mut stream = connect(server.addr);
    stream.write_all(b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n").unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let (status, _, body) = read_response(&mut stream);
    assert_eq!(status, 200, "{:?}", String::from_utf8_lossy(&body));
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("the server closes within the read timeout");
    assert!(rest.is_empty(), "nothing after the response: {:?}", String::from_utf8_lossy(&rest));
    let summary = server.stop();
    assert_eq!((summary.served, summary.dropped), (1, 0));
}

#[test]
fn graceful_shutdown_drains_queued_requests() {
    let server = serve(fixture_store("drain"), |c| c.workers = 1);
    // A and B are both mid-request (heads started, not finished) when the
    // shutdown lands: the drain must keep reading, parsing, and serving
    // until every accepted connection has been answered.
    let mut a = connect(server.addr);
    a.write_all(b"GET /healthz HTTP/1.1\r\nhost: t\r\n").unwrap();
    let mut b = connect(server.addr);
    b.write_all(b"GET /browse HTTP/1.1\r\nhost: t\r\n").unwrap();
    std::thread::sleep(Duration::from_millis(200));
    server.shutdown.trigger();
    std::thread::sleep(Duration::from_millis(100));
    a.write_all(b"\r\n").unwrap();
    b.write_all(b"\r\n").unwrap();
    // Both in-flight requests are answered, but keep-alive is refused
    // during the drain.
    let (status, headers, _) = read_response(&mut a);
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "connection"), Some("close"), "no keep-alive during drain");
    let (status, headers, _) = read_response(&mut b);
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "connection"), Some("close"));
    let summary = server.thread.join().expect("server thread").expect("serve summary");
    assert_eq!(summary.served, 2);
    assert_eq!(summary.dropped, 0, "a graceful drain never drops queued work");
}

#[test]
fn hot_reload_swaps_generation_without_dropping_service() {
    let server = serve(fixture_store("reload"), |_| {});
    let (status, _, body) = get(server.addr, "/healthz");
    assert_eq!(status, 200);
    let before: serde_json::Value = serde_json::from_slice(&body).unwrap();
    assert_eq!(before["datasets"].as_u64(), Some(2));

    // A client that keeps asking across the publish and the swap: every
    // one of its requests is answered.
    let stop = Arc::new(AtomicBool::new(false));
    let background = {
        let (stop, addr) = (Arc::clone(&stop), server.addr);
        std::thread::spawn(move || {
            let mut answered = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let (status, _, _) = get(addr, "/healthz");
                assert_eq!(status, 200, "a request failed during the hot reload");
                answered += 1;
            }
            answered
        })
    };

    // Publish while serving: the shared store lock admits wranglers.
    let mut store =
        DurableCatalog::open(server.dir.join("catalog"), StoreOptions::default()).unwrap();
    store.put(DatasetFeature::new("2015/01/new_adcp.csv")).unwrap();
    store.checkpoint().unwrap();
    drop(store);

    let (status, _, body) = post(server.addr, "/admin/reload", "");
    assert_eq!(status, 200);
    let reload: serde_json::Value = serde_json::from_slice(&body).unwrap();
    assert_eq!(reload["outcome"].as_str(), Some("reloaded"), "{reload}");
    std::thread::sleep(Duration::from_millis(100));
    stop.store(true, Ordering::Relaxed);
    assert!(background.join().expect("background client") > 0);

    let (_, _, body) = get(server.addr, "/healthz");
    let after: serde_json::Value = serde_json::from_slice(&body).unwrap();
    assert_eq!(after["datasets"].as_u64(), Some(3));
    assert_eq!(after["reloads"].as_u64(), Some(1));
    assert!(after["generation"].as_u64().unwrap() > before["generation"].as_u64().unwrap());

    let summary = server.stop();
    assert_eq!(summary.reloads, 1);
    assert_eq!(summary.dropped, 0);
}

/// `/healthz` keeps the historical `shards` count and adds the
/// machine-readable `shard_states` array: one row per shard with id,
/// mode, circuit state, last observed rtt, and generation.
#[test]
fn healthz_reports_shard_states_over_the_wire() {
    use metamess_search::{Partitioner, ShardSpec};
    let dir = fixture_store("healthz-shards");
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_depth: 16,
        poll_interval: None,
        ..ServerConfig::default()
    };
    let state = Arc::new(
        ServeState::open_sharded(&dir, ShardSpec::new(2, Partitioner::Hash)).expect("open store"),
    );
    let server = Server::bind(state, config).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let shutdown = server.shutdown_handle();
    let thread = std::thread::spawn(move || server.run());

    let (status, _, body) = get(addr, "/healthz");
    assert_eq!(status, 200);
    let v: serde_json::Value = serde_json::from_slice(&body).unwrap();
    assert_eq!(v["shards"].as_u64(), Some(2), "historical count field is kept: {v}");
    let rows = v["shard_states"].as_array().expect("shard_states array");
    assert_eq!(rows.len(), 2, "{v}");
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(row["id"].as_u64(), Some(i as u64), "{v}");
        assert_eq!(row["mode"].as_str(), Some("local"), "{v}");
        assert_eq!(row["state"].as_str(), Some("healthy"), "{v}");
        assert!(row["last_rtt_us"].is_null(), "local shards have no rtt: {v}");
        assert_eq!(row["generation"], v["generation"], "{v}");
    }

    shutdown.trigger();
    thread.join().expect("server thread").expect("serve summary");
}

#[test]
fn stalled_request_gets_408() {
    let server =
        serve(fixture_store("stall"), |c| c.limits.read_timeout = Duration::from_millis(300));
    let mut stream = connect(server.addr);
    // Start a request and never finish it.
    stream.write_all(b"GET /healthz HTTP/1.1\r\n").unwrap();
    let (status, _, _) = read_response(&mut stream);
    assert_eq!(status, 408);
    server.stop();
}

#[test]
fn metrics_endpoint_serves_prometheus_text() {
    let server = serve(fixture_store("prom"), |_| {});
    let (status, headers, _) = get(server.addr, "/metrics");
    assert_eq!(status, 200);
    assert!(header(&headers, "content-type").unwrap().starts_with("text/plain"));
    server.stop();
}

/// Prometheus exposition-format conformance: the 0.0.4 content-type
/// version tag, `# HELP` / `# TYPE` metadata for every family, and HELP
/// directly preceding its TYPE — the shape scrapers validate before they
/// stop warning about untyped series.
#[test]
fn metrics_exposition_is_prometheus_0_0_4_conformant() {
    let server = serve(fixture_store("prom004"), |_| {});
    // Serve one search so latency histograms exist in the snapshot.
    let (status, _, _) = post(server.addr, "/search", r#"{"q":"with water_temperature"}"#);
    assert_eq!(status, 200);
    let (status, headers, body) = get(server.addr, "/metrics");
    assert_eq!(status, 200);
    let ctype = header(&headers, "content-type").unwrap();
    assert!(
        ctype.starts_with("text/plain; version=0.0.4"),
        "scrapers key off the exposition version tag: {ctype}"
    );
    if !metamess_telemetry::enabled() {
        server.stop();
        return; // empty exposition under METAMESS_TELEMETRY=0
    }
    let text = String::from_utf8(body).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    let mut typed = 0usize;
    for (i, line) in lines.iter().enumerate() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let name = rest.split(' ').next().unwrap();
            let prev = i.checked_sub(1).map(|p| lines[p]).unwrap_or("");
            assert!(
                prev.starts_with(&format!("# HELP {name} ")),
                "TYPE for {name} not directly preceded by its HELP: {prev:?}"
            );
            typed += 1;
        }
    }
    assert!(typed > 0, "no # TYPE lines in exposition:\n{text}");
    // Every sample line belongs to a family announced by a TYPE line.
    for kind in ["counter", "gauge", "histogram"] {
        assert!(text.contains(&format!(" {kind}\n")), "no {kind} family rendered:\n{text}");
    }
    server.stop();
}

/// Every handled response — success, 404, even protocol errors — carries
/// an `X-Metamess-Trace-Id` header the client can quote when reporting a
/// slow or failed request.
#[test]
fn every_response_carries_trace_id_over_the_wire() {
    if !metamess_telemetry::enabled() {
        return; // tracing is off wholesale under METAMESS_TELEMETRY=0
    }
    let server = serve(fixture_store("traceid"), |_| {});
    let mut seen = std::collections::HashSet::new();
    let exchanges: Vec<Vec<u8>> = vec![
        get_bytes("/healthz"),
        post_bytes("/search", r#"{"q":"with water_temperature"}"#),
        get_bytes("/nope"),
        // Valid-but-unknown method: routed 404 through the worker pool.
        b"BOGUS /x HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n".to_vec(),
        // Malformed method: a 400 answered straight from the event thread.
        b"bogus /x HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n".to_vec(),
    ];
    for bytes in &exchanges {
        let (_, headers, _) = raw(server.addr, bytes);
        let id = header(&headers, "x-metamess-trace-id")
            .unwrap_or_else(|| panic!("missing trace id on {:?}", String::from_utf8_lossy(bytes)));
        assert_eq!(id.len(), 32, "trace id is 128-bit hex: {id}");
        assert!(id.chars().all(|c| c.is_ascii_hexdigit()), "non-hex trace id: {id}");
        assert!(seen.insert(id.to_string()), "trace id reused across requests: {id}");
    }
    // The search trace is retrievable from the flight recorder by id.
    let (_, headers, _) =
        raw(server.addr, &post_bytes("/search", r#"{"q":"with water_temperature"}"#));
    let id = header(&headers, "x-metamess-trace-id").unwrap().to_string();
    let (status, _, body) = get(server.addr, &format!("/debug/traces?id={id}"));
    assert_eq!(status, 200, "{:?}", String::from_utf8_lossy(&body));
    let v: serde_json::Value = serde_json::from_slice(&body).unwrap();
    let trace = &v["traces"][0];
    assert_eq!(trace["trace_id"], serde_json::Value::String(id));
    assert_eq!(trace["spans"][0]["name"].as_str(), Some("request"));
    assert!(trace["spans"][0]["micros"].as_u64().unwrap() < 10_000_000);
    server.stop();
}

#[test]
fn slow_loris_connections_do_not_starve_healthy_clients() {
    let server = serve(fixture_store("loris"), |_| {});
    let addr = server.addr;
    let stop = Arc::new(AtomicBool::new(false));
    // Eight clients each trickle a request one byte per 100ms. Under the
    // old thread-per-connection design these alone would have pinned every
    // worker (the helper config has 2); under the event loop a stalled
    // read costs nothing until its bytes complete a request.
    let loris: Vec<JoinHandle<()>> = (0..8)
        .map(|_| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut stream = connect(addr);
                for byte in b"GET /healthz HTTP/1.1\r\nhost: t\r\n".chunks(1) {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let _ = stream.write_all(byte);
                    std::thread::sleep(Duration::from_millis(100));
                }
                // Dropping the stream sends FIN so the server can reap the
                // half-request promptly instead of waiting out a timeout.
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(300));
    // Healthy clients keep getting served promptly the whole time.
    let mut worst = Duration::ZERO;
    for i in 0..10 {
        let started = std::time::Instant::now();
        let (status, _, _) = get(addr, "/healthz");
        assert_eq!(status, 200, "healthy request {i} under slow-loris load");
        worst = worst.max(started.elapsed());
    }
    assert!(worst < Duration::from_secs(2), "healthy request took {worst:?} under slow-loris load");
    stop.store(true, Ordering::Relaxed);
    for t in loris {
        t.join().expect("loris thread");
    }
    // Give the event loop a beat to observe the FINs before draining.
    std::thread::sleep(Duration::from_millis(150));
    server.stop();
}
