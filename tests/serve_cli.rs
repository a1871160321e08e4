//! End-to-end test of `metamess serve`: spawns the real binary, scrapes
//! the bound port from its startup line, exercises the endpoints over raw
//! TCP, checks `/metrics` parity with `metamess stats --prometheus`, and
//! verifies SIGTERM produces a graceful drain and a clean exit.
#![cfg(unix)]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Command, Stdio};
use std::time::Duration;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_metamess")
}

fn run(args: &[&str]) -> String {
    let out = Command::new(bin()).args(args).output().expect("binary runs");
    assert!(out.status.success(), "{:?}: {}", args, String::from_utf8_lossy(&out.stderr));
    String::from_utf8_lossy(&out.stdout).to_string()
}

/// One-shot HTTP exchange with `connection: close`; returns status + body.
fn http(addr: &str, request: String) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to server");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream.write_all(request.as_bytes()).expect("write request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response to EOF");
    let text = String::from_utf8_lossy(&raw).to_string();
    let status: u16 = text.split(' ').nth(1).expect("status code").parse().expect("numeric");
    let body = text.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    (status, body)
}

fn get(addr: &str, path: &str) -> (u16, String) {
    http(addr, format!("GET {path} HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n"))
}

fn post(addr: &str, path: &str, body: &str) -> (u16, String) {
    http(
        addr,
        format!(
            "POST {path} HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
            body.len()
        ),
    )
}

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}
const SIGTERM: i32 = 15;

#[test]
fn serve_cli_round_trip() {
    let dir = std::env::temp_dir().join(format!("metamess-serve-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.to_str().unwrap();
    run(&["generate", dir_s, "--months", "1", "--stations", "1"]);
    run(&["wrangle", dir_s]);
    let store = dir.join(".metamess");
    let store_s = store.to_str().unwrap();

    let mut child = Command::new(bin())
        .args(["serve", store_s, "--addr", "127.0.0.1:0", "--workers", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let mut stdout = BufReader::new(child.stdout.take().expect("child stdout"));
    let mut banner = String::new();
    stdout.read_line(&mut banner).expect("read startup line");
    assert!(banner.contains("listening on http://"), "{banner}");
    let addr = banner
        .split("http://")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .expect("address in startup line")
        .to_string();

    // Liveness: the banner's catalog summary matches what healthz serves.
    let (status, body) = get(&addr, "/healthz");
    assert_eq!(status, 200, "{body}");
    let health: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert_eq!(health["status"].as_str(), Some("ok"));
    assert!(health["datasets"].as_u64().unwrap() >= 1, "{body}");

    // Ranked search over the wrangled store.
    let (status, body) = post(&addr, "/search", r#"{"q":"with salinity","limit":3}"#);
    assert_eq!(status, 200, "{body}");
    let hits: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert!(hits["count"].as_u64().unwrap() >= 1, "{body}");

    // `/metrics` and `stats --prometheus` assemble the same snapshot
    // through the same renderer; every pipeline-level line the CLI emits
    // must appear verbatim in the server's exposition. (Lines the live
    // server itself bumps — server.* and search counters — legitimately
    // run ahead of the persisted snapshot, so the parity check pins the
    // metrics the server never touches.)
    let (status, metrics_body) = get(&addr, "/metrics");
    assert_eq!(status, 200);
    assert!(
        metrics_body.contains("metamess_server_requests_total{route=\"healthz\",status=\"200\"}"),
        "{metrics_body}"
    );
    let stats = run(&["stats", store_s, "--prometheus"]);
    for line in stats.lines().filter(|l| l.contains("metamess_pipeline_")) {
        assert!(metrics_body.contains(line), "stats line missing from /metrics: {line}");
    }

    // Every response carries an X-Metamess-Trace-Id; quoting it back at
    // /debug/traces?id= replays the request's span tree.
    let mut stream = TcpStream::connect(&addr).expect("connect for trace check");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream
        .write_all(b"POST /search HTTP/1.1\r\nhost: t\r\ncontent-length: 21\r\nconnection: close\r\n\r\n{\"q\":\"with salinity\"}")
        .expect("write traced request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read traced response");
    let text = String::from_utf8_lossy(&raw).to_ascii_lowercase();
    let tid = text
        .lines()
        .find_map(|l| l.strip_prefix("x-metamess-trace-id:").map(|v| v.trim().to_string()))
        .expect("every response carries a trace id header");
    assert_eq!(tid.len(), 32, "{tid}");
    let (status, body) = get(&addr, &format!("/debug/traces?id={tid}"));
    assert_eq!(status, 200, "{body}");
    let doc: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert_eq!(doc["traces"][0]["trace_id"].as_str(), Some(tid.as_str()));
    assert_eq!(doc["traces"][0]["spans"][0]["name"].as_str(), Some("request"));

    // SIGTERM: graceful drain, summary line, exit 0.
    let rc = unsafe { kill(child.id() as i32, SIGTERM) };
    assert_eq!(rc, 0, "kill(SIGTERM) failed");
    let status = child.wait().expect("child exits");
    assert!(status.success(), "serve exited nonzero: {status:?}");
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).expect("read summary");
    assert!(rest.contains("served"), "{rest}");

    // On exit the server folded its telemetry into the store, so the
    // shared exposition now carries the server-side counters too.
    let stats = run(&["stats", store_s, "--prometheus"]);
    assert!(stats.contains("metamess_server_requests_total"), "{stats}");

    // …and persisted its flight recorder: `metamess trace` replays the
    // traced request offline, by the id the response header advertised.
    let traces = run(&["trace", store_s, "--id", &tid]);
    assert!(traces.contains(&format!("trace {tid}")), "{traces}");
    assert!(traces.contains("request"), "{traces}");
}

/// A spawned daemon, killed if the test fails before stopping it.
struct Daemon(std::process::Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// `search --remote` over two real `shardd` processes prints what local
/// `--shards 2` prints; bad remote flags and `--partition` are refused, and
/// each daemon stops on SIGTERM.
#[test]
fn remote_search_cli_matches_local_sharding() {
    let dir = std::env::temp_dir().join(format!("metamess-remote-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.to_str().unwrap();
    run(&["generate", dir_s, "--months", "2", "--stations", "2"]);
    run(&["wrangle", dir_s]);
    let store = dir.join(".metamess");
    let store_s = store.to_str().unwrap();

    let daemons: Vec<_> = ["0/2", "1/2"]
        .into_iter()
        .map(|id| {
            let mut child = Daemon(
                Command::new(bin())
                    .args(["shardd", store_s, "--shard-id", id, "--listen", "127.0.0.1:0"])
                    .stdout(Stdio::piped())
                    .stderr(Stdio::piped())
                    .spawn()
                    .expect("spawn shardd"),
            );
            let mut stdout = BufReader::new(child.0.stdout.take().expect("child stdout"));
            let mut banner = String::new();
            stdout.read_line(&mut banner).expect("read startup line");
            let addr = banner
                .strip_prefix("shardd listening on ")
                .and_then(|rest| rest.split_whitespace().next())
                .unwrap_or_else(|| panic!("no address in {banner:?}"))
                .to_string();
            (child, stdout, addr)
        })
        .collect();
    let fleet = daemons.iter().map(|(_, _, addr)| addr.as_str()).collect::<Vec<_>>().join(",");

    // every run draws a fresh trace id; the ranked lines must agree
    let results = |stdout: String| -> String {
        stdout.lines().filter(|l| !l.starts_with("trace: ")).map(|l| format!("{l}\n")).collect()
    };
    let query = ["near", "46.2,-123.9", "within", "50km", "with", "salinity", "limit", "5"];
    let mut local = vec!["search", store_s, "--shards", "2"];
    local.extend_from_slice(&query);
    let mut remote = vec!["search", store_s, "--remote", &fleet];
    remote.extend_from_slice(&query);
    let local = results(run(&local));
    assert!(local.contains("1. ["), "{local}");
    assert_eq!(results(run(&remote)), local);

    let refused = |args: &[&str], flag: &str| {
        let out = Command::new(bin()).args(args).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(stderr.contains(flag), "{args:?}: {stderr}");
    };
    refused(&["shardd", store_s, "--shard-id", "2/2"], "--shard-id");
    refused(&["search", store_s, "--remote", &fleet, "--explain", "with", "salinity"], "--explain");
    refused(&["shardd", store_s, "--shard-id", "0/2", "--partition", "hash"], "--partition");
    refused(&["serve", store_s, "--shards", "2", "--partition", "hash"], "--partition");

    // one at a time: each daemon folds its telemetry into the same store
    for (mut child, mut stdout, addr) in daemons {
        // SAFETY: kill takes two integers; the pid is a child this test
        // spawned and has not yet waited for, so it names that process.
        let rc = unsafe { kill(child.0.id() as i32, SIGTERM) };
        assert_eq!(rc, 0, "kill(SIGTERM) failed");
        let status = child.0.wait().expect("shardd exits");
        assert!(status.success(), "shardd {addr} exited nonzero: {status:?}");
        let mut rest = String::new();
        stdout.read_to_string(&mut rest).expect("read shutdown line");
        assert!(rest.contains("shardd stopped"), "{rest}");
    }
}
