//! End-to-end test of continuous ingestion: `metamess watch` wrangles an
//! archive into a store, a live `metamess serve` on the same store picks
//! up a later watch cycle's publish, and the new upload becomes searchable.
//! (That a publish can arrive through the in-place delta path is pinned in
//! `crates/server/tests/{reader_beside_writer,ownership}.rs`.)
#![cfg(unix)]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
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

/// Copies a salinity-bearing archive `.csv` (skipping the store dir) to a
/// fresh name — a new instrument upload landing in the drop box — and
/// returns its archive-relative path. Preferring a file whose header
/// literally says `salinity` keeps the later search assertion honest even
/// when the generator's mess injection renames columns elsewhere.
fn add_one_file(archive: &Path) -> String {
    let mut fallback: Option<std::path::PathBuf> = None;
    let mut stack = vec![archive.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for e in std::fs::read_dir(&dir).expect("read archive dir") {
            let p = e.expect("dir entry").path();
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n == ".metamess") {
                    continue;
                }
                stack.push(p);
            } else if p.extension().is_some_and(|x| x == "csv") {
                if std::fs::read_to_string(&p).is_ok_and(|c| c.contains("salinity")) {
                    return copy_as_upload(archive, &p);
                }
                fallback.get_or_insert(p);
            }
        }
    }
    copy_as_upload(archive, &fallback.expect("archive has csv files"))
}

fn copy_as_upload(archive: &Path, src: &Path) -> String {
    let dest = src.with_file_name("fresh_upload.csv");
    std::fs::copy(src, &dest).expect("copy csv");
    dest.strip_prefix(archive).expect("inside archive").to_string_lossy().replace('\\', "/")
}

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}
const SIGTERM: i32 = 15;

#[test]
fn watch_feeds_a_live_serve() {
    let dir = std::env::temp_dir().join(format!("metamess-watch-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.to_str().unwrap();
    run(&["generate", dir_s, "--months", "1", "--stations", "2"]);

    // First watch run: cycle 1 wrangles the archive into the store, cycle
    // 2 sees the unchanged fingerprint and skips the pipeline entirely.
    let out = run(&["watch", dir_s, "--max-cycles", "2", "--interval-ms", "1"]);
    assert!(out.contains("cycle 1: published"), "{out}");
    assert!(out.contains("watched 2 cycle(s) (1 unchanged)"), "{out}");
    let store = dir.join(".metamess");
    let store_s = store.to_str().unwrap();

    // Serve the store the watcher just built.
    let mut child = Command::new(bin())
        .args(["serve", store_s, "--addr", "127.0.0.1:0", "--workers", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let mut stdout = BufReader::new(child.stdout.take().expect("child stdout"));
    let mut banner = String::new();
    stdout.read_line(&mut banner).expect("read startup line");
    let addr = banner
        .split("http://")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .expect("address in startup line")
        .to_string();

    let (status, body) = get(&addr, "/healthz");
    assert_eq!(status, 200, "{body}");
    let health: serde_json::Value = serde_json::from_str(&body).unwrap();
    let datasets_before = health["datasets"].as_u64().unwrap();
    let generation_before = health["generation"].as_u64().unwrap();
    assert!(datasets_before >= 1, "{body}");

    // A new upload lands; one more watch cycle publishes it. The watcher
    // takes the store's shared lock alongside the running server — watch
    // and serve are designed to co-exist on one store.
    let uploaded = add_one_file(&dir);
    let out = run(&["watch", dir_s, "--max-cycles", "1", "--interval-ms", "1"]);
    assert!(out.contains("cycle 1: published"), "{out}");
    assert!(out.contains("resuming from"), "{out}");

    // Force a reload now: the store is read afresh, unless the background
    // poller has already brought the publish in and nothing is left to do.
    let (status, body) = post(&addr, "/admin/reload", "");
    assert_eq!(status, 200, "{body}");
    let reload: serde_json::Value = serde_json::from_str(&body).unwrap();
    let outcome = reload["outcome"].as_str().unwrap();
    assert!(outcome == "reloaded" || outcome == "unchanged", "{body}");

    // The served catalog moved on and grew, and the new upload is searchable.
    let (status, body) = get(&addr, "/healthz");
    assert_eq!(status, 200, "{body}");
    let health: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert!(health["generation"].as_u64().unwrap() > generation_before, "{body}");
    assert!(health["datasets"].as_u64().unwrap() > datasets_before, "{body}");

    // The published entry is served directly…
    let (status, body) = get(&addr, &format!("/datasets/{uploaded}"));
    assert_eq!(status, 200, "upload not served: {body}");
    assert!(body.contains("fresh_upload"), "{body}");

    // …and reachable through ranked search.
    let (status, body) = post(&addr, "/search", r#"{"q":"with salinity","limit":50}"#);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("fresh_upload"), "new upload not searchable: {body}");

    let rc = unsafe { kill(child.id() as i32, SIGTERM) };
    assert_eq!(rc, 0, "kill(SIGTERM) failed");
    let status = child.wait().expect("child exits");
    assert!(status.success(), "serve exited nonzero: {status:?}");

    let _ = std::fs::remove_dir_all(&dir);
}
