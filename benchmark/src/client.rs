//! The load generator: keep-alive HTTP/1.1 connections to the server under
//! test, a closed-loop segment (each connection sends its next request when
//! the previous one is answered) and an open-loop segment (requests become
//! due on a seeded schedule whatever the server does, and each is timed from
//! when it was due).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Connections the load is spread over, one thread each, blocking on its own
/// socket. Twice the server's workers: with one connection per worker the
/// closed loop falls into one of two lockstep patterns for a whole run and
/// `search_qps` comes out as either of two values (README, "Sizes").
pub const CONNECTIONS: usize = 4;

/// How long past its planned end the open segment may run to drain a
/// backlog before the requests still waiting are counted as failed.
const DRAIN_GRACE: Duration = Duration::from_secs(2);

pub fn post(path: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "POST {path} HTTP/1.1\r\nhost: bench\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

pub fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nhost: bench\r\n\r\n").into_bytes()
}

pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(Conn { stream, buf: Vec::with_capacity(16 * 1024) })
    }

    /// Sends one request and reads the whole response; returns the status
    /// and leaves the response body in `body`.
    pub fn round_trip(&mut self, request: &[u8], body: &mut Vec<u8>) -> io::Result<u16> {
        self.stream.write_all(request)?;
        self.buf.clear();
        let mut chunk = [0u8; 16 * 1024];
        let head_end = loop {
            if let Some(at) = find(&self.buf, b"\r\n\r\n") {
                break at + 4;
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| {
            io::Error::new(io::ErrorKind::InvalidData, "response head is not UTF-8")
        })?;
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        let status = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad("no status in response"))?;
        let length = head
            .lines()
            .find_map(|l| l.strip_prefix("content-length: "))
            .and_then(|v| v.trim().parse::<usize>().ok())
            .ok_or_else(|| bad("no content-length in response"))?;
        while self.buf.len() < head_end + length {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        body.clear();
        body.extend_from_slice(&self.buf[head_end..head_end + length]);
        Ok(status)
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// The requests of one run, in the order they are sent. `order[i]` is the
/// position in `requests` of the `i`-th request of the stream.
pub struct Stream<'a> {
    pub requests: &'a [Vec<u8>],
    pub order: &'a [u32],
}

/// Whether the body of the `i`-th request of the stream is kept for checking.
pub type Keep<'a> = &'a (dyn Fn(usize) -> bool + Sync);

/// Keeps no body: warm-up traffic, and load whose answers change under it.
pub const KEEP_NONE: Keep<'static> = &|_| false;

pub struct Kept {
    /// Position in the stream.
    pub at: usize,
    pub body: Vec<u8>,
}

#[derive(Default)]
pub struct SegmentResult {
    /// Seconds from the segment's start to its last completion.
    pub elapsed_s: f64,
    /// Latency of every answered request, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// When each of them was answered, in seconds since the segment began.
    pub answered_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub response_bytes: u64,
    pub kept: Vec<Kept>,
    /// Open loop only: how late a request was sent that the generator had
    /// been waiting for, in microseconds.
    pub late_send_us: Vec<f64>,
    /// Open loop only: the most requests due and not yet sent.
    pub backlog_max: u64,
    /// Why requests failed, first few only.
    pub errors: Vec<String>,
}

impl SegmentResult {
    fn absorb(&mut self, other: SegmentResult) {
        self.elapsed_s = self.elapsed_s.max(other.elapsed_s);
        self.latencies_ms.extend(other.latencies_ms);
        self.answered_s.extend(other.answered_s);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.response_bytes += other.response_bytes;
        self.kept.extend(other.kept);
        self.late_send_us.extend(other.late_send_us);
        self.backlog_max = self.backlog_max.max(other.backlog_max);
        self.errors.extend(other.errors);
        self.errors.truncate(5);
    }

    fn send(&mut self, conn: &mut Conn, request: &[u8], body: &mut Vec<u8>) -> bool {
        self.attempted += 1;
        match conn.round_trip(request, body) {
            Ok(200) => {
                self.response_bytes += body.len() as u64;
                true
            }
            Ok(status) => {
                self.fail(format!("status {status}: {}", String::from_utf8_lossy(body)));
                false
            }
            Err(e) => {
                self.fail(format!("transport: {e}"));
                false
            }
        }
    }

    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(why);
        }
    }
}

fn connect_all(addr: SocketAddr) -> Vec<Conn> {
    (0..CONNECTIONS)
        .map(|_| Conn::connect(addr).expect("connect to the server under test"))
        .collect()
}

fn on_each_connection(
    addr: SocketAddr,
    work: impl Fn(&mut Conn) -> SegmentResult + Sync,
) -> SegmentResult {
    let mut conns = connect_all(addr);
    let mut total = SegmentResult::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = conns.iter_mut().map(|c| scope.spawn(|| work(c))).collect();
        for h in handles {
            total.absorb(h.join().expect("load generator thread"));
        }
    });
    total
}

/// Closed loop: every connection sends back to back for `length`, taking the
/// stream's requests from position `from` on.
pub fn closed_loop(
    addr: SocketAddr,
    stream: &Stream<'_>,
    from: usize,
    length: Duration,
    keep: Keep<'_>,
) -> SegmentResult {
    let next = AtomicUsize::new(from);
    let start = Instant::now();
    let end = start + length;
    on_each_connection(addr, |conn| {
        let mut out = SegmentResult::default();
        let mut body = Vec::new();
        while Instant::now() < end {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(&which) = stream.order.get(i) else { break };
            let sent = Instant::now();
            if out.send(conn, &stream.requests[which as usize], &mut body) {
                out.latencies_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                out.answered_s.push(start.elapsed().as_secs_f64());
                if keep(i) {
                    out.kept.push(Kept { at: i, body: body.clone() });
                }
            }
            out.elapsed_s = start.elapsed().as_secs_f64();
        }
        out
    })
}

/// Seconds after the segment's start at which each request becomes due:
/// exponential gaps at `rate` per second, up to `length`.
pub fn arrivals(seed: u64, rate: f64, length: Duration) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6172_7269_7661_6c73);
    let mut due = Vec::new();
    let mut t = 0.0;
    loop {
        let u: f64 = rng.random();
        t += -(1.0 - u).ln() / rate;
        if t >= length.as_secs_f64() {
            return due;
        }
        due.push(t);
    }
}

/// Open loop: request `k` of the segment is due at `due[k]` and is the
/// stream's request `from + k`. A free connection takes the next due request,
/// waits for its time if it is early, and times it from when it was due.
pub fn open_loop(
    addr: SocketAddr,
    stream: &Stream<'_>,
    from: usize,
    due: &[f64],
    length: Duration,
    keep: Keep<'_>,
) -> SegmentResult {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let give_up = length + DRAIN_GRACE;
    let mut total = on_each_connection(addr, |conn| {
        let mut out = SegmentResult::default();
        let mut body = Vec::new();
        loop {
            let k = next.fetch_add(1, Ordering::Relaxed);
            let (Some(&due_s), Some(&which)) = (due.get(k), stream.order.get(from + k)) else {
                break;
            };
            let due_at = Duration::from_secs_f64(due_s);
            let now = start.elapsed();
            if now > give_up {
                break;
            }
            if now < due_at {
                std::thread::sleep(due_at - now);
                out.late_send_us.push((start.elapsed() - due_at).as_secs_f64() * 1e6);
            } else {
                let arrived = due.partition_point(|&d| d <= now.as_secs_f64());
                out.backlog_max = out.backlog_max.max(arrived.saturating_sub(k + 1) as u64);
            }
            if out.send(conn, &stream.requests[which as usize], &mut body) {
                out.latencies_ms.push((start.elapsed() - due_at).as_secs_f64() * 1e3);
                out.answered_s.push(start.elapsed().as_secs_f64());
                if keep(from + k) {
                    out.kept.push(Kept { at: from + k, body: body.clone() });
                }
            }
            out.elapsed_s = start.elapsed().as_secs_f64();
        }
        out
    });
    // Requests that were due and never sent missed every latency limit.
    let unsent = due.len() as u64 - total.attempted.min(due.len() as u64);
    if unsent > 0 {
        total.attempted += unsent;
        total.failed += unsent;
        total.errors.push(format!(
            "{unsent} requests were still waiting {DRAIN_GRACE:?} after the segment"
        ));
    }
    total
}
