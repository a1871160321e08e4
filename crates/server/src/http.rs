//! Minimal HTTP/1.1 parsing and serialization, free of any I/O.
//!
//! The event loop accumulates bytes per connection and calls [`try_parse`]
//! after every chunk: a pure, incremental parser that either needs more
//! bytes, yields a complete [`Request`] (reporting how many bytes it
//! consumed, so pipelined followers survive), or rejects the prefix with a
//! status to answer. All the defensive properties of the old blocking
//! reader are kept — bounded head and body sizes (`413`), unsupported
//! constructs (`Transfer-Encoding`) rejected with `501` rather than
//! misparsed — while the deadlines (`408`, idle) moved to the event
//! loop where they belong.
//!
//! On the write side, [`Response::serialize_into`] renders a response
//! into a reusable byte buffer without `format!` (static header
//! fragments + manual integer formatting).

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Duration;

/// Read-side bounds for one request.
#[derive(Debug, Clone)]
pub struct Limits {
    /// Maximum bytes of request line + headers (413 beyond this).
    pub max_header_bytes: usize,
    /// Maximum bytes of body (413 beyond this).
    pub max_body_bytes: usize,
    /// Deadline for reading one full request once its first byte arrived
    /// (408 beyond this).
    pub read_timeout: Duration,
}

impl Default for Limits {
    fn default() -> Limits {
        Limits {
            max_header_bytes: 8 * 1024,
            max_body_bytes: 1024 * 1024,
            read_timeout: Duration::from_secs(10),
        }
    }
}

/// One parsed request.
#[derive(Debug, Clone, Default)]
pub struct Request {
    /// Uppercase method token (`GET`, `POST`, …).
    pub method: String,
    /// Percent-decoded path, query string removed.
    pub path: String,
    /// Decoded query parameters.
    pub query: BTreeMap<String, String>,
    /// Headers with lowercased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
    /// `true` for `HTTP/1.0` (keep-alive must be asked for explicitly).
    pub http10: bool,
}

impl Request {
    /// First value of a header, by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// Whether the client wants the connection kept open after the
    /// response (HTTP/1.1 defaults to yes, 1.0 to no).
    pub fn wants_keep_alive(&self) -> bool {
        match self.header("connection").map(str::to_ascii_lowercase) {
            Some(v) if v.contains("close") => false,
            Some(v) if v.contains("keep-alive") => true,
            _ => !self.http10,
        }
    }

    /// Whether a query flag like `?explain=1` is set truthy.
    pub fn query_flag(&self, name: &str) -> bool {
        matches!(self.query.get(name).map(String::as_str), Some("1") | Some("true") | Some(""))
    }
}

/// What `try_parse` made of the buffered bytes so far.
#[derive(Debug)]
pub enum Parse {
    /// Not enough bytes for a complete request yet.
    Incomplete,
    /// A complete, well-formed request.
    Complete {
        /// The parsed request.
        request: Request,
        /// Bytes of the buffer it consumed (head + body); anything after
        /// belongs to the next pipelined request.
        consumed: usize,
    },
    /// Protocol-level problem; answer with this status and close.
    Error {
        /// HTTP status to answer with (400, 413, 501).
        status: u16,
        /// Human-readable reason for the error body.
        message: String,
    },
}

fn proto_err(status: u16, message: impl Into<String>) -> Parse {
    Parse::Error { status, message: message.into() }
}

/// Incremental request parser: pure function of the bytes buffered so far.
///
/// Call it after every read; it never consumes anything itself (the caller
/// drains `consumed` bytes on `Complete`). The head cap fires as soon as
/// the buffer outgrows `max_header_bytes` without a blank line, and the
/// body cap fires from the `Content-Length` header alone — an oversized
/// body is rejected without ever being buffered.
pub fn try_parse(buf: &[u8], limits: &Limits) -> Parse {
    let head_end = match find_head_end(buf) {
        Some(end) => end,
        None => {
            if buf.len() > limits.max_header_bytes {
                return proto_err(
                    413,
                    format!("request head exceeds {} bytes", limits.max_header_bytes),
                );
            }
            return Parse::Incomplete;
        }
    };

    let mut req = match parse_head(&buf[..head_end]) {
        Ok(r) => r,
        Err(out) => return out,
    };

    let content_length = match req.header("content-length") {
        None => 0usize,
        Some(v) => match v.trim().parse::<usize>() {
            Ok(n) => n,
            Err(_) => return proto_err(400, format!("unparseable content-length: {v:?}")),
        },
    };
    if req.header("transfer-encoding").is_some() {
        return proto_err(501, "transfer-encoding is not supported");
    }
    if content_length > limits.max_body_bytes {
        return proto_err(
            413,
            format!("body of {content_length} bytes exceeds {} bytes", limits.max_body_bytes),
        );
    }
    let consumed = head_end + content_length;
    if buf.len() < consumed {
        return Parse::Incomplete;
    }
    req.body = buf[head_end..consumed].to_vec();
    Parse::Complete { request: req, consumed }
}

/// Index just past the `\r\n\r\n` terminating the head, if present.
pub(crate) fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4)
}

// The error is the `Parse::Error` that `try_parse` hands back as it is.
#[allow(clippy::result_large_err)]
fn parse_head(head: &[u8]) -> Result<Request, Parse> {
    let text =
        std::str::from_utf8(head).map_err(|_| proto_err(400, "request head is not valid utf-8"))?;
    let mut lines = text.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => return Err(proto_err(400, format!("malformed request line: {request_line:?}"))),
    };
    if !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(proto_err(400, format!("malformed method: {method:?}")));
    }
    if !target.starts_with('/') {
        return Err(proto_err(400, format!("request target must be absolute: {target:?}")));
    }
    let http10 = match version {
        "HTTP/1.1" => false,
        "HTTP/1.0" => true,
        other => return Err(proto_err(400, format!("unsupported protocol: {other:?}"))),
    };

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue; // the terminating blank line
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| proto_err(400, format!("malformed header line: {line:?}")))?;
        if name.is_empty() || name.contains(' ') {
            return Err(proto_err(400, format!("malformed header name: {name:?}")));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    let mut query = BTreeMap::new();
    for pair in raw_query.unwrap_or_default().split('&').filter(|p| !p.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        query.insert(percent_decode(k, true), percent_decode(v, true));
    }

    Ok(Request {
        method: method.to_string(),
        path: percent_decode(raw_path, false),
        query,
        headers,
        body: Vec::new(),
        http10,
    })
}

/// Decodes `%XX` escapes (and `+` as space inside query strings). Invalid
/// escapes pass through literally — a lookup for a weird path should 404,
/// not 500.
pub fn percent_decode(s: &str, plus_as_space: bool) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => match (hex(bytes.get(i + 1)), hex(bytes.get(i + 2))) {
                (Some(h), Some(l)) => {
                    out.push(h * 16 + l);
                    i += 3;
                }
                _ => {
                    out.push(b'%');
                    i += 1;
                }
            },
            b'+' if plus_as_space => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn hex(b: Option<&u8>) -> Option<u8> {
    (*b? as char).to_digit(16).map(|d| d as u8)
}

/// One response, written with `Content-Length` and an explicit
/// `Connection` header.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Additional headers (e.g. `Retry-After`, `Allow`).
    pub extra_headers: Vec<(String, String)>,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response from an already-rendered document.
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            extra_headers: Vec::new(),
            body: body.into_bytes(),
        }
    }

    /// A plain-text response (newline-terminated).
    pub fn text(status: u16, message: impl AsRef<str>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            extra_headers: Vec::new(),
            body: format!("{}\n", message.as_ref()).into_bytes(),
        }
    }

    /// Adds a header.
    pub fn with_header(mut self, name: impl Into<String>, value: impl Into<String>) -> Response {
        self.extra_headers.push((name.into(), value.into()));
        self
    }

    /// Renders the response into `out` (appended). `keep_alive` decides
    /// the `Connection` header; the caller closes the connection when it
    /// is `false`.
    ///
    /// This is the hot serialization path: static byte fragments plus
    /// manual decimal formatting, so a steady-state response costs no
    /// `format!` machinery and — with a reused `out` — no allocation
    /// beyond what the body itself needed.
    pub fn serialize_into(&self, out: &mut Vec<u8>, keep_alive: bool) {
        out.extend_from_slice(b"HTTP/1.1 ");
        push_decimal(out, self.status as u64);
        out.push(b' ');
        out.extend_from_slice(status_text(self.status).as_bytes());
        out.extend_from_slice(b"\r\ncontent-type: ");
        out.extend_from_slice(self.content_type.as_bytes());
        out.extend_from_slice(b"\r\ncontent-length: ");
        push_decimal(out, self.body.len() as u64);
        out.extend_from_slice(b"\r\nconnection: ");
        out.extend_from_slice(if keep_alive { b"keep-alive".as_slice() } else { b"close" });
        out.extend_from_slice(b"\r\n");
        for (name, value) in &self.extra_headers {
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(b": ");
            out.extend_from_slice(value.as_bytes());
            out.extend_from_slice(b"\r\n");
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&self.body);
    }

    /// Serializes the response into `w`. Convenience for blocking callers
    /// (tests, one-shot rejects); the server's event loop uses
    /// [`Response::serialize_into`] and writes on readiness.
    pub fn write_to(&self, w: &mut dyn Write, keep_alive: bool) -> std::io::Result<()> {
        let mut bytes = Vec::with_capacity(self.body.len() + 128);
        self.serialize_into(&mut bytes, keep_alive);
        w.write_all(&bytes)?;
        w.flush()
    }
}

/// Appends `n` in decimal without going through `format!`.
fn push_decimal(out: &mut Vec<u8>, mut n: u64) {
    let mut tmp = [0u8; 20];
    let mut i = tmp.len();
    loop {
        i -= 1;
        tmp[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&tmp[i..]);
}

/// Reason phrase for the status codes this server emits.
pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_end_is_found() {
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\nbody"), Some(18));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n"), None);
    }

    #[test]
    fn parse_head_accepts_a_full_request() {
        let req = parse_head(
            b"POST /search?explain=1&x=a+b HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\n",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/search");
        assert_eq!(req.query["explain"], "1");
        assert_eq!(req.query["x"], "a b");
        assert_eq!(req.header("content-length"), Some("2"));
        assert!(req.wants_keep_alive());
        assert!(req.query_flag("explain"));
    }

    #[test]
    fn parse_head_rejects_garbage() {
        for bad in [
            &b"not a request\r\n\r\n"[..],
            b"GET\r\n\r\n",
            b"GET /x HTTP/2\r\n\r\n",
            b"get /x HTTP/1.1\r\n\r\n",
            b"GET x HTTP/1.1\r\n\r\n",
            b"GET /x HTTP/1.1\r\nbroken header\r\n\r\n",
        ] {
            match parse_head(bad) {
                Err(Parse::Error { status: 400, .. }) => {}
                other => {
                    panic!("expected 400 for {:?}, got {other:?}", String::from_utf8_lossy(bad))
                }
            }
        }
    }

    #[test]
    fn try_parse_is_incremental_and_reports_consumed() {
        let limits = Limits::default();
        let full =
            b"POST /search HTTP/1.1\r\ncontent-length: 4\r\n\r\nbodyGET /next HTTP/1.1\r\n\r\n";
        // every strict prefix up to the end of the body is Incomplete
        let body_end = full.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4 + 4;
        for cut in 0..body_end {
            match try_parse(&full[..cut], &limits) {
                Parse::Incomplete => {}
                other => panic!("prefix of {cut} bytes should be Incomplete, got {other:?}"),
            }
        }
        match try_parse(full, &limits) {
            Parse::Complete { request, consumed } => {
                assert_eq!(request.path, "/search");
                assert_eq!(request.body, b"body");
                assert_eq!(consumed, body_end, "pipelined follower is not consumed");
                assert!(full[consumed..].starts_with(b"GET /next"));
            }
            other => panic!("expected Complete, got {other:?}"),
        }
    }

    #[test]
    fn try_parse_enforces_head_and_body_caps() {
        let limits = Limits { max_header_bytes: 64, max_body_bytes: 16, ..Limits::default() };
        match try_parse(&[b'a'; 65], &limits) {
            Parse::Error { status: 413, message } => {
                assert!(message.contains("head exceeds 64"), "{message}");
            }
            other => panic!("expected 413 head cap, got {other:?}"),
        }
        // body cap fires from the header alone — no body bytes present
        match try_parse(b"POST /x HTTP/1.1\r\ncontent-length: 9999\r\n\r\n", &limits) {
            Parse::Error { status: 413, message } => {
                assert!(message.contains("9999"), "{message}");
            }
            other => panic!("expected 413 body cap, got {other:?}"),
        }
        match try_parse(b"POST /x HTTP/1.1\r\ncontent-length: nope\r\n\r\n", &limits) {
            Parse::Error { status: 400, .. } => {}
            other => panic!("expected 400 bad length, got {other:?}"),
        }
        match try_parse(b"POST /x HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n", &limits) {
            Parse::Error { status: 501, .. } => {}
            other => panic!("expected 501, got {other:?}"),
        }
    }

    #[test]
    fn http10_defaults_to_close() {
        let req = parse_head(b"GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(!req.wants_keep_alive());
        let req = parse_head(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(req.wants_keep_alive());
        let req = parse_head(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!req.wants_keep_alive());
    }

    #[test]
    fn percent_decoding() {
        assert_eq!(
            percent_decode("/datasets/2014%2F07%2Fsaturn.csv", false),
            "/datasets/2014/07/saturn.csv"
        );
        assert_eq!(percent_decode("a+b%20c", true), "a b c");
        assert_eq!(percent_decode("broken%zz", false), "broken%zz");
        assert_eq!(percent_decode("trailing%2", false), "trailing%2");
    }

    #[test]
    fn response_writes_content_length_and_connection() {
        let mut out = Vec::new();
        Response::json(200, "{}".into()).write_to(&mut out, true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("content-length: 2\r\n"), "{text}");
        assert!(text.contains("connection: keep-alive\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n{}"), "{text}");

        let mut out = Vec::new();
        Response::text(503, "busy")
            .with_header("Retry-After", "1")
            .write_to(&mut out, false)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("connection: close\r\n"), "{text}");
        assert!(text.contains("Retry-After: 1\r\n"), "{text}");

        let mut out = b"prefix".to_vec();
        Response::text(200, "ok").serialize_into(&mut out, true);
        assert!(out.starts_with(b"prefix"), "serialize_into must append");
    }
}
