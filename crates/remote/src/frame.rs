//! The length-prefixed, versioned binary frame the shard protocol speaks.
//!
//! Every message — request or response — is one frame:
//!
//! ```text
//! offset  size  field
//!      0     8  magic       b"MMSHRD01"
//!      8     2  version     u16 LE, currently 3
//!     10     1  kind        FrameKind as u8
//!     11     1  flags       reserved, must be 0
//!     12    16  trace id    u128 LE (0 = untraced)
//!     28     4  payload len u32 LE
//!     32     4  payload crc u32 LE (CRC-32 of the payload bytes)
//!     36     …  payload     JSON document
//! ```
//!
//! The header is fixed-size (36 bytes) so a reader always knows how much
//! to read next; the payload is JSON (the workspace builds `serde_json`
//! with `float_roundtrip`, so scores cross the wire bit-exactly). Every
//! malformed input maps to a **typed** [`Error`] — bad magic is a parse
//! error, an unknown version is invalid (speak-first negotiation: the
//! responder answers with its own version so old coordinators fail
//! cleanly), a CRC mismatch is corruption, truncation is corruption —
//! and never a panic; the codec sweeps in `tests/codec.rs` hold the
//! line.

use metamess_core::error::{Error, Result};
use metamess_core::store::crc32;
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::io::{Read, Write};

/// The 8-byte frame magic (protocol family + framing revision).
pub const MAGIC: [u8; 8] = *b"MMSHRD01";

/// The protocol version this build speaks. Bump it whenever a payload's
/// shape changes: a peer of any other version is refused by name before
/// it can misread one.
pub const PROTO_VERSION: u16 = 3;

/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 36;

/// Hard ceiling on a payload (guards the reader against a hostile or
/// corrupt length prefix allocating gigabytes).
pub const MAX_PAYLOAD: u32 = 64 * 1024 * 1024;

/// What a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Coordinator → shardd: identify yourself.
    Hello = 1,
    /// Shardd → coordinator: shard id/count, generation, dataset count.
    HelloOk = 2,
    /// Coordinator → shardd: probe this query.
    Probe = 3,
    /// Shardd → coordinator: probe summary + generation.
    ProbeOk = 4,
    /// Coordinator → shardd: score this work.
    Score = 5,
    /// Shardd → coordinator: top-`limit` hits + generation.
    ScoreOk = 6,
    /// Shardd → coordinator: request failed (payload = [`WireError`]).
    ///
    /// [`WireError`]: crate::wire::WireError
    Error = 7,
}

impl FrameKind {
    fn from_u8(b: u8) -> Option<FrameKind> {
        match b {
            1 => Some(FrameKind::Hello),
            2 => Some(FrameKind::HelloOk),
            3 => Some(FrameKind::Probe),
            4 => Some(FrameKind::ProbeOk),
            5 => Some(FrameKind::Score),
            6 => Some(FrameKind::ScoreOk),
            7 => Some(FrameKind::Error),
            _ => None,
        }
    }
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// What the payload is.
    pub kind: FrameKind,
    /// Propagated trace context (0 = untraced). A shardd echoes the
    /// request's trace id on its response, so serve-side traces attribute
    /// remote rtt to the right request.
    pub trace_id: u128,
    /// JSON payload bytes.
    pub payload: Vec<u8>,
}

impl Frame {
    /// Builds a frame with a JSON-serialized payload.
    pub fn new<T: Serialize>(kind: FrameKind, trace_id: u128, payload: &T) -> Frame {
        let payload = serde_json::to_vec(payload).expect("wire types serialize");
        Frame { kind, trace_id, payload }
    }

    /// Deserializes the payload, mapping malformed JSON to a typed parse
    /// error naming the frame kind.
    pub fn parse_payload<T: DeserializeOwned>(&self) -> Result<T> {
        serde_json::from_slice(&self.payload)
            .map_err(|e| Error::parse("frame payload", format!("{:?}: {e}", self.kind)))
    }

    /// Serializes header + payload into one buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + self.payload.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&PROTO_VERSION.to_le_bytes());
        out.push(self.kind as u8);
        out.push(0); // flags, reserved
        out.extend_from_slice(&self.trace_id.to_le_bytes());
        out.extend_from_slice(&(self.payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&self.payload).to_le_bytes());
        out.extend_from_slice(&self.payload);
        out
    }
}

/// Validates a header and returns `(kind, trace_id, payload_len, crc)`.
fn decode_header(head: &[u8; HEADER_LEN]) -> Result<(FrameKind, u128, usize, u32)> {
    if head[..8] != MAGIC {
        return Err(Error::parse("frame", format!("bad magic {:02x?}", &head[..8])));
    }
    let version = u16::from_le_bytes([head[8], head[9]]);
    if version != PROTO_VERSION {
        return Err(Error::invalid(format!(
            "unsupported shard protocol version {version} (this build speaks {PROTO_VERSION})"
        )));
    }
    let kind = FrameKind::from_u8(head[10])
        .ok_or_else(|| Error::parse("frame", format!("unknown frame kind {}", head[10])))?;
    if head[11] != 0 {
        return Err(Error::parse("frame", format!("reserved flags set: {:#04x}", head[11])));
    }
    let mut tid = [0u8; 16];
    tid.copy_from_slice(&head[12..28]);
    let trace_id = u128::from_le_bytes(tid);
    let len = u32::from_le_bytes([head[28], head[29], head[30], head[31]]);
    if len > MAX_PAYLOAD {
        return Err(Error::invalid(format!("frame payload of {len} bytes exceeds {MAX_PAYLOAD}")));
    }
    let crc = u32::from_le_bytes([head[32], head[33], head[34], head[35]]);
    Ok((kind, trace_id, len as usize, crc))
}

/// Decodes exactly one frame from a byte slice (tests and in-process
/// transports). Truncation at any offset is a typed corruption error.
pub fn decode(buf: &[u8]) -> Result<Frame> {
    if buf.len() < HEADER_LEN {
        return Err(Error::corrupt(format!(
            "truncated frame: {} bytes, header needs {HEADER_LEN}",
            buf.len()
        )));
    }
    let mut head = [0u8; HEADER_LEN];
    head.copy_from_slice(&buf[..HEADER_LEN]);
    let (kind, trace_id, len, crc) = decode_header(&head)?;
    let rest = &buf[HEADER_LEN..];
    if rest.len() < len {
        return Err(Error::corrupt(format!(
            "truncated frame payload: {} of {len} bytes",
            rest.len()
        )));
    }
    let payload = rest[..len].to_vec();
    if crc32(&payload) != crc {
        return Err(Error::corrupt("frame payload failed its CRC check"));
    }
    Ok(Frame { kind, trace_id, payload })
}

/// Reads exactly one frame from a stream. A clean EOF before the first
/// header byte returns `Ok(None)` (the peer hung up between requests);
/// EOF mid-frame is corruption.
pub fn read_frame(r: &mut dyn Read) -> Result<Option<Frame>> {
    let mut head = [0u8; HEADER_LEN];
    let mut filled = 0usize;
    while filled < HEADER_LEN {
        let n =
            r.read(&mut head[filled..]).map_err(|e| Error::io("reading shard frame header", e))?;
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(Error::corrupt(format!(
                "connection closed mid-header ({filled} of {HEADER_LEN} bytes)"
            )));
        }
        filled += n;
    }
    let (kind, trace_id, len, crc) = decode_header(&head)?;
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload).map_err(|e| Error::io("reading shard frame payload", e))?;
    if crc32(&payload) != crc {
        return Err(Error::corrupt("frame payload failed its CRC check"));
    }
    Ok(Some(Frame { kind, trace_id, payload }))
}

/// Writes one frame to a stream.
pub fn write_frame(w: &mut dyn Write, frame: &Frame) -> Result<()> {
    let bytes = frame.encode();
    w.write_all(&bytes).map_err(|e| Error::io("writing shard frame", e))?;
    w.flush().map_err(|e| Error::io("flushing shard frame", e))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_through_encode_and_decode() {
        let f = Frame::new(FrameKind::Probe, 0xfeed_beef, &serde_json::json!({"x": 1}));
        let bytes = f.encode();
        assert_eq!(bytes.len(), HEADER_LEN + f.payload.len());
        assert_eq!(decode(&bytes).unwrap(), f);
        let mut cursor = std::io::Cursor::new(bytes);
        assert_eq!(read_frame(&mut cursor).unwrap(), Some(f));
        assert_eq!(read_frame(&mut cursor).unwrap(), None, "clean EOF between frames");
    }

    #[test]
    fn unknown_version_is_a_typed_invalid_error() {
        let mut bytes = Frame::new(FrameKind::Hello, 0, &()).encode();
        bytes[8] = 9; // version 9
        match decode(&bytes) {
            Err(Error::Invalid { message }) => assert!(message.contains("version 9"), "{message}"),
            other => panic!("expected Invalid, got {other:?}"),
        }
    }

    #[test]
    fn bad_magic_and_unknown_kind_are_parse_errors() {
        let mut bytes = Frame::new(FrameKind::Hello, 0, &()).encode();
        bytes[0] = b'X';
        assert!(matches!(decode(&bytes), Err(Error::Parse { .. })));
        let mut bytes = Frame::new(FrameKind::Hello, 0, &()).encode();
        bytes[10] = 200;
        assert!(matches!(decode(&bytes), Err(Error::Parse { .. })));
    }

    #[test]
    fn oversize_length_prefix_is_rejected_before_allocation() {
        let mut bytes = Frame::new(FrameKind::Hello, 0, &()).encode();
        bytes[28..32].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode(&bytes), Err(Error::Invalid { .. })));
    }
}
