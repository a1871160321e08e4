//! Seeded sweeps over the shard-protocol frame codec: every byte
//! sequence — well-formed, truncated, bit-flipped, version-skewed, or
//! pure garbage — maps to either a frame or a **typed** error, never a
//! panic and never a silent mis-decode. Each property runs on `CASES`
//! generators; a failure names its seed.

#[path = "../../core/tests/common/mod.rs"]
mod common;

use common::{sweep, Rng};
use metamess_core::error::Error;
use metamess_remote::frame::{self, Frame, FrameKind, HEADER_LEN, PROTO_VERSION};

const CASES: u64 = 256;

const KINDS: [FrameKind; 7] = [
    FrameKind::Hello,
    FrameKind::HelloOk,
    FrameKind::Probe,
    FrameKind::ProbeOk,
    FrameKind::Score,
    FrameKind::ScoreOk,
    FrameKind::Error,
];

fn frame(rng: &mut Rng) -> Frame {
    Frame {
        kind: *rng.pick(&KINDS),
        trace_id: u128::from(rng.next()) << 64 | u128::from(rng.next()),
        payload: rng.bytes(0, 512),
    }
}

/// Encode → decode is the identity, via both the slice decoder and
/// the stream reader (which must also report the clean EOF after).
#[test]
fn any_frame_roundtrips() {
    sweep(CASES, |rng| {
        let f = frame(rng);
        let bytes = f.encode();
        assert_eq!(bytes.len(), HEADER_LEN + f.payload.len());
        assert_eq!(frame::decode(&bytes).unwrap(), f);
        let mut cursor = std::io::Cursor::new(&bytes);
        assert_eq!(frame::read_frame(&mut cursor).unwrap(), Some(f));
        assert_eq!(frame::read_frame(&mut cursor).unwrap(), None);
    });
}

/// Cutting an encoded frame anywhere short of its full length is a
/// typed corruption error from the slice decoder, and a typed error
/// (corrupt header or I/O on the payload read) from the stream
/// reader. Neither panics, neither returns a frame.
#[test]
fn truncation_at_any_cut_is_typed() {
    sweep(CASES, |rng| {
        let bytes = frame(rng).encode();
        let cut = rng.size(0, bytes.len()); // always short of a full frame
        assert!(matches!(frame::decode(&bytes[..cut]), Err(Error::Corrupt { .. })));
        let mut cursor = std::io::Cursor::new(&bytes[..cut]);
        match frame::read_frame(&mut cursor) {
            Ok(None) => assert_eq!(cut, 0, "only an empty stream is a clean EOF"),
            Err(Error::Corrupt { .. }) | Err(Error::Io { .. }) => {}
            other => panic!("expected typed error, got {other:?}"),
        }
    });
}

/// Flipping any single bit of the payload fails the CRC check.
#[test]
fn payload_bit_flips_fail_the_crc() {
    sweep(CASES, |rng| {
        let f = Frame { payload: rng.bytes(1, 512), ..frame(rng) };
        let mut bytes = f.encode();
        bytes[HEADER_LEN + rng.size(0, f.payload.len())] ^= 1 << rng.below(8);
        assert!(matches!(frame::decode(&bytes), Err(Error::Corrupt { .. })));
    });
}

/// Any version other than ours is a clean `Invalid` error naming the
/// version — old coordinators against new shardds fail loudly, not
/// weirdly.
#[test]
fn any_other_version_is_invalid() {
    sweep(CASES, |rng| {
        let version = rng.next() as u16;
        if version == PROTO_VERSION {
            return;
        }
        let mut bytes = frame(rng).encode();
        bytes[8..10].copy_from_slice(&version.to_le_bytes());
        match frame::decode(&bytes) {
            Err(Error::Invalid { message }) => {
                assert!(message.contains(&version.to_string()), "{message}");
            }
            other => panic!("expected Invalid, got {other:?}"),
        }
    });
}

/// A coordinator built before version 2 opens with this Hello (its bytes,
/// as that build encodes `HelloRequest {}`). This build refuses it by
/// version, from a slice and from a stream alike, instead of answering a
/// peer whose Hello and probe payloads differ from its own.
#[test]
fn a_version_1_hello_is_refused_by_name() {
    const V1_HELLO: &str = "4d4d5348524430310100010000000000000000000000000000000000\
                            0200000043bfa6a37b7d";
    let bytes: Vec<u8> = (0..V1_HELLO.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&V1_HELLO[i..i + 2], 16).unwrap())
        .collect();
    assert_eq!(bytes.len(), HEADER_LEN + 2, "the header and `{{}}`");
    let refused = |outcome: Result<Frame, Error>| match outcome {
        Err(Error::Invalid { message }) => {
            assert!(message.contains("version 1 "), "{message}");
            assert!(message.contains(&format!("speaks {PROTO_VERSION}")), "{message}");
        }
        other => panic!("expected Invalid, got {other:?}"),
    };
    refused(frame::decode(&bytes));
    refused(frame::read_frame(&mut &bytes[..]).map(|f| f.expect("a frame, not EOF")));
    // the same frame at this build's version decodes
    let mut current = bytes.clone();
    current[8..10].copy_from_slice(&PROTO_VERSION.to_le_bytes());
    let hello = frame::decode(&current).unwrap();
    assert_eq!((hello.kind, hello.trace_id, &hello.payload[..]), (FrameKind::Hello, 0, &b"{}"[..]));
}

/// Arbitrary garbage never panics the decoder or the stream reader.
#[test]
fn garbage_never_panics() {
    sweep(CASES, |rng| {
        let bytes = rng.bytes(0, 256);
        let _ = frame::decode(&bytes);
        let mut cursor = std::io::Cursor::new(&bytes);
        let _ = frame::read_frame(&mut cursor);
    });
}
