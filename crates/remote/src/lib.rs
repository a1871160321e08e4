//! Remote shard protocol: run each catalog shard as its own `metamess
//! shardd` process and scatter-gather queries across the fleet —
//! bit-identical to in-process sharding at any layout.
//!
//! # Pieces
//!
//! - [`frame`]: the length-prefixed, versioned, CRC-checked binary frame
//!   codec both sides speak.
//! - [`wire`]: the payload documents inside frames (hello / probe /
//!   score), mirroring the in-process probe→plan→score phases.
//! - [`ShardHost`] / [`Shardd`]: the server side — a pure frame handler
//!   over one `ShardEngine`, and the TCP listener hosting it.
//! - [`RemoteShardSet`]: the fleet as a backend of the search crate's one
//!   coordinator (`metamess_search::fanout::scatter_gather`) —
//!   deadline-bounded scatter, budgeted retries with deterministic
//!   backoff jitter, per-shard circuits, and a partial policy
//!   ([`PartialPolicy`]) deciding whether a dead shard fails the query
//!   or degrades it.
//! - [`FaultTransport`]: deterministic fault injection for tests.
//!
//! # Why bit-identity holds
//!
//! The shardd builds its shard with the *same* partition assignment the
//! in-process `ShardedEngine` uses, probes and scores with the same
//! `fanout` functions, and the probe → admit → score → merge sequence is
//! the same code for both. Scores cross the wire through
//! `serde_json` built with `float_roundtrip`, so an `f64` deserializes
//! to the exact bits the shard computed; the merge order
//! (score-descending, path-ascending) is a strict total order, so the
//! merged top-`limit` equals the single-process answer exactly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coordinator;
pub mod fault;
pub mod frame;
pub mod metrics;
pub mod shardd;
pub mod transport;
pub mod wire;

pub use coordinator::{
    CircuitState, PartialPolicy, RemoteOptions, RemoteSearch, RemoteShardSet, ShardHealth,
};
pub use fault::{FaultAction, FaultTransport};
pub use frame::{Frame, FrameKind, PROTO_VERSION};
pub use metrics::{remote_metrics, RemoteMetrics};
pub use shardd::{ShardHost, Shardd};
pub use transport::{TcpTransport, Transport, TransportError};

#[cfg(test)]
mod send_sync {
    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn shared_types_cross_threads() {
        assert_send_sync::<RemoteShardSet>();
        assert_send_sync::<ShardHost>();
        assert_send_sync::<FaultTransport>();
        assert_send_sync::<TcpTransport>();
    }
}
