//! How frames reach a shard: the [`Transport`] trait and its TCP
//! implementation with pooled, health-gated connections.
//!
//! The coordinator never touches sockets directly — it exchanges frames
//! through a `dyn Transport`, which is what makes the fault-injection
//! suite possible (see [`FaultTransport`](crate::fault::FaultTransport)):
//! the same retry/backoff/circuit logic runs against deterministic
//! seeded failure schedules in tests and against real TCP in production.

use crate::frame::{self, Frame};
use std::io::ErrorKind;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Why an exchange failed, coarse enough for policy decisions: timeouts
/// are retried with backoff (the work is idempotent), resets mean the
/// peer or network dropped us, protocol errors mean the bytes themselves
/// were wrong (never retried — the peer is confused, not slow).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The connect or read deadline expired.
    Timeout,
    /// The connection was refused, reset, or closed unexpectedly.
    Reset,
    /// The peer answered with malformed or unexpected bytes.
    Protocol(String),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Timeout => write!(f, "deadline exceeded"),
            TransportError::Reset => write!(f, "connection reset"),
            TransportError::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl TransportError {
    fn from_io(e: &std::io::Error) -> TransportError {
        match e.kind() {
            ErrorKind::TimedOut | ErrorKind::WouldBlock => TransportError::Timeout,
            _ => TransportError::Reset,
        }
    }
}

/// One synchronous request/response exchange with a shard. Implementors
/// must be shareable across the coordinator's scatter threads.
pub trait Transport: Send + Sync {
    /// Sends `request` to shard `shard` and returns its response frame.
    fn exchange(&self, shard: usize, request: &Frame) -> Result<Frame, TransportError>;

    /// Number of shards this transport can reach.
    fn shard_count(&self) -> usize;
}

/// TCP transport: one address per shard, a small pool of idle
/// connections each, per-attempt connect and read deadlines.
///
/// Reuse is **health-gated**: a connection returns to the pool only
/// after a fully successful exchange; any error drops it (and, because a
/// failed shard likely poisoned its siblings too, clears the shard's
/// whole pool) so a retry always dials fresh rather than inheriting a
/// half-dead socket.
pub struct TcpTransport {
    addrs: Vec<String>,
    connect_timeout: Duration,
    read_timeout: Duration,
    pools: Vec<Mutex<Vec<TcpStream>>>,
}

/// Idle connections kept per shard. One coordinator drives at most one
/// in-flight exchange per shard per phase, so a deep pool buys nothing.
const POOL_DEPTH: usize = 4;

impl TcpTransport {
    /// A transport dialing `addrs[k]` for shard `k`.
    pub fn new(addrs: Vec<String>, connect_timeout: Duration, read_timeout: Duration) -> Self {
        let pools = (0..addrs.len()).map(|_| Mutex::new(Vec::new())).collect();
        TcpTransport { addrs, connect_timeout, read_timeout, pools }
    }

    /// The configured address of shard `shard`.
    pub fn addr(&self, shard: usize) -> &str {
        &self.addrs[shard]
    }

    fn dial(&self, shard: usize) -> Result<TcpStream, TransportError> {
        let addr = self.addrs[shard]
            .to_socket_addrs()
            .map_err(|e| TransportError::Protocol(format!("resolving {}: {e}", self.addrs[shard])))?
            .next()
            .ok_or_else(|| {
                TransportError::Protocol(format!("{} resolves to nothing", self.addrs[shard]))
            })?;
        let stream = TcpStream::connect_timeout(&addr, self.connect_timeout)
            .map_err(|e| TransportError::from_io(&e))?;
        stream.set_nodelay(true).ok();
        Ok(stream)
    }

    fn exchange_on(
        &self,
        stream: &mut TcpStream,
        request: &Frame,
    ) -> Result<Frame, TransportError> {
        stream
            .set_read_timeout(Some(self.read_timeout))
            .and_then(|()| stream.set_write_timeout(Some(self.read_timeout)))
            .map_err(|e| TransportError::from_io(&e))?;
        let bytes = request.encode();
        std::io::Write::write_all(stream, &bytes).map_err(|e| TransportError::from_io(&e))?;
        match frame::read_frame(stream) {
            Ok(Some(resp)) => Ok(resp),
            Ok(None) => Err(TransportError::Reset),
            Err(metamess_core::Error::Io { source, .. }) => Err(TransportError::from_io(&source)),
            Err(e) => Err(TransportError::Protocol(e.to_string())),
        }
    }
}

impl TcpTransport {
    /// Shard `shard`'s idle connections. A poisoned lock is taken over: the
    /// pool is a plain vector, valid after every push, pop and clear.
    fn pool(&self, shard: usize) -> MutexGuard<'_, Vec<TcpStream>> {
        self.pools[shard].lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Transport for TcpTransport {
    fn exchange(&self, shard: usize, request: &Frame) -> Result<Frame, TransportError> {
        let pooled = self.pool(shard).pop();
        let (mut stream, reused) = match pooled {
            Some(s) => (s, true),
            None => (self.dial(shard)?, false),
        };
        match self.exchange_on(&mut stream, request) {
            Ok(resp) => {
                let mut pool = self.pool(shard);
                if pool.len() < POOL_DEPTH {
                    pool.push(stream);
                }
                Ok(resp)
            }
            Err(_) if reused => {
                // The idle connection may simply have aged out on the
                // server; retry exactly once on a fresh dial before
                // reporting failure, and drop the stale siblings.
                self.pool(shard).clear();
                let mut fresh = self.dial(shard)?;
                let resp = self.exchange_on(&mut fresh, request)?;
                let mut pool = self.pool(shard);
                if pool.len() < POOL_DEPTH {
                    pool.push(fresh);
                }
                Ok(resp)
            }
            Err(e) => {
                self.pool(shard).clear();
                Err(e)
            }
        }
    }

    fn shard_count(&self) -> usize {
        self.addrs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_errors_map_to_policy_classes() {
        let timeout = std::io::Error::new(ErrorKind::TimedOut, "slow");
        assert_eq!(TransportError::from_io(&timeout), TransportError::Timeout);
        let refused = std::io::Error::new(ErrorKind::ConnectionRefused, "nope");
        assert_eq!(TransportError::from_io(&refused), TransportError::Reset);
    }

    #[test]
    fn dialing_nothing_is_a_reset_not_a_hang() {
        // port 1 on localhost is essentially never listening
        let t = TcpTransport::new(
            vec!["127.0.0.1:1".to_string()],
            Duration::from_millis(200),
            Duration::from_millis(200),
        );
        let f =
            Frame::new(crate::frame::FrameKind::Hello, 0, &crate::wire::HelloRequest::default());
        match t.exchange(0, &f) {
            Err(TransportError::Reset) | Err(TransportError::Timeout) => {}
            other => panic!("expected Reset/Timeout, got {other:?}"),
        }
    }
}
