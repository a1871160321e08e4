//! Deterministic fault injection for the coordinator, mirroring the
//! store layer's `FaultVfs` idiom: wrap the real component, feed it a
//! seeded schedule of failures, and assert the policy layer's exact
//! behavior — no real sockets, no timing races.
//!
//! [`FaultTransport`] holds real [`ShardHost`]s and routes every
//! exchange through the *production* frame codec (encode → decode on
//! both legs) and the production request handler, so a passing fault
//! test exercises the same bytes and the same handler as a live fleet.
//! Each shard has a FIFO schedule of [`FaultAction`]s; when the schedule
//! runs dry the shard behaves healthily.

use crate::frame::{self, Frame};
use crate::shardd::ShardHost;
use crate::transport::{Transport, TransportError};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// What one exchange attempt against a shard does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Answer normally through the real handler.
    Ok,
    /// Fail with a deadline error (retryable).
    Timeout,
    /// Fail with a connection reset (retryable).
    Reset,
    /// Sleep this many microseconds, then answer normally — for latency
    /// assertions without failing the exchange.
    Slow(u64),
}

/// An in-process [`Transport`] over real shard hosts with per-shard
/// failure schedules.
pub struct FaultTransport {
    hosts: Vec<Arc<ShardHost>>,
    schedules: Mutex<Vec<VecDeque<FaultAction>>>,
    attempts: Vec<AtomicU64>,
}

impl FaultTransport {
    /// A healthy transport over `hosts` (empty schedules — every
    /// exchange succeeds until faults are pushed).
    pub fn new(hosts: Vec<Arc<ShardHost>>) -> FaultTransport {
        let schedules = Mutex::new((0..hosts.len()).map(|_| VecDeque::new()).collect());
        let attempts = (0..hosts.len()).map(|_| AtomicU64::new(0)).collect();
        FaultTransport { hosts, schedules, attempts }
    }

    /// Appends `actions` to shard `shard`'s schedule. Call **after**
    /// connecting the coordinator — the hello exchange pops the schedule
    /// too.
    pub fn push_actions(&self, shard: usize, actions: &[FaultAction]) {
        let mut schedules = self.schedules.lock().unwrap_or_else(PoisonError::into_inner);
        schedules[shard].extend(actions.iter().copied());
    }

    /// Exchange attempts made against shard `shard` (including failed
    /// ones) — the retry-budget assertion reads this.
    pub fn attempts(&self, shard: usize) -> u64 {
        self.attempts[shard].load(Ordering::Relaxed)
    }

    /// Zeroes the attempt counters (typically right after connect, so a
    /// test counts only its own query's dials).
    pub fn reset_attempts(&self) {
        for a in &self.attempts {
            a.store(0, Ordering::Relaxed);
        }
    }

    fn answer(&self, shard: usize, request: &Frame) -> Result<Frame, TransportError> {
        // Round-trip through the production codec on both legs so the
        // fault suite covers the same bytes as live TCP.
        let wire = request.encode();
        let decoded = frame::decode(&wire)
            .map_err(|e| TransportError::Protocol(format!("request leg: {e}")))?;
        let response = self.hosts[shard].handle_frame(&decoded);
        let wire = response.encode();
        frame::decode(&wire).map_err(|e| TransportError::Protocol(format!("response leg: {e}")))
    }
}

impl Transport for FaultTransport {
    fn exchange(&self, shard: usize, request: &Frame) -> Result<Frame, TransportError> {
        self.attempts[shard].fetch_add(1, Ordering::Relaxed);
        let action = self.schedules.lock().unwrap_or_else(PoisonError::into_inner)[shard]
            .pop_front()
            .unwrap_or(FaultAction::Ok);
        match action {
            FaultAction::Ok => self.answer(shard, request),
            FaultAction::Timeout => Err(TransportError::Timeout),
            FaultAction::Reset => Err(TransportError::Reset),
            FaultAction::Slow(micros) => {
                std::thread::sleep(Duration::from_micros(micros));
                self.answer(shard, request)
            }
        }
    }

    fn shard_count(&self) -> usize {
        self.hosts.len()
    }
}
