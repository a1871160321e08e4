#!/usr/bin/env bash
# Tier-1 verification gate: build, test, lint, format.
#
# Usage: scripts/verify.sh
# Run from anywhere; it cd's to the repository root.

set -euo pipefail
cd "$(dirname "$0")/.."

# How many crash-consistency torture cases to run (fixed deterministic
# seeds 0..N in crates/core/tests/torture.rs). CI should raise this.
METAMESS_TORTURE_CASES="${METAMESS_TORTURE_CASES:-1000}"
export METAMESS_TORTURE_CASES

echo "==> crate registry preflight"
# Every later step needs the workspace's external deps (serde, proptest…).
# When the registry is unreachable, run what needs none of them instead:
# the offline test script builds against the stand-ins under
# benchmark/shims/ and its exit status is this script's.
if ! cargo metadata --format-version 1 >/dev/null 2>&1; then
  echo "verify: cargo cannot resolve workspace dependencies (registry" >&2
  echo "  unreachable, no cache or vendor dir); running scripts/offline-test.sh." >&2
  echo "  Build, clippy, doc, fmt and the proptest suites are NOT checked." >&2
  exec scripts/offline-test.sh
fi

echo "==> no stray println!/eprintln! in library crates"
# Library crates report through the telemetry registry (and its event!
# macro), never by printing. CLI binaries, the exp*/bench harnesses and
# tests are exempt. Comment lines (incl. doc examples) are ignored.
if grep -rnE '(println|eprintln)!' crates/*/src --include='*.rs' \
    | grep -v '^crates/bench/src/' \
    | grep -vE ':[0-9]+: *//' \
    | grep -vE ':[0-9]+: *#\[' \
    | grep -v 'tests/'; then
  echo "verify: FAIL — library crates must use metamess-telemetry, not print" >&2
  exit 1
fi

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test -q -p metamess-telemetry"
cargo test -q -p metamess-telemetry

echo "==> cargo test -q -p metamess-server (HTTP layer + socket integration)"
cargo test -q -p metamess-server

echo "==> trace zero-allocation gate (METAMESS_TELEMETRY=0 alloc guard)"
# With telemetry disabled, the tracing instrumentation threaded through
# the request hot path must not allocate at all — the counting-allocator
# test asserts exactly zero heap allocations for begin/span/end.
METAMESS_TELEMETRY=0 cargo test -q -p metamess-server --test alloc_guard

echo "==> serve smoke: exp8 --quick (load, shed, hot reload, drain, event loop)"
# The experiment asserts zero dropped in-flight requests across shutdown
# and reload, runs the 10x-load + slow-loris event-loop scenario, gates
# trace overhead (full head-sampling within 10% of the untraced p99 +2ms
# noise floor — asserted in-process by the trace_overhead scenario), and
# fails on a >25% p99 regression against the committed BENCH_serve.json
# (bootstrapped from this very run when the file does not exist yet);
# timeout guards against a hung event loop ever blocking CI.
timeout 300 cargo run --release -q -p metamess-bench --bin exp8_serve -- --quick \
  --baseline BENCH_serve.json

echo "==> sharding: bit-identity property tests"
cargo test -q -p metamess-search --test shard_props

echo "==> shard smoke: exp9 --quick (scatter-gather identity + pruning)"
# Hard-asserts sharded == unsharded for every layout and that the spatial/
# temporal partitioners actually prune shards on selective queries.
timeout 300 cargo run --release -q -p metamess-bench --bin exp9_shard_scaling -- --quick

echo "==> watch + serve: continuous-ingestion CLI integration test"
# `metamess watch` wrangles into the store, a live serve picks the next
# publish up through the in-place delta path, and the upload is searchable.
cargo test -q --test watch_cli

echo "==> ingest smoke: exp10 --quick (group-commit amortization, watch cycles, delta apply)"
# Hard-asserts ≥4x fewer fsyncs at a 50-harvest burst under the commit
# window, that unchanged cycles skip the pipeline, and that every watch
# publish reaches serve via the in-place delta path.
timeout 300 cargo run --release -q -p metamess-bench --bin exp10_ingest -- --quick

echo "==> remote shard protocol: codec properties + fault-injection + e2e fleet"
# Frame codec round-trip/truncation/CRC/version proptests, the
# FaultTransport coordinator suite (fail vs degrade semantics, retry
# budgets, circuit breaker), and real-TCP shardd fleets asserted
# bit-identical to local sharding — including a mid-run kill.
cargo test -q -p metamess-remote

echo "==> remote smoke: exp11 --quick (shardd fleet identity + partial results)"
# Hard-asserts remote scatter-gather is bit-identical to the in-process
# sharded engine at every fleet size, and that killing one shardd under
# the degrade policy marks every response partial with zero errors.
timeout 300 cargo run --release -q -p metamess-bench --bin exp11_remote -- --quick

echo "==> crash-consistency torture suite (${METAMESS_TORTURE_CASES} seeded cases)"
cargo test -q -p metamess-core --test torture --release

echo "==> group-commit torture suite (${METAMESS_TORTURE_CASES} seeded cases)"
# Crash inside the commit window ⇒ the recovered catalog is the acked
# prefix; compaction mid-fault never loses acked data.
cargo test -q -p metamess-core --test torture_group_commit --release

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "==> cargo doc --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet

echo "==> cargo fmt --check"
cargo fmt --check

echo "verify: OK"
