#!/usr/bin/env bash
# Tier-1 verification gate: build, test, lint, format. The external crates
# resolve to the stand-ins under benchmark/shims/ through the root
# manifest's [patch.crates-io] and the committed Cargo.lock, so nothing here
# needs a registry (DESIGN.md §5).
#
# Usage: scripts/verify.sh
# Run from anywhere; it cd's to the repository root.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> no stray println!/eprintln! in library crates"
# Library crates report through the telemetry registry (and its event!
# macro), never by printing. CLI binaries, the exp* harnesses and tests are
# exempt. Comment lines (incl. doc examples) are ignored.
if grep -rnE '(println|eprintln)!' crates/*/src --include='*.rs' \
    | grep -v '^crates/bench/src/bin/' \
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

echo "==> trace zero-allocation gate (METAMESS_TELEMETRY=0 alloc guard)"
# With telemetry disabled, the tracing instrumentation threaded through
# the request hot path must not allocate at all — the counting-allocator
# test asserts exactly zero heap allocations for begin/span/end.
METAMESS_TELEMETRY=0 cargo test -q -p metamess-server --test alloc_guard

echo "==> catalog memory, store and engine budgets (release)"
# A catalog keeps each feature it takes at the size of its metadata: the
# variables at exact capacity, the external pairs in one sorted vector. The
# counting-allocator test holds the live heap bytes per dataset of a catalog
# of harvester-built features under a budget set from measurement, and
# store_budget the snapshot bytes per dataset a 2 000-dataset catalog laid
# out in directories publishes to: a row that writes more than it alone
# knows fails there before the benchmark's store_bytes_per_dataset moves.
# engine_budget holds the live heap bytes per dataset a two-shard search
# engine keeps beside the store image of a 20 000-dataset catalog shaped
# like the benchmark's, and checks its answers against the reference.
cargo test -q --release -p metamess-core --test memory_budget --test store_budget
cargo test -q --release -p metamess-search --test engine_budget

cases="${METAMESS_TORTURE_CASES:-1000}"
echo "==> crash-consistency, watch-publish, hostile-bytes and writer-row suites ($cases seeded cases, release)"
# Recovery after an injected fault is the acknowledged prefix; a crash
# inside a watch publish (apply, one flush, compaction) leaves the acked
# prefix, and compaction mid-fault never loses acked data. A state image
# written over another through a fault at any write, fsync or rename site
# reads back as the old image or the new one, whole, and costs one fsync
# (a_state_image_reads_back_as_the_old_one_or_the_new_one_whole in
# torture.rs). Damaged store payloads decode or are
# refused as corrupt: no panic, no allocation on an unchecked count, and a
# descriptor table (each variable's name, curation, units, context and
# hierarchy, written once and referred to by number) with a reference past
# it, an entry repeated or never used, or an unknown tag bit is refused. A
# format 6 row writes only what it alone knows: its id is its path's hash
# unless a marker in its directory reference says it writes one, its
# directory is a table reference, and a variable whose total is its row's
# record count says so with bit 0 of its decimals byte and writes none; the
# sweep flips that bit and points directory references elsewhere and past
# the table. A decimals byte with bit 7 set (format 4's fourth number) is
# corrupt, and a format 4 or 5 file is refused by name and left as it is. Every
# f64, which a row writes as its short decimal when it has one and as its
# eight bits otherwise, comes back bit for bit and has one encoding. An
# image the encoder builds is what parsing its payload finds; the writer's
# checkpoint writes the decoded catalog's bytes, and its row-wise diff is
# the decoded catalog's diff. The writer encodes each row once per payload
# it writes (metamess_core_rows_encoded_total, its own test binary). A
# catalog keeps each distinct variable descriptor once — built by puts,
# decoded from a snapshot and WAL puts, or cloned —, a write through one
# variable changes no other, a catalog that shares its descriptors encodes
# to the bytes of one that does not, and a map over the descriptors
# rewrites what the same rewrite through each variable does, one
# allocation per result.
METAMESS_TORTURE_CASES="$cases" cargo test -q --release -p metamess-core \
  --test torture --test torture_group_commit --test codec --test durable --test work_counters \
  --test descriptors

echo "==> incremental watch vs cold wrangle, the pipeline's unit tests and counted work ($cases seeded cases, release)"
# A watch cycle walks the archive once and the scan stage reads that
# listing; after seeded edit cycles (append, copy, rename, delete, messy
# header) the watcher's store holds what a cold wrangle with the same
# curated knowledge publishes. The counted-work bounds hold at the
# benchmark's opt level too: curation makes one descriptor per (descriptor,
# context) key it rewrites (descriptor_copies), and a watch cycle
# fingerprints the catalog at most once and runs the chain once for an edit
# that teaches the curator nothing (catalog_fingerprints), and a file that
# never parsed is read once per content (harvest_failures); each is its own
# test binary.
METAMESS_TORTURE_CASES="$cases" cargo test -q --release -p metamess-pipeline --lib \
  --test watch_oracle --test descriptor_copies --test catalog_fingerprints \
  --test harvest_failures

echo "==> the watch oracle and the pipeline's unit tests in a debug build (300 seeded cases, debug)"
# A debug build checks every integer operation for overflow and runs every
# debug_assert!, which the release step above compiles away; this runs them
# under the oracle's edits, crashes and failed writes. 300 seeds keep this
# step under about 2 minutes on two cores (tier-1 runs 40).
METAMESS_TORTURE_CASES=300 cargo test -q -p metamess-pipeline --lib --test watch_oracle

echo "==> vocabulary indexes vs tree walks ($cases seeded cases, release)"
# Every lookup a vocabulary answers from its indexes — hierarchy paths,
# term expansions and key sets, taxonomy children and descendants, the
# candidates of an ambiguous short name — equals a walk of the taxonomy
# tree and of the synonym table, over random vocabularies with respelled
# names, a name at two depths and changes after the first lookup.
METAMESS_TORTURE_CASES="$cases" cargo test -q --release -p metamess-vocab --test props

echo "==> format round trips and golden archive and harvest digests (release)"
# Each format parses back what its writer wrote, text cells holding commas,
# quotes and spaces included (OBSLOG writes whitespace as `_`). The archive
# `generate` writes for two pinned specs, and the features `harvest`
# extracts from the default one, hash to pinned digests: a changed byte in a
# written file, or a change in the order or rounding of a column summary,
# fails here.
cargo test -q --release -p metamess-formats --test props
cargo test -q --release -p metamess-archive --test golden
cargo test -q --release -p metamess-harvest --test golden

echo "==> engine vs reference search and browse, and who holds the rows (release)"
# Ranking and hit materialization are separate instances of the one scoring
# routine, both reading name tiers through a per-query memo; check them, the
# memo against the one-dataset reference (the search crate's unit tests),
# and the engine's browse menus, against the naive references at serve's opt
# level. A shardd fleet answers like local shards, and the frame codec
# refuses a peer of another protocol version (a version-1 Hello by name),
# over real sockets too. A serving epoch holds rows of the store's images,
# and after a live writer's WAL tail (puts, deletes and a property record)
# the poll swaps in an epoch that answers like a reopened store and like the
# reference, cached and uncached, while the old epoch's images go with it;
# check that at the same opt level, over $cases seeded tails and 1 to 32
# shards.
cargo test -q --release -p metamess-search --lib --test reference_sweep --test shard_props

echo "==> score bounds against the reference, and the scores counted ($cases seeded cases, release)"
# A shard offers its candidates best score bound first and stops below its
# limit-th score; over seeded 200-2 000-dataset catalogs (polar clusters,
# twins, NaN and infinite ranges, odd weights) the answer is the
# reference's over the same candidates, bit for bit, at 1, 2 and 8 shards
# with the indexes on and off, and fewer than half the candidates are
# scored. metamess_search_candidates_scored_total adds the exact scores
# each search's explain reports (work_counters, its own test binary).
METAMESS_TORTURE_CASES="$cases" cargo test -q --release -p metamess-search \
  --test bound_sweep --test work_counters
cargo test -q --release -p metamess-remote --test reference_sweep --test e2e --test codec
METAMESS_TORTURE_CASES="$cases" cargo test -q --release -p metamess-server --test ownership

echo "==> flight recorder under concurrent writers and readers (release)"
# At full optimisation the writers and readers overlap the most: the ring
# stays within its bound, never hands out a torn record and keeps each
# writer's records newest first.
cargo test -q --release -p metamess-telemetry --test trace_props

echo "==> the benchmark builds against these crates and repeats itself (release)"
# benchmark/src is built from the crates' public API as they stand, so a
# change that breaks it fails here. run.sh stages the crates under
# benchmark/.stage and may rewrite benchmark/Cargo.lock, so it runs in a
# copy of the working tree; the same seed twice must give the same
# answers_digest and counts.
copy="$(mktemp -d)"
git ls-files -z -co --exclude-standard \
  | tar --null --ignore-failed-read -T - -cf - 2>/dev/null | tar -xf - -C "$copy"
CARGO_TARGET_DIR="$copy/target" bash "$copy/benchmark/run.sh" --selftest
rm -rf "$copy"

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "==> cargo doc --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet

echo "==> cargo fmt --check"
cargo fmt --check

echo "verify: OK"
