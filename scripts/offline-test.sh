#!/usr/bin/env bash
# Runs the tests that need no crate registry, for when `cargo metadata` at
# the root cannot resolve the workspace's external dependencies.
#
# Usage: scripts/offline-test.sh [extra `cargo test` arguments]
#
# The library crates are copied into a scratch workspace under target/, the
# way benchmark/run.sh stages them, and built against the stand-ins under
# benchmark/shims/ (serde, serde_json, rand, parking_lot) through
# `[patch.crates-io]`. proptest and criterion have no stand-in, so their
# dev-dependency lines are stripped and only the integration tests that do
# not use them are copied. The facade (src/, examples/, tests/end_to_end.rs)
# is staged the same way: bins, examples and that test are type-checked and
# the library's unit tests run; the other root tests need proptest or
# `serde_json::Value` methods the stand-in lacks. Nothing under benchmark/
# is written.

set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"

stage="$root/target/offline-test"
shims="$root/benchmark/shims"
crates="archive core discover formats harvest pipeline remote search server telemetry transform vocab"
# crate:test-file pairs free of proptest
tests="core:torture_group_commit search:reference_sweep remote:reference_sweep remote:fault remote:e2e server:http server:alloc_guard server:ownership server:reader_beside_writer"

rm -rf "$stage/crates"
mkdir -p "$stage/crates"
# the root manifest whole, facade [package] included
{
    grep -vE '^(proptest|criterion)(\.workspace)? *=' Cargo.toml
    echo '[patch.crates-io]'
    for shim in serde serde_derive serde_json rand parking_lot; do
        echo "$shim = { path = \"$shims/$shim\" }"
    done
} > "$stage/Cargo.toml"
rm -rf "$stage/src" "$stage/examples" "$stage/tests"
mkdir -p "$stage/tests"
cp -r src examples "$stage/"
cp tests/end_to_end.rs "$stage/tests/"
for c in $crates; do
    mkdir -p "$stage/crates/$c"
    cp -r "crates/$c/src" "$stage/crates/$c/"
    grep -vE '^(proptest|criterion)\.workspace *=' "crates/$c/Cargo.toml" > "$stage/crates/$c/Cargo.toml"
done
selected=()
for t in $tests; do
    c="${t%%:*}" name="${t##*:}"
    mkdir -p "$stage/crates/$c/tests"
    cp "crates/$c/tests/$name.rs" "$stage/crates/$c/tests/"
    selected+=(--test "$name")
done
# the sweeps' shared cases and oracle
cp -r crates/search/tests/common "$stage/crates/search/tests/"

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$stage/target}"
cargo check --offline --manifest-path "$stage/Cargo.toml" \
    -p metamess --bins --examples --test end_to_end
cargo test --offline --manifest-path "$stage/Cargo.toml" \
    -p metamess-core -p metamess-vocab -p metamess-harvest -p metamess-pipeline \
    -p metamess-search -p metamess-remote -p metamess-server -p metamess \
    --no-fail-fast --lib "${selected[@]}" "$@"
