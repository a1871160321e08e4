#!/usr/bin/env bash
# Non-test line count, per crate and in total: each .rs file under
# crates/*/src and src/, read up to its first column-0 `#[cfg(test)]`,
# without blank lines and lines that start with `//` (doc comments too).
# The project's line budget is measured in this count. It prints; it does
# not gate.
#
# Usage: scripts/loc.sh
# Run from anywhere; it cd's to the repository root.

set -euo pipefail
cd "$(dirname "$0")/.."

count() {
  find "$1" -name '*.rs' -exec awk '
    FNR == 1 { done = 0 }
    /^#\[cfg\(test\)\]/ { done = 1 }
    done { next }
    /^[ \t]*$/ || /^[ \t]*\/\// { next }
    { n++ }
    END { print n + 0 }' {} + | awk '{ n += $1 } END { print n + 0 }'
}

total=0
for dir in crates/*/src src; do
  n="$(count "$dir")"
  total=$((total + n))
  printf '%7d  %s\n' "$n" "$dir"
done
printf '%7d  total\n' "$total"
