#!/usr/bin/env bash
# Builds the benchmark offline and runs it. See benchmark/README.md.
#
#   run.sh                         all four workloads, untraced then traced
#   run.sh --workload W --seed N --seconds S --trace 0|1
#                                  one run; the last line is the result object
#   run.sh --quick                 5 s phases; checks the output against BENCHMARK.json
#   run.sh --selftest              same seed twice gives the same answers and counts
#   run.sh --calibrate [RUNS [SEED]]
#                                  RUNS (default 10) untraced runs per workload, seeds SEED
#                                  (default 1) and up; median and spread per metric
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

# Cargo resolves a relative CARGO_TARGET_DIR against the directory it runs
# in; pin it to the checkout root, where the driver means it to be.
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$root/$target" ;; esac
export CARGO_TARGET_DIR="$target"
stage="$here/.stage"
bin="$target/release/metamess-benchmark"
workloads="search-cold search-hot search-remote wrangle-live"

# The twelve library crates are built from a copy of crates/*/src with the
# patches under fixups/ applied: two of them do not compile as committed
# (README, "Hermetic build"). The copy is replaced only when it would differ,
# so an unchanged tree is not rebuilt.
stage_crates() {
    [ -d crates ] || { echo "run.sh: no crates/ beside benchmark/: nothing to measure" >&2; exit 3; }
    local fresh="$stage.new" c fix
    rm -rf "$fresh"
    mkdir -p "$fresh/crates"
    sed '/^\[package\]/,$d' Cargo.toml > "$fresh/Cargo.toml"
    for c in archive core discover formats harvest pipeline remote search server telemetry transform vocab; do
        mkdir -p "$fresh/crates/$c"
        cp -r "crates/$c/Cargo.toml" "crates/$c/src" "$fresh/crates/$c/"
    done
    # One patch per file, applied whole or not at all. A patch that no longer
    # applies means the crate changed there: the file is built as committed,
    # and the compiler decides whether the fix was still needed (a build
    # failure ends the run).
    for fix in "$here"/fixups/*.patch; do
        if patch -d "$fresh" -p1 --forward --dry-run < "$fix" >/dev/null 2>&1; then
            patch -d "$fresh" -p1 --forward --no-backup-if-mismatch < "$fix" >/dev/null
        else
            echo "run.sh: $(basename "$fix") does not apply; building that file as committed" >&2
        fi
    done
    if [ -d "$stage" ] && diff -rq "$fresh" "$stage" >/dev/null; then
        rm -rf "$fresh"
    else
        rm -rf "$stage"
        mv "$fresh" "$stage"
    fi
}

build() {
    stage_crates
    # Cargo repeats the crates' warnings on every run; keep them for a failure.
    mkdir -p "$target"
    cargo build --release --offline --manifest-path "$here/Cargo.toml" > "$target/build.log" 2>&1 \
        || { cat "$target/build.log" >&2; exit 1; }
}

run_one() { # workload seed seconds trace
    "$bin" --workload "$1" --seed "$2" --seconds "$3" --trace "$4" --work-dir "$target/work"
}

run_seconds() { awk -F'[:,]' '/"run_seconds"/ { gsub(/ /, "", $2); print $2 }' BENCHMARK.json; }

all_workloads() { # seconds
    local w status=0
    for w in $workloads; do
        echo "== $w, end to end"
        run_one "$w" 1 "$1" 0 || status=1
        echo "== $w, per layer"
        run_one "$w" 1 "$1" 1 || status=1
    done
    return $status
}

selftest() {
    local w=search-cold dir="$target/work/selftest"
    mkdir -p "$dir"
    run_one $w 7 4 0 > "$dir/a0"
    run_one $w 7 4 0 > "$dir/b0"
    run_one $w 8 4 0 > "$dir/c0"
    run_one $w 7 4 1 > "$dir/a1"
    run_one $w 7 4 1 > "$dir/b1"
    same() { # what fileA fileB
        if [ "$(grep -- "$1" "$2")" = "$(grep -- "$1" "$3")" ] && grep -q -- "$1" "$2"; then
            echo "ok: $1 repeats"
        else
            echo "FAILED: $1 differs between two runs of one seed" >&2
            exit 1
        fi
    }
    same "answers_digest" "$dir/a0" "$dir/b0"
    same "^store_bytes_per_dataset " "$dir/a0" "$dir/b0"
    same "^search.candidates_per_query " "$dir/a1" "$dir/b1"
    same "^core.store.wal_bytes_per_mutation " "$dir/a1" "$dir/b1"
    if [ "$(grep answers_digest "$dir/a0")" = "$(grep answers_digest "$dir/c0")" ]; then
        echo "FAILED: another seed gave the same answers_digest" >&2
        exit 1
    fi
    echo "ok: another seed changes answers_digest"
}

calibrate() { # runs first-seed
    local runs="$1" first="$2" seconds dir="$target/work/calibrate" seed w
    seconds="$(run_seconds)"
    rm -rf "$dir"
    mkdir -p "$dir"
    for w in $workloads; do
        for seed in $(seq "$first" "$((first + runs - 1))"); do
            run_one "$w" "$seed" "$seconds" 0 > "$dir/$w.$seed"
        done
    done
    # The quartiles are those of Python's statistics.quantiles(values, n=4),
    # which is what the driver computes.
    echo "workload metric median (q3-q1)/median (max-min)/median, over $runs runs of $seconds s"
    for w in $workloads; do
        cat "$dir/$w".* | awk -v w="$w" '
            function quartile(i, k,    j, d) {
                j = int(i * (k + 1) / 4); if (j < 1) j = 1; if (j > k - 1) j = k - 1
                d = i * (k + 1) - j * 4
                return (a[j] * (4 - d) + a[j + 1] * d) / 4
            }
            NF == 3 && $1 !~ /^(#|ops_)/ { n[$1]++; v[$1, n[$1]] = $2 }
            END {
                for (m in n) {
                    k = n[m]
                    for (i = 1; i <= k; i++) a[i] = v[m, i]
                    for (i = 2; i <= k; i++) { x = a[i]; for (j = i - 1; j >= 1 && a[j] > x; j--) a[j + 1] = a[j]; a[j + 1] = x }
                    med = quartile(2, k)
                    printf "%s %s %.6g %.4f %.4f\n", w, m, med, (quartile(3, k) - quartile(1, k)) / med, (a[k] - a[1]) / med
                }
            }' | sort
    done
}

case "${1:-}" in
    "")
        build
        all_workloads "$(run_seconds)"
        ;;
    --quick)
        build
        "$bin" --check-schema BENCHMARK.json
        all_workloads 5 > "$target/quick.out" || { cat "$target/quick.out"; exit 1; }
        echo "ok: every workload printed every metric BENCHMARK.json lists"
        ;;
    --selftest)
        build
        selftest
        ;;
    --calibrate)
        build
        calibrate "${2:-10}" "${3:-1}"
        ;;
    *)
        build
        exec "$bin" "$@" --work-dir "$target/work"
        ;;
esac
