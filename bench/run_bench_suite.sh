#!/usr/bin/env bash
# Regenerates the repository's canonical machine-readable benchmark set in
# one command:
#
#   BENCH_sweep.json            all figure benches' sweep rows (concatenated)
#   BENCH_metrics.json          the figure sweeps' merged metrics registries
#   BENCH_policy_overhead.json  eviction-cost + EO-refresh A/B rows, plus a
#                               latch_overhead row (ns/fetch on the
#                               uncontended hit path: a writable service's
#                               shard mutex vs a read-only service's
#                               optimistic protocol)
#   BENCH_kernels.json          geometry-kernel dispatch-tier A/B rows
#   BENCH_concurrent.json       concurrent shared-buffer service rows (a
#                               read-only service, so the optimistic
#                               protocol); each row carries pin-latency
#                               percentiles (pin_p50_ns/p95/p99)
#   BENCH_fault.json            fault-resilience rows (hit rate + fetch
#                               latency vs injected fault rate, LRU vs ASB)
#
# Usage: bench/run_bench_suite.sh [build-dir] [out-dir]
#   build-dir  CMake build tree with the bench targets built (default: build)
#   out-dir    where the BENCH_*.json files land (default: current directory)
#
# Honors the usual knobs: SDB_SCALE (database scale; e.g. 0.2 for a quick
# pass), SDB_BENCH_THREADS (sweep worker threads — results are identical for
# every thread count), SDB_KERNELS (geometry-kernel dispatch tier; results
# are bit-identical across tiers), and SDB_CACHE_DIR (strongly recommended:
# caches the built databases across benches and runs).
#
# Each bench process truncates its JSON sink on first append (fresh file per
# run), so the figure benches write to a shared part file that is folded
# into the combined BENCH_sweep.json after each bench finishes.
set -euo pipefail

BUILD_DIR=${1:-build}
OUT_ARG=${2:-.}
if [[ ! -d "$BUILD_DIR/bench" ]]; then
  echo "error: $BUILD_DIR/bench not found — build the project first" >&2
  echo "  cmake -B $BUILD_DIR -DCMAKE_BUILD_TYPE=RelWithDebInfo && cmake --build $BUILD_DIR" >&2
  exit 1
fi
BENCH_DIR=$(cd "$BUILD_DIR/bench" && pwd)
mkdir -p "$OUT_ARG"
OUT_DIR=$(cd "$OUT_ARG" && pwd)
TMP_DIR=$(mktemp -d)
trap 'rm -rf "$TMP_DIR"' EXIT

FIGS=(
  fig04_lru_priority
  fig05_lru_k
  fig06_spatial_variants
  fig07_uniform
  fig08_identical_similar
  fig09_independent_intensified
  fig12_slru_static
  fig13_asb_comparison
  fig14_candidate_trace
)

: > "$TMP_DIR/sweep.json"
: > "$TMP_DIR/metrics.json"
for fig in "${FIGS[@]}"; do
  echo "== $fig =="
  SDB_BENCH_JSON="$TMP_DIR/part_sweep.json" \
    SDB_BENCH_METRICS="$TMP_DIR/part_metrics.json" \
    "$BENCH_DIR/$fig"
  # Some figure benches (fig04, fig06, fig14) print bespoke tables and have
  # no sweep-JSON sink; fold in whatever parts this bench produced.
  for part in sweep metrics; do
    if [[ -f "$TMP_DIR/part_$part.json" ]]; then
      cat "$TMP_DIR/part_$part.json" >> "$TMP_DIR/$part.json"
      rm -f "$TMP_DIR/part_$part.json"
    fi
  done
done
mv "$TMP_DIR/sweep.json" "$OUT_DIR/BENCH_sweep.json"
mv "$TMP_DIR/metrics.json" "$OUT_DIR/BENCH_metrics.json"

echo "== micro_policy_overhead (tables only) =="
(cd "$OUT_DIR" && "$BENCH_DIR/micro_policy_overhead" --benchmark_filter='^$')

echo "== micro_geom_kernels (tables only) =="
(cd "$OUT_DIR" && "$BENCH_DIR/micro_geom_kernels" --benchmark_filter='^$')

echo "== ext_concurrent_service =="
(cd "$OUT_DIR" && SDB_BENCH_CONCURRENT=BENCH_concurrent.json \
  "$BENCH_DIR/ext_concurrent_service")

echo "== ext_fault_resilience =="
(cd "$OUT_DIR" && SDB_BENCH_FAULT=BENCH_fault.json \
  "$BENCH_DIR/ext_fault_resilience")

echo
echo "canonical benchmark set written to $OUT_DIR:"
(cd "$OUT_DIR" && wc -l BENCH_sweep.json BENCH_metrics.json \
  BENCH_policy_overhead.json BENCH_kernels.json BENCH_concurrent.json \
  BENCH_fault.json)
