#!/usr/bin/env bash
# bench_pipeline.sh — runs the canonical pipeline benchmark configurations
# and aggregates their machine-readable reports into one
# BENCH_pipeline.json (schema gaurast-bench-pipeline/v9):
#
#   {"schema":"gaurast-bench-pipeline/v9","quick":<bool>,
#    "micro":   <gaurast-bench-micro/v1 report>,
#    "service": <gaurast-bench-service/v3 report>}
#
# The canonical (non-quick) configuration is bench_micro's flag defaults
# (20000 Gaussians at 320x240, warmup 2, repeat 5 — the config the recorded
# perf trajectory tracks) plus bench_service_throughput's in-process worker
# sweep on the software backend with the fast kernel (see the bench's
# header comment). --quick shrinks bench_micro's scene and both benches'
# frames so CI and ctest can exercise the JSON paths and both kernels in
# seconds, while keeping enough repeats for the two ratios the gate floors.
#
# Usage: tools/bench_pipeline.sh [--build-dir DIR] [--out FILE] [--quick]
set -euo pipefail

BUILD_DIR=build
OUT=BENCH_pipeline.json
QUICK=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --build-dir) BUILD_DIR=${2:?--build-dir needs a value}; shift 2 ;;
    --out) OUT=${2:?--out needs a value}; shift 2 ;;
    --quick) QUICK=1; shift ;;
    -h|--help)
      # Print the header comment block (everything between the shebang and
      # the first non-comment line).
      awk 'NR > 1 { if (!/^#/) exit; sub(/^# ?/, ""); print }' "$0"
      exit 0 ;;
    *) echo "bench_pipeline.sh: unknown argument '$1'" >&2; exit 1 ;;
  esac
done

MICRO="$BUILD_DIR/bench/bench_micro"
SERVICE="$BUILD_DIR/bench/bench_service_throughput"
for bin in "$MICRO" "$SERVICE"; do
  if [[ ! -x "$bin" ]]; then
    echo "bench_pipeline.sh: missing $bin (build the tree first:" \
         "cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j)" >&2
    exit 1
  fi
done

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

MICRO_FLAGS=()
# The gate floors sweep_speedup, a ratio of mean throughputs, so the quick
# sweep keeps 24 frames per point over 3 interleaved rounds: on a 4-vCPU
# host one round of 6 frames read 0.76-2.95x idle, this config 2.88-3.43x
# idle and 1.72-3.18x under `ctest -j4`.
SERVICE_FLAGS=(--backend sw --kernel fast --jobs 24 --repeat 3)
if [[ "$QUICK" == 1 ]]; then
  # Five repeats: the gate floors raster_fast_speedup, a ratio of medians.
  MICRO_FLAGS+=(--synthetic 4000 --width 160 --height 120 --warmup 1 --repeat 5)
  SERVICE_FLAGS+=(--width 96 --height 72 --warmup 0)
else
  # Canonical: bench_micro defaults; the sweep at the bench's 128x96 default.
  SERVICE_FLAGS+=(--warmup 1)
fi

# ${arr[@]+...} guards: expanding an empty array under `set -u` is an
# 'unbound variable' error on bash < 4.4 (macOS ships 3.2), and MICRO_FLAGS
# is empty exactly in canonical mode.
echo "== bench_micro ${MICRO_FLAGS[*]:-<canonical defaults>}"
"$MICRO" ${MICRO_FLAGS[@]+"${MICRO_FLAGS[@]}"} --json "$TMP/micro.json"
echo "== bench_service_throughput ${SERVICE_FLAGS[*]}"
"$SERVICE" "${SERVICE_FLAGS[@]}" --json "$TMP/service.json"

{
  printf '{"schema":"gaurast-bench-pipeline/v9","quick":%s,"micro":' \
         "$([[ "$QUICK" == 1 ]] && echo true || echo false)"
  tr -d '\n' < "$TMP/micro.json"
  printf ',"service":'
  tr -d '\n' < "$TMP/service.json"
  printf '}\n'
} > "$OUT"

SPEEDUP=$(sed -n 's/.*"raster_fast_speedup":\([0-9.]*\).*/\1/p' "$OUT")
SWEEP=$(sed -n 's/.*"sweep_speedup":\([0-9.]*\).*/\1/p' "$OUT")
echo "Wrote $OUT (raster fast-vs-reference speedup: ${SPEEDUP:-n/a}x," \
     "service widest-vs-1-worker sweep: ${SWEEP:-n/a}x)"
