#!/usr/bin/env bash
# bench_pipeline.sh — runs the canonical pipeline benchmark configurations
# and aggregates their machine-readable reports into one
# BENCH_pipeline.json (schema gaurast-bench-pipeline/v8):
#
#   {"schema":"gaurast-bench-pipeline/v8","quick":<bool>,
#    "micro":      <gaurast-bench-micro/v1 report>,
#    "service":    <gaurast-bench-service/v2 report>,        --compare sweep
#    "wire":       <gaurast-bench-service-wire/v2 report>,   --compare wire
#    "fleet":      <gaurast-bench-service-fleet/v2 report>,  --compare fleet
#    "faults":     <gaurast-bench-service-faults/v2 report>, --compare faults
#    "scene_store":<gaurast-bench-service-scenes/v2 report>} --compare scenes
#
# The canonical (non-quick) configuration is bench_micro's flag defaults
# (20000 Gaussians at 320x240, warmup 2, repeat 5 — the config the recorded
# perf trajectory tracks) plus bench_service_throughput's five
# comparisons on the software backend with the fast kernel: the
# worker-count sweep (in process), wire vs in-process (loopback TCP, image
# payloads included), routed vs direct over 2 loopback shards, faulted vs
# clean routed serving (every request deadlined, the faulted side under a
# seeded 1%-forward-error / 5%-10ms-delay plan), and budgeted vs unbounded
# scene store (budget: half the scene classes' quantized bytes). Every
# service report shares one layout; see the bench's header comment.
# --quick shrinks everything to small scenes and a single repeat (five for
# bench_micro, whose raster_fast_speedup the gate floors) so CI and ctest
# can exercise the JSON paths and both kernels in seconds.
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
COMMON=(--backend sw --kernel fast)
if [[ "$QUICK" == 1 ]]; then
  # Five repeats: the gate floors raster_fast_speedup, a ratio of medians.
  MICRO_FLAGS+=(--synthetic 4000 --width 160 --height 120 --warmup 1 --repeat 5)
  COMMON+=(--width 96 --height 72 --warmup 0 --repeat 1)
  SERVICE_FLAGS=(--jobs 6)
  WIRE_FLAGS=(--jobs 4 --scene-size 2000 --workers 1 --clients 2)
  FLEET_FLAGS=(--jobs 4 --workers 1 --clients 2)
  SCENES_FLAGS=(--jobs 8 --workers 1)
else
  # Canonical: bench_micro defaults; the sweep at the bench's 128x96
  # default, the other comparisons at 320x240. The fleet and faults
  # comparisons keep the default mixed scene sizes so the rendezvous hash
  # spreads load across both shards.
  COMMON+=(--warmup 1 --repeat 3)
  SERVICE_FLAGS=(--jobs 24)
  WIRE_FLAGS=(--jobs 16 --width 320 --height 240 --scene-size 20000
              --workers 2 --clients 4)
  FLEET_FLAGS=(--jobs 16 --width 320 --height 240 --workers 2 --clients 4)
  SCENES_FLAGS=(--jobs 24 --width 320 --height 240 --workers 2)
fi

# ${arr[@]+...} guards: expanding an empty array under `set -u` is an
# 'unbound variable' error on bash < 4.4 (macOS ships 3.2), and MICRO_FLAGS
# is empty exactly in canonical mode.
echo "== bench_micro ${MICRO_FLAGS[*]:-<canonical defaults>}"
"$MICRO" ${MICRO_FLAGS[@]+"${MICRO_FLAGS[@]}"} --json "$TMP/micro.json"
# service <section> <comparison> <flags...>
service() {
  local section=$1 compare=$2
  shift 2
  echo "== bench_service_throughput --compare $compare ${COMMON[*]} $*"
  "$SERVICE" --compare "$compare" "${COMMON[@]}" "$@" \
    --json "$TMP/$section.json"
}
service service sweep "${SERVICE_FLAGS[@]}"
service wire wire "${WIRE_FLAGS[@]}"
service fleet fleet "${FLEET_FLAGS[@]}"
service faults faults "${FLEET_FLAGS[@]}"
service scene_store scenes "${SCENES_FLAGS[@]}"

{
  printf '{"schema":"gaurast-bench-pipeline/v8","quick":%s,"micro":' \
         "$([[ "$QUICK" == 1 ]] && echo true || echo false)"
  tr -d '\n' < "$TMP/micro.json"
  for section in service wire fleet faults scene_store; do
    printf ',"%s":' "$section"
    tr -d '\n' < "$TMP/$section.json"
  done
  printf '}\n'
} > "$OUT"

SPEEDUP=$(sed -n 's/.*"raster_fast_speedup":\([0-9.]*\).*/\1/p' "$OUT")
SWEEP=$(sed -n 's/.*"sweep_speedup":\([0-9.]*\).*/\1/p' "$OUT")
WIRE_REL=$(sed -n 's/.*"wire_relative_throughput":\([0-9.]*\).*/\1/p' "$OUT")
FLEET_REL=$(sed -n 's/.*"routed_relative_throughput":\([0-9.]*\).*/\1/p' "$OUT")
FAULT_REL=$(sed -n 's/.*"faulted_relative_throughput":\([0-9.]*\).*/\1/p' "$OUT")
STORE_REL=$(sed -n 's/.*"budgeted_relative_throughput":\([0-9.]*\).*/\1/p' "$OUT")
echo "Wrote $OUT (raster fast-vs-reference speedup: ${SPEEDUP:-n/a}x," \
     "service widest-vs-1-worker sweep: ${SWEEP:-n/a}x," \
     "wire-vs-in-process serve: ${WIRE_REL:-n/a}x," \
     "routed-vs-direct fleet: ${FLEET_REL:-n/a}x," \
     "faulted-vs-clean fleet: ${FAULT_REL:-n/a}x," \
     "budgeted-vs-unbounded scene store: ${STORE_REL:-n/a}x)"
