#!/usr/bin/env bash
# Smoke test for the gaurast_cli binary: exit codes, user-facing diagnostics,
# and a tiny synthetic render round-trip.
#
# Usage: cli_smoke_test.sh <path-to-gaurast_cli>
set -u

CLI=${1:?usage: cli_smoke_test.sh <path-to-gaurast_cli>}
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
FAILURES=0

# run <expected-exit> <argv...> — runs the CLI, captures stdout/stderr into
# $OUT/$ERR, and flags a failure if the exit code differs from expected.
run() {
  local expected=$1
  shift
  OUT=$("$CLI" "$@" >"$TMP/out" 2>"$TMP/err"; echo $?)
  ERR=$(cat "$TMP/err")
  STDOUT=$(cat "$TMP/out")
  if [[ "$OUT" != "$expected" ]]; then
    echo "FAIL: '$CLI $*' exited $OUT, expected $expected" >&2
    echo "--- stdout ---" >&2; cat "$TMP/out" >&2
    echo "--- stderr ---" >&2; cat "$TMP/err" >&2
    FAILURES=$((FAILURES + 1))
    return 1
  fi
}

# expect_contains <haystack-var-content> <needle> <label>
expect_contains() {
  if [[ "$1" != *"$2"* ]]; then
    echo "FAIL: $3: expected to find '$2' in:" >&2
    echo "$1" >&2
    FAILURES=$((FAILURES + 1))
  fi
}

# expect_clean <text> <label> — diagnostics must not leak internal
# assertion machinery or file/line locations.
expect_clean() {
  for bad in "GAURAST_CHECK" "cli.cpp" ".cpp:"; do
    if [[ "$1" == *"$bad"* ]]; then
      echo "FAIL: $2: diagnostic leaks internals ('$bad'):" >&2
      echo "$1" >&2
      FAILURES=$((FAILURES + 1))
    fi
  done
}

# 1. No arguments: usage on stderr, exit 1.
run 1 || true
expect_contains "$ERR" "usage" "no-args prints usage to stderr"

# 2. --help / -h: usage on stdout, exit 0.
run 0 --help && expect_contains "$STDOUT" "usage" "--help prints usage"
run 0 -h && expect_contains "$STDOUT" "usage" "-h prints usage"

# 3. Per-command help: exit 0 and mentions a command flag.
run 0 render --help && expect_contains "$STDOUT" "--synthetic" "render --help lists flags"

# 4. Unknown command: exit 1, clean diagnostic naming the command.
run 1 frobnicate || true
expect_contains "$ERR" "unknown command 'frobnicate'" "unknown command named"
expect_clean "$ERR" "unknown command diagnostic"

# 5. Unknown command with --help must still fail (command validated first).
run 1 bogus --help || true
expect_contains "$ERR" "unknown command 'bogus'" "bogus --help rejected"

# 6. Unknown flag: exit 1, clean diagnostic naming the flag, suggests --help.
run 1 render --bogus 3 || true
expect_contains "$ERR" "unknown flag --bogus" "unknown flag named"
expect_contains "$ERR" "--help" "unknown flag suggests --help"
expect_clean "$ERR" "unknown flag diagnostic"

# 7. Flag missing its value: exit 1, clean diagnostic.
run 1 render --out || true
expect_contains "$ERR" "--out" "missing value names the flag"
expect_clean "$ERR" "missing value diagnostic"

# 8. Non-integer flag value: exit 1, clean diagnostic.
run 1 render --synthetic abc || true
expect_contains "$ERR" "--synthetic=abc is not an integer" "bad int value named"
expect_clean "$ERR" "bad int value diagnostic"

# 8b. Out-of-range integer value: exit 1, clean diagnostic (no silent
# truncation of the strtol result).
run 1 render --synthetic 4294967297 || true
expect_contains "$ERR" "out of range" "overflowing int value rejected"
expect_clean "$ERR" "overflowing int value diagnostic"

# 8c. Negative count: exit 1, clean diagnostic (no wraparound to a huge
# unsigned Gaussian count aborting deep in the generator).
run 1 render --synthetic -1 || true
expect_contains "$ERR" "must be a positive integer" "negative count rejected"
expect_clean "$ERR" "negative count diagnostic"

# 8d. A --flag is never consumed as another flag's value.
run 1 render --out --synthetic 100 || true
expect_contains "$ERR" "--out needs a value" "flag-as-value rejected"
expect_clean "$ERR" "flag-as-value diagnostic"

# 8e. Stray positional argument: exit 1, clean diagnostic naming it.
run 1 render scene.ply || true
expect_contains "$ERR" "unexpected argument 'scene.ply'" "stray positional rejected"
expect_clean "$ERR" "stray positional diagnostic"

# 8f. Path flags that name unopenable files: exit 1, clean diagnostic.
run 1 replay --trace "$TMP/missing.gtr" || true
expect_contains "$ERR" "cannot open --trace" "missing trace file named"
expect_clean "$ERR" "missing trace diagnostic"
run 1 render --ply "$TMP/missing.ply" || true
expect_contains "$ERR" "cannot open --ply" "missing ply file named"
expect_clean "$ERR" "missing ply diagnostic"
run 1 render --ply "$TMP" || true
expect_contains "$ERR" "cannot open --ply" "directory as ply rejected"
expect_clean "$ERR" "directory as ply diagnostic"

# 8g. Unwritable --out fails fast with a clean diagnostic (not after the
# render, and not via an internal assertion from the image writer).
run 1 render --synthetic 100 --out "$TMP/no/such/dir/x.ppm" || true
expect_contains "$ERR" "cannot write --out" "unwritable out rejected"
expect_clean "$ERR" "unwritable out diagnostic"

# 8h. Loader content errors (a readable file with a bad body) name the
# file and the problem, never a source line.
printf 'ply\nformat binary_little_endian 1.0\nelement vertex 1\nproperty float x\nproperty float z\nend_header\n01234567' >"$TMP/noy.ply"
run 1 render --ply "$TMP/noy.ply" || true
expect_contains "$ERR" "PLY '$TMP/noy.ply': missing property y" "bad ply body names the file"
expect_clean "$ERR" "bad ply body diagnostic"
printf 'XXXXjunkjunkjunk' >"$TMP/bad.gtr"
run 1 replay --trace "$TMP/bad.gtr" || true
expect_contains "$ERR" "trace '$TMP/bad.gtr': bad magic" "bad trace body names the file"
expect_clean "$ERR" "bad trace body diagnostic"
printf 'pes_per_module = 0\n' >"$TMP/bad.cfg"
run 1 simulate --scene bicycle --config "$TMP/bad.cfg" || true
expect_contains "$ERR" "config '$TMP/bad.cfg': pes_per_module" "bad config body names the file"
expect_clean "$ERR" "bad config body diagnostic"

# 9. Empty '=' value for an integer flag: exit 1, clean diagnostic.
run 1 render --synthetic= || true
expect_contains "$ERR" "is not an integer" "empty int value rejected"
expect_clean "$ERR" "empty int value diagnostic"

# 10. replay without its required --trace: exit 1, clean diagnostic.
run 1 replay || true
expect_contains "$ERR" "replay requires --trace" "replay names missing flag"
expect_clean "$ERR" "replay missing-trace diagnostic"

# 11. Tiny synthetic render round-trip: exit 0 and a non-empty PPM.
PPM="$TMP/out.ppm"
run 0 render --synthetic 100 --width 32 --height 24 --out "$PPM" || true
if [[ ! -s "$PPM" ]]; then
  echo "FAIL: render did not produce a non-empty $PPM" >&2
  FAILURES=$((FAILURES + 1))
fi

# 12. --threads / --seed on render: the software backend (where --threads
# drives the Step-3 tile fan-out) is bit-identical across thread counts,
# and a different seed changes the generated scene.
PPM_T1="$TMP/t1.ppm"; PPM_T4="$TMP/t4.ppm"; PPM_S2="$TMP/s2.ppm"
run 0 render --backend sw --synthetic 100 --width 32 --height 24 --threads 1 --seed 7 --out "$PPM_T1" || true
expect_contains "$STDOUT" "Raster threads" "sw render reports thread count"
run 0 render --backend sw --synthetic 100 --width 32 --height 24 --threads 4 --seed 7 --out "$PPM_T4" || true
if ! cmp -s "$PPM_T1" "$PPM_T4"; then
  echo "FAIL: --threads 4 render differs from --threads 1" >&2
  FAILURES=$((FAILURES + 1))
fi
run 0 render --backend sw --synthetic 100 --width 32 --height 24 --seed 8 --out "$PPM_S2" || true
if cmp -s "$PPM_T1" "$PPM_S2"; then
  echo "FAIL: --seed had no effect on the generated scene" >&2
  FAILURES=$((FAILURES + 1))
fi
# The hardware-model backends render the same frame bit-exactly (FP32
# GauRast) or at least successfully (FP16 GSCore-equivalent).
PPM_HW="$TMP/hw.ppm"; PPM_GS="$TMP/gs.ppm"
run 0 render --synthetic 100 --width 32 --height 24 --seed 7 --out "$PPM_HW" || true
if ! cmp -s "$PPM_T1" "$PPM_HW"; then
  echo "FAIL: gaurast-backend render differs from software render" >&2
  FAILURES=$((FAILURES + 1))
fi
run 0 render --backend gscore --synthetic 100 --width 32 --height 24 --seed 7 --out "$PPM_GS" || true
if [[ ! -s "$PPM_GS" ]]; then
  echo "FAIL: gscore-backend render produced no image" >&2
  FAILURES=$((FAILURES + 1))
fi
run 1 render --synthetic 100 --threads 0 || true
expect_contains "$ERR" "must be a positive integer" "--threads 0 rejected"
expect_clean "$ERR" "--threads 0 diagnostic"
# 12b. --kernel: the fast kernel renders bit-identically on the software
# backend; bad values and incapable backends are rejected with clean
# one-line diagnostics.
PPM_KF="$TMP/kfast.ppm"
run 0 render --backend sw --synthetic 100 --width 32 --height 24 --seed 7 --kernel fast --out "$PPM_KF" || true
expect_contains "$STDOUT" "fast" "render reports the selected kernel"
if ! cmp -s "$PPM_T1" "$PPM_KF"; then
  echo "FAIL: --kernel fast render differs from the reference kernel" >&2
  FAILURES=$((FAILURES + 1))
fi
run 1 render --backend sw --synthetic 100 --kernel turbo || true
expect_contains "$ERR" "unknown raster kernel 'turbo'" "bad kernel named"
expect_clean "$ERR" "bad kernel diagnostic"
run 1 render --synthetic 100 --kernel fast || true
expect_contains "$ERR" "--kernel does not apply to --backend gaurast" "kernel on hw backend rejected"
expect_contains "$ERR" "backends that accept it: sw" "kernel diagnostic lists capable backends"
# Flags that cannot take effect on the chosen backend are user errors,
# and a rejected render must not leave a stray empty --out file. The
# capability-driven diagnostics name the offending backend and enumerate
# the backends that do accept the flag.
run 1 render --synthetic 100 --threads 2 || true
expect_contains "$ERR" "--threads does not apply to --backend gaurast" "threads on hw backend rejected"
expect_contains "$ERR" "backends that accept it: sw" "threads diagnostic lists capable backends"
run 1 render --backend sw --synthetic 100 --config /dev/null || true
expect_contains "$ERR" "--config does not apply to --backend sw" "config on sw backend rejected"
expect_contains "$ERR" "gaurast" "config diagnostic lists capable backends"
run 1 serve --backend gscore --threads 2 || true
expect_contains "$ERR" "--threads does not apply to --backend gscore" "serve shares the capability check"
run 1 render --synthetic 100 --threads 0 --out "$TMP/stray.ppm" || true
if [[ -e "$TMP/stray.ppm" ]]; then
  echo "FAIL: failed render left an empty --out file behind" >&2
  FAILURES=$((FAILURES + 1))
fi
# Seeds are full-range uint64: 0 and >INT_MAX are fine, negatives are not.
run 0 render --synthetic 100 --width 32 --height 24 --seed 0 --out "$TMP/s0.ppm" || true
run 0 render --synthetic 100 --width 32 --height 24 --seed 4294967296 --out "$TMP/sbig.ppm" || true
run 1 render --synthetic 100 --seed -5 || true
expect_contains "$ERR" "not a non-negative integer" "negative seed rejected"
expect_clean "$ERR" "negative seed diagnostic"

# 13. serve: help lists its flags; a tiny closed-loop run exits 0 and prints
# the stats table; --json writes a machine-readable report.
run 0 serve --help && expect_contains "$STDOUT" "--workers" "serve --help lists flags"
SERVE_JSON="$TMP/serve.json"
run 0 serve --jobs 4 --workers 2 --backend sw --width 48 --height 36 --json "$SERVE_JSON" || true
expect_contains "$STDOUT" "Throughput" "serve prints the stats table"
expect_contains "$STDOUT" "Jobs completed" "serve reports completions"
if [[ ! -s "$SERVE_JSON" ]]; then
  echo "FAIL: serve did not write $SERVE_JSON" >&2
  FAILURES=$((FAILURES + 1))
else
  expect_contains "$(cat "$SERVE_JSON")" '"throughput_fps"' "serve JSON has throughput"
  expect_contains "$(cat "$SERVE_JSON")" '"workers":2' "serve JSON echoes config"
fi

# 13a. serve with the fast kernel completes on the software backend and is
# capability-checked on hardware-model backends.
run 0 serve --backend sw --kernel fast --jobs 2 --workers 1 --width 48 --height 36 || true
expect_contains "$STDOUT" "Jobs completed" "serve --kernel fast completes"
run 1 serve --kernel fast --jobs 2 || true
expect_contains "$ERR" "--kernel does not apply to --backend gaurast" "serve shares the kernel capability check"

# 13b. A flag belonging to another command is rejected, not silently
# ignored (flags are declared globally; consumption is per-command).
run 1 render --synthetic 100 --workers 8 || true
expect_contains "$ERR" "--workers is not used by 'render'" "foreign flag rejected"
expect_clean "$ERR" "foreign flag diagnostic"
run 1 serve --variant mini || true
expect_contains "$ERR" "--variant is not used by 'serve'" "serve foreign flag rejected"
# report takes no flags; its output is pinned by the report_golden ctest.
run 1 report --width 5 || true
expect_contains "$ERR" "--width is not used by 'report'" "report foreign flag rejected"
expect_clean "$ERR" "report foreign flag diagnostic"
if [[ $(printf '%s\n' "$ERR" | wc -l) -ne 1 ]]; then
  echo "FAIL: report --width diagnostic is not one line:" >&2
  echo "$ERR" >&2
  FAILURES=$((FAILURES + 1))
fi

# 14. serve flag validation: bad backend/arrival/workers fail with clean
# one-line diagnostics.
run 1 serve --backend vulkan || true
expect_contains "$ERR" "unknown backend 'vulkan'" "bad backend named"
expect_contains "$ERR" "registered backends:" "bad backend enumerates names"
expect_contains "$ERR" "gaurast" "bad backend lists gaurast"
expect_clean "$ERR" "bad backend diagnostic"
run 1 serve --arrival bursty || true
expect_contains "$ERR" "unknown arrival model 'bursty'" "bad arrival named"
expect_clean "$ERR" "bad arrival diagnostic"
run 1 serve --workers -2 || true
expect_contains "$ERR" "--workers" "negative workers named"
expect_clean "$ERR" "negative workers diagnostic"
run 1 serve --json "$TMP/no/such/dir/r.json" || true
expect_contains "$ERR" "cannot write --json" "unwritable json rejected"
expect_clean "$ERR" "unwritable json diagnostic"
# A failed flag validation must not leave a stray empty --json file behind.
run 1 serve --json "$TMP/stray.json" --backend bogus || true
if [[ -e "$TMP/stray.json" ]]; then
  echo "FAIL: failed serve left an empty --json file behind" >&2
  FAILURES=$((FAILURES + 1))
fi

# 15. backends: the registry listing drives everything --backend related.
run 0 backends || true
for b in sw gaurast gscore edge-fp16 orin-agx; do
  expect_contains "$STDOUT" "$b" "backends lists '$b'"
done
expect_contains "$STDOUT" "hardware model" "backends shows backend types"
expect_contains "$STDOUT" "--kernel" "backends lists kernel selection for sw"
run 0 backends --json - || true
expect_contains "$STDOUT" '"supports_raster_threads"' "backends --json - emits capabilities"
expect_contains "$STDOUT" '"supports_kernel_select"' "backends --json - emits kernel capability"
expect_contains "$STDOUT" '"name":"edge-fp16"' "backends --json - lists operating points"
BACKENDS_JSON="$TMP/backends.json"
run 0 backends --json "$BACKENDS_JSON" || true
if [[ ! -s "$BACKENDS_JSON" ]]; then
  echo "FAIL: backends did not write $BACKENDS_JSON" >&2
  FAILURES=$((FAILURES + 1))
else
  expect_contains "$(cat "$BACKENDS_JSON")" '"accepts_external_rasterizer_config"' "backends JSON file has capabilities"
fi
# --backend help text is generated from the registry, not hard-coded.
run 0 serve --help && expect_contains "$STDOUT" "edge-fp16" "serve --help lists registered backends"

# 16. Every registered backend serves traffic end-to-end: the acceptance
# bar for the registry being the single dispatch seam.
for b in sw gaurast gscore edge-fp16 orin-agx; do
  run 0 serve --backend "$b" --jobs 2 --workers 1 --width 48 --height 36 || true
  expect_contains "$STDOUT" "backend $b" "serve --backend $b banner"
  expect_contains "$STDOUT" "Jobs completed" "serve --backend $b completed"
done
# An external rasterizer config is accepted exactly where capabilities say.
CFG="$TMP/proto.cfg"
cat > "$CFG" <<'EOF'
pes_per_module = 16
module_count = 1
EOF
run 0 serve --backend gaurast --config "$CFG" --jobs 2 --workers 1 --width 48 --height 36 || true
run 1 serve --backend gscore --config "$CFG" --jobs 2 || true
expect_contains "$ERR" "--config does not apply to --backend gscore" "serve config capability check"

# 18. Networked serving: `serve --listen` on an ephemeral port accepts wire
# requests from `gaurast_cli request`, serves the schema-stamped stats
# endpoint, refuses mismatched options explicitly, and shuts down
# gracefully (exit 0, final stats) on SIGTERM.
SERVE_LOG="$TMP/serve_listen.log"
"$CLI" serve --listen 0 --backend sw --workers 1 >"$SERVE_LOG" 2>&1 &
SERVE_PID=$!
LISTEN_PORT=""
for _ in $(seq 1 100); do
  LISTEN_PORT=$(sed -n 's/^Listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$SERVE_LOG")
  [[ -n "$LISTEN_PORT" ]] && break
  sleep 0.1
done
if [[ -z "$LISTEN_PORT" ]]; then
  echo "FAIL: serve --listen never reported its port" >&2
  cat "$SERVE_LOG" >&2
  FAILURES=$((FAILURES + 1))
  kill -9 "$SERVE_PID" 2>/dev/null || true
else
  WIRE_PPM="$TMP/wire.ppm"
  run 0 request --port "$LISTEN_PORT" --synthetic 100 --width 32 --height 24 --out "$WIRE_PPM" || true
  expect_contains "$STDOUT" "ok" "request reports ok status"
  expect_contains "$STDOUT" "Latency" "request reports latency"
  if [[ ! -s "$WIRE_PPM" ]]; then
    echo "FAIL: request did not write $WIRE_PPM" >&2
    FAILURES=$((FAILURES + 1))
  fi
  run 0 request --port "$LISTEN_PORT" --stats || true
  expect_contains "$STDOUT" '"schema":"gaurast-serve-stats/v3"' "stats frame is schema-stamped"
  expect_contains "$STDOUT" '"completed"' "stats frame reports completions"
  # An option the server cannot honor is an explicit wire refusal, exit 1.
  run 1 request --port "$LISTEN_PORT" --synthetic 100 --kernel fast || true
  expect_contains "$ERR" "request refused" "wire kernel mismatch refused"
  expect_contains "$ERR" "kernel mismatch" "wire refusal names the reason"
  expect_clean "$ERR" "wire refusal diagnostic"
  kill -TERM "$SERVE_PID"
  SERVE_EXIT=0
  wait "$SERVE_PID" || SERVE_EXIT=$?
  if [[ "$SERVE_EXIT" -ne 0 ]]; then
    echo "FAIL: serve --listen exited $SERVE_EXIT after SIGTERM" >&2
    cat "$SERVE_LOG" >&2
    FAILURES=$((FAILURES + 1))
  fi
  expect_contains "$(cat "$SERVE_LOG")" "shutting down" "serve announces graceful shutdown"
  expect_contains "$(cat "$SERVE_LOG")" "Jobs completed" "serve prints final stats after SIGTERM"
fi
# Listen/request flag validation stays clean.
run 1 serve --listen 70000 || true
expect_contains "$ERR" "--listen must be a TCP port" "out-of-range listen port rejected"
expect_clean "$ERR" "bad listen port diagnostic"
run 1 serve --listen 0 --jobs 4 || true
expect_contains "$ERR" "does not apply with --listen" "listen mode rejects workload flags"
expect_clean "$ERR" "listen/jobs conflict diagnostic"
run 1 request --port 0 || true
expect_contains "$ERR" "--port" "request requires a positive port"
expect_clean "$ERR" "request port diagnostic"

# 19. Sharded fleet: `route --spawn 2` forks two supervised serve workers,
# routes wire requests scene-affinely, keeps serving (degraded) when a
# worker is killed -9, restarts it on the same port, and shuts down
# cleanly on SIGTERM with a final fleet-stats document.
run 1 route || true
expect_contains "$ERR" "exactly one fleet" "route requires --shard or --spawn"
expect_clean "$ERR" "route fleet-source diagnostic"
run 1 route --shard 127.0.0.1:4000 --spawn 2 || true
expect_contains "$ERR" "exactly one fleet" "route rejects --shard plus --spawn"
run 1 route --shard not-a-spec || true
expect_contains "$ERR" "--shard" "bad shard spec names the flag"
expect_clean "$ERR" "bad shard spec diagnostic"
run 1 route --shard 127.0.0.1:4000 --workers 2 || true
expect_contains "$ERR" "requires --spawn" "worker config without --spawn rejected"
expect_clean "$ERR" "worker config diagnostic"
run 1 route --shard 127.0.0.1:4000 --readmit-after-ms -1 || true
expect_contains "$ERR" "--readmit-after-ms must be >= 0" "negative readmit cooldown rejected"
expect_clean "$ERR" "readmit cooldown diagnostic"

ROUTE_LOG="$TMP/route.log"
"$CLI" route --spawn 2 --backend sw --workers 1 >"$ROUTE_LOG" 2>&1 &
ROUTE_PID=$!
ROUTE_PORT=""
for _ in $(seq 1 200); do
  ROUTE_PORT=$(sed -n 's/^Listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$ROUTE_LOG")
  [[ -n "$ROUTE_PORT" ]] && break
  sleep 0.1
done
if [[ -z "$ROUTE_PORT" ]]; then
  echo "FAIL: route --spawn never reported its port" >&2
  cat "$ROUTE_LOG" >&2
  FAILURES=$((FAILURES + 1))
  kill -9 "$ROUTE_PID" 2>/dev/null || true
else
  expect_contains "$(cat "$ROUTE_LOG")" "Routing across 2 shards" "route banner counts the fleet"
  # A frame routed through the fleet front-end.
  FLEET_PPM="$TMP/fleet.ppm"
  run 0 request --port "$ROUTE_PORT" --synthetic 100 --width 32 --height 24 --out "$FLEET_PPM" || true
  expect_contains "$STDOUT" "ok" "routed request reports ok status"
  if [[ ! -s "$FLEET_PPM" ]]; then
    echo "FAIL: routed request did not write $FLEET_PPM" >&2
    FAILURES=$((FAILURES + 1))
  fi
  # The stats endpoint through the router is the merged fleet document.
  run 0 request --port "$ROUTE_PORT" --stats || true
  expect_contains "$STDOUT" '"schema":"gaurast-fleet-stats/v2"' "routed stats is the fleet document"
  expect_contains "$STDOUT" '"gaurast-serve-stats/v3"' "fleet document embeds per-shard stats"
  # Kill one worker -9: the fleet keeps serving (failover) and the
  # supervisor restarts the corpse on its original port.
  WORKER_PID=$(sed -n 's/^\[spawner\] worker \([0-9]*\) listening on.*/\1/p' "$ROUTE_LOG" | head -1)
  if [[ -z "$WORKER_PID" ]]; then
    echo "FAIL: spawner never announced a worker pid" >&2
    cat "$ROUTE_LOG" >&2
    FAILURES=$((FAILURES + 1))
  else
    kill -9 "$WORKER_PID"
    run 0 request --port "$ROUTE_PORT" --synthetic 100 --width 32 --height 24 || true
    expect_contains "$STDOUT" "ok" "fleet serves degraded after kill -9"
    RESTARTED=""
    for _ in $(seq 1 150); do
      if grep -q "restarting on port" "$ROUTE_LOG" && \
         grep -q "\[spawner\] restarted worker" "$ROUTE_LOG"; then
        RESTARTED=yes
        break
      fi
      sleep 0.1
    done
    if [[ -z "$RESTARTED" ]]; then
      echo "FAIL: spawner never restarted the killed worker" >&2
      cat "$ROUTE_LOG" >&2
      FAILURES=$((FAILURES + 1))
    fi
  fi
  kill -TERM "$ROUTE_PID"
  ROUTE_EXIT=0
  wait "$ROUTE_PID" || ROUTE_EXIT=$?
  if [[ "$ROUTE_EXIT" -ne 0 ]]; then
    echo "FAIL: route exited $ROUTE_EXIT after SIGTERM" >&2
    cat "$ROUTE_LOG" >&2
    FAILURES=$((FAILURES + 1))
  fi
  expect_contains "$(cat "$ROUTE_LOG")" "shutting down" "route announces graceful shutdown"
  expect_contains "$(cat "$ROUTE_LOG")" '"schema":"gaurast-fleet-stats/v2"' "route prints a final fleet report"
fi

if [[ "$FAILURES" -ne 0 ]]; then
  echo "cli_smoke_test: $FAILURES failure(s)" >&2
  exit 1
fi
echo "cli_smoke_test: all checks passed"
