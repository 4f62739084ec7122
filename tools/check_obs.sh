#!/usr/bin/env bash
# The observability gate: builds the toolkit, then runs the obs-labeled
# ctest subset — the flight-recorder/quantile/report unit tests plus the
# end-to-end instrumented-build gate (tools/obs_gate_test.cmake), which
# exercises --progress/--events-out/--metrics-full and the `itm obs
# report`/`trace` exit-code contract. Finally kills an instrumented build
# with SIGTERM and asserts the postmortem journal survived naming the
# in-flight stage (the crash-flush path, end to end), and that a pinned
# tier run without --seed journals the tier's seed.
#
# Usage: tools/check_obs.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j"$(nproc)" --target itm obs_tests

ctest --test-dir "$BUILD_DIR" -L obs --output-on-failure -j"$(nproc)"

SCRATCH="$(mktemp -d)"
trap 'rm -rf "$SCRATCH"' EXIT

# SIGTERM postmortem: start a medium build (long enough to catch mid-stage),
# kill it, and require a readable journal whose last event is the signal
# record. || true: the killed build's nonzero exit is the point.
"$BUILD_DIR/tools/itm" map --scale medium --seed 7 --threads 2 \
    --events-out "$SCRATCH/events.jsonl" >/dev/null 2>&1 &
ITM_PID=$!
sleep 2
kill -TERM "$ITM_PID" 2>/dev/null || true
wait "$ITM_PID" 2>/dev/null || true

if [[ ! -s "$SCRATCH/events.jsonl" ]]; then
  echo "FAIL: SIGTERM-killed build left no events journal" >&2
  exit 1
fi
LAST="$(tail -n 1 "$SCRATCH/events.jsonl")"
if [[ "$LAST" != *'"event": "signal"'* || "$LAST" != *'"signo": 15'* ]]; then
  echo "FAIL: journal does not end with the SIGTERM record: $LAST" >&2
  exit 1
fi
if [[ "$LAST" != *'"stage": "'* || "$LAST" == *'"stage": ""'* ]]; then
  echo "FAIL: signal record names no in-flight stage: $LAST" >&2
  exit 1
fi
echo "postmortem journal intact: $LAST"

# run.begin records the seed the world is built with: a pinned tier without
# --seed resolves to the tier's own seed (medium: 10111), not the CLI
# default. Kill the build once generation is under way; the SIGTERM flush
# writes the journal.
"$BUILD_DIR/tools/itm" map --scale medium --threads 2 \
    --events-out "$SCRATCH/seed.jsonl" >/dev/null 2>&1 &
ITM_PID=$!
sleep 1
kill -TERM "$ITM_PID" 2>/dev/null || true
wait "$ITM_PID" 2>/dev/null || true

BEGIN="$(grep -m 1 '"event": "run.begin"' "$SCRATCH/seed.jsonl" || true)"
if [[ "$BEGIN" != *'"seed": 10111'* ]]; then
  echo "FAIL: run.begin does not record the medium tier's seed 10111: " \
       "${BEGIN:-<no run.begin event>}" >&2
  exit 1
fi
echo "run.begin journals the resolved seed: $BEGIN"
