#!/usr/bin/env bash
# The resident-server gate: end-to-end over the real binaries —
#
#   1. build two pinned snapshots (base and target) with `itm snapshot`,
#   2. produce an `.itmsd` delta with `itm snapshot-diff` and prove
#      `itm snapshot-apply` rebuilds the target byte-identically,
#   3. run `itm served` on a unix socket, rewrite the served file with
#      `itm snapshot-apply --out` (the server must keep answering from the
#      base it mapped), then drive a session that queries, hot-swaps via
#      apply-delta mid-session, and queries again — the pre-swap answers
#      must equal a fresh `itm serve` run over the base and the post-swap
#      answers one over the target snapshot (answer-hash equality),
#   4. SIGTERM the server and require a graceful exit 0 with the socket
#      unlinked,
#   5. run the serve-labeled ctest subset (mmap/view equivalence, delta
#      property tests, session protocol, hot-swap stress).
#
# Usage: tools/check_serve.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j"$(nproc)" \
    --target itm served_tests hot_swap_tests

ITM="$BUILD_DIR/tools/itm"
SCRATCH="$(mktemp -d)"
SERVED_PID=""
# A failed check must not leave the server running.
trap '[[ -n "$SERVED_PID" ]] && kill "$SERVED_PID" 2>/dev/null; rm -rf "$SCRATCH"' EXIT

# ---- 1. two pinned snapshots of the same world at different probe depths.
"$ITM" snapshot --scale tiny --seed 11 --out "$SCRATCH/base.itms" >/dev/null
"$ITM" snapshot --scale tiny --seed 12 --out "$SCRATCH/target.itms" >/dev/null

# ---- 2. diff + apply must be byte-identical to the fresh target.
"$ITM" snapshot-diff "$SCRATCH/base.itms" "$SCRATCH/target.itms" \
    --out "$SCRATCH/step.itmsd" >/dev/null
"$ITM" snapshot-apply "$SCRATCH/base.itms" "$SCRATCH/step.itmsd" \
    --out "$SCRATCH/applied.itms" >/dev/null
if ! cmp -s "$SCRATCH/applied.itms" "$SCRATCH/target.itms"; then
  echo "FAIL: snapshot-apply is not byte-identical to the target" >&2
  exit 1
fi
echo "delta apply byte-identical to the fresh target snapshot"

# A corrupted delta must be rejected (exit 4), leaving no output file.
python3 - "$SCRATCH/step.itmsd" "$SCRATCH/bad.itmsd" <<'EOF'
import sys
data = bytearray(open(sys.argv[1], 'rb').read())
data[len(data) // 2] ^= 0x10
open(sys.argv[2], 'wb').write(bytes(data))
EOF
if "$ITM" snapshot-apply "$SCRATCH/base.itms" "$SCRATCH/bad.itmsd" \
    --out "$SCRATCH/never.itms" >/dev/null 2>&1; then
  echo "FAIL: corrupted delta was accepted" >&2
  exit 1
fi
echo "corrupted delta rejected"

# ---- 3. resident server: query, hot-swap under a live session, re-query.
QUERIES="stats
top-as 5
lookup 10.0.0.1"
N_QUERIES="$(printf '%s\n' "$QUERIES" | wc -l)"

# Reference answers: `itm serve` (batch mode, mmap) over each snapshot.
printf '%s\n' "$QUERIES" > "$SCRATCH/queries.txt"
"$ITM" serve --snapshot "$SCRATCH/base.itms" \
    --queries "$SCRATCH/queries.txt" | tail -n "$N_QUERIES" \
    > "$SCRATCH/expect_pre.out"
"$ITM" serve --snapshot "$SCRATCH/target.itms" \
    --queries "$SCRATCH/queries.txt" | tail -n "$N_QUERIES" \
    > "$SCRATCH/expect_post.out"

SOCK="$SCRATCH/itm.sock"
"$ITM" served --snapshot "$SCRATCH/base.itms" --listen "$SOCK" \
    > "$SCRATCH/served.log" 2>&1 &
SERVED_PID=$!
for _ in $(seq 50); do
  [[ -S "$SOCK" ]] && break
  sleep 0.1
done
if ! [[ -S "$SOCK" ]]; then
  echo "FAIL: itm served did not create $SOCK" >&2
  cat "$SCRATCH/served.log" >&2
  exit 1
fi

# Rewrite the served file while it is mapped. The CLI replaces --out by
# rename, so the live epoch keeps its inode; truncating in place would fault
# the server (SIGBUS) or hand it bytes validated for another file.
"$ITM" snapshot-apply "$SCRATCH/base.itms" "$SCRATCH/step.itmsd" \
    --out "$SCRATCH/base.itms" >/dev/null
if ! cmp -s "$SCRATCH/base.itms" "$SCRATCH/target.itms"; then
  echo "FAIL: in-place snapshot-apply did not produce the target" >&2
  exit 1
fi
if ! kill -0 "$SERVED_PID" 2>/dev/null; then
  echo "FAIL: itm served died when its snapshot file was rewritten" >&2
  cat "$SCRATCH/served.log" >&2
  exit 1
fi

# One session: pre-swap queries (still the base the server mapped), the
# swap, post-swap queries.
cat > "$SCRATCH/session.py" <<'EOF'
import socket
import sys
sock = socket.socket(socket.AF_UNIX)
sock.connect(sys.argv[1])
sock.sendall(sys.stdin.buffer.read())
sock.shutdown(socket.SHUT_WR)
chunks = []
while True:
    chunk = sock.recv(65536)
    if not chunk:
        break
    chunks.append(chunk)
sys.stdout.buffer.write(b"".join(chunks))
EOF
{
  printf '%s\n' "$QUERIES"
  printf 'apply-delta %s\n' "$SCRATCH/step.itmsd"
  printf '%s\n' "$QUERIES"
  printf 'quit\n'
} | python3 "$SCRATCH/session.py" "$SOCK" > "$SCRATCH/session.out"

# The swap acknowledgement sits between the two query blocks.
if ! grep -q '^ok epoch=1 checksum=' "$SCRATCH/session.out"; then
  echo "FAIL: apply-delta was not acknowledged in-session" >&2
  cat "$SCRATCH/session.out" >&2
  exit 1
fi
head -n "$N_QUERIES" "$SCRATCH/session.out" > "$SCRATCH/pre.out"
tail -n +"$((N_QUERIES + 2))" "$SCRATCH/session.out" | head -n "$N_QUERIES" \
    > "$SCRATCH/post.out"

if ! cmp -s "$SCRATCH/pre.out" "$SCRATCH/expect_pre.out"; then
  echo "FAIL: pre-swap answers diverge from itm serve over the base" >&2
  diff "$SCRATCH/expect_pre.out" "$SCRATCH/pre.out" >&2 || true
  exit 1
fi
if ! cmp -s "$SCRATCH/post.out" "$SCRATCH/expect_post.out"; then
  echo "FAIL: post-swap answers diverge from itm serve over the target" >&2
  diff "$SCRATCH/expect_post.out" "$SCRATCH/post.out" >&2 || true
  exit 1
fi
HASH_PRE="$(sha256sum < "$SCRATCH/pre.out" | cut -d' ' -f1)"
HASH_POST="$(sha256sum < "$SCRATCH/post.out" | cut -d' ' -f1)"
if [[ "$HASH_PRE" == "$HASH_POST" ]]; then
  echo "FAIL: pre- and post-swap answers are identical (swap had no effect)" >&2
  exit 1
fi
echo "hot swap under a live session: answer hashes match fresh snapshots"
echo "  pre-swap  $HASH_PRE"
echo "  post-swap $HASH_POST"

# ---- 4. graceful shutdown: SIGTERM -> drain -> exit 0, socket unlinked.
kill -TERM "$SERVED_PID"
SERVED_EXIT=0
wait "$SERVED_PID" || SERVED_EXIT=$?
SERVED_PID=""
if [[ "$SERVED_EXIT" != 0 ]]; then
  echo "FAIL: itm served exited $SERVED_EXIT on SIGTERM (want 0)" >&2
  cat "$SCRATCH/served.log" >&2
  exit 1
fi
if [[ -e "$SOCK" ]]; then
  echo "FAIL: socket not unlinked on graceful shutdown" >&2
  exit 1
fi
echo "SIGTERM: graceful exit 0, socket unlinked"

# ---- 5. the serve-labeled test subset.
ctest --test-dir "$BUILD_DIR" -L serve --output-on-failure -j"$(nproc)"
