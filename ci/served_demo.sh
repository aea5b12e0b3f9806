#!/usr/bin/env bash
# End-to-end drill of the continuous aggregation service (registered as the
# served_cross_process CTest test and run as a CI step).
#
# Topology: 2 castream_served worker processes ingest their x-partition of
# one deterministic stream and publish epoch-tagged shard snapshots over
# TCP to 1 always-on reducer; query clients hit the reducer throughout.
#
# The drill asserts the tentpole guarantees:
#   * queries answer while ingest is in flight (and carry epoch vectors),
#   * kill -9 of a worker leaves the reducer serving; the restarted worker
#     re-publishes under a new session tag and replaces its dead
#     incarnation,
#   * kill -9 of the reducer mid-stream, restarted on the same port, is
#     survived by the workers (reconnect + backoff + idempotent re-offer),
#   * garbage bytes on the socket are rejected without harming serving,
#   * the final query ladder equals the in-process oracle bit-for-bit
#     (%.17g), and
#   * SIGTERM drains the reducer gracefully (exit 0, stats line printed).
#
# Before any process starts it also checks that malformed numeric flags
# (a value too wide for its field, trailing junk) exit 2 with usage instead
# of being narrowed or truncated.
#
# usage: ci/served_demo.sh SERVED_BIN [WORK_DIR]
#   SERVED_BIN  path to the built castream_served (workers + query + oracle)
#   WORK_DIR    scratch dir for logs and the port file (default: mktemp -d)
#   REDUCE_BIN  optional env override: a *different* castream_served to run
#               the reducer with. The CI cross-compiler job runs gcc-built
#               workers against a clang-built reducer — the frame and blob
#               formats are compiler-independent, and this enforces it.
set -euo pipefail

BIN=${1:?usage: served_demo.sh SERVED_BIN [WORK_DIR]}
DIR=${2:-$(mktemp -d)}
REDUCER_BIN=${REDUCE_BIN:-$BIN}
mkdir -p "$DIR"

KIND=f2
WORKERS=2
COUNT=40000
STREAM_FLAGS=(--kind "$KIND" --workers "$WORKERS" --count "$COUNT")
WORKER_FLAGS=("${STREAM_FLAGS[@]}" --publish-every 1500 --throttle-us 400000)
PORT_FILE="$DIR/port"
rm -f "$PORT_FILE"

fail() { echo "FAIL: $*" >&2; exit 1; }

wait_for_port_file() {
  for _ in $(seq 1 100); do
    [ -s "$PORT_FILE" ] && return 0
    sleep 0.1
  done
  fail "reducer never wrote $PORT_FILE"
}

wait_for_serving() {  # poll until a query round-trips
  for _ in $(seq 1 100); do
    if "$BIN" query --port "$PORT" >/dev/null 2>&1; then return 0; fi
    sleep 0.2
  done
  fail "reducer on port $PORT never answered a query"
}

# --- malformed numeric flags are rejected up front -----------------------
# 4294967296 does not fit the uint32_t shard count and must not be
# narrowed (to 0, a divide-by-zero); "12abc" must not be read as 12.
for bad in 4294967296 12abc; do
  status=0
  "$BIN" oracle --kind "$KIND" --workers 1 --driver-shards "$bad" \
    > /dev/null 2> "$DIR/badflag.err" || status=$?
  [ "$status" -eq 2 ] \
    || fail "--driver-shards $bad exited $status, expected 2"
  grep -q "usage:" "$DIR/badflag.err" \
    || fail "--driver-shards $bad did not print usage"
done
echo "malformed numeric flags rejected with usage"

# --- start the reducer (ephemeral port, announced via the port file) -----
"$REDUCER_BIN" reduce --kind "$KIND" --port-file "$PORT_FILE" --log \
  > "$DIR/reducer1.log" 2>&1 &
REDUCER_PID=$!
wait_for_port_file
PORT=$(cat "$PORT_FILE")
wait_for_serving
echo "reducer up on port $PORT (pid $REDUCER_PID)"

# --- start both workers (throttled so the drill happens mid-stream) ------
"$BIN" worker "${WORKER_FLAGS[@]}" --worker 0 --port "$PORT" \
  > "$DIR/worker0.log" 2>&1 &
W0_PID=$!
"$BIN" worker "${WORKER_FLAGS[@]}" --worker 1 --port "$PORT" \
  > "$DIR/worker1.log" 2>&1 &
W1_PID=$!

# --- queries respond while ingest is in flight ---------------------------
sleep 1
for _ in 1 2 3; do
  "$BIN" query --port "$PORT" > "$DIR/midstream.out" 2> "$DIR/midstream.err" \
    || fail "mid-stream query failed while workers were publishing"
done
grep -q "epochs\[" "$DIR/midstream.err" \
  || fail "mid-stream answers carry no epoch vector"
echo "mid-stream queries OK"

# --- drill 1: kill -9 a worker; serving must not notice ------------------
kill -9 "$W0_PID" 2>/dev/null || true
wait "$W0_PID" 2>/dev/null || true
"$BIN" query --port "$PORT" >/dev/null 2>&1 \
  || fail "query failed after worker 0 was killed"
# Restart: the new incarnation re-ingests from scratch; its larger session
# tag makes its re-publishes replace the dead worker's slots.
"$BIN" worker "${WORKER_FLAGS[@]}" --worker 0 --port "$PORT" \
  > "$DIR/worker0b.log" 2>&1 &
W0_PID=$!
echo "worker 0 killed and restarted"

# --- drill 2: kill -9 the reducer; restart on the same port --------------
sleep 1
kill -9 "$REDUCER_PID" 2>/dev/null || true
wait "$REDUCER_PID" 2>/dev/null || true
"$REDUCER_BIN" reduce --kind "$KIND" --port "$PORT" --log \
  > "$DIR/reducer2.log" 2>&1 &
REDUCER_PID=$!
wait_for_serving
echo "reducer killed and restarted on port $PORT"

# --- workers must finish cleanly despite both drills ---------------------
wait "$W0_PID" || fail "worker 0 exited nonzero (see $DIR/worker0b.log)"
wait "$W1_PID" || fail "worker 1 exited nonzero (see $DIR/worker1.log)"
echo "both workers completed their final publishes"

# --- drill 3: garbage on the socket must not harm serving ----------------
if exec 3<>"/dev/tcp/127.0.0.1/$PORT" 2>/dev/null; then
  printf 'DEADBEEF-not-a-frame-%0128d' 0 >&3 || true
  exec 3>&- || true
fi
"$BIN" query --port "$PORT" >/dev/null 2>&1 \
  || fail "query failed after garbage bytes were sent"
echo "garbage-frame injection survived"

# --- the final ladder equals the in-process oracle bit-for-bit -----------
"$BIN" query "${STREAM_FLAGS[@]}" --port "$PORT" \
  > "$DIR/served.out" 2> "$DIR/served.err" \
  || fail "final query failed"
"$BIN" oracle "${STREAM_FLAGS[@]}" > "$DIR/oracle.out" 2>/dev/null \
  || fail "oracle run failed"
diff -u "$DIR/oracle.out" "$DIR/served.out" \
  || fail "served answers diverged from the single-process oracle"
# The answers' epoch vectors must cover both workers.
grep -qE ' 0/[0-9]+@[0-9]+' "$DIR/served.err" \
  || fail "final epoch vector is missing worker 0"
grep -qE ' 1/[0-9]+@[0-9]+' "$DIR/served.err" \
  || fail "final epoch vector is missing worker 1"
echo "final ladder matches the oracle bit-for-bit, epoch vectors complete"

# --- graceful shutdown: SIGTERM drains and exits 0 -----------------------
kill -TERM "$REDUCER_PID"
if ! wait "$REDUCER_PID"; then
  fail "reducer did not exit cleanly on SIGTERM (see $DIR/reducer2.log)"
fi
grep -q "reducer drained" "$DIR/reducer2.log" \
  || fail "reducer did not report its drain stats"

echo "served demo: all drills passed ($WORKERS workers, port $PORT, dir $DIR)"
