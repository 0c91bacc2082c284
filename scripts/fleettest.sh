#!/bin/sh
# Fleet acceptance test: nbodygw in front of three nbodyd replicas, under
# real process churn. Two gates, both hard:
#
#   1. Rolling restart (SIGTERM each replica in turn) under closed-loop
#      solve load through the gateway: the loadtest's own zero-5xx gate
#      must hold — a drain-aware restart is invisible to clients.
#   2. SIGKILL chaos under an in-flight /v1/simulate stream: replicas are
#      killed round-robin for the stream's whole life, and the stream must
#      still deliver every frame in order with a final frame whose particle
#      state is bitwise-identical (cmp) to an uninterrupted run against a
#      single quiet replica. The gateway's streams_lost counter must be 0.
#
#   scripts/fleettest.sh                        # default sizes
#   NBODY_BACKEND=scalar scripts/fleettest.sh   # pin a backend
#   STEPS=3000 DURATION=12s scripts/fleettest.sh
#
# The stream is pinned (-depth, fast accuracy, fixed seed) so the
# trajectory is a pure function of the request — what makes gate 2's cmp
# meaningful across a failover.
set -eu

DURATION="${DURATION:-8s}"
N="${N:-64}"
STEPS="${STEPS:-1500}"
DT="${DT:-1e-5}"
DEPTH="${DEPTH:-3}"
SEED="${SEED:-7}"
PORT="${PORT:-18040}"      # gateway; replicas take PORT+1..PORT+3
DRAIN_GRACE="${DRAIN_GRACE:-20s}"
# The stream carries an explicit generous deadline: the replicas' cost-model
# admission sheds long integrations against the 60s default once the solve
# load has warmed the estimator, and a fleet client asking for a multi-
# minute stream should say so.
DEADLINE_MS="${DEADLINE_MS:-600000}"

cd "$(dirname "$0")/.."

TMP=$(mktemp -d)
R1_PID=""; R2_PID=""; R3_PID=""; GW_PID=""; LT_PID=""; ST_PID=""

cleanup() {
    for pid in "$R1_PID" "$R2_PID" "$R3_PID" "$GW_PID" "$LT_PID" "$ST_PID"; do
        [ -n "$pid" ] && kill -9 "$pid" 2>/dev/null || true
    done
    rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

echo "fleettest: building (backend=${NBODY_BACKEND:-auto})"
go build -o "$TMP/nbodyd" ./cmd/nbodyd
go build -o "$TMP/nbodygw" ./cmd/nbodygw
go build -o "$TMP/nbodyreq" ./cmd/nbodyreq

replica_url() { echo "http://127.0.0.1:$((PORT + $1))"; }
GW_URL="http://127.0.0.1:$PORT"

start_replica() {
    i=$1
    "$TMP/nbodyd" -addr "127.0.0.1:$((PORT + i))" -quiet -drain-grace "$DRAIN_GRACE" \
        >>"$TMP/replica$i.log" 2>&1 &
    eval "R${i}_PID=$!"
}

replica_pid() { eval "echo \$R${1}_PID"; }

wait_health() {
    url=$1
    n=0
    until curl -fsS "$url/v1/healthz" >/dev/null 2>&1; do
        n=$((n + 1))
        if [ "$n" -ge 100 ]; then
            echo "fleettest: no healthz at $url" >&2
            exit 1
        fi
        sleep 0.1
    done
}

start_replica 1
start_replica 2
start_replica 3
for i in 1 2 3; do wait_health "$(replica_url $i)"; done

"$TMP/nbodygw" -replicas "$(replica_url 1),$(replica_url 2),$(replica_url 3)" \
    -addr "127.0.0.1:$PORT" -probe-every 100ms -quiet >"$TMP/gateway.log" 2>&1 &
GW_PID=$!
wait_health "$GW_URL"

echo "fleettest: fleet up (gateway $GW_URL, 3 replicas)"

# Reference: the same pinned stream against one quiet replica, no churn.
"$TMP/nbodyreq" -kind simulate -n "$N" -seed "$SEED" -steps "$STEPS" -dt "$DT" \
    -depth "$DEPTH" -stream-every 1 -deadline-ms "$DEADLINE_MS" -url "$(replica_url 1)" \
    >"$TMP/final_ref.json" 2>"$TMP/ref.log"
echo "fleettest: reference stream recorded ($(wc -c <"$TMP/final_ref.json") bytes)"

# --- Gate 1: rolling restart under solve load -------------------------------
"$TMP/nbodyd" -loadtest -target "$GW_URL" -duration "$DURATION" \
    -tenants "light:2:512,steady:2:1024" >"$TMP/loadtest.log" 2>&1 &
LT_PID=$!
sleep 1
for i in 1 2 3; do
    pid=$(replica_pid $i)
    echo "fleettest: rolling restart: SIGTERM replica $i (pid $pid)"
    kill -TERM "$pid"
    wait "$pid" || { echo "fleettest: replica $i exited nonzero on drain" >&2; exit 1; }
    start_replica $i
    wait_health "$(replica_url $i)"
done
if ! wait "$LT_PID"; then
    echo "fleettest: FAIL: solve traffic saw errors during rolling restart" >&2
    tail -40 "$TMP/loadtest.log" >&2
    exit 1
fi
LT_PID=""
grep -E '^\|' "$TMP/loadtest.log" || true
echo "fleettest: gate 1 ok: rolling restart invisible to solve traffic"

# --- Gate 2: SIGKILL chaos under an in-flight stream ------------------------
"$TMP/nbodyreq" -kind simulate -n "$N" -seed "$SEED" -steps "$STEPS" -dt "$DT" \
    -depth "$DEPTH" -stream-every 1 -deadline-ms "$DEADLINE_MS" -url "$GW_URL" \
    >"$TMP/final_gw.json" 2>"$TMP/stream.log" &
ST_PID=$!
sleep 0.6
i=1
kills=0
while kill -0 "$ST_PID" 2>/dev/null; do
    pid=$(replica_pid $i)
    kill -9 "$pid" 2>/dev/null || true
    wait "$pid" 2>/dev/null || true
    kills=$((kills + 1))
    sleep 0.5
    start_replica $i
    wait_health "$(replica_url $i)"
    i=$((i % 3 + 1))
done
if ! wait "$ST_PID"; then
    echo "fleettest: FAIL: stream did not survive $kills SIGKILLs" >&2
    cat "$TMP/stream.log" >&2
    tail -20 "$TMP/gateway.log" >&2
    exit 1
fi
ST_PID=""
cat "$TMP/stream.log"

if ! cmp "$TMP/final_ref.json" "$TMP/final_gw.json"; then
    echo "fleettest: FAIL: final frame after $kills SIGKILLs differs from the uninterrupted run" >&2
    exit 1
fi

lost=$(curl -fsS "$GW_URL/v1/metrics" | jq '.gateway.streams_lost')
resumes=$(curl -fsS "$GW_URL/v1/metrics" | jq '.gateway.stream_resumes')
if [ "$lost" != "0" ]; then
    echo "fleettest: FAIL: gateway reports $lost lost streams" >&2
    exit 1
fi
echo "fleettest: gate 2 ok: $kills SIGKILLs, $resumes resumes, final frame bitwise-identical"
echo "fleettest: PASS"
