#!/bin/sh
# stream_smoke.sh — end-to-end streaming-session check on the real binaries:
# front two skipper-serve replicas (framed fleet listeners, durable session
# dirs) with skipper-router, stream paced event windows through router
# placement, SIGTERM one replica mid-stream, and require (a) every session
# finished with zero resets — the drain handoff moved membrane state, it
# never silently restarted, (b) at least one session visibly migrated to the
# surviving replica, and (c) the quiet windows actually took the skip path
# (the survivor's skipped-windows counter is non-zero).
set -eu

cd "$(dirname "$0")/.."

WORK=$(mktemp -d)
PIDS=""
cleanup() {
    # shellcheck disable=SC2086
    kill $PIDS 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

go build -o "$WORK/skipper-serve" ./cmd/skipper-serve
go build -o "$WORK/skipper-router" ./cmd/skipper-router
go build -o "$WORK/skipper-loadgen" ./cmd/skipper-loadgen

HTTP_BASE=${STREAM_SMOKE_PORT:-17900}
ROUTER_PORT=$((HTTP_BASE + 0)); PEER_PORT=$((HTTP_BASE + 1))
R1_HTTP=$((HTTP_BASE + 2)); R1_FLEET=$((HTTP_BASE + 4))
R2_HTTP=$((HTTP_BASE + 3)); R2_FLEET=$((HTTP_BASE + 5))
ROUTER="http://127.0.0.1:$ROUTER_PORT"

fail() {
    echo "FAIL: $1" >&2
    for log in replica1 replica2 router loadgen; do
        echo "--- $log.log ---" >&2
        cat "$WORK/$log.log" >&2 || true
    done
    exit 1
}

# Fresh deterministic init: both replicas build identical weights from the
# model name, which is exactly what session migration requires.
SERVE="-model customnet -width 0.25 -classes 4 -in-shape 2x8x8 -T 8 \
       -workers 1 -routers 127.0.0.1:$PEER_PORT -drain-timeout 10s"
"$WORK/skipper-serve" $SERVE -addr "127.0.0.1:$R1_HTTP" \
    -advertise-url "http://127.0.0.1:$R1_HTTP" \
    -fleet-addr "127.0.0.1:$R1_FLEET" -session-dir "$WORK/sess1" \
    >"$WORK/replica1.log" 2>&1 &
R1=$!; PIDS="$PIDS $R1"
"$WORK/skipper-serve" $SERVE -addr "127.0.0.1:$R2_HTTP" \
    -advertise-url "http://127.0.0.1:$R2_HTTP" \
    -fleet-addr "127.0.0.1:$R2_FLEET" -session-dir "$WORK/sess2" \
    >"$WORK/replica2.log" 2>&1 &
R2=$!; PIDS="$PIDS $R2"

wait_ready() { # URL NAME
    i=0
    until curl -sf "$1/readyz" >/dev/null 2>&1; do
        i=$((i + 1))
        [ "$i" -le 100 ] || fail "$2 never became ready"
        sleep 0.1
    done
}
wait_ready "http://127.0.0.1:$R1_HTTP" replica1
wait_ready "http://127.0.0.1:$R2_HTTP" replica2

"$WORK/skipper-router" -addr "127.0.0.1:$ROUTER_PORT" \
    -peer-addr "127.0.0.1:$PEER_PORT" \
    -backends "http://127.0.0.1:$R1_HTTP=127.0.0.1:$R1_FLEET,http://127.0.0.1:$R2_HTTP=127.0.0.1:$R2_FLEET" \
    -heartbeat 50ms -dead-after 2 >"$WORK/router.log" 2>&1 &
RT=$!; PIDS="$PIDS $RT"
wait_ready "$ROUTER" router

# Both backends must be on the ring before placement starts.
i=0
until [ "$(curl -sf "$ROUTER/v1/fleet" | jq -r '.ring | length')" = "2" ]; do
    i=$((i + 1))
    [ "$i" -le 50 ] || fail "backends never joined the ring"
    sleep 0.1
done

# 8 paced sessions through router placement: ~4s of streaming, half the
# windows quiet. The loadgen itself exits non-zero on any reset or failure.
"$WORK/skipper-loadgen" -stream -url "$ROUTER" -sessions 8 -windows 160 \
    -window-steps 6 -quiet-frac 0.5 -events-per-window 12 \
    -window-interval 25ms -seed 7 -out "$WORK/report.json" \
    >"$WORK/loadgen.log" 2>&1 &
LG=$!; PIDS="$PIDS $LG"

# Mid-stream fault: SIGTERM replica 1. It announces its drain over the peer
# channel; the router pulls its live sessions to replica 2 over the fleet
# channel while the clients reconnect, re-place, and resume — with
# RequireResume, so a lost membrane state would be a loud reset, not a
# silent restart.
sleep 1.5
kill -TERM "$R1"

wait "$LG" || fail "streaming loadgen saw resets or failures across the replica kill"
wait "$R1" || fail "drained replica exited non-zero"

OKN=$(jq -r .windows_ok "$WORK/report.json")
SKIPPED=$(jq -r .windows_skipped "$WORK/report.json")
MIGRATIONS=$(jq -r .migrations "$WORK/report.json")
RESETS=$(jq -r .resets "$WORK/report.json")
PAUSE=$(jq -r .max_pause_ms "$WORK/report.json")
[ "$OKN" = "1280" ] || fail "acked $OKN windows, want all 1280"
[ "$RESETS" = "0" ] || fail "$RESETS sessions lost membrane state"
[ "$MIGRATIONS" -ge 1 ] || fail "no session migrated off the killed replica"
[ "$SKIPPED" -ge 1 ] || fail "quiet workload skipped no windows"

# The survivor's own counters must agree: it imported sessions and its skip
# path fired.
METRICS=$(curl -sf "http://127.0.0.1:$R2_HTTP/metrics")
echo "$METRICS" | awk '$1=="skipper_stream_sessions_imported_total"{exit !($2>=1)}' \
    || fail "surviving replica imported no sessions"
echo "$METRICS" | awk '$1=="skipper_stream_windows_skipped_total"{exit !($2>=1)}' \
    || fail "surviving replica never took the skip path"

kill -TERM "$RT" 2>/dev/null || true
kill -TERM "$R2" 2>/dev/null || true
wait "$RT" "$R2" 2>/dev/null || true

echo "PASS: $OKN windows across a mid-stream replica kill ($MIGRATIONS migrations, $SKIPPED skipped, 0 resets, max pause ${PAUSE}ms)"
