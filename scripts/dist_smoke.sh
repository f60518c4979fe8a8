#!/bin/sh
# dist_smoke.sh — end-to-end distributed-training check on the real binary:
# run a coordinator plus two workers over localhost TCP (world 3) under each
# exchange topology, star and ring, plus a serial reference with
# -micro-batch 1, then assert every rank's final weights are byte-identical
# to the serial run's.
#
# World size equals the global batch (3), so every shard holds exactly one
# sample — the regime where the distributed reduction's addition order
# matches serial MicroBatch-1 accumulation bitwise (see internal/core
# ShardGrads). Any divergence, even one bit, fails the gate. The ring pass
# doubles as the wire-level gate for the directional ring all-reduce, which
# must carry gradients exactly.
set -eu

cd "$(dirname "$0")/.."

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

go build -o "$WORK/skipper-train" ./cmd/skipper-train

COMMON="-model vgg5 -strategy bptt -width 0.25 -T 8 -batch 3 -max-batches 4 \
        -epochs 2 -pretrain=false -seed 11"

PORT=${DIST_SMOKE_PORT:-17997}

fail() {
    echo "FAIL: $1" >&2
    for log in "$WORK"/*.log; do
        echo "--- $(basename "$log") ---" >&2
        cat "$log" >&2 || true
    done
    exit 1
}

# run_fleet <tag> <port> [extra flags...] — coordinator + 2 workers, saving
# per-rank weights as <tag>-rank{0,1,2}.skpw.
run_fleet() {
    tag=$1; port=$2; shift 2

    "$WORK/skipper-train" $COMMON "$@" -dist-listen "127.0.0.1:$port" \
        -dist-workers 2 -save "$WORK/$tag-rank0.skpw" \
        >"$WORK/$tag-coord.log" 2>&1 &
    COORD=$!

    "$WORK/skipper-train" $COMMON "$@" -dist-join "127.0.0.1:$port" \
        -save "$WORK/$tag-rank1.skpw" >"$WORK/$tag-worker1.log" 2>&1 &
    W1=$!

    "$WORK/skipper-train" $COMMON "$@" -dist-join "127.0.0.1:$port" \
        -save "$WORK/$tag-rank2.skpw" >"$WORK/$tag-worker2.log" 2>&1 &
    W2=$!

    wait "$COORD" || fail "$tag coordinator exited non-zero"
    wait "$W1" || fail "$tag worker 1 exited non-zero"
    wait "$W2" || fail "$tag worker 2 exited non-zero"
}

run_fleet star "$PORT"
run_fleet ring $((PORT + 1)) -dist-topology ring

# Serial reference: same run, one process, micro-batch 1.
"$WORK/skipper-train" $COMMON -micro-batch 1 -save "$WORK/serial.skpw" \
    >"$WORK/serial.log" 2>&1 || fail "serial reference exited non-zero"

for tag in star ring; do
    for rank in rank0 rank1 rank2; do
        cmp "$WORK/$tag-$rank.skpw" "$WORK/serial.skpw" \
            || fail "$tag $rank weights differ from the serial reference"
    done
done

echo "PASS: star and ring runs (world 3) byte-identical to serial micro-batch-1 reference"
