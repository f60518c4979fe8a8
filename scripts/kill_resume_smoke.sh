#!/bin/sh
# kill_resume_smoke.sh — end-to-end crash-safety check on the real binary:
# start a training run with a durable run directory, SIGKILL it (no clean
# shutdown path, exactly like an OOM kill or power loss), then resume and
# assert the run continues from the persisted cursor to completion.
set -eu

cd "$(dirname "$0")/.."

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

go build -o "$WORK/skipper-train" ./cmd/skipper-train
go build -o "$WORK/skipper-inspect" ./cmd/skipper-inspect

COMMON="-model vgg5 -strategy bptt -width 0.25 -T 8 -batch 2 -max-batches 8 \
        -pretrain=false -snapshot-every 2 -run-dir $WORK/state"

# Victim: enough epochs that it cannot finish before the kill lands.
"$WORK/skipper-train" $COMMON -epochs 200 >"$WORK/victim.log" 2>&1 &
PID=$!

# Wait for the first durable manifest, then SIGKILL mid-run.
i=0
while [ ! -f "$WORK/state/manifest.skpm" ]; do
    i=$((i + 1))
    if [ "$i" -gt 300 ]; then
        echo "FAIL: no manifest appeared before timeout" >&2
        cat "$WORK/victim.log" >&2
        exit 1
    fi
    sleep 0.1
done
kill -9 "$PID"
wait "$PID" 2>/dev/null || true

# Survivor: resume from the manifest and run to completion, one epoch past
# the persisted cursor. An epoch of this configuration takes tens of
# milliseconds, so the victim may be several epochs in before the kill
# lands; a fixed target would leave the survivor nothing to do.
NEXT=$("$WORK/skipper-inspect" -manifest "$WORK/state" | sed -n 's/^ *cursor: *epoch \([0-9]*\),.*/\1/p')
if [ -z "$NEXT" ]; then
    echo "FAIL: cannot read the manifest's cursor" >&2
    "$WORK/skipper-inspect" -manifest "$WORK/state" >&2
    exit 1
fi
"$WORK/skipper-train" $COMMON -epochs $((NEXT + 1)) -resume >"$WORK/resume.log" 2>&1 || {
    echo "FAIL: resumed run exited non-zero" >&2
    cat "$WORK/resume.log" >&2
    exit 1
}
grep -q "resuming from" "$WORK/resume.log" || {
    echo "FAIL: resumed run did not report its cursor" >&2
    cat "$WORK/resume.log" >&2
    exit 1
}
# "peak device memory" is the last line of a run that completed normally.
grep -q "peak device memory" "$WORK/resume.log" || {
    echo "FAIL: resumed run did not reach the end of training" >&2
    cat "$WORK/resume.log" >&2
    exit 1
}

echo "kill-resume smoke: OK"
