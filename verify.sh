#!/bin/sh
# verify.sh — the repo's full verification gate:
#   build, vet, gofmt, race-test the concurrency-sensitive subsystems, full test
#   suite, the benchmark module's own tests, the SIGKILL+resume,
#   distributed-training, serving-fleet, and streaming-session smoke tests,
#   and a final check that none of it wrote into the work tree.
set -eux

cd "$(dirname "$0")"

tree_state() { { git status --porcelain; git diff; } | cksum; }
tree_before=$(tree_state)

go build ./...
go vet ./...
# Bit-packed spike compute was deleted; no root-module Go file may bring its
# surface back. benchmark/surface_test.go forbids the same names in the
# benchmark module, together with the ones CompressSpikes still uses here.
test -z "$(grep -rlE 'SpikePack|SetSpikePack|OPacked|PackedForward|ForwardPacked|PackedBackward|BackwardPacked|StepLIFPacked|Conv2DPacked|Conv2DGradWeightPacked|MatMulPacked|MatMulTransBPacked|MatMulTransAPacked|PackedKernelStats|spike-pack' --include='*.go' --exclude-dir=benchmark .)"
test -z "$(gofmt -l .)"
go test -race ./internal/parallel/... ./internal/tensor/... ./internal/layers/... ./internal/serve/... ./internal/runstate/... ./internal/faults/... ./internal/trace/... ./internal/dist/... ./internal/router/... ./internal/stream/...
# The layer-major walk fans a whole segment's steps over the pool; the line
# above races its own tests (TestWalk*), this one races it in the engine's
# first pass, replay and backward.
go test -race -run 'TestPassWalk|TestFirstPass|TestSegmentEngineGoldenAccounting' ./internal/core/
go test ./...

# The benchmark is its own module, so the root `go test ./...` does not reach
# it; its surface_test.go pins the names the benchmark links against.
(cd benchmark && go vet ./... && go test ./...)

sh ./scripts/kill_resume_smoke.sh

# Distributed smoke: coordinator + 2 workers over localhost TCP, once per
# exchange topology (star, ring) — every rank must end with weights
# byte-identical to a serial micro-batch-1 run.
sh ./scripts/dist_smoke.sh

# Serving-fleet smoke: 3 replicas behind skipper-router, open-loop soak,
# one replica killed mid-soak, a 5% canary promoted — zero failed requests.
sh ./scripts/router_smoke.sh

# Replicated-router smoke: 3 peered routers over 3 replicas; kill -9 one
# router and SIGTERM (drain handoff) one replica mid-soak — zero failed
# requests, clean drain, survivors converge on one fleet view within 2s.
sh ./scripts/router_ha_smoke.sh

# Streaming-session smoke: 2 replicas with durable session dirs behind a
# router, paced event streams through placement, SIGTERM one replica
# mid-stream — every session resumes on the survivor with zero membrane
# resets and the quiet windows take the leak-only skip path.
sh ./scripts/stream_smoke.sh

# The gate must leave the tree as it found it: a step that writes a tracked
# or untracked file into the repo fails here. (From a clean checkout this is
# `git diff --quiet && test -z "$(git status --porcelain)"`; comparing with
# the state at entry lets the gate also run on uncommitted work.)
test "$tree_before" = "$(tree_state)"
