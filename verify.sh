#!/bin/sh
# verify.sh — the repo's full verification gate:
#   build, vet, gofmt, race-test the concurrency-sensitive subsystems, full test
#   suite, the decoders' fuzz targets, the benchmark module's own tests, the
#   SIGKILL+resume, distributed-training, serving-fleet, and streaming-session
#   smoke tests, and a final check that none of it wrote into the work tree.
set -eux

cd "$(dirname "$0")"

tree_state() { { git status --porcelain; git diff; } | cksum; }
tree_before=$(tree_state)

go build ./...
go vet ./...
# The tensor kernels' assembly leaves have portable Go twins, the only
# implementation off amd64; they must keep compiling there.
GOARCH=arm64 go vet ./internal/tensor/
# The assembly leaves round every product before adding it, as their Go
# twins do; a fused multiply-add would change the bits.
test -z "$(grep -rlE 'VFMADD|VFMSUB|VFNMADD|VFNMSUB' --include='*.s' internal/)"
# The neuron substrate rounds every product on its own too: a LIF record is
# its membrane U and o is read back as U > θ, so U must have the same bits on
# every architecture. arm64 fuses x*y + z unless the product is rounded; the
# check is a static read of the compiler's output (this gate runs no arm64).
test -z "$(GOARCH=arm64 go build -gcflags=-S ./internal/snn/ 2>&1 | grep -E 'FMADD|FMSUB|FNMADD|FNMSUB')"
# Bit-packed spike compute and the bit-packed record format were deleted; no
# root-module Go file may bring their surface back. benchmark/surface_test.go
# forbids the same names in the benchmark module.
test -z "$(grep -rlE 'SpikePack|SetSpikePack|OPacked|PackedForward|ForwardPacked|PackedBackward|BackwardPacked|StepLIFPacked|Conv2DPacked|Conv2DGradWeightPacked|MatMulPacked|MatMulTransBPacked|MatMulTransAPacked|PackedKernelStats|spike-pack|CompressSpikes|PackSpikes|PackedSpikes|packedState|measureCompressed|ablate-compress' --include='*.go' --exclude-dir=benchmark .)"
# The leak-only quiet step was deleted: a quiet timestep runs the same
# forward as any other, through core.StreamState. QuietSteps and StepQuiet
# stay.
test -z "$(grep -rlE 'QuietState|QuietCovered|QuietSupported|InvalidateQuietCache|QuietFallbacks' --include='*.go' --exclude-dir=benchmark .)"
# Every /metrics page renders through internal/metrics; no other program
# file may write the exposition format's # HELP / # TYPE lines by hand.
test -z "$(grep -rlE '# (HELP|TYPE) ' --include='*.go' --exclude='*_test.go' --exclude-dir=benchmark . | grep -v '^\./internal/metrics/')"
test -z "$(gofmt -l .)"
go test -race ./internal/parallel/... ./internal/snn/... ./internal/tensor/... ./internal/layers/... ./internal/serve/... ./internal/runstate/... ./internal/faults/... ./internal/trace/... ./internal/dist/... ./internal/router/... ./internal/stream/... ./internal/metrics/...
# The layer-major walk fans a whole segment's steps over the pool; the line
# above races its own tests (TestWalk*), this one races it in the engine's
# first pass, replay and backward.
go test -race -run 'TestPassWalk|TestFirstPass|TestSegmentEngineGoldenAccounting' ./internal/core/
go test ./...
# The decoders' fuzz targets for a fixed budget each (go test ./... above
# runs their seeds). A worker that finds new coverage minimises the input
# before it reports it, uncounted and for up to a minute by default; capping
# that keeps each target fuzzing for its whole budget.
go test -run '^$' -fuzz=FuzzDecodeSession -fuzztime=10s -fuzzminimizetime=1s -parallel=2 ./internal/runstate/
go test -run '^$' -fuzz=FuzzLoadTensors -fuzztime=10s -fuzzminimizetime=1s -parallel=2 ./internal/serialize/
go test -run '^$' -fuzz=FuzzFrameRead -fuzztime=10s -fuzzminimizetime=1s -parallel=2 ./internal/frame/
go test -run '^$' -fuzz=FuzzDecodeCorr -fuzztime=10s -fuzzminimizetime=1s -parallel=2 ./internal/frame/

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
# resets and the quiet windows take the skip path.
sh ./scripts/stream_smoke.sh

# The gate must leave the tree as it found it: a step that writes a tracked
# or untracked file into the repo fails here. (From a clean checkout this is
# `git diff --quiet && test -z "$(git status --porcelain)"`; comparing with
# the state at entry lets the gate also run on uncommitted work.)
test "$tree_before" = "$(tree_state)"
