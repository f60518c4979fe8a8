#!/bin/sh
# verify.sh — the repo's full verification gate:
#   build, vet, race-test the concurrency-sensitive subsystems, full test
#   suite, the benchmark module's own tests, the SIGKILL+resume, distributed-training, serving-fleet, and
#   streaming-session smoke tests, then the serving, kernel, trace-overhead,
#   distributed, fleet-routing, spike-pack, and streaming benchmarks (write
#   BENCH_serve.json, BENCH_kernels.json, BENCH_trace.json, BENCH_dist.json,
#   BENCH_router.json, BENCH_spikepack.json, BENCH_stream.json).
set -eux

cd "$(dirname "$0")"

go build ./...
go vet ./...
go test -race ./internal/parallel/... ./internal/tensor/... ./internal/serve/... ./internal/runstate/... ./internal/faults/... ./internal/trace/... ./internal/dist/... ./internal/router/... ./internal/stream/...
go test ./...

# The benchmark is its own module, so the root `go test ./...` does not reach
# it; its surface_test.go pins the names the benchmark links against.
(cd benchmark && go vet ./... && go test ./...)

sh ./scripts/kill_resume_smoke.sh

# Distributed smoke: coordinator + 2 workers over localhost TCP, once per
# exchange topology (star, and ring with delta-compressed frames) — every
# rank must end with weights byte-identical to a serial micro-batch-1 run.
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

go run ./cmd/skipper-bench -exp bench_serve -scale tiny

# Kernel smoke: serial-vs-pooled GFLOP/s with bit-identity checks. On a
# machine with >= 2 cores, -require-speedup fails the gate if the pooled
# matmul is not faster than serial (a 1-core box has nothing to win, so the
# flag is a no-op there).
go run ./cmd/skipper-bench -exp bench_kernels -scale tiny -require-speedup

# Spike-pack smoke: bit-packed AND+popcount kernels vs dense float. Hard
# gates (always enforced): bit-identity at every density and pool width,
# end-to-end packed training bit-identical to dense, and >= 8x byte
# reduction on the spike operand.
go run ./cmd/skipper-bench -exp bench_spikepack -scale tiny

# Trace-overhead smoke: the nil-tracer path must stay free (always a hard
# gate) and the traced capped epoch within 2% of plain (a timing gate, so —
# like the kernel speedup above — it only fails the run when
# -require-speedup is passed; add it on quiet machines).
go run ./cmd/skipper-bench -exp bench_trace -scale tiny

# Distributed scaling smoke: real coordinator/worker wire protocol over
# in-process pipes; writes measured step/exchange times vs the all-reduce
# model's prediction.
go run ./cmd/skipper-bench -exp bench_dist -scale tiny

# Fleet-routing smoke: steady-state p50/p99 vs replica count, latency during
# a replica kill and across a canary promote (both with zero failures), and
# shed-tier behavior at overload; writes BENCH_router.json.
go run ./cmd/skipper-bench -exp bench_router -scale tiny

# Streaming smoke: session latency and skipped-window fraction at quiet and
# busy event densities, skip-on vs skip-off bitwise identity, and the
# export/import migration pause; writes BENCH_stream.json.
go run ./cmd/skipper-bench -exp bench_stream -scale tiny
