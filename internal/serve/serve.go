// Package serve is the inference serving subsystem: a stdlib-only HTTP
// server that loads a trained network from a serialize checkpoint and
// answers classification requests.
//
// Requests are coalesced by a dynamic micro-batching queue — a worker picks
// up the first waiting request plus whatever else is already queued, up to
// MaxBatch — and executed with core.InferStream, the inference-only forward
// path. With early exit enabled, the batch stops stepping as soon as every
// sample's rate-based readout decision has been stable for K timesteps: the
// serving-time counterpart of the paper's spike-activity time-skipping, where
// activity statistics decide which timesteps are worth computing.
//
// Robustness: the queue is bounded (full queue ⇒ 429), every request
// carries a context deadline (server default, tightened per request by
// budget_ms), checkpoints hot-reload behind an atomic pointer with
// validation before swap, and shutdown drains in-flight work before the
// workers exit. Observability: /metrics renders Prometheus text format,
// /healthz and /readyz report liveness and readiness.
package serve

import (
	"fmt"
	"time"

	"skipper/internal/core"
	"skipper/internal/layers"
)

// Config parameterises a Server.
type Config struct {
	// Build constructs the serving topology. It is called once per worker
	// (each worker owns a private replica, because layer forward passes
	// share per-layer scratch buffers and are not concurrency-safe) and
	// once per checkpoint load for validation.
	Build func() (*layers.Network, error)

	// Runtime is the execution context whose compute pool the worker
	// replicas' kernels run on. Nil means core.DefaultRuntime. All workers
	// share the one pool (per-worker scratch keeps them isolated; see
	// model.go), so the server saturates the machine without
	// oversubscribing it.
	Runtime *core.Runtime

	// T is the simulation horizon per request.
	T int
	// EarlyExit enables the spike-activity early exit.
	EarlyExit bool
	// ExitK is the stability window (0 = core.DefaultExitK).
	ExitK int
	// ExitMargin is the relative-margin confidence gate
	// (0 = core.DefaultExitMargin, negative disables).
	ExitMargin float64
	// ExitMinSteps is the warm-up floor (0 = 3·L_n).
	ExitMinSteps int

	// MaxBatch caps a coalesced micro-batch. Zero means 8.
	MaxBatch int
	// QueueDepth bounds the pending-request queue; a full queue answers
	// 429. Zero means 64.
	QueueDepth int
	// Workers is the number of batch workers. Zero means 2.
	Workers int
	// RequestTimeout is the per-request latency budget; requests may
	// tighten it with budget_ms but never extend it. Zero means 2s.
	RequestTimeout time.Duration

	// EncodeSeed namespaces the deterministic Poisson encoding of request
	// frames into spike trains.
	EncodeSeed uint64
	// MaxRate is the Poisson encoder's full-intensity spike probability
	// (0 = 1.0).
	MaxRate float32

	// OnBatch, when set, is called by a worker with the micro-batch size
	// just before the batch runs. Used by tests and available as a
	// lightweight observability hook.
	OnBatch func(size int)

	// SessionDir, when non-empty, makes streaming sessions durable: the
	// stream manager snapshots them here (one atomic .skps file per
	// session) and resumes them across a restart bit-identically.
	SessionDir string
	// SessionTTL evicts a streaming session idle longer than this
	// (snapshotting it first when durable). Zero means 5 minutes.
	SessionTTL time.Duration
	// SessionSnapshotEvery snapshots a durable session every N completed
	// windows. Zero means 8; negative disables periodic snapshots.
	SessionSnapshotEvery int
	// StreamSkipThreshold is the default activity gate for streaming
	// sessions: a window with at most this many events advances by
	// stepping an empty window instead of its events. 0 (the default) skips
	// only empty windows — lossless; negative disables skipping.
	StreamSkipThreshold int
}

func (c Config) withDefaults() Config {
	if c.Runtime == nil {
		c.Runtime = core.DefaultRuntime()
	}
	if c.T <= 0 {
		c.T = 32
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 2 * time.Second
	}
	return c
}

func (c Config) validate() error {
	if c.Build == nil {
		return fmt.Errorf("serve: Config.Build is required")
	}
	return nil
}
