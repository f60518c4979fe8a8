package core

import (
	"io"
	goruntime "runtime"
	"sync"

	"skipper/internal/dataset"
	"skipper/internal/layers"
	"skipper/internal/models"
	"skipper/internal/parallel"
	"skipper/internal/trace"
)

// Runtime is the process-wide execution context every training and serving
// component draws from: the shared parallel compute pool, the metrics sink,
// and the root RNG seed. Construct one with NewRuntime and hand it to
// trainers (Config.Runtime), data-parallel replicas, and the serving
// subsystem — they all share its pool, so the process never oversubscribes
// the machine no matter how many trainers or serve workers run.
//
// Thread count never changes results: every kernel on the pool partitions
// output elements with lane-independent arithmetic, so a run is bit-identical
// at threads=1 and threads=N (see internal/parallel).
type Runtime struct {
	threads int
	pool    *parallel.Pool
	metrics io.Writer
	seed    uint64
	tracer  *trace.Tracer
}

// RuntimeOption configures NewRuntime.
type RuntimeOption func(*Runtime)

// WithThreads sets the compute pool width. n <= 0 (the default) means
// runtime.NumCPU(); 1 disables the pool entirely (serial kernels).
func WithThreads(n int) RuntimeOption {
	return func(r *Runtime) { r.threads = n }
}

// WithMetrics sets the epoch-metrics sink: every trainer on the runtime
// writes one JSON line per epoch to it (loss, accuracy, step counts,
// durations, peak memory).
func WithMetrics(w io.Writer) RuntimeOption {
	return func(r *Runtime) { r.metrics = w }
}

// WithSeed sets the default root seed trainers and datasets inherit when no
// explicit seed is given.
func WithSeed(seed uint64) RuntimeOption {
	return func(r *Runtime) { r.seed = seed }
}

// WithTracer attaches a span/event recorder every component on this runtime
// reports into: trainer phase spans, serve request lifecycles, pool
// lane-utilization counters, and device high-water events. Nil (the default)
// disables tracing at zero cost — every recording call on a nil tracer is an
// allocation-free no-op, mirroring the nil-*parallel.Pool convention.
func WithTracer(t *trace.Tracer) RuntimeOption {
	return func(r *Runtime) { r.tracer = t }
}

// NewRuntime builds a runtime from functional options and starts its pool.
// Close releases the pool's goroutines (a leaked runtime is harmless — idle
// workers block on a channel — but Close keeps tests tidy).
func NewRuntime(opts ...RuntimeOption) *Runtime {
	r := &Runtime{}
	for _, o := range opts {
		o(r)
	}
	if r.threads <= 0 {
		r.threads = goruntime.NumCPU()
	}
	if r.threads > 1 {
		r.pool = parallel.NewPool(r.threads)
	}
	r.pool.SetTracer(r.tracer)
	return r
}

var (
	defaultRuntimeOnce sync.Once
	defaultRuntime     *Runtime
)

// DefaultRuntime returns the lazily-created process-wide runtime
// (threads = NumCPU, no metrics sink, zero seed). Configs without an
// explicit Runtime resolve to it, which is what makes independent trainers
// and serve workers share one pool by default.
func DefaultRuntime() *Runtime {
	defaultRuntimeOnce.Do(func() { defaultRuntime = NewRuntime() })
	return defaultRuntime
}

// Threads returns the resolved pool width. Nil-safe: a nil runtime reports 1
// (serial).
func (r *Runtime) Threads() int {
	if r == nil {
		return 1
	}
	return r.threads
}

// Pool returns the shared compute pool (nil when threads = 1: the kernels'
// nil-pool path is the serial one). Nil-safe.
func (r *Runtime) Pool() *parallel.Pool {
	if r == nil {
		return nil
	}
	return r.pool
}

// Seed returns the runtime's root seed (0 when unset). Nil-safe.
func (r *Runtime) Seed() uint64 {
	if r == nil {
		return 0
	}
	return r.seed
}

// Tracer returns the runtime's span recorder (nil when tracing is off; a nil
// tracer is valid and free to record into). Nil-safe.
func (r *Runtime) Tracer() *trace.Tracer {
	if r == nil {
		return nil
	}
	return r.tracer
}

// Metrics returns the runtime's epoch-metrics sink (nil when unset).
// Nil-safe.
func (r *Runtime) Metrics() io.Writer {
	if r == nil {
		return nil
	}
	return r.metrics
}

// Close stops the pool's worker goroutines. The runtime must not be used
// for new work afterwards. Nil-safe and idempotent.
func (r *Runtime) Close() {
	if r == nil {
		return
	}
	r.pool.Close()
}

// NewTrainer is the runtime-scoped trainer constructor: cfg runs on this
// runtime's pool and metrics sink and inherits its seed where cfg leaves
// it unset.
func (r *Runtime) NewTrainer(net *layers.Network, data dataset.Source, strat Strategy, cfg Config) (*Trainer, error) {
	cfg.Runtime = r
	return NewTrainer(net, data, strat, cfg)
}

// BuildModel constructs one of the paper's topologies by name on this
// runtime.
func (r *Runtime) BuildModel(name string, opts models.Options) (*layers.Network, error) {
	net, err := models.Build(name, opts)
	if err != nil {
		return nil, err
	}
	net.SetPool(r.Pool())
	return net, nil
}

// OpenDataset opens a dataset by name, seeded by the runtime's root seed.
func (r *Runtime) OpenDataset(name string) (dataset.Source, error) {
	return dataset.Open(name, r.Seed())
}
