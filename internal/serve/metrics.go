package serve

import (
	"strconv"

	"skipper/internal/metrics"
	"skipper/internal/parallel"
	"skipper/internal/stats"
)

// Metrics is the server's /metrics page: the families below, in this
// order, then the stream manager's.
type Metrics struct {
	*metrics.Registry

	requests       *metrics.CounterVec // by HTTP status code
	latency        *metrics.Histogram  // end-to-end request seconds
	queueing       *metrics.Histogram  // queue-wait seconds
	batches        *metrics.Histogram  // micro-batch sizes
	execute        *metrics.Histogram  // batch-execute (inference) seconds
	samples        *metrics.Counter    // samples that completed inference
	batchSteps     *metrics.Counter    // batch-timesteps executed
	batchSaved     *metrics.Counter    // batch-timesteps early exit avoided
	earlyExits     *metrics.Counter    // samples frozen before the final timestep
	shed           *metrics.CounterVec // requests shed before execution, by reason
	deadlineMissed *metrics.Counter    // requests abandoned on their latency budget
	drainDropped   *metrics.Counter    // queued jobs dropped unexecuted at shutdown
	reloads        *metrics.CounterVec // by result
	reloadRetries  *metrics.Counter    // transient load failures retried with backoff
}

// Shed reasons for skipper_serve_queue_rejected_total. The counter carries a
// reason label (the labels-by-suffix convention reloads_total uses for
// result) so dashboards can tell a full queue from a drain in progress.
const (
	shedQueueFull = "queue_full"
	shedDraining  = "draining"
)

// newMetrics registers the server's families; the gauges are read at render.
func newMetrics(maxBatch, threads int, queueDepth func() int, modelVersion func() uint64, poolStats func() parallel.PoolStats) *Metrics {
	r := metrics.New()
	// Struct fields register in the order written, which is the page order.
	m := &Metrics{
		Registry: r,
		requests: r.CounterVec("skipper_serve_requests_total", "Requests answered, by HTTP status code.", []string{"code"}),
		// 0.5ms .. ~16s
		latency:    r.Histogram("skipper_serve_request_latency_seconds", "End-to-end request latency.", stats.ExponentialBounds(0.0005, 2, 15)),
		queueing:   r.Histogram("skipper_serve_queue_wait_seconds", "Time spent waiting in the batching queue.", stats.ExponentialBounds(0.0001, 2, 15)),
		batches:    r.Histogram("skipper_serve_batch_size", "Coalesced micro-batch sizes.", stats.LinearBounds(1, 1, maxBatch)),
		execute:    r.Histogram("skipper_serve_batch_execute_seconds", "Inference time per coalesced micro-batch.", stats.ExponentialBounds(0.0005, 2, 15)),
		samples:    r.Counter("skipper_serve_samples_total", "Samples that completed inference."),
		batchSteps: r.Counter("skipper_serve_batch_timesteps_total", "Batch-timesteps executed."),
		batchSaved: r.Counter("skipper_serve_batch_timesteps_saved_total",
			"Batch-timesteps avoided by early exit (configured horizon minus executed)."),
		earlyExits: r.Counter("skipper_serve_early_exits_total", "Samples whose decision froze before the final timestep."),
		shed: r.CounterVec("skipper_serve_queue_rejected_total", "Requests shed before execution, by reason.",
			[]string{"reason"}, shedQueueFull, shedDraining),
		deadlineMissed: r.Counter("skipper_serve_deadline_missed_total", "Requests abandoned on their latency budget."),
		drainDropped:   r.Counter("skipper_serve_drain_dropped_total", "Queued jobs dropped unexecuted when shutdown exceeded its drain budget."),
		reloads:        r.CounterVec("skipper_serve_reloads_total", "Checkpoint reload attempts, by result.", []string{"result"}, "ok", "error"),
		reloadRetries: r.Counter("skipper_serve_reload_retries_total",
			"Transient checkpoint-read failures retried with backoff during reloads."),
	}
	metrics.GaugeFunc(r, "skipper_serve_queue_depth", "Requests currently waiting in the batching queue.",
		func() float64 { return float64(queueDepth()) })
	metrics.GaugeFunc(r, "skipper_serve_model_version", "Generation number of the serving checkpoint.",
		func() float64 { return float64(modelVersion()) })
	metrics.GaugeFunc(r, "skipper_runtime_threads", "Width of the shared parallel compute pool.",
		func() float64 { return float64(threads) })
	r.CounterFunc("skipper_pool_runs_total", "Kernel fan-outs submitted to the shared compute pool.",
		func() int64 { return poolStats().Runs })
	metrics.GaugeFunc(r, "skipper_pool_mean_lanes", "Average lanes occupied per pool run (utilization against skipper_runtime_threads).",
		func() float64 { return poolStats().MeanLanes() })
	return m
}

func (m *Metrics) observeRequest(code int, seconds float64) {
	m.requests.With(strconv.Itoa(code)).Inc()
	m.latency.Observe(seconds)
	if code == 504 {
		m.deadlineMissed.Inc()
	}
}

func (m *Metrics) observeBatch(size, stepsRun, t, exits int, execSeconds float64, queueWait []float64) {
	m.batches.Observe(float64(size))
	m.execute.Observe(execSeconds)
	m.samples.Add(int64(size))
	m.batchSteps.Add(int64(stepsRun))
	m.batchSaved.Add(int64(t - stepsRun))
	m.earlyExits.Add(int64(exits))
	for _, w := range queueWait {
		m.queueing.Observe(w)
	}
}
