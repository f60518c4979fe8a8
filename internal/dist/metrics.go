package dist

import (
	"fmt"
	"io"
	"net/http"
	"sync"

	"skipper/internal/stats"
)

// Metrics is the dist subsystem's metrics registry, rendered in Prometheus
// text exposition format (mounted on the -debug-addr mux as /metrics). All
// mutators are safe for concurrent use. A nil *Metrics is valid and drops
// every observation, mirroring the repo's nil-tracer convention.
type Metrics struct {
	mu sync.Mutex

	world        int
	connected    int
	rounds       int64
	aborts       int64
	stragglers   int64
	reduceBytes  int64            // encoded gradient float sections moved, see ReduceBytes
	roundLatency *stats.Histogram // committed-round wall seconds
}

// NewMetrics returns a registry for a world-size-w run.
func NewMetrics(w int) *Metrics {
	return &Metrics{
		world: w,
		// 0.1ms .. ~1700s
		roundLatency: stats.NewHistogram(stats.ExponentialBounds(0.0001, 2, 24)...),
	}
}

func (m *Metrics) setConnected(n int) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.connected = n
}

func (m *Metrics) observeRound(seconds float64, reduceBytes int64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rounds++
	m.reduceBytes += reduceBytes
	m.roundLatency.Observe(seconds)
}

func (m *Metrics) observeAbort() {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.aborts++
}

func (m *Metrics) observeStraggler() {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stragglers++
}

// ReduceBytes reports the cumulative gradient payload bytes exchanged: the
// encoded float section of every gradient frame sent on any link (star
// uploads and broadcasts, ring chunks). Frame meta and control messages are
// left out — some carry wall-clock readings whose printed length varies —
// so the count is an exact function of the gradient length, the world size,
// the topology and which shards were empty.
func (m *Metrics) ReduceBytes() int64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.reduceBytes
}

// Render writes the registry in Prometheus text exposition format.
func (m *Metrics) Render(w io.Writer) {
	m.mu.Lock()
	defer m.mu.Unlock()

	distGauge(w, "skipper_dist_world_size", "Total rank count, coordinator included.", float64(m.world))
	distGauge(w, "skipper_dist_workers_connected", "Worker ranks currently connected.", float64(m.connected))
	distCounter(w, "skipper_dist_rounds_total", "Training rounds committed.", m.rounds)
	distCounter(w, "skipper_dist_aborts_total", "Rounds aborted and replayed after a rank fault.", m.aborts)
	distCounter(w, "skipper_dist_stragglers_total", "Gather reads that exceeded the straggler threshold.", m.stragglers)
	distCounter(w, "skipper_dist_reduce_bytes_total", "Encoded gradient values moved on every link (star uploads and broadcasts, ring chunks).", m.reduceBytes)
	distHist(w, "skipper_dist_round_latency_seconds", "Wall time per committed round.", m.roundLatency)
}

// Handler serves Render over HTTP.
func (m *Metrics) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		m.Render(w)
	})
}

func distCounter(w io.Writer, name, help string, v int64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
}

func distGauge(w io.Writer, name, help string, v float64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
}

func distHist(w io.Writer, name, help string, h *stats.Histogram) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	cum := h.Cumulative()
	for i, b := range h.Bounds() {
		fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", name, b, cum[i])
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, h.N())
	fmt.Fprintf(w, "%s_sum %g\n", name, h.Sum())
	fmt.Fprintf(w, "%s_count %d\n", name, h.N())
}
