package dist

import (
	"net/http"
	"sync/atomic"

	"skipper/internal/metrics"
	"skipper/internal/stats"
)

// Metrics is the dist subsystem's /metrics page (mounted on the -debug-addr
// mux). A Coordinator given a nil *Metrics counts into a private one that
// nothing renders, so a nil *Metrics drops every observation.
type Metrics struct {
	*metrics.Registry

	connected    atomic.Int64       // worker ranks connected
	rounds       *metrics.Counter   // committed rounds
	aborts       *metrics.Counter   // rounds aborted and replayed
	stragglers   *metrics.Counter   // gather reads past the straggler threshold
	reduceBytes  *metrics.Counter   // encoded gradient float sections moved, see ReduceBytes
	roundLatency *metrics.Histogram // committed-round wall seconds
}

// NewMetrics returns a registry for a world-size-w run.
func NewMetrics(w int) *Metrics {
	r := metrics.New()
	m := &Metrics{Registry: r}
	metrics.GaugeFunc(r, "skipper_dist_world_size", "Total rank count, coordinator included.",
		func() float64 { return float64(w) })
	metrics.GaugeFunc(r, "skipper_dist_workers_connected", "Worker ranks currently connected.",
		func() float64 { return float64(m.connected.Load()) })
	m.rounds = r.Counter("skipper_dist_rounds_total", "Training rounds committed.")
	m.aborts = r.Counter("skipper_dist_aborts_total", "Rounds aborted and replayed after a rank fault.")
	m.stragglers = r.Counter("skipper_dist_stragglers_total", "Gather reads that exceeded the straggler threshold.")
	m.reduceBytes = r.Counter("skipper_dist_reduce_bytes_total",
		"Encoded gradient values moved on every link (star uploads and broadcasts, ring chunks).")
	// 0.1ms .. ~1700s
	m.roundLatency = r.Histogram("skipper_dist_round_latency_seconds", "Wall time per committed round.",
		stats.ExponentialBounds(0.0001, 2, 24))
	return m
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
	return m.reduceBytes.Value()
}

// Handler serves the page over HTTP.
func (m *Metrics) Handler() http.Handler { return m.Registry }
