package router

import (
	"skipper/internal/metrics"
	"skipper/internal/stats"
)

// Metrics is the router's /metrics page (skipper_router_* namespace): the
// families below, in this order, then the gauges read at render.
type Metrics struct {
	*metrics.Registry

	requests          *metrics.CounterVec // by HTTP status code answered to the client
	latency           *metrics.Histogram  // end-to-end routed request seconds
	rtt               *metrics.Histogram  // backend exchange seconds (the backend_rtt span)
	shed              *metrics.CounterVec // by class and reason
	failovers         *metrics.Counter    // requests retried on another backend after a transport error
	remaps            *metrics.Counter    // ring membership changes (arcs vacated or restored)
	deaths            *metrics.Counter    // backends declared dead by the heartbeat
	peerSyncs         *metrics.Counter    // completed gossip round trips with peer routers
	peerSyncFailures  *metrics.Counter    // gossip rounds that failed (dial, frame, or decode)
	drainAnnounces    *metrics.Counter    // replica drain announcements accepted on the peer channel
	sessionsMigrated  *metrics.Counter    // streaming sessions pulled off draining replicas
	migrationFailures *metrics.Counter    // sessions the drain migration could not move
}

// classGauge is one class's rendered state: the SLO controller's current
// margin and recent p99.
type classGauge struct {
	name   string
	margin float64
	p99MS  float64
}

// backendStates are the skipper_router_backends series, in page order.
var backendStates = []string{"alive", "draining", "dead", "unknown"}

// newMetrics registers the router's families. The functions are read at
// render, with no registry lock held, so they may take rt.mu.
func newMetrics(backendCounts func() map[string]int, ringSize func() int, canary func() CanaryStatus, classGauges func() []classGauge) *Metrics {
	r := metrics.New()
	// 0.5ms .. ~16s, matching serve's request histogram resolution.
	seconds := stats.ExponentialBounds(0.0005, 2, 15)
	// Struct fields register in the order written, which is the page order.
	m := &Metrics{
		Registry: r,
		requests: r.CounterVec("skipper_router_requests_total", "Requests answered by the router, by HTTP status code.", []string{"code"}),
		latency:  r.Histogram("skipper_router_request_latency_seconds", "End-to-end routed request latency.", seconds),
		rtt:      r.Histogram("skipper_router_backend_rtt_seconds", "Backend exchange round-trip.", seconds),
		shed: r.CounterVec("skipper_router_shed_total", "Requests shed by admission control, by class and reason.",
			[]string{"class", "reason"}),
		failovers:         r.Counter("skipper_router_failover_total", "Requests retried on a successor backend after a transport error."),
		remaps:            r.Counter("skipper_router_ring_remaps_total", "Hash-ring membership changes (arcs vacated or restored)."),
		deaths:            r.Counter("skipper_router_backend_deaths_total", "Backends declared dead after missed heartbeats."),
		peerSyncs:         r.Counter("skipper_router_peer_syncs_total", "Completed gossip round trips with peer routers."),
		peerSyncFailures:  r.Counter("skipper_router_peer_sync_failures_total", "Failed gossip rounds (dial, frame, or decode error)."),
		drainAnnounces:    r.Counter("skipper_router_drain_announces_total", "Replica drain announcements accepted on the peer channel."),
		sessionsMigrated:  r.Counter("skipper_router_sessions_migrated_total", "Streaming sessions pulled off draining replicas."),
		migrationFailures: r.Counter("skipper_router_session_migration_failures_total", "Sessions a drain migration failed to move."),
	}
	metrics.GaugeVecFunc(r, "skipper_router_backends", "Backends by health state.", "state", func() []metrics.Sample[int64] {
		counts := backendCounts()
		out := make([]metrics.Sample[int64], len(backendStates))
		for i, s := range backendStates {
			out[i] = metrics.Sample[int64]{Label: s, Value: int64(counts[s])}
		}
		return out
	})
	metrics.GaugeFunc(r, "skipper_router_ring_members", "Backends currently owning hash-ring arcs.",
		func() float64 { return float64(ringSize()) })
	metrics.GaugeFunc(r, "skipper_router_canary_active", "Whether a canary generation is taking traffic.", func() float64 {
		if canary().Active {
			return 1
		}
		return 0
	})
	r.CounterFunc("skipper_router_canary_promotions_total", "Canary generations promoted to the fleet.",
		func() int64 { return canary().Promotions })
	r.CounterFunc("skipper_router_canary_rollbacks_total", "Canary generations rolled back.",
		func() int64 { return canary().Rollbacks })
	classSamples := func(value func(classGauge) float64) func() []metrics.Sample[float64] {
		return func() []metrics.Sample[float64] {
			var out []metrics.Sample[float64]
			for _, g := range classGauges() {
				out = append(out, metrics.Sample[float64]{Label: g.name, Value: value(g)})
			}
			return out
		}
	}
	metrics.GaugeVecFunc(r, "skipper_router_class_exit_margin",
		"Early-exit confidence margin the SLO controller currently forwards, by class.", "class",
		classSamples(func(g classGauge) float64 { return g.margin }))
	metrics.GaugeVecFunc(r, "skipper_router_class_p99_ms", "Recent-window p99 latency, by class.", "class",
		classSamples(func(g classGauge) float64 { return g.p99MS }))
	return m
}
