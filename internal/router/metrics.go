package router

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"skipper/internal/stats"
)

// Metrics is the router's registry, rendered in the same Prometheus text
// format as the rest of the repo (skipper_router_* namespace). All mutators
// are safe for concurrent use.
type Metrics struct {
	mu sync.Mutex

	requests map[string]int64 // by HTTP status code answered to the client
	latency  *stats.Histogram // end-to-end routed request seconds
	rtt      *stats.Histogram // backend exchange seconds (the backend_rtt span)

	shed      map[string]int64 // by "class|reason"
	failovers int64            // requests retried on another backend after a transport error
	remaps    int64            // ring membership changes (arcs vacated or restored)
	deaths    int64            // backends declared dead by the heartbeat

	peerSyncs        int64 // completed gossip round trips with peer routers
	peerSyncFailures int64 // gossip rounds that failed (dial, frame, or decode)
	drainAnnounces   int64 // replica drain announcements accepted on the peer channel

	sessionsMigrated  int64 // streaming sessions pulled off draining replicas
	migrationFailures int64 // sessions the drain migration could not move

	// gauges, read at render time
	backendStates func() map[string]int // state name -> count
	ringSize      func() int
	canary        func() CanaryStatus
	classGauges   func() []classGauge
}

// classGauge is one class's rendered state: the SLO controller's current
// margin and recent p99.
type classGauge struct {
	name   string
	margin float64
	p99MS  float64
}

func newMetrics() *Metrics {
	return &Metrics{
		requests: map[string]int64{},
		shed:     map[string]int64{},
		// 0.5ms .. ~16s, matching serve's request histogram resolution.
		latency: stats.NewHistogram(stats.ExponentialBounds(0.0005, 2, 15)...),
		rtt:     stats.NewHistogram(stats.ExponentialBounds(0.0005, 2, 15)...),
	}
}

func (m *Metrics) observeRequest(code int, seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.requests[fmt.Sprintf("%d", code)]++
	m.latency.Observe(seconds)
}

func (m *Metrics) observeRTT(seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rtt.Observe(seconds)
}

func (m *Metrics) observeShed(class, reason string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.shed[class+"|"+reason]++
}

func (m *Metrics) observeFailover() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.failovers++
}

func (m *Metrics) observeRemap() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.remaps++
}

func (m *Metrics) observeDeath() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.deaths++
}

func (m *Metrics) observePeerSync(ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ok {
		m.peerSyncs++
	} else {
		m.peerSyncFailures++
	}
}

func (m *Metrics) observeDrainAnnounce() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.drainAnnounces++
}

func (m *Metrics) observeMigration(ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ok {
		m.sessionsMigrated++
	} else {
		m.migrationFailures++
	}
}

// SessionsMigrated returns the migrated-session counter (tests, smoke).
func (m *Metrics) SessionsMigrated() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sessionsMigrated
}

// RequestCount returns the counted requests for one status code (tests).
func (m *Metrics) RequestCount(code int) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.requests[fmt.Sprintf("%d", code)]
}

// ShedCount returns the shed counter for one (class, reason) pair (tests).
func (m *Metrics) ShedCount(class, reason string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.shed[class+"|"+reason]
}

// Failovers returns the failover counter (tests).
func (m *Metrics) Failovers() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.failovers
}

// Remaps returns the ring-remap counter (tests: flap-damping churn bounds).
func (m *Metrics) Remaps() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.remaps
}

// DrainAnnounces returns the accepted drain-announcement counter (tests).
func (m *Metrics) DrainAnnounces() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.drainAnnounces
}

// Render writes the registry in Prometheus text exposition format.
func (m *Metrics) Render(w io.Writer) {
	m.mu.Lock()
	defer m.mu.Unlock()

	fmt.Fprintln(w, "# HELP skipper_router_requests_total Requests answered by the router, by HTTP status code.")
	fmt.Fprintln(w, "# TYPE skipper_router_requests_total counter")
	codes := make([]string, 0, len(m.requests))
	for c := range m.requests {
		codes = append(codes, c)
	}
	sort.Strings(codes)
	for _, c := range codes {
		fmt.Fprintf(w, "skipper_router_requests_total{code=%q} %d\n", c, m.requests[c])
	}

	renderHist(w, "skipper_router_request_latency_seconds", "End-to-end routed request latency.", m.latency)
	renderHist(w, "skipper_router_backend_rtt_seconds", "Backend exchange round-trip.", m.rtt)

	fmt.Fprintln(w, "# HELP skipper_router_shed_total Requests shed by admission control, by class and reason.")
	fmt.Fprintln(w, "# TYPE skipper_router_shed_total counter")
	keys := make([]string, 0, len(m.shed))
	for k := range m.shed {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		var class, reason string
		for i := range k {
			if k[i] == '|' {
				class, reason = k[:i], k[i+1:]
				break
			}
		}
		fmt.Fprintf(w, "skipper_router_shed_total{class=%q,reason=%q} %d\n", class, reason, m.shed[k])
	}

	counter(w, "skipper_router_failover_total", "Requests retried on a successor backend after a transport error.", m.failovers)
	counter(w, "skipper_router_ring_remaps_total", "Hash-ring membership changes (arcs vacated or restored).", m.remaps)
	counter(w, "skipper_router_backend_deaths_total", "Backends declared dead after missed heartbeats.", m.deaths)
	counter(w, "skipper_router_peer_syncs_total", "Completed gossip round trips with peer routers.", m.peerSyncs)
	counter(w, "skipper_router_peer_sync_failures_total", "Failed gossip rounds (dial, frame, or decode error).", m.peerSyncFailures)
	counter(w, "skipper_router_drain_announces_total", "Replica drain announcements accepted on the peer channel.", m.drainAnnounces)
	counter(w, "skipper_router_sessions_migrated_total", "Streaming sessions pulled off draining replicas.", m.sessionsMigrated)
	counter(w, "skipper_router_session_migration_failures_total", "Sessions a drain migration failed to move.", m.migrationFailures)

	if m.backendStates != nil {
		states := m.backendStates()
		fmt.Fprintln(w, "# HELP skipper_router_backends Backends by health state.")
		fmt.Fprintln(w, "# TYPE skipper_router_backends gauge")
		for _, s := range []string{"alive", "draining", "dead", "unknown"} {
			fmt.Fprintf(w, "skipper_router_backends{state=%q} %d\n", s, states[s])
		}
	}
	if m.ringSize != nil {
		gauge(w, "skipper_router_ring_members", "Backends currently owning hash-ring arcs.", float64(m.ringSize()))
	}
	if m.canary != nil {
		st := m.canary()
		active := 0.0
		if st.Active {
			active = 1
		}
		gauge(w, "skipper_router_canary_active", "Whether a canary generation is taking traffic.", active)
		counter(w, "skipper_router_canary_promotions_total", "Canary generations promoted to the fleet.", st.Promotions)
		counter(w, "skipper_router_canary_rollbacks_total", "Canary generations rolled back.", st.Rollbacks)
	}
	if m.classGauges != nil {
		gs := m.classGauges()
		fmt.Fprintln(w, "# HELP skipper_router_class_exit_margin Early-exit confidence margin the SLO controller currently forwards, by class.")
		fmt.Fprintln(w, "# TYPE skipper_router_class_exit_margin gauge")
		for _, g := range gs {
			fmt.Fprintf(w, "skipper_router_class_exit_margin{class=%q} %g\n", g.name, g.margin)
		}
		fmt.Fprintln(w, "# HELP skipper_router_class_p99_ms Recent-window p99 latency, by class.")
		fmt.Fprintln(w, "# TYPE skipper_router_class_p99_ms gauge")
		for _, g := range gs {
			fmt.Fprintf(w, "skipper_router_class_p99_ms{class=%q} %g\n", g.name, g.p99MS)
		}
	}
}

func counter(w io.Writer, name, help string, v int64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
}

func gauge(w io.Writer, name, help string, v float64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
}

func renderHist(w io.Writer, name, help string, h *stats.Histogram) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	cum := h.Cumulative()
	for i, b := range h.Bounds() {
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, fmt.Sprintf("%g", b), cum[i])
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, h.N())
	fmt.Fprintf(w, "%s_sum %g\n", name, h.Sum())
	fmt.Fprintf(w, "%s_count %d\n", name, h.N())
}
