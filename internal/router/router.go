package router

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"skipper/internal/serve"
	"skipper/internal/trace"
)

// Router is the serving fleet's front tier: it consistent-hashes session keys
// onto a health-checked pool of skipper-serve replicas, sheds load in tiers
// before the replicas saturate, tunes the early-exit margin per request class
// against a latency budget, and runs the canary registry that rolls model
// generations through the fleet one replica at a time.
//
// Placement is a consistent hash of the session key over virtual nodes, so a
// dead replica vacates only its own arcs: every other session keeps its replica,
// which is what makes per-replica caches (and, later, stateful streaming
// membrane carry-over) worth having. Health comes from a heartbeat loop of
// FleetPing probes over the framed transport, and a replica that misses
// DeadAfter beats in a row leaves the ring until it answers again.
type Router struct {
	cfg       Config
	transport *transport
	admission *admission
	registry  *registry
	metrics   *Metrics
	tracer    *trace.Tracer
	susp      *suspicion

	mu       sync.RWMutex // guards ring membership + backend state transitions
	ring     *Ring
	backends map[string]*backend
	order    []string   // spec order, for stable /v1/fleet listings
	rng      *rand.Rand // heartbeat/readmit jitter; guarded by mu

	peers   []*peerLink // outbound links, fixed at construction
	inbound peerConns   // accepted peer-channel connections

	stop chan struct{}
	wg   sync.WaitGroup
}

// Config configures a Router. Zero values get serving-sane defaults.
type Config struct {
	// Backends is the replica pool. At least one is required.
	Backends []BackendSpec
	// VNodes is the virtual-node count per backend (default 64).
	VNodes int
	// HeartbeatInterval is the health-probe period and the deadline of one
	// probe, so a replica that accepts connections but never answers is
	// dead after DeadAfter intervals and never delays the other backends'
	// probes by more than one (default 500ms).
	HeartbeatInterval time.Duration
	// DeadAfter is how many consecutive missed heartbeats kill a backend
	// (default 3).
	DeadAfter int
	// RequestTimeout bounds one data-plane backend exchange (default 30s).
	RequestTimeout time.Duration
	// Classes is the admission configuration (default DefaultClasses).
	Classes []ClassConfig
	// DefaultClass is the class for unlabeled requests (default "standard",
	// falling back to the lexically first configured class).
	DefaultClass string
	// CanaryMinRequests is the canary cohort size before promotion is
	// considered (default 50).
	CanaryMinRequests int
	// FailoverAttempts is how many ring successors a request tries after its
	// primary fails (default 2).
	FailoverAttempts int
	// Tracer, when non-nil, records route / backend_rtt / failover spans on
	// trace.TrackRouter.
	Tracer *trace.Tracer
	// Client overrides the HTTP client for the control plane.
	Client *http.Client

	// ---- replicated router tier ----

	// PeerListener, when non-nil, accepts the peer channel: router↔router
	// state sync and replica drain announcements. The Router serves it until
	// Close, which also closes it.
	PeerListener net.Listener
	// PeerID names this router to its peers (default: PeerListener's
	// address). Ties in the replicated-state version race break toward the
	// lexically lower id, so ids must be unique across the tier.
	PeerID string
	// Peers lists the other routers' peer-listener addresses. The quorum
	// denominator is 1+len(Peers) whether or not the peers are reachable.
	Peers []string
	// SyncInterval is the gossip period (default: HeartbeatInterval).
	SyncInterval time.Duration
	// SuspicionStale is how stale a peer's last sync may be before its
	// suspicion votes stop counting toward quorum — a dead router cannot
	// keep a backend dead (default 4×SyncInterval).
	SuspicionStale time.Duration

	// ---- heartbeat scheduling / flap damping ----

	// HeartbeatJitter spreads each backend's probe interval by ±this
	// fraction so N routers do not probe every replica in lockstep
	// (default 0.2; negative disables).
	HeartbeatJitter float64
	// ReadmitBackoffMax caps the dead→ring re-admission hold-down of a
	// flapping backend (default 10s). The hold-down starts at one heartbeat
	// interval and doubles per flap.
	ReadmitBackoffMax time.Duration
	// FlapWindow is how soon after a previous death the next one counts as
	// a flap (default 2×ReadmitBackoffMax).
	FlapWindow time.Duration
	// JitterSeed seeds the heartbeat/readmit jitter RNG. 0 (the default)
	// seeds from the wall clock as before; tests set it non-zero to make
	// probe scheduling deterministic.
	JitterSeed int64
}

func (c Config) withDefaults() Config {
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 500 * time.Millisecond
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 3
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.DefaultClass == "" {
		c.DefaultClass = "standard"
	}
	if c.FailoverAttempts <= 0 {
		c.FailoverAttempts = 2
	}
	if c.SyncInterval <= 0 {
		c.SyncInterval = c.HeartbeatInterval
	}
	if c.SuspicionStale <= 0 {
		c.SuspicionStale = 4 * c.SyncInterval
	}
	if c.HeartbeatJitter == 0 {
		c.HeartbeatJitter = 0.2
	} else if c.HeartbeatJitter < 0 {
		c.HeartbeatJitter = 0
	}
	if c.ReadmitBackoffMax <= 0 {
		c.ReadmitBackoffMax = 10 * time.Second
	}
	if c.FlapWindow <= 0 {
		c.FlapWindow = 2 * c.ReadmitBackoffMax
	}
	if c.PeerID == "" && c.PeerListener != nil {
		c.PeerID = c.PeerListener.Addr().String()
	}
	return c
}

// New builds the router, runs one synchronous heartbeat pass so the ring is
// populated before the first request, and starts the heartbeat loop.
func New(cfg Config) (*Router, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("router: at least one backend is required")
	}
	cfg = cfg.withDefaults()
	if len(cfg.Peers) > 0 && cfg.PeerListener == nil {
		return nil, fmt.Errorf("router: Peers requires a PeerListener (the peers must be able to sync back)")
	}
	rt := &Router{
		cfg:       cfg,
		transport: newTransport(cfg.Client, cfg.RequestTimeout),
		admission: newAdmission(cfg.Classes, cfg.DefaultClass, nil),
		registry:  newRegistry(cfg.CanaryMinRequests, cfg.PeerID),
		tracer:    cfg.Tracer,
		susp:      newSuspicion(1+len(cfg.Peers), cfg.SuspicionStale, nil),
		ring:      NewRing(cfg.VNodes),
		backends:  map[string]*backend{},
		rng:       rand.New(rand.NewSource(jitterSeed(cfg.JitterSeed))),
		stop:      make(chan struct{}),
	}
	rt.admission.selfID = cfg.PeerID
	for _, spec := range cfg.Backends {
		if err := spec.validate(); err != nil {
			return nil, err
		}
		if _, dup := rt.backends[spec.URL]; dup {
			return nil, fmt.Errorf("router: duplicate backend %q", spec.URL)
		}
		rt.backends[spec.URL] = newBackend(spec)
		rt.order = append(rt.order, spec.URL)
	}
	for _, addr := range cfg.Peers {
		rt.peers = append(rt.peers, newPeerLink(addr))
	}
	rt.metrics = newMetrics(rt.backendStateCounts, func() int {
		rt.mu.RLock()
		defer rt.mu.RUnlock()
		return rt.ring.Len()
	}, rt.registry.status, rt.classGauges)
	rt.heartbeatPass(time.Now(), true)
	rt.wg.Add(1)
	go rt.heartbeatLoop()
	if cfg.PeerListener != nil {
		rt.wg.Add(1)
		go rt.peerAcceptLoop()
	}
	for _, link := range rt.peers {
		rt.wg.Add(1)
		go rt.gossipLoop(link)
	}
	return rt, nil
}

// Close stops the heartbeat and gossip loops, closes the peer channel, and
// drops pooled backend connections.
func (rt *Router) Close() {
	close(rt.stop)
	if rt.cfg.PeerListener != nil {
		rt.cfg.PeerListener.Close()
	}
	rt.inbound.closeAll()
	rt.wg.Wait()
	rt.transport.closeAll()
}

// ---- heartbeats ----

// heartbeatLoop runs a fine-grained scheduler: it ticks at a fraction of the
// heartbeat interval and probes whichever backends are due. Each backend
// carries its own next-probe time — staggered at startup and jittered per
// probe — so a tier of N routers never pounds every replica in lockstep.
func (rt *Router) heartbeatLoop() {
	defer rt.wg.Done()
	fine := rt.cfg.HeartbeatInterval / 8
	if fine < time.Millisecond {
		fine = time.Millisecond
	}
	tick := time.NewTicker(fine)
	defer tick.Stop()
	lastCanary := time.Now()
	for {
		select {
		case <-rt.stop:
			return
		case <-tick.C:
		}
		now := time.Now()
		rt.heartbeatPass(now, false)
		if now.Sub(lastCanary) >= rt.cfg.HeartbeatInterval {
			lastCanary = now
			rt.canaryTick()
		}
	}
}

// heartbeatPass probes every due backend (all of them when all is set — the
// synchronous warm-up in New) and reconciles ring membership. Only the
// vacated arcs of a removed backend remap; survivors keep every session they
// had.
func (rt *Router) heartbeatPass(now time.Time, all bool) {
	rt.mu.Lock()
	var bs []*backend
	n := len(rt.order)
	for i, id := range rt.order {
		b := rt.backends[id]
		if !all && now.Before(b.nextProbe) {
			continue
		}
		if all {
			// Initial stagger: backend i's second probe lands at (i+1)/n of
			// the interval, so probe phases start decorrelated before jitter
			// even begins to accumulate.
			b.nextProbe = now.Add(rt.cfg.HeartbeatInterval * time.Duration(i+1) / time.Duration(n))
		} else {
			b.nextProbe = now.Add(rt.jitteredIntervalLocked())
		}
		bs = append(bs, b)
	}
	rt.mu.Unlock()
	if len(bs) == 0 {
		return
	}

	results := make([]probeResult, len(bs))
	var wg sync.WaitGroup
	for i, b := range bs {
		wg.Add(1)
		go func(i int, b *backend) {
			defer wg.Done()
			start := time.Now()
			st, err := rt.transport.ping(b, rt.cfg.HeartbeatInterval)
			results[i] = probeResult{b: b, st: st, rtt: time.Since(start), err: err}
		}(i, b)
	}
	wg.Wait()

	canaryID, _ := rt.registry.active()
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for _, p := range results {
		rt.reconcileProbeLocked(p, canaryID, now)
	}
}

// probeResult is one backend's health-probe outcome.
type probeResult struct {
	b   *backend
	st  serve.FleetStatus
	rtt time.Duration
	err error
}

// reconcileProbeLocked folds one probe result into the backend's state and
// ring membership. Callers hold rt.mu.
func (rt *Router) reconcileProbeLocked(p probeResult, canaryID string, now time.Time) {
	b := p.b
	if p.err != nil {
		b.misses++
		if b.misses >= rt.cfg.DeadAfter {
			rt.suspectLocked(b, now)
		}
		return
	}
	b.misses = 0
	b.observeRTT(p.rtt.Microseconds())
	b.version.Store(p.st.ModelVersion)
	b.modelPath.Store(p.st.ModelPath)
	if cap := int64(p.st.QueueCap + p.st.Workers*p.st.MaxBatch); cap > 0 {
		b.capacity.Store(cap)
	}
	// The probe answered: withdraw the local suspicion vote, and tell the
	// peers promptly so an outvoted healthy backend is restored fast.
	if rt.susp.clear(b.id) {
		rt.kickSync()
	}
	if b.drainAnnounced.Load() || p.st.Draining {
		// drainAnnounced is the announced-shutdown latch: even a pong still
		// reporting draining=false (announce raced the server's drain flag)
		// keeps the backend out of the ring.
		rt.setDrainingLocked(b)
		return
	}
	if rt.susp.confirmed(b.id) {
		// Outvoted: a majority of routers still suspects this backend. Our
		// cleared vote is gossiping; the quorum re-admits it when enough
		// routers' own probes succeed.
		return
	}
	if b.State() == StateDead && now.Before(b.readmitAt) {
		return // flap damping: hold a recently dead backend out of the ring
	}
	b.setState(StateAlive)
	// The canary backend stays out of the main ring; it receives only its
	// hash fraction.
	if b.id != canaryID && !rt.ring.Has(b.id) {
		rt.ring.Add(b.id)
		rt.metrics.remaps.Inc()
	}
}

// suspectLocked casts the local suspicion vote against a backend and kills it
// if the cluster has quorum. With a single router the majority is 1, so local
// suspicion is still immediate death — the pre-tier behavior. Callers hold
// rt.mu.
func (rt *Router) suspectLocked(b *backend, now time.Time) {
	if rt.susp.suspect(b.id) {
		rt.kickSync()
		rt.tracer.Event(trace.TrackRouter, "backend_suspected")
	}
	if b.State() != StateDead && rt.susp.confirmed(b.id) {
		rt.killBackendLocked(b, now)
	}
}

// killBackendLocked declares a backend dead: out of the ring, flap accounting
// updated, the drain latch cleared so a restarted process can rejoin. An
// announced/draining shutdown is planned — it skips the flap hold-down so the
// restarted replica re-admits on its first healthy probe. Callers hold rt.mu.
func (rt *Router) killBackendLocked(b *backend, now time.Time) {
	if b.State() == StateDead {
		return
	}
	planned := b.State() == StateDraining || b.drainAnnounced.Load()
	b.setState(StateDead)
	b.misses = rt.cfg.DeadAfter
	b.drainAnnounced.Store(false)
	rt.metrics.deaths.Inc()
	if planned {
		b.readmitAt = now
	} else {
		if !b.lastDeath.IsZero() && now.Sub(b.lastDeath) <= rt.cfg.FlapWindow {
			b.flaps++
		} else {
			b.flaps = 1
		}
		b.lastDeath = now
		// Exponential hold-down: interval, 2·interval, 4·interval, ...,
		// capped, with positive jitter so a fleet of routers does not
		// re-admit a flapper in lockstep either.
		hold := rt.cfg.HeartbeatInterval
		for i := 1; i < b.flaps && hold < rt.cfg.ReadmitBackoffMax; i++ {
			hold *= 2
		}
		if hold > rt.cfg.ReadmitBackoffMax {
			hold = rt.cfg.ReadmitBackoffMax
		}
		if j := rt.cfg.HeartbeatJitter; j > 0 {
			hold = time.Duration(float64(hold) * (1 + j*rt.rng.Float64()))
		}
		b.readmitAt = now.Add(hold)
	}
	if rt.ring.Has(b.id) {
		rt.ring.Remove(b.id)
		rt.metrics.remaps.Inc()
		rt.tracer.Event(trace.TrackRouter, "backend_dead")
	}
}

// setDrainingLocked moves a backend to the draining state, vacates its
// arcs, and — on the transition — starts pulling its streaming sessions to
// their ring successors. Callers hold rt.mu.
func (rt *Router) setDrainingLocked(b *backend) {
	first := b.State() != StateDraining
	if first {
		b.setState(StateDraining)
		b.misses = 0
	}
	if rt.ring.Has(b.id) {
		rt.ring.Remove(b.id)
		rt.metrics.remaps.Inc()
		rt.tracer.Event(trace.TrackRouter, "backend_draining")
	}
	if first {
		rt.wg.Add(1)
		go rt.migrateSessions(b)
	}
}

// jitterSeed resolves the configured seed: explicit for reproducible probe
// schedules, wall clock otherwise so independent routers decorrelate.
func jitterSeed(cfg int64) int64 {
	if cfg != 0 {
		return cfg
	}
	return time.Now().UnixNano()
}

// jitteredIntervalLocked returns the heartbeat interval spread by the
// configured jitter fraction. Callers hold rt.mu (it guards rng).
func (rt *Router) jitteredIntervalLocked() time.Duration {
	iv := rt.cfg.HeartbeatInterval
	j := rt.cfg.HeartbeatJitter
	if j <= 0 {
		return iv
	}
	return time.Duration(float64(iv) * (1 + j*(2*rt.rng.Float64()-1)))
}

func (rt *Router) backendStateCounts() map[string]int {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	out := map[string]int{}
	for _, b := range rt.backends {
		out[b.State().String()]++
	}
	return out
}

func (rt *Router) classGauges() []classGauge {
	names := rt.admission.classNames()
	out := make([]classGauge, 0, len(names))
	for _, name := range names {
		cs := rt.admission.resolve(name)
		out = append(out, classGauge{name: name, margin: cs.slo.exitMargin(), p99MS: cs.slo.p99()})
	}
	return out
}

// loadFactor is fleet in-flight over fleet capacity, counting ring members
// and the canary (everything that can take traffic).
func (rt *Router) loadFactor() float64 {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	var inflight, capacity int64
	for _, b := range rt.backends {
		if b.State() != StateAlive {
			continue
		}
		inflight += b.inflight.Load()
		capacity += b.capacityOrDefault()
	}
	if capacity == 0 {
		return 1
	}
	return float64(inflight) / float64(capacity)
}

// ---- canary lifecycle ----

// StartCanary reloads one alive replica to the checkpoint at path, takes it
// out of the main ring, and steers fraction of sessions onto it. Fails if a
// canary is already running, no replica is eligible, or the reload is
// rejected (the replica then rejoins the ring unchanged).
func (rt *Router) StartCanary(path string, fraction float64) error {
	if path == "" {
		return fmt.Errorf("router: canary path is required")
	}
	if fraction <= 0 || fraction > 1 {
		return fmt.Errorf("router: canary fraction %v outside (0, 1]", fraction)
	}
	if id, _ := rt.registry.active(); id != "" {
		return fmt.Errorf("router: a canary is already running on %s", id)
	}
	rt.mu.Lock()
	var pick *backend
	for _, id := range rt.order {
		b := rt.backends[id]
		if b.State() == StateAlive && rt.ring.Has(b.id) {
			pick = b
			break
		}
	}
	if pick == nil {
		rt.mu.Unlock()
		return fmt.Errorf("router: no alive backend to canary on")
	}
	prev := pick.modelPath.Load().(string)
	if prev == "" {
		rt.mu.Unlock()
		return fmt.Errorf("router: backend %s serves a fresh-init model with no checkpoint to roll back to", pick.id)
	}
	rt.ring.Remove(pick.id)
	rt.metrics.remaps.Inc()
	rt.mu.Unlock()

	if err := rt.transport.reload(pick, path); err != nil {
		rt.mu.Lock()
		if pick.State() == StateAlive && !rt.ring.Has(pick.id) {
			rt.ring.Add(pick.id)
			rt.metrics.remaps.Inc()
		}
		rt.mu.Unlock()
		return err
	}
	rt.registry.start(path, fraction, pick.id, prev)
	rt.tracer.Event(trace.TrackRouter, "canary_started")
	return nil
}

// canaryTick applies the registry's pending decision, if any.
func (rt *Router) canaryTick() {
	decision, reason := rt.registry.evaluate()
	switch decision {
	case "promote":
		rt.Promote(reason)
	case "rollback":
		rt.Rollback(reason)
	}
}

// Promote rolls the canary checkpoint out to every stable replica and
// returns the canary backend to the ring. A replica whose reload fails keeps
// the fleet in the canary state — the event is noted and the next tick
// retries, so a promote is all-or-nothing per pass.
func (rt *Router) Promote(reason string) error {
	run := rt.registry.snapshotRun()
	if run == nil {
		return fmt.Errorf("router: no canary to promote")
	}
	rt.mu.RLock()
	var stable []*backend
	for _, id := range rt.order {
		b := rt.backends[id]
		if b.id != run.BackendID && b.State() == StateAlive {
			stable = append(stable, b)
		}
	}
	rt.mu.RUnlock()
	for _, b := range stable {
		if b.modelPath.Load().(string) == run.Path {
			continue // already on the canary generation (retry pass)
		}
		if err := rt.transport.reload(b, run.Path); err != nil {
			rt.registry.note("promote_failed", run.Path, err.Error())
			return err
		}
		b.modelPath.Store(run.Path)
	}
	rt.mu.Lock()
	if cb := rt.backends[run.BackendID]; cb != nil && cb.State() == StateAlive && !rt.ring.Has(run.BackendID) {
		rt.ring.Add(run.BackendID)
		rt.metrics.remaps.Inc()
	}
	rt.mu.Unlock()
	rt.registry.finish("promoted", reason)
	rt.tracer.Event(trace.TrackRouter, "canary_promoted")
	return nil
}

// Rollback restores the canary backend to its previous checkpoint and
// returns it to the ring. Even if the restore reload fails (the backend
// keeps serving the canary generation), the run ends: the heartbeat keeps the
// backend in the ring and its generation is visible in /v1/fleet.
func (rt *Router) Rollback(reason string) error {
	run := rt.registry.snapshotRun()
	if run == nil {
		return fmt.Errorf("router: no canary to roll back")
	}
	var reloadErr error
	rt.mu.RLock()
	cb := rt.backends[run.BackendID]
	rt.mu.RUnlock()
	if cb != nil {
		reloadErr = rt.transport.reload(cb, run.PrevPath)
		rt.mu.Lock()
		if cb.State() == StateAlive && !rt.ring.Has(run.BackendID) {
			rt.ring.Add(run.BackendID)
			rt.metrics.remaps.Inc()
		}
		rt.mu.Unlock()
	}
	if reloadErr != nil {
		rt.registry.finish("rolled_back", reason+" (restore reload failed: "+reloadErr.Error()+")")
	} else {
		rt.registry.finish("rolled_back", reason)
	}
	rt.tracer.Event(trace.TrackRouter, "canary_rolled_back")
	return reloadErr
}

// ---- request path ----

// wireRequest is what clients send the router: the serve request plus the
// routing envelope. Unknown fields pass through to the backend untouched.
type wireRequest struct {
	serve.InferRequest
	Session string `json:"session,omitempty"`
	Class   string `json:"class,omitempty"`
}

func (rt *Router) handleInfer(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req wireRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "invalid JSON body: "+err.Error())
		return
	}
	start := time.Now()
	code := rt.route(r.Context(), w, req)
	rt.metrics.requests.With(strconv.Itoa(code)).Inc()
	rt.metrics.latency.Observe(time.Since(start).Seconds())
}

// route admits, places, and forwards one request, writing the response. It
// returns the status code answered.
func (rt *Router) route(ctx context.Context, w http.ResponseWriter, req wireRequest) int {
	span := rt.tracer.Begin(trace.TrackRouter, "route")

	cs := rt.admission.resolve(req.Class)
	className := cs.cfg.Name
	if reason := rt.admission.admit(cs, rt.loadFactor()); reason != "" {
		rt.metrics.shed.With(className, reason).Inc()
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, "shed: "+reason+" (class "+className+")")
		span.End()
		return http.StatusTooManyRequests
	}

	// Class policy: full-horizon classes force EarlyExit off; budgeted
	// classes get the SLO controller's margin and inherit the class budget
	// when the request carries none.
	if cs.cfg.FullHorizon && req.EarlyExit == nil {
		off := false
		req.EarlyExit = &off
	}
	if cs.slo != nil && req.ExitMargin == 0 {
		req.ExitMargin = cs.slo.exitMargin()
	}
	if cs.cfg.BudgetMS > 0 && req.BudgetMS == 0 {
		req.BudgetMS = cs.cfg.BudgetMS
	}

	session := req.Session
	if session == "" {
		// Anonymous requests spread by content so they don't all pile on the
		// hash of "".
		session = fmt.Sprintf("anon-%x", contentHash(req.Input))
	}

	candidates := rt.candidates(session)
	if len(candidates) == 0 {
		rt.metrics.shed.With(className, shedReasonNoFleet).Inc()
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, "no alive backends")
		span.End()
		return http.StatusServiceUnavailable
	}

	body, err := json.Marshal(req.InferRequest)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		span.End()
		return http.StatusBadRequest
	}

	var lastErr error
	for attempt, b := range candidates {
		select {
		case <-ctx.Done():
			httpError(w, http.StatusServiceUnavailable, "client went away: "+ctx.Err().Error())
			span.End()
			return http.StatusServiceUnavailable
		default:
		}
		if attempt > 0 {
			rt.metrics.failovers.Inc()
			fspan := rt.tracer.Begin(trace.TrackRouter, "failover")
			fspan.End(trace.Attr{Key: "attempt", Val: int64(attempt)})
		}
		b.inflight.Add(1)
		rttSpan := rt.tracer.Begin(trace.TrackRouter, "backend_rtt")
		sendStart := time.Now()
		resp, err := rt.transport.infer(b, body)
		rtt := time.Since(sendStart)
		rttSpan.End(trace.Attr{Key: "attempt", Val: int64(attempt)})
		b.inflight.Add(-1)
		if err != nil {
			lastErr = err
			rt.noteTransportFailure(b)
			continue
		}
		rt.metrics.rtt.Observe(rtt.Seconds())
		latencyMS := rtt.Seconds() * 1000
		cs.slo.observe(latencyMS)
		rt.registry.observe(b.id, resp.Code, latencyMS)
		if resp.Code == http.StatusServiceUnavailable {
			// The backend itself refused — draining or saturated. Unlike a
			// 429 (a class shed the client should back off from), a 503 is
			// specific to this replica, so try an alternate before surfacing
			// it. The drain handoff leans on this: a request already in
			// flight toward an announced-draining replica fails over here
			// instead of erroring at the client.
			rt.metrics.shed.With(className, shedReasonCapacity).Inc()
			if attempt < len(candidates)-1 {
				lastErr = fmt.Errorf("backend %s unavailable (503)", b.id)
				continue
			}
		} else if resp.Code == http.StatusTooManyRequests {
			// The backend's class admission shed; surface its Retry-After.
			rt.metrics.shed.With(className, shedReasonCapacity).Inc()
		}
		if resp.RetryAfter > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(resp.RetryAfter))
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Skipper-Backend", b.id)
		w.WriteHeader(resp.Code)
		w.Write(resp.Body)
		span.End(trace.Attr{Key: "attempts", Val: int64(attempt + 1)})
		return resp.Code
	}
	msg := "all backends failed"
	if lastErr != nil {
		msg += ": " + lastErr.Error()
	}
	httpError(w, http.StatusBadGateway, msg)
	span.End(trace.Attr{Key: "attempts", Val: int64(len(candidates))})
	return http.StatusBadGateway
}

// candidates returns the ordered backends to try for a session: the canary
// backend when the session falls in the canary fraction, else the ring
// successor list (primary + failover alternates).
func (rt *Router) candidates(session string) []*backend {
	canaryID, fraction := rt.registry.active()
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	if canaryID != "" && hashFraction(session) < fraction {
		if cb := rt.backends[canaryID]; cb != nil && cb.State() == StateAlive {
			// The canary cohort still fails over to the stable ring; a dead
			// canary must not black-hole its sessions.
			out := []*backend{cb}
			for _, id := range rt.ring.Successors(session, rt.cfg.FailoverAttempts) {
				out = append(out, rt.backends[id])
			}
			return rt.orderBySuspicionLocked(out)
		}
	}
	ids := rt.ring.Successors(session, 1+rt.cfg.FailoverAttempts)
	out := make([]*backend, 0, len(ids))
	for _, id := range ids {
		out = append(out, rt.backends[id])
	}
	return rt.orderBySuspicionLocked(out)
}

// orderBySuspicionLocked stably partitions the candidate list so backends this
// router locally suspects come last. A suspect below quorum stays in the ring
// (the tier has not agreed it is dead), but this router has firsthand evidence
// against it, so its own traffic tries the trusted alternates first. Callers
// hold rt.mu (read or write).
func (rt *Router) orderBySuspicionLocked(in []*backend) []*backend {
	clean := in[:0]
	var tainted []*backend
	for _, b := range in {
		if rt.susp.selfSuspects(b.id) {
			tainted = append(tainted, b)
		} else {
			clean = append(clean, b)
		}
	}
	return append(clean, tainted...)
}

// hashFraction maps a session key to [0, 1) on an axis independent of ring
// placement, so the canary cohort is a stable but uncorrelated subset.
func hashFraction(session string) float64 {
	return float64(ringHash("canary|"+session)>>11) / (1 << 53)
}

// contentHash keys anonymous requests off their payload.
func contentHash(input []float32) uint64 {
	h := uint64(1469598103934665603) // fnv64a offset
	for _, v := range input {
		bits := uint32(v * 255)
		h = (h ^ uint64(bits&0xff)) * 1099511628211
	}
	return h
}

// noteTransportFailure counts a data-path error against a backend's health.
// A hard transport failure fast-tracks the local suspicion vote — no waiting
// out DeadAfter heartbeats — and the backend dies the moment the vote reaches
// quorum. With a single router the majority is 1, so this is still immediate
// death (the pre-tier fast track) and the blast radius of a kill -9 stays
// bounded to the dead replica's in-flight requests. In a tier, one router's
// flaky NIC cannot evict a replica the rest of the quorum still reaches —
// meanwhile candidates() orders locally-suspect backends last, so this
// router's own traffic avoids the replica it distrusts.
func (rt *Router) noteTransportFailure(b *backend) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	b.misses = rt.cfg.DeadAfter
	rt.suspectLocked(b, time.Now())
}

// ---- control/observability plane ----

// FleetInfo is the GET /v1/fleet body.
type FleetInfo struct {
	RouterID string        `json:"router_id,omitempty"`
	Backends []BackendInfo `json:"backends"`
	Ring     []string      `json:"ring"`
	Canary   CanaryStatus  `json:"canary"`
	Classes  []ClassConfig `json:"classes"`
	Peers    []PeerInfo    `json:"peers,omitempty"`
}

func (rt *Router) fleetInfo() FleetInfo {
	rt.mu.RLock()
	info := FleetInfo{RouterID: rt.cfg.PeerID, Ring: rt.ring.Nodes()}
	for _, id := range rt.order {
		info.Backends = append(info.Backends, rt.backends[id].info())
	}
	rt.mu.RUnlock()
	info.Canary = rt.registry.status()
	for _, name := range rt.admission.classNames() {
		info.Classes = append(info.Classes, rt.admission.resolve(name).cfg)
	}
	for _, l := range rt.peers {
		info.Peers = append(info.Peers, l.info(rt.cfg.SuspicionStale))
	}
	return info
}

// SetClasses replaces the admission configuration at runtime and replicates
// it to the peer routers.
func (rt *Router) SetClasses(classes []ClassConfig, defaultClass string) error {
	if len(classes) == 0 {
		return fmt.Errorf("router: at least one class is required")
	}
	rt.admission.setLocal(classes, defaultClass)
	rt.kickSync()
	return nil
}

// Handler returns the router's HTTP mux: the data plane (/v1/infer), the
// control plane (canary lifecycle), and observability (/metrics, /healthz,
// /readyz, /v1/fleet). /v1/config proxies the first alive backend so clients
// built for a single replica (the loadgen) work unchanged against the fleet.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/infer", rt.handleInfer)
	mux.HandleFunc("/v1/fleet", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, rt.fleetInfo())
	})
	mux.HandleFunc("/v1/config", rt.handleConfigProxy)
	mux.HandleFunc("/v1/stream/place", rt.handleStreamPlace)
	mux.HandleFunc("/v1/canary", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpError(w, http.StatusMethodNotAllowed, "POST required")
			return
		}
		var body struct {
			Path     string  `json:"path"`
			Fraction float64 `json:"fraction"`
		}
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		if body.Fraction == 0 {
			body.Fraction = 0.05
		}
		if err := rt.StartCanary(body.Path, body.Fraction); err != nil {
			httpError(w, http.StatusConflict, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, rt.registry.status())
	})
	mux.HandleFunc("/v1/promote", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpError(w, http.StatusMethodNotAllowed, "POST required")
			return
		}
		if err := rt.Promote("operator request"); err != nil {
			httpError(w, http.StatusConflict, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, rt.registry.status())
	})
	mux.HandleFunc("/v1/rollback", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpError(w, http.StatusMethodNotAllowed, "POST required")
			return
		}
		if err := rt.Rollback("operator request"); err != nil {
			httpError(w, http.StatusConflict, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, rt.registry.status())
	})
	mux.HandleFunc("/v1/classes", func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodGet:
			st := rt.admission.state()
			writeJSON(w, http.StatusOK, st)
		case http.MethodPost:
			var body struct {
				Classes      []ClassConfig `json:"classes"`
				DefaultClass string        `json:"default_class"`
			}
			if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
				httpError(w, http.StatusBadRequest, err.Error())
				return
			}
			if err := rt.SetClasses(body.Classes, body.DefaultClass); err != nil {
				httpError(w, http.StatusBadRequest, err.Error())
				return
			}
			writeJSON(w, http.StatusOK, rt.admission.state())
		default:
			httpError(w, http.StatusMethodNotAllowed, "GET or POST required")
		}
	})
	mux.Handle("/metrics", rt.metrics)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		rt.mu.RLock()
		ready := rt.ring.Len() > 0
		rt.mu.RUnlock()
		if !ready {
			httpError(w, http.StatusServiceUnavailable, "no alive backends")
			return
		}
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// handleConfigProxy forwards GET /v1/config from the first alive backend.
func (rt *Router) handleConfigProxy(w http.ResponseWriter, r *http.Request) {
	rt.mu.RLock()
	var pick *backend
	for _, id := range rt.order {
		if b := rt.backends[id]; b.State() == StateAlive {
			pick = b
			break
		}
	}
	rt.mu.RUnlock()
	if pick == nil {
		httpError(w, http.StatusServiceUnavailable, "no alive backends")
		return
	}
	resp, err := rt.transport.client.Get(pick.spec.URL + "/v1/config")
	if err != nil {
		httpError(w, http.StatusBadGateway, err.Error())
		return
	}
	defer resp.Body.Close()
	var raw json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		httpError(w, http.StatusBadGateway, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(resp.StatusCode)
	w.Write(raw)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, struct {
		Error string `json:"error"`
	}{Error: msg})
}
