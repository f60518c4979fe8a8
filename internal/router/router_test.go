package router

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"skipper/internal/frame"
	"skipper/internal/serve"
)

// fakeReplica is a controllable stand-in for one skipper-serve process: it
// implements the slice of the replica the router touches — the framed fleet
// listener (FleetPing, FleetMux-wrapped FleetInfer) and POST /v1/reload — with
// injectable model paths, failure modes and latency. Fault-path tests kill()
// it, which is indistinguishable from a crashed process from the router's side.
type fakeReplica struct {
	srv *httptest.Server // control plane
	ln  net.Listener     // framed fleet listener

	mu        sync.Mutex
	conns     []net.Conn // accepted fleet connections, closed by kill
	killed    bool
	modelPath string
	version   uint64
	// failOnPath makes infer answer 500 while the replica serves this
	// checkpoint path — the "bad canary generation" injection.
	failOnPath string
	reloads    []string
	// probeTimes records when each ping arrived (heartbeat scheduling tests).
	probeTimes []time.Time

	// down makes the replica hang up on a ping without answering — a
	// reachable process that is not healthy, the flapping-replica injection.
	down atomic.Bool
	// inferTime is how long an infer takes, in nanoseconds (0: answer at once).
	inferTime atomic.Int64
}

func newFakeReplica(t *testing.T, modelPath string) *fakeReplica {
	t.Helper()
	f := &fakeReplica{modelPath: modelPath, version: 1, ln: peerListener(t)}
	f.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var body struct {
			Path string `json:"path"`
		}
		json.NewDecoder(r.Body).Decode(&body)
		f.mu.Lock()
		f.modelPath = body.Path
		f.version++
		f.reloads = append(f.reloads, body.Path)
		f.mu.Unlock()
	}))
	go func() {
		for {
			conn, err := f.ln.Accept()
			if err != nil {
				return
			}
			f.mu.Lock()
			if f.killed { // accepted while kill ran
				conn.Close()
			} else {
				f.conns = append(f.conns, conn)
				go f.serveFleetConn(conn)
			}
			f.mu.Unlock()
		}
	}()
	t.Cleanup(f.kill)
	return f
}

// serveFleetConn answers one fleet connection's frames in arrival order.
func (f *fakeReplica) serveFleetConn(conn net.Conn) {
	defer conn.Close()
	for {
		typ, payload, err := frame.Read(conn)
		if err != nil {
			return
		}
		f.mu.Lock()
		st := serve.FleetStatus{MaxBatch: 8, ModelVersion: f.version, ModelPath: f.modelPath}
		bad := f.failOnPath != "" && f.modelPath == f.failOnPath
		if typ == serve.FleetPing {
			f.probeTimes = append(f.probeTimes, time.Now())
		}
		f.mu.Unlock()
		switch {
		case typ == serve.FleetPing && !f.down.Load():
			pong, _ := json.Marshal(st)
			err = frame.Write(conn, serve.FleetPong, pong)
		case typ == serve.FleetMux:
			time.Sleep(time.Duration(f.inferTime.Load()))
			res := serve.FleetResponse{Code: http.StatusOK}
			res.Body, _ = json.Marshal(serve.InferResponse{Pred: 1, ModelVersion: st.ModelVersion, T: 6, StepsRun: 3, BatchSize: 1})
			if bad {
				res = serve.FleetResponse{Code: http.StatusInternalServerError, Body: json.RawMessage(`{"error":"injected failure"}`)}
			}
			corr, _, _, _ := frame.DecodeCorr(payload)
			buf, _ := json.Marshal(res)
			err = frame.Write(conn, serve.FleetMux, frame.EncodeCorr(corr, serve.FleetResult, buf))
		default: // a ping while down, or a frame the fake does not speak: hang up
			return
		}
		if err != nil {
			return
		}
	}
}

// kill closes the listeners and every open connection: kill -9, as far as the
// router can tell.
func (f *fakeReplica) kill() {
	f.mu.Lock()
	f.killed = true
	for _, c := range f.conns {
		c.Close()
	}
	f.mu.Unlock()
	f.ln.Close()
	f.srv.Close()
}

func (f *fakeReplica) url() string { return f.srv.URL }

func (f *fakeReplica) spec() BackendSpec {
	return BackendSpec{URL: f.srv.URL, FleetAddr: f.ln.Addr().String()}
}

func (f *fakeReplica) setFailOnPath(p string) {
	f.mu.Lock()
	f.failOnPath = p
	f.mu.Unlock()
}

func (f *fakeReplica) reloadHistory() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.reloads...)
}

func (f *fakeReplica) path() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.modelPath
}

func (f *fakeReplica) probes() []time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]time.Time(nil), f.probeTimes...)
}

func newTestRouter(t *testing.T, cfg Config) (*Router, *httptest.Server) {
	t.Helper()
	rt, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	hs := httptest.NewServer(rt.Handler())
	t.Cleanup(func() {
		hs.Close()
		rt.Close()
	})
	return rt, hs
}

// routeOnce posts one request through the router and returns (code, backend
// id from the X-Skipper-Backend header).
func routeOnce(t *testing.T, client *http.Client, base, session, class string) (int, string) {
	t.Helper()
	code, backend, err := routeQuiet(client, base, session, class)
	if err != nil {
		t.Fatalf("POST /v1/infer: %v", err)
	}
	return code, backend
}

// routeQuiet is routeOnce without the test dependency, safe from soak
// goroutines (t.Fatalf is only legal on the test goroutine).
func routeQuiet(client *http.Client, base, session, class string) (int, string, error) {
	body, _ := json.Marshal(map[string]any{
		"input":   []float32{0.1, 0.2, 0.3, 0.4},
		"session": session,
		"class":   class,
	})
	resp, err := client.Post(base+"/v1/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	var sink json.RawMessage
	json.NewDecoder(resp.Body).Decode(&sink)
	return resp.StatusCode, resp.Header.Get("X-Skipper-Backend"), nil
}

// TestRouterKillReplicaMidSoak is the headline fault test: three replicas, a
// steady soak of session-keyed traffic, one replica killed mid-soak. The
// properties pinned:
//
//  1. no client-visible failure — sessions on the dead replica fail over to
//     their ring successor inside the same request;
//  2. sessions that were NOT on the dead replica keep their backend (only
//     vacated arcs remap);
//  3. the ring converges (dead replica out) within the heartbeat window.
func TestRouterKillReplicaMidSoak(t *testing.T) {
	replicas := []*fakeReplica{
		newFakeReplica(t, "/ckpt/a"),
		newFakeReplica(t, "/ckpt/b"),
		newFakeReplica(t, "/ckpt/c"),
	}
	specs := make([]BackendSpec, len(replicas))
	for i, f := range replicas {
		specs[i] = f.spec()
	}
	const hb = 25 * time.Millisecond
	rt, hs := newTestRouter(t, Config{
		Backends:          specs,
		HeartbeatInterval: hb,
		DeadAfter:         2,
	})
	client := hs.Client()

	// Map every session to its steady-state backend first.
	const sessions = 48
	before := map[string]string{}
	for i := 0; i < sessions; i++ {
		s := fmt.Sprintf("soak-%d", i)
		code, backend := routeOnce(t, client, hs.URL, s, "")
		if code != http.StatusOK {
			t.Fatalf("warmup session %s: code %d", s, code)
		}
		before[s] = backend
	}

	// Soak: every session keeps issuing requests while replica 1 dies.
	victim := replicas[1]
	victimID := victim.url()
	var failures atomic.Int64
	stopSoak := make(chan struct{})
	var soakWG sync.WaitGroup
	for i := 0; i < 8; i++ {
		soakWG.Add(1)
		go func(worker int) {
			defer soakWG.Done()
			for n := 0; ; n++ {
				select {
				case <-stopSoak:
					return
				default:
				}
				s := fmt.Sprintf("soak-%d", (worker*17+n)%sessions)
				code, _, err := routeQuiet(client, hs.URL, s, "")
				if err != nil || code != http.StatusOK {
					failures.Add(1)
				}
			}
		}(i)
	}

	time.Sleep(4 * hb)
	victim.kill()

	// The ring must drop the victim within the heartbeat window:
	// DeadAfter·interval of missed beats plus one reconcile pass (transport
	// failures on the data path fast-track it, but the bound must hold even
	// with no traffic).
	deadline := time.Now().Add(time.Duration(rt.cfg.DeadAfter+3) * hb * 2)
	for {
		rt.mu.RLock()
		gone := !rt.ring.Has(victimID)
		rt.mu.RUnlock()
		if gone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("ring still contains the killed replica after the heartbeat window")
		}
		time.Sleep(hb / 4)
	}

	time.Sleep(4 * hb)
	close(stopSoak)
	soakWG.Wait()

	if n := failures.Load(); n != 0 {
		t.Fatalf("%d client-visible failures during the kill; failover should absorb all of them", n)
	}

	// Sessions that were on survivors keep their backend; sessions that were
	// on the victim land on a consistent survivor.
	for s, was := range before {
		code, now := routeOnce(t, client, hs.URL, s, "")
		if code != http.StatusOK {
			t.Fatalf("session %s after kill: code %d", s, code)
		}
		if was != victimID && now != was {
			t.Fatalf("session %s moved %s -> %s although its replica survived", s, was, now)
		}
		if was == victimID && now == victimID {
			t.Fatalf("session %s still routed to the dead replica", s)
		}
	}
	if rt.metrics.requests.With("200").Value() == 0 {
		t.Fatal("metrics recorded no 200s")
	}
}

// TestRouterCanaryRollbackOnElevated5xx pins the registry's safety property:
// a canary generation that returns elevated 5xx is rolled back — the canary
// backend is restored to its previous checkpoint — and is never promoted to
// the stable replicas.
func TestRouterCanaryRollbackOnElevated5xx(t *testing.T) {
	replicas := []*fakeReplica{
		newFakeReplica(t, "/ckpt/base"),
		newFakeReplica(t, "/ckpt/base"),
		newFakeReplica(t, "/ckpt/base"),
	}
	specs := make([]BackendSpec, len(replicas))
	for i, f := range replicas {
		specs[i] = f.spec()
		f.setFailOnPath("/ckpt/bad") // serving the bad generation → 500s
	}
	const hb = 20 * time.Millisecond
	rt, hs := newTestRouter(t, Config{
		Backends:          specs,
		HeartbeatInterval: hb,
		CanaryMinRequests: 1 << 30, // promotion unreachable; only rollback can end the run
	})
	client := hs.Client()

	if err := rt.StartCanary("/ckpt/bad", 0.5); err != nil {
		t.Fatalf("StartCanary: %v", err)
	}
	canaryID, _ := rt.registry.active()
	if canaryID == "" {
		t.Fatal("no active canary after StartCanary")
	}

	// Drive traffic across many sessions until the registry rolls back.
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; ; i++ {
		routeOnce(t, client, hs.URL, fmt.Sprintf("cs-%d", i%256), "")
		if _, rollbacks := rt.registry.counts(); rollbacks == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("canary not rolled back; status %+v", rt.registry.status())
		}
	}

	promotions, rollbacks := rt.registry.counts()
	if promotions != 0 || rollbacks != 1 {
		t.Fatalf("promotions=%d rollbacks=%d, want 0/1", promotions, rollbacks)
	}
	// The canary backend was restored; no stable replica ever saw the bad path.
	for i, f := range replicas {
		if f.url() == canaryID {
			if got := f.path(); got != "/ckpt/base" {
				t.Fatalf("canary backend serves %q after rollback, want /ckpt/base", got)
			}
			continue
		}
		for _, p := range f.reloadHistory() {
			if p == "/ckpt/bad" {
				t.Fatalf("stable replica %d was reloaded to the bad canary path", i)
			}
		}
	}
	// The canary backend rejoins the ring and the fleet settles: everything 200.
	waitRingSize(t, rt, 3, 2*time.Second)
	for i := 0; i < 32; i++ {
		if code, _ := routeOnce(t, client, hs.URL, fmt.Sprintf("cs-%d", i), ""); code != http.StatusOK {
			t.Fatalf("post-rollback request %d: code %d", i, code)
		}
	}
}

// TestRouterCanaryPromote drives a healthy canary to promotion: every stable
// replica reloads to the canary checkpoint, the canary backend rejoins the
// ring, and no request fails across the whole swap.
func TestRouterCanaryPromote(t *testing.T) {
	replicas := []*fakeReplica{
		newFakeReplica(t, "/ckpt/base"),
		newFakeReplica(t, "/ckpt/base"),
		newFakeReplica(t, "/ckpt/base"),
	}
	specs := make([]BackendSpec, len(replicas))
	for i, f := range replicas {
		specs[i] = f.spec()
		// Long enough that the registry's p99 gate compares inference times,
		// not the scheduler's jitter around an instant answer.
		f.inferTime.Store(int64(5 * time.Millisecond))
	}
	const hb = 20 * time.Millisecond
	rt, hs := newTestRouter(t, Config{
		Backends:          specs,
		HeartbeatInterval: hb,
		CanaryMinRequests: 24,
	})
	client := hs.Client()

	if err := rt.StartCanary("/ckpt/v2", 0.5); err != nil {
		t.Fatalf("StartCanary: %v", err)
	}
	var failed atomic.Int64
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; ; i++ {
		code, _ := routeOnce(t, client, hs.URL, fmt.Sprintf("ps-%d", i%128), "")
		if code != http.StatusOK {
			failed.Add(1)
		}
		if promotions, _ := rt.registry.counts(); promotions == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("canary not promoted; status %+v", rt.registry.status())
		}
	}
	if n := failed.Load(); n != 0 {
		t.Fatalf("%d failed requests across the canary swap, want 0", n)
	}
	promotions, rollbacks := rt.registry.counts()
	if promotions != 1 || rollbacks != 0 {
		t.Fatalf("promotions=%d rollbacks=%d, want 1/0", promotions, rollbacks)
	}
	for i, f := range replicas {
		if got := f.path(); got != "/ckpt/v2" {
			t.Fatalf("replica %d serves %q after promote, want /ckpt/v2", i, got)
		}
	}
	waitRingSize(t, rt, 3, 2*time.Second)
}

// TestRouterShedsByClass pins the tier ordering end to end: a rate-capped
// class sheds with 429 + Retry-After + a labeled shed counter while an
// uncapped class keeps flowing.
func TestRouterShedsByClass(t *testing.T) {
	f := newFakeReplica(t, "/ckpt/base")
	rt, hs := newTestRouter(t, Config{
		Backends:          []BackendSpec{f.spec()},
		HeartbeatInterval: 50 * time.Millisecond,
		Classes: []ClassConfig{
			{Name: "interactive", Tier: 0, BudgetMS: 250},
			{Name: "bulk", Tier: 2, RatePerSec: 0.001, Burst: 1, FullHorizon: true},
		},
		DefaultClass: "interactive",
	})
	client := hs.Client()

	if code, _ := routeOnce(t, client, hs.URL, "s1", "bulk"); code != http.StatusOK {
		t.Fatalf("first bulk request: code %d, want 200", code)
	}
	// Bucket empty (burst 1, refill ~0): the next bulk request sheds.
	body, _ := json.Marshal(map[string]any{"input": []float32{0.1}, "session": "s1", "class": "bulk"})
	resp, err := client.Post(hs.URL+"/v1/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second bulk request: code %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed 429 carries no Retry-After header")
	}
	if got := rt.metrics.shed.With("bulk", shedReasonRate).Value(); got != 1 {
		t.Fatalf("shed{bulk, rate_limit} = %d, want 1", got)
	}
	// Interactive traffic is unaffected.
	for i := 0; i < 4; i++ {
		if code, _ := routeOnce(t, client, hs.URL, "s2", "interactive"); code != http.StatusOK {
			t.Fatalf("interactive request %d: code %d", i, code)
		}
	}
	if got := rt.metrics.shed.With("interactive", shedReasonRate).Value(); got != 0 {
		t.Fatalf("interactive was rate-shed %d times", got)
	}
}

// TestHungReplicaLeavesRingWithinHeartbeats pins the probe deadline: a replica
// that accepts TCP but never answers (SIGSTOP, a wedged process, a black-holed
// host) costs each heartbeat pass one interval, not one RequestTimeout — it is
// dead after DeadAfter intervals, New does not wait out the data-plane timeout
// on it, and the healthy replica keeps being probed meanwhile.
func TestHungReplicaLeavesRingWithinHeartbeats(t *testing.T) {
	healthy := newFakeReplica(t, "/ckpt/a")
	hung := peerListener(t) // never Accepts: the kernel completes the handshake and nothing reads
	defer hung.Close()
	hungID := "http://" + hung.Addr().String()
	const hb, deadAfter = 20 * time.Millisecond, 2
	start := time.Now()
	rt, err := New(Config{
		Backends:          []BackendSpec{healthy.spec(), {URL: hungID, FleetAddr: hung.Addr().String()}},
		HeartbeatInterval: hb,
		DeadAfter:         deadAfter,
		RequestTimeout:    3 * time.Second,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer rt.Close()
	if d := time.Since(start); d > 10*hb {
		t.Fatalf("New blocked %v on the hung replica; its warm-up probe must give up after one %v interval", d, hb)
	}
	waitFor(t, 10*deadAfter*hb, "the hung replica to be declared dead", func() bool {
		return rt.backends[hungID].State() == StateDead
	})
	if !ringHas(rt, healthy.url()) || ringHas(rt, hungID) {
		t.Fatal("ring should hold exactly the healthy replica")
	}
	seen := len(healthy.probes())
	waitFor(t, 20*hb, "three more probes of the healthy replica", func() bool {
		return len(healthy.probes()) >= seen+3
	})
}

func waitRingSize(t *testing.T, rt *Router, want int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		rt.mu.RLock()
		n := rt.ring.Len()
		rt.mu.RUnlock()
		if n == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("ring size %d, want %d", n, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// A non-zero JitterSeed makes the heartbeat-jitter schedule reproducible:
// two routers configured identically draw identical probe intervals, and a
// different seed draws a different schedule. (With the old wall-clock-only
// seeding this was untestable.)
func TestJitterSeedDeterministic(t *testing.T) {
	f := newFakeReplica(t, "/ckpt/a")
	if _, err := New(Config{Backends: []BackendSpec{{URL: f.url()}}}); err == nil || !strings.Contains(err.Error(), f.url()) {
		t.Fatalf("New with a backend that has no FleetAddr: error %v, want one naming %s", err, f.url())
	}
	sequence := func(seed int64) []time.Duration {
		rt, _ := newTestRouter(t, Config{
			Backends:          []BackendSpec{f.spec()},
			HeartbeatInterval: time.Hour, // keep the background loop quiet
			HeartbeatJitter:   0.3,
			JitterSeed:        seed,
		})
		out := make([]time.Duration, 16)
		rt.mu.Lock()
		for i := range out {
			out[i] = rt.jitteredIntervalLocked()
		}
		rt.mu.Unlock()
		return out
	}
	a, b := sequence(42), sequence(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := sequence(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced an identical jitter schedule")
	}
}
