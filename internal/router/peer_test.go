package router

import (
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"skipper/internal/frame"
	"skipper/internal/serve"
)

// peerListener opens a loopback peer-channel listener for one test router.
func peerListener(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("peer listener: %v", err)
	}
	return ln
}

// deadAddr returns a loopback address that refuses connections — the phantom
// third router that pads the quorum denominator without ever voting.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln := peerListener(t)
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func ringHas(rt *Router, id string) bool {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.ring.Has(id)
}

// TestHeartbeatStaggerDecorrelates pins the probe scheduler's spreading: per
// -backend jittered intervals plus the startup stagger keep the probes of
// different replicas from arriving in lockstep rounds. The pre-jitter
// scheduler probed every backend in the same pass, so all probe timestamps
// aligned within a millisecond; now most of them must not.
func TestHeartbeatStaggerDecorrelates(t *testing.T) {
	replicas := []*fakeReplica{
		newFakeReplica(t, "/ckpt/a"),
		newFakeReplica(t, "/ckpt/b"),
		newFakeReplica(t, "/ckpt/c"),
	}
	specs := make([]BackendSpec, len(replicas))
	for i, f := range replicas {
		specs[i] = f.spec()
	}
	const hb = 60 * time.Millisecond
	rt, err := New(Config{Backends: specs, HeartbeatInterval: hb, DeadAfter: 3})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer rt.Close()

	time.Sleep(10 * hb)

	// Drop each replica's first probe — the synchronous warm-up pass probes
	// everything at once by design.
	times := make([][]time.Time, len(replicas))
	for i, f := range replicas {
		ts := f.probes()
		if len(ts) < 6 {
			t.Fatalf("replica %d saw only %d probes over 10 intervals", i, len(ts))
		}
		times[i] = ts[1:]
	}

	// Count probe pairs across replicas that landed inside the same tight
	// window. Lockstep scheduling aligns essentially all of them.
	aligned, total := 0, 0
	window := hb / 8
	for a := 0; a < len(times); a++ {
		for b := a + 1; b < len(times); b++ {
			for _, ta := range times[a] {
				nearest := time.Duration(1 << 62)
				for _, tb := range times[b] {
					d := ta.Sub(tb)
					if d < 0 {
						d = -d
					}
					if d < nearest {
						nearest = d
					}
				}
				total++
				if nearest < window {
					aligned++
				}
			}
		}
	}
	if total == 0 {
		t.Fatal("no probe pairs compared")
	}
	if aligned*2 >= total {
		t.Fatalf("%d/%d probe pairs aligned within %v; heartbeats are still in lockstep", aligned, total, window)
	}
}

// TestFlapDampingBoundsChurn pins the recovery backoff: a replica that flaps
// (dies and recovers repeatedly) is held out of the ring on an exponentially
// growing hold-down, so ring churn stays bounded instead of remapping arcs on
// every flap — and the stable replica never loses its arcs.
func TestFlapDampingBoundsChurn(t *testing.T) {
	stable := newFakeReplica(t, "/ckpt/a")
	flapper := newFakeReplica(t, "/ckpt/b")
	const hb = 10 * time.Millisecond
	rt, err := New(Config{
		Backends:          []BackendSpec{stable.spec(), flapper.spec()},
		HeartbeatInterval: hb,
		DeadAfter:         1,
		ReadmitBackoffMax: 400 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer rt.Close()
	waitFor(t, 2*time.Second, "both replicas ringed", func() bool {
		return ringHas(rt, stable.url()) && ringHas(rt, flapper.url())
	})

	base := rt.metrics.remaps.Value()
	// Flap hard: the replica toggles health every 1.5 heartbeats for 90
	// intervals. Undamped, nearly every down-phase is a death and every
	// up-phase a re-admission — ~60 remaps. The exponential hold-down
	// (10, 20, 40, ... 400ms) admits only a handful of cycles.
	for i := 0; i < 60; i++ {
		flapper.down.Store(i%2 == 0)
		time.Sleep(hb * 3 / 2)
	}
	flapper.down.Store(false)
	churn := rt.metrics.remaps.Value() - base
	if churn > 24 {
		t.Fatalf("ring remapped %d times across the flap storm; damping should bound churn well under the ~60 undamped remaps", churn)
	}
	if churn == 0 {
		t.Fatal("no remaps at all — the flapping replica was never detected")
	}
	if !ringHas(rt, stable.url()) {
		t.Fatal("the stable replica lost its ring arcs during the neighbor's flap storm")
	}

	// Once the replica is genuinely healthy again it re-admits after the
	// final hold-down elapses.
	waitFor(t, 2*time.Second, "flapping replica re-admitted", func() bool {
		return ringHas(rt, flapper.url())
	})
}

// TestCanaryHistoryBounded pins the audit-log ring buffer: the /v1/fleet
// event history never grows past historyCap and keeps the newest events.
func TestCanaryHistoryBounded(t *testing.T) {
	r := newRegistry(1, "self")
	for i := 0; i < 3*historyCap; i++ {
		r.note("promote_failed", fmt.Sprintf("/ckpt/v%d", i), "test")
	}
	st := r.status()
	if len(st.History) != historyCap {
		t.Fatalf("history length %d, want exactly %d", len(st.History), historyCap)
	}
	last := st.History[len(st.History)-1]
	if want := fmt.Sprintf("/ckpt/v%d", 3*historyCap-1); last.Path != want {
		t.Fatalf("newest event path %q, want %q (ring buffer must keep the tail)", last.Path, want)
	}
	if first := st.History[0].Path; first != fmt.Sprintf("/ckpt/v%d", 2*historyCap) {
		t.Fatalf("oldest retained event is %q; the buffer did not slide", first)
	}
}

// TestRegistryAdoptConverges pins the replication tie-break: higher version
// wins, equal versions converge on the lexically lower mutator, and a fresh
// (restarted) registry adopts a peer's history wholesale.
func TestRegistryAdoptConverges(t *testing.T) {
	ra := newRegistry(1, "a")
	rb := newRegistry(1, "b")
	ra.note("started", "/ckpt/x", "on a")
	rb.note("started", "/ckpt/y", "on b")

	// Same version, different mutators: b adopts a's state, a refuses b's.
	if !rb.adopt(ra.state()) {
		t.Fatal("b should adopt a's state (lexically lower mutator wins the version tie)")
	}
	if ra.adopt(rb.state()) {
		t.Fatal("a must not adopt b's state after b converged to a (identical version+mutator)")
	}
	if got := rb.status().History[0].Path; got != "/ckpt/x" {
		t.Fatalf("b's history head is %q after adoption, want a's /ckpt/x", got)
	}

	// A later local mutation on b outranks a's state everywhere.
	rb.note("promoted", "/ckpt/x", "op")
	if !ra.adopt(rb.state()) {
		t.Fatal("a should adopt b's higher-version state")
	}

	// A restarted router (version 0) pulls the full history from any peer.
	fresh := newRegistry(1, "c")
	if !fresh.adopt(ra.state()) {
		t.Fatal("fresh registry should adopt any non-zero peer state")
	}
	if n := len(fresh.status().History); n != 2 {
		t.Fatalf("fresh registry has %d events after adoption, want 2", n)
	}
}

// TestSuspicionQuorum pins the vote book: majority arithmetic, stale-peer
// vote expiry, and single-router collapse.
func TestSuspicionQuorum(t *testing.T) {
	clock := time.Unix(1000, 0)
	now := func() time.Time { return clock }
	s := newSuspicion(3, 50*time.Millisecond, now)
	if s.majority() != 2 {
		t.Fatalf("majority of 3 = %d, want 2", s.majority())
	}
	if !s.suspect("x") || s.suspect("x") {
		t.Fatal("suspect should report a new vote exactly once")
	}
	if s.confirmed("x") {
		t.Fatal("one vote of three must not confirm")
	}
	s.record("peer1", []string{"x"})
	if !s.confirmed("x") {
		t.Fatal("two of three votes should confirm")
	}
	// The peer goes quiet: its vote expires, the denominator does not shrink.
	clock = clock.Add(60 * time.Millisecond)
	if s.confirmed("x") {
		t.Fatal("a stale peer's vote must stop counting")
	}
	s.record("peer1", []string{"x"})
	if !s.confirmed("x") {
		t.Fatal("a re-synced peer's vote counts again")
	}
	if !s.clear("x") || s.clear("x") {
		t.Fatal("clear should report a withdrawn vote exactly once")
	}
	if s.confirmed("x") {
		t.Fatal("one peer vote of three must not confirm after the local clear")
	}

	single := newSuspicion(1, 0, now)
	single.suspect("y")
	if !single.confirmed("y") {
		t.Fatal("single-router cluster: local suspicion must be immediate death (majority 1)")
	}
}

// TestPeerSyncReplicatesState is the tentpole's convergence test: two peered
// routers, a canary started and promoted through router A, and every piece of
// replicated state — canary events, counters, admission config — shows up on
// router B; then a freshly restarted router adopts the full history from the
// surviving peer, so promote/rollback events outlive any single router.
func TestPeerSyncReplicatesState(t *testing.T) {
	replicas := []*fakeReplica{
		newFakeReplica(t, "/ckpt/base"),
		newFakeReplica(t, "/ckpt/base"),
		newFakeReplica(t, "/ckpt/base"),
	}
	specs := make([]BackendSpec, len(replicas))
	for i, f := range replicas {
		specs[i] = f.spec()
	}
	lnA, lnB := peerListener(t), peerListener(t)
	addrA, addrB := lnA.Addr().String(), lnB.Addr().String()
	const hb = 25 * time.Millisecond
	mk := func(ln net.Listener, peers ...string) *Router {
		rt, err := New(Config{
			Backends:          specs,
			HeartbeatInterval: hb,
			DeadAfter:         2,
			SyncInterval:      10 * time.Millisecond,
			PeerListener:      ln,
			Peers:             peers,
			CanaryMinRequests: 1 << 30, // operator-driven lifecycle only
		})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		return rt
	}
	a := mk(lnA, addrB)
	b := mk(lnB, addrA)
	defer b.Close()

	if err := a.StartCanary("/ckpt/v2", 0.25); err != nil {
		t.Fatalf("StartCanary: %v", err)
	}
	canaryID, _ := a.registry.active()

	// The run replicates: B adopts it and pulls the canary backend out of its
	// own ring, so both routers steer the identical cohort.
	waitFor(t, 2*time.Second, "B adopts the canary run", func() bool {
		id, _ := b.registry.active()
		return id == canaryID && !ringHas(b, canaryID)
	})

	if err := a.Promote("operator request"); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	waitFor(t, 2*time.Second, "B converges on the promotion", func() bool {
		promotions, _ := b.registry.counts()
		id, _ := b.registry.active()
		return promotions == 1 && id == ""
	})
	hist := b.registry.status().History
	if len(hist) < 2 || hist[len(hist)-1].Action != "promoted" || hist[0].Action != "started" {
		t.Fatalf("B's replicated history is wrong: %+v", hist)
	}
	waitFor(t, 2*time.Second, "B re-rings the promoted ex-canary", func() bool {
		return ringHas(b, canaryID)
	})

	// Admission config replicates the same way.
	if err := a.SetClasses([]ClassConfig{
		{Name: "gold", Tier: 0, BudgetMS: 100},
		{Name: "bronze", Tier: 2, FullHorizon: true},
	}, "gold"); err != nil {
		t.Fatalf("SetClasses: %v", err)
	}
	waitFor(t, 2*time.Second, "B adopts the admission config", func() bool {
		st := b.admission.state()
		return st.DefaultClass == "gold" && len(st.Classes) == 2
	})

	// Restart A: the replacement starts from nothing and recovers the whole
	// audit history and config from B's ack in the very first sync.
	a.Close()
	a2 := mk(peerListener(t), addrB)
	defer a2.Close()
	waitFor(t, 2*time.Second, "restarted router recovers state from its peer", func() bool {
		promotions, _ := a2.registry.counts()
		st := a2.admission.state()
		return promotions == 1 && st.DefaultClass == "gold"
	})
	hist = a2.registry.status().History
	if len(hist) < 2 || hist[len(hist)-1].Action != "promoted" {
		t.Fatalf("restarted router's recovered history is wrong: %+v", hist)
	}
}

// flakyLink relays fleet frames to target until cut is set, then hangs up on
// every frame and new connection — one router's broken link to a healthy
// replica. It returns the address to dial in the target's place.
func flakyLink(t *testing.T, target string, cut *atomic.Bool) string {
	ln := peerListener(t)
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			down, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer down.Close()
				up, err := net.Dial("tcp", target)
				if err != nil {
					return
				}
				defer up.Close()
				go io.Copy(down, up)
				for {
					typ, payload, err := frame.Read(down)
					if err != nil || cut.Load() || frame.Write(up, typ, payload) != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestQuorumOutvotesSingleRouter pins the failure detector's core promise: a
// backend one router cannot reach stays alive while the rest of the quorum
// still reaches it, and dies on both routers once a majority agrees.
func TestQuorumOutvotesSingleRouter(t *testing.T) {
	x := newFakeReplica(t, "/ckpt/a")
	y := newFakeReplica(t, "/ckpt/b")
	specs := []BackendSpec{x.spec(), y.spec()}

	lnA, lnB := peerListener(t), peerListener(t)
	addrA, addrB := lnA.Addr().String(), lnB.Addr().String()
	phantom := deadAddr(t) // pads the cluster to 3; majority 2

	failX := &atomic.Bool{}
	const hb = 20 * time.Millisecond
	a, err := New(Config{
		Backends:          []BackendSpec{{URL: x.url(), FleetAddr: flakyLink(t, specs[0].FleetAddr, failX)}, specs[1]},
		HeartbeatInterval: hb,
		DeadAfter:         1,
		SyncInterval:      10 * time.Millisecond,
		PeerListener:      lnA,
		Peers:             []string{addrB, phantom},
	})
	if err != nil {
		t.Fatalf("New(a): %v", err)
	}
	defer a.Close()
	b, err := New(Config{
		Backends:          specs,
		HeartbeatInterval: hb,
		DeadAfter:         1,
		SyncInterval:      10 * time.Millisecond,
		PeerListener:      lnB,
		Peers:             []string{addrA, phantom},
	})
	if err != nil {
		t.Fatalf("New(b): %v", err)
	}
	defer b.Close()
	waitFor(t, 2*time.Second, "both routers ring both replicas", func() bool {
		return ringHas(a, x.url()) && ringHas(b, x.url()) && ringHas(a, y.url()) && ringHas(b, y.url())
	})

	// Router A loses its link to replica X. A suspects, but its single vote
	// is short of the majority of 2 — X keeps its arcs on BOTH routers.
	failX.Store(true)
	waitFor(t, 2*time.Second, "A casts its local suspicion vote", func() bool {
		return a.susp.selfSuspects(x.url())
	})
	time.Sleep(6 * hb) // plenty of failed probes and gossip rounds
	if !ringHas(a, x.url()) || !ringHas(b, x.url()) {
		t.Fatal("a single router's suspicion evicted a backend the quorum still reaches")
	}
	if got := a.backends[x.url()].State(); got == StateDead {
		t.Fatal("A declared X dead on one vote of three")
	}

	// Now X really dies: B's vote joins A's, quorum is reached, and both
	// routers converge on the death.
	x.kill()
	waitFor(t, 3*time.Second, "quorum kills X on both routers", func() bool {
		return !ringHas(a, x.url()) && !ringHas(b, x.url()) &&
			a.backends[x.url()].State() == StateDead && b.backends[x.url()].State() == StateDead
	})
	if !ringHas(a, y.url()) || !ringHas(b, y.url()) {
		t.Fatal("the surviving replica lost its arcs during the quorum kill")
	}
}

// TestDrainAnnounceVacatesImmediately pins the backend-initiated handoff: a
// replica's shutdown announcement pulls it out of the announced router's ring
// synchronously (zero missed-heartbeat window), relays to the peer router
// through gossip, and the latch survives later heartbeat pongs that still
// report draining=false.
func TestDrainAnnounceVacatesImmediately(t *testing.T) {
	replicas := []*fakeReplica{
		newFakeReplica(t, "/ckpt/a"),
		newFakeReplica(t, "/ckpt/b"),
		newFakeReplica(t, "/ckpt/c"),
	}
	specs := make([]BackendSpec, len(replicas))
	for i, f := range replicas {
		specs[i] = f.spec()
	}
	lnA, lnB := peerListener(t), peerListener(t)
	addrA, addrB := lnA.Addr().String(), lnB.Addr().String()
	const hb = 40 * time.Millisecond
	mk := func(ln net.Listener, peer string) *Router {
		rt, err := New(Config{
			Backends:          specs,
			HeartbeatInterval: hb,
			DeadAfter:         2,
			SyncInterval:      10 * time.Millisecond,
			PeerListener:      ln,
			Peers:             []string{peer},
		})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		return rt
	}
	a := mk(lnA, addrB)
	defer a.Close()
	b := mk(lnB, addrA)
	defer b.Close()
	victim := replicas[1].url()
	waitFor(t, 2*time.Second, "both routers ring all replicas", func() bool {
		return ringHas(a, victim) && ringHas(b, victim)
	})

	// The replica announces its shutdown to router A only.
	if acked := serve.AnnounceDrain([]string{addrA}, victim, 2*time.Second); acked != 1 {
		t.Fatalf("AnnounceDrain acked by %d routers, want 1", acked)
	}
	// A processed the announcement before acking: its arcs are already gone.
	if ringHas(a, victim) {
		t.Fatal("announced replica still owns ring arcs on the announced router after the ack")
	}
	if got := a.metrics.drainAnnounces.Value(); got != 1 {
		t.Fatalf("drain announce counter = %d, want 1", got)
	}
	// The peer router learns through gossip, not through its own heartbeat.
	waitFor(t, 2*time.Second, "drain relays to the peer router", func() bool {
		return !ringHas(b, victim)
	})

	// Sticky: the replica has not actually flipped its drain flag (the
	// announce races the real drain in production), so heartbeat pongs keep
	// reporting draining=false. The latch must win.
	time.Sleep(4 * hb)
	if ringHas(a, victim) || ringHas(b, victim) {
		t.Fatal("a pre-drain heartbeat pong resurrected an announced-draining replica")
	}
	for _, rt := range []*Router{a, b} {
		if got := rt.backends[victim].State(); got != StateDraining {
			t.Fatalf("announced replica state %v, want draining", got)
		}
	}

	// The other replicas keep their arcs and traffic keeps flowing.
	if !ringHas(a, replicas[0].url()) || !ringHas(a, replicas[2].url()) {
		t.Fatal("drain handoff disturbed the surviving replicas' arcs")
	}
}
