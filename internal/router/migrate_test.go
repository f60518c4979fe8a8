package router

import (
	"encoding/json"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"skipper/internal/layers"
	"skipper/internal/models"
	"skipper/internal/serve"
	"skipper/internal/stream"
)

func streamTestBuild() (*layers.Network, error) {
	return models.Build("customnet", models.Options{
		InShape: []int{2, 8, 8},
		Classes: 4,
		Width:   0.25,
	})
}

// fleetReplica is one serve replica with both its HTTP and framed listeners
// up, as the router sees real backends.
type fleetReplica struct {
	srv  *serve.Server
	http *httptest.Server
	ln   net.Listener
}

func startFleetReplica(t *testing.T) *fleetReplica {
	t.Helper()
	s, err := serve.NewServer(serve.Config{Build: streamTestBuild, T: 4}, "")
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	hs := httptest.NewServer(s.Handler())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("fleet listen: %v", err)
	}
	go s.ServeFleet(ln)
	t.Cleanup(func() {
		ln.Close()
		hs.Close()
	})
	return &fleetReplica{srv: s, http: hs, ln: ln}
}

func (r *fleetReplica) spec() BackendSpec {
	return BackendSpec{URL: r.http.URL, FleetAddr: r.ln.Addr().String()}
}

var migGen = stream.GenOptions{
	Seed:            11,
	WindowSteps:     5,
	EventsPerWindow: 8,
	QuietFrac:       0.4,
}

func clientFeed(t *testing.T, c *stream.Client, id string, from, to int) [][]float32 {
	t.Helper()
	var out [][]float32
	for w := from; w < to; w++ {
		rep, err := c.Window(stream.WindowRequest{
			Session: id,
			Seq:     w,
			Steps:   migGen.WindowSteps,
			Events:  stream.GenWindow(migGen, 0, w, 2*8*8),
		})
		if err != nil {
			t.Fatalf("window %d: %v", w, err)
		}
		out = append(out, rep.Logits)
	}
	return out
}

func placeSession(t *testing.T, routerURL, id string) stream.Placement {
	t.Helper()
	resp, err := http.Get(routerURL + "/v1/stream/place?session=" + id)
	if err != nil {
		t.Fatalf("place: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("place: status %d", resp.StatusCode)
	}
	var pl stream.Placement
	if err := json.NewDecoder(resp.Body).Decode(&pl); err != nil {
		t.Fatalf("place decode: %v", err)
	}
	return pl
}

// TestRouterMigratesSessionsOnDrain is the migrate-on-drain acceptance test:
// a replica announces its shutdown, the router pulls its live streaming
// session to the surviving replica over the multiplexed fleet channel, the
// placement endpoint redirects the client there, and the resumed stream's
// predictions are bitwise identical to an uninterrupted run.
func TestRouterMigratesSessionsOnDrain(t *testing.T) {
	const cut, total = 4, 9

	a := startFleetReplica(t)
	b := startFleetReplica(t)

	peerLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("peer listen: %v", err)
	}
	rt, err := New(Config{
		Backends:          []BackendSpec{a.spec(), b.spec()},
		HeartbeatInterval: 40 * time.Millisecond,
		RequestTimeout:    5 * time.Second,
		PeerListener:      peerLn,
		JitterSeed:        1,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(rt.Close)
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)

	// Reference: the uninterrupted stream on a replica outside the fleet.
	ref := startFleetReplica(t)
	if _, serr := ref.srv.Streams().Open(stream.OpenRequest{Session: "s"}); serr != nil {
		t.Fatalf("open ref: %v", serr)
	}
	var want [][]float32
	for w := 0; w < total; w++ {
		rep, serr := ref.srv.Streams().Window(stream.WindowRequest{
			Session: "s", Seq: w, Steps: migGen.WindowSteps,
			Events: stream.GenWindow(migGen, 0, w, 2*8*8),
		})
		if serr != nil {
			t.Fatalf("ref window %d: %v", w, serr)
		}
		want = append(want, rep.Logits)
	}

	// Wait for both backends to join the ring, then open through placement.
	deadline := time.Now().Add(5 * time.Second)
	for {
		rt.mu.RLock()
		n := rt.ring.Len()
		rt.mu.RUnlock()
		if n == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("backends never became alive")
		}
		time.Sleep(10 * time.Millisecond)
	}

	pl := placeSession(t, rts.URL, "s")
	c, err := stream.Dial(pl.FleetAddr, 5*time.Second)
	if err != nil {
		t.Fatalf("dial %s: %v", pl.FleetAddr, err)
	}
	defer c.Close()
	if _, err := c.Open(stream.OpenRequest{Session: "s"}); err != nil {
		t.Fatalf("open: %v", err)
	}
	got := clientFeed(t, c, "s", 0, cut)

	// The placed replica announces its drain; the router must pull the
	// session to the other replica.
	if acked := serve.AnnounceDrain([]string{peerLn.Addr().String()}, pl.URL, 2*time.Second); acked != 1 {
		t.Fatalf("drain announce acked by %d routers, want 1", acked)
	}
	for rt.metrics.sessionsMigrated.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("session never migrated (failures=%d)", rt.metrics.migrationFailures.Value())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The drained replica must refuse the session rather than answer stale.
	if _, err := c.Window(stream.WindowRequest{Session: "s", Seq: cut, Steps: migGen.WindowSteps}); err == nil {
		t.Fatalf("window on the drained replica succeeded after migration")
	}

	pl2 := placeSession(t, rts.URL, "s")
	if pl2.FleetAddr == pl.FleetAddr {
		t.Fatalf("placement still points at the draining replica %s", pl.FleetAddr)
	}
	c2, err := stream.Dial(pl2.FleetAddr, 5*time.Second)
	if err != nil {
		t.Fatalf("dial %s: %v", pl2.FleetAddr, err)
	}
	defer c2.Close()
	open, err := c2.Open(stream.OpenRequest{Session: "s", RequireResume: true})
	if err != nil {
		t.Fatalf("resume at %s: %v", pl2.FleetAddr, err)
	}
	if !open.Resumed || open.Window != cut {
		t.Fatalf("resume landed at window %d (resumed=%v), want %d", open.Window, open.Resumed, cut)
	}
	got = append(got, clientFeed(t, c2, "s", cut, total)...)

	if len(got) != len(want) {
		t.Fatalf("got %d windows, want %d", len(got), len(want))
	}
	for w := range want {
		for i := range want[w] {
			if math.Float32bits(got[w][i]) != math.Float32bits(want[w][i]) {
				t.Fatalf("window %d logit %d differs across migration: %v vs %v", w, i, got[w][i], want[w][i])
			}
		}
	}
	if n := rt.metrics.sessionsMigrated.Value(); n != 1 {
		t.Fatalf("migrated %d sessions, want 1", n)
	}
}
