package router

import (
	"bytes"
	"os"
	"sync"
	"testing"
	"time"
)

// TestMetricsGolden renders the router page from a fixed script of
// observations, with the values read at render stubbed, and compares it
// byte for byte with testdata/metrics.prom. The shed family's series sort
// by "class|reason", so "bulk2" renders before "bulk".
func TestMetricsGolden(t *testing.T) {
	m := newMetrics(
		func() map[string]int { return map[string]int{"alive": 2, "dead": 1} },
		func() int { return 2 },
		func() CanaryStatus { return CanaryStatus{Active: true, Promotions: 3, Rollbacks: 1} },
		func() []classGauge { return []classGauge{{"interactive", 0.1, 3.0625}, {"bulk", 0.25, 1234567.5}} })
	for _, r := range []struct {
		code string
		s    float64
	}{{"200", 0.003}, {"503", 0.0005}, {"200", 0.0041}, {"429", 0.0001}, {"200", 40}} {
		m.requests.With(r.code).Inc()
		m.latency.Observe(r.s)
	}
	m.rtt.Observe(0.002)
	m.rtt.Observe(0.0005)
	m.rtt.Observe(1.0 / 3)
	for _, s := range [][2]string{{"bulk", shedReasonRate}, {"bulk2", shedReasonRate}, {"bulk", shedReasonCapacity},
		{"interactive", shedReasonNoFleet}, {"bulk", shedReasonRate}} {
		m.shed.With(s[0], s[1]).Inc()
	}
	m.failovers.Inc()
	m.remaps.Add(4)
	m.deaths.Inc()
	m.peerSyncs.Add(2)
	m.peerSyncFailures.Inc()
	m.drainAnnounces.Inc()
	m.sessionsMigrated.Add(2)
	m.migrationFailures.Inc()

	var buf bytes.Buffer
	m.Render(&buf)
	want, err := os.ReadFile("testdata/metrics.prom")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("page differs from testdata/metrics.prom:\n--- got\n%s--- want\n%s", buf.Bytes(), want)
	}
}

// signalWriter closes started on its first write and discards everything.
type signalWriter struct {
	started chan struct{}
	once    sync.Once
}

func (w *signalWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.started) })
	return len(p), nil
}

// A scrape that lands on a backend death must not wedge the router: the
// heartbeat path holds rt.mu while it counts the death and the remap, and
// the page reads rt.mu for the backend and ring gauges.
func TestScrapeDuringBackendDeathDoesNotDeadlock(t *testing.T) {
	f := newFakeReplica(t, "/ckpt/a")
	rt, _ := newTestRouter(t, Config{Backends: []BackendSpec{f.spec()}, HeartbeatInterval: time.Hour})
	b := rt.backends[f.url()]

	rt.mu.Lock()
	w := &signalWriter{started: make(chan struct{})}
	rendered := make(chan struct{})
	go func() {
		rt.metrics.Render(w)
		close(rendered)
	}()
	<-w.started
	killed := make(chan struct{})
	go func() {
		rt.killBackendLocked(b, time.Now())
		close(killed)
	}()
	select {
	case <-killed:
	case <-time.After(2 * time.Second):
		t.Error("killing a backend blocked behind a scrape waiting for rt.mu")
	}
	rt.mu.Unlock()
	<-killed
	<-rendered
}
