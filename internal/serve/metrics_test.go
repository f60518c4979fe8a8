package serve

import (
	"bytes"
	"os"
	"testing"

	"skipper/internal/layers"
	"skipper/internal/parallel"
	"skipper/internal/stream"
)

// TestMetricsPageGolden renders the serve page (serve's families, then the
// stream manager's) from a fixed script of observations, with the values
// read at render stubbed, and compares it byte for byte with
// testdata/metrics.prom. The page's names and format are read by scrapers
// (benchmark/scrape.go, scripts/stream_smoke.sh), so any change to it shows
// here first.
func TestMetricsPageGolden(t *testing.T) {
	m := newMetrics(4, 2,
		func() int { return 3 },
		func() uint64 { return 1234567 },
		func() parallel.PoolStats { return parallel.PoolStats{Runs: 2000000, LanesUsed: 3500001} })
	streams, err := stream.NewManager(stream.Config{
		Build:  func() (*layers.Network, error) { return nil, nil },
		Source: func() (*layers.Network, uint64) { return nil, 0 },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer streams.Shutdown()
	streams.Register(m.Registry)

	for _, r := range []struct {
		code int
		s    float64
	}{{200, 0.003}, {200, 0.0005}, {200, 0.0041}, {429, 0.0001}, {504, 2.5}, {400, 0.0007}, {200, 40}} {
		m.observeRequest(r.code, r.s)
	}
	m.shed.With(shedQueueFull).Inc()
	m.shed.With(shedQueueFull).Inc()
	m.shed.With(shedDraining).Inc()
	m.observeBatch(3, 40, 72, 2, 0.004, []float64{0.0002, 0.001, 0.03})
	m.observeBatch(1, 24, 24, 0, 0.0015, []float64{0.00005})
	m.observeBatch(4, 11, 96, 4, 1.0/3, []float64{0.1, 0.2, 0.3, 1e-7})
	m.drainDropped.Add(2)
	m.reloadRetries.Inc()
	m.reloadRetries.Inc()
	m.reloads.With("ok").Inc()
	m.reloads.With("error").Inc()
	m.reloads.With("ok").Inc()

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
