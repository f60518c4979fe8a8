package dist

import (
	"bytes"
	"os"
	"testing"
)

// TestMetricsGolden renders the dist page from a fixed script of
// observations and compares it byte for byte with testdata/metrics.prom.
func TestMetricsGolden(t *testing.T) {
	m := NewMetrics(3)
	m.connected.Store(2)
	for _, r := range []struct {
		s     float64
		bytes int64
	}{{0.0123, 4096}, {1.0 / 3, 123456789}, {0.00005, 0}} {
		m.rounds.Inc()
		m.reduceBytes.Add(r.bytes)
		m.roundLatency.Observe(r.s)
	}
	m.aborts.Inc()
	m.stragglers.Add(2)
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
