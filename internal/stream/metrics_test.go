package stream

import (
	"bytes"
	"os"
	"sync/atomic"
	"testing"

	"skipper/internal/metrics"
)

// TestMetricsGolden renders the manager's families with every counter set
// to a distinct value and compares them byte for byte with
// testdata/metrics.prom.
func TestMetricsGolden(t *testing.T) {
	m := &Manager{sessions: map[string]*Session{"a": nil, "b": nil, "c": nil}}
	for i, c := range []*atomic.Int64{&m.opened, &m.resumed, &m.imported, &m.exported, &m.evicted,
		&m.windows, &m.skipped, &m.quiet, &m.full, &m.snapshots, &m.snapFails} {
		c.Store(int64(i*i*1000 + 7))
	}
	r := metrics.New()
	m.Register(r)
	var buf bytes.Buffer
	r.Render(&buf)
	want, err := os.ReadFile("testdata/metrics.prom")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("page differs from testdata/metrics.prom:\n--- got\n%s--- want\n%s", buf.Bytes(), want)
	}
}
