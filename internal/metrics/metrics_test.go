package metrics

import (
	"bytes"
	"io"
	"sync"
	"testing"
	"time"
)

// TestRenderOrderAndFormat pins the exposition: families in registration
// order, declared series at 0 in declared order, other label tuples sorted
// by their values joined with "|", integers with %d and floats with %g.
func TestRenderOrderAndFormat(t *testing.T) {
	r := New()
	c := r.Counter("c_total", "A counter.")
	shed := r.CounterVec("shed_total", "By class and reason.", []string{"class", "reason"})
	fixed := r.CounterVec("fixed_total", "Declared.", []string{"reason"}, "queue_full", "draining")
	h := r.Histogram("h_seconds", "A histogram.", []float64{0.001, 0.5})
	GaugeFunc(r, "g", "A float gauge.", func() float64 { return 1234567 })
	GaugeFunc(r, "n", "An integer gauge.", func() int64 { return 1234567 })
	GaugeVecFunc(r, "v", "Read at render.", "state", func() []Sample[int64] {
		return []Sample[int64]{{"b", 2}, {"a", 1}}
	})

	c.Add(3)
	shed.With("bulk", "rate").Inc()
	shed.With("bulk2", "rate").Inc()
	shed.With("alpha", "x").Add(2)
	fixed.With("draining").Inc()
	h.Observe(0.001)
	h.Observe(2)

	var buf bytes.Buffer
	r.Render(&buf)
	want := `# HELP c_total A counter.
# TYPE c_total counter
c_total 3
# HELP shed_total By class and reason.
# TYPE shed_total counter
shed_total{class="alpha",reason="x"} 2
shed_total{class="bulk2",reason="rate"} 1
shed_total{class="bulk",reason="rate"} 1
# HELP fixed_total Declared.
# TYPE fixed_total counter
fixed_total{reason="queue_full"} 0
fixed_total{reason="draining"} 1
# HELP h_seconds A histogram.
# TYPE h_seconds histogram
h_seconds_bucket{le="0.001"} 1
h_seconds_bucket{le="0.5"} 1
h_seconds_bucket{le="+Inf"} 2
h_seconds_sum 2.001
h_seconds_count 2
# HELP g A float gauge.
# TYPE g gauge
g 1.234567e+06
# HELP n An integer gauge.
# TYPE n gauge
n 1234567
# HELP v Read at render.
# TYPE v gauge
v{state="b"} 2
v{state="a"} 1
`
	if got := buf.String(); got != want {
		t.Fatalf("page:\n%s\nwant:\n%s", got, want)
	}
	if h.Mean() != 2.001/2 {
		t.Fatalf("Mean = %g", h.Mean())
	}
}

// A function read at render runs with no registry lock held: it may count
// into the same registry, as a router does when a scrape lands while it
// holds the lock its gauges read under.
func TestReadAtRenderHoldsNoLock(t *testing.T) {
	r := New()
	vec := r.CounterVec("v_total", "V.", []string{"k"})
	h := r.Histogram("h", "H.", []float64{1})
	c := r.Counter("c_total", "C.")
	GaugeFunc(r, "g", "G.", func() int64 {
		vec.With("a").Inc()
		h.Observe(0.5)
		c.Inc()
		return c.Value()
	})
	done := make(chan struct{})
	go func() {
		r.Render(io.Discard)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("a read-at-render function that counts into its registry deadlocked")
	}
}

// Counting races rendering (run under -race).
func TestConcurrentCountAndRender(t *testing.T) {
	r := New()
	vec := r.CounterVec("v_total", "V.", []string{"k"})
	h := r.Histogram("h", "H.", []float64{1})
	c := r.Counter("c_total", "C.")
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				vec.With(string(rune('a' + (i+g)%5))).Inc()
				h.Observe(float64(i % 3))
				c.Inc()
			}
		}(g)
	}
	for i := 0; i < 50; i++ {
		r.Render(io.Discard)
	}
	wg.Wait()
	if c.Value() != 1000 {
		t.Fatalf("counted %d, want 1000", c.Value())
	}
}
