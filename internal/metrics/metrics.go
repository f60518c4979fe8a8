// Package metrics is the one registry every skipper /metrics page renders
// from, in the Prometheus text exposition format (version 0.0.4).
//
// A subsystem registers its families once, when it is built, and keeps the
// handles it gets back; the page renders the families in the order they
// were registered. Counting never waits on a scrape: a counter is an
// atomic, and each histogram and each labelled counter has a lock of its
// own, held only to update or copy it. A family read at render (a gauge or
// a derived value) calls its function with no registry lock held, so the
// function may take its owner's locks even where the owner counts into the
// registry while holding them.
package metrics

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"skipper/internal/stats"
)

// Registry holds a page's families in registration order. Its methods are
// safe for concurrent use.
type Registry struct {
	mu   sync.Mutex
	fams []family
}

type family struct {
	name, help, typ string
	write           func(w io.Writer) // the family's sample lines
}

// New returns an empty registry.
func New() *Registry { return &Registry{} }

func (r *Registry) add(name, help, typ string, write func(io.Writer)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.fams = append(r.fams, family{name: name, help: help, typ: typ, write: write})
}

// Render writes every family, in registration order.
func (r *Registry) Render(w io.Writer) {
	r.mu.Lock()
	fams := r.fams
	r.mu.Unlock()
	for _, f := range fams {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		f.write(w)
	}
}

// ServeHTTP serves the rendered page.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	r.Render(w)
}

// Counter is a count that only goes up.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Counter registers a counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := new(Counter)
	r.CounterFunc(name, help, c.Value)
	return c
}

// CounterFunc registers a counter whose value fn returns at render.
func (r *Registry) CounterFunc(name, help string, fn func() int64) {
	r.add(name, help, "counter", func(w io.Writer) { fmt.Fprintf(w, "%s %d\n", name, fn()) })
}

// Number is a sample value: an int64 renders as an integer, a float64 with
// %g.
type Number interface{ int64 | float64 }

// GaugeFunc registers a gauge whose value fn returns at render.
func GaugeFunc[T Number](r *Registry, name, help string, fn func() T) {
	r.add(name, help, "gauge", func(w io.Writer) { fmt.Fprintf(w, "%s %v\n", name, fn()) })
}

// Sample is one series of a one-label family read at render.
type Sample[T Number] struct {
	Label string // the value of the family's label
	Value T
}

// GaugeVecFunc registers a one-label gauge family whose series fn returns
// at render, rendered in the order fn returns them.
func GaugeVecFunc[T Number](r *Registry, name, help, label string, fn func() []Sample[T]) {
	r.add(name, help, "gauge", func(w io.Writer) {
		for _, s := range fn() {
			fmt.Fprintf(w, "%s{%s=%q} %v\n", name, label, s.Label, s.Value)
		}
	})
}

// CounterVec is a counter family whose series are told apart by the values
// of its labels.
type CounterVec struct {
	labels []string
	fixed  int // series[:fixed] are the declared ones

	mu     sync.Mutex
	series []*labelled // in the order first counted
	byKey  map[string]*labelled
}

type labelled struct {
	key    string // the label values joined with "|"
	values []string
	Counter
}

// CounterVec registers a labelled counter family. A one-label family may
// declare fixed values: those series render first, in that order, at 0
// until counted. Every other label tuple renders once counted, after them,
// sorted by its values joined with "|".
func (r *Registry) CounterVec(name, help string, labels []string, fixed ...string) *CounterVec {
	v := &CounterVec{labels: labels, byKey: map[string]*labelled{}}
	for _, f := range fixed {
		v.With(f)
	}
	v.fixed = len(fixed)
	r.add(name, help, "counter", v.write(name))
	return v
}

// With returns the counter for one tuple of label values, given in the
// order the labels were registered. Label values must not contain "|".
func (v *CounterVec) With(values ...string) *Counter {
	key := strings.Join(values, "|")
	v.mu.Lock()
	defer v.mu.Unlock()
	s := v.byKey[key]
	if s == nil {
		s = &labelled{key: key, values: append([]string(nil), values...)}
		v.byKey[key] = s
		v.series = append(v.series, s)
	}
	return &s.Counter
}

func (v *CounterVec) write(name string) func(io.Writer) {
	return func(w io.Writer) {
		v.mu.Lock()
		series := append([]*labelled(nil), v.series...)
		v.mu.Unlock()
		dyn := series[v.fixed:]
		sort.Slice(dyn, func(i, j int) bool { return dyn[i].key < dyn[j].key })
		for _, s := range series {
			pairs := make([]string, len(v.labels))
			for i, l := range v.labels {
				pairs[i] = fmt.Sprintf("%s=%q", l, s.values[i])
			}
			fmt.Fprintf(w, "%s{%s} %d\n", name, strings.Join(pairs, ","), s.Value())
		}
	}
}

// Histogram is a bucketed distribution of observations.
type Histogram struct {
	mu sync.Mutex
	h  *stats.Histogram
}

// Histogram registers a histogram with the given upper bucket bounds.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	h := &Histogram{h: stats.NewHistogram(bounds...)}
	r.add(name, help, "histogram", h.write(name))
	return h
}

// Observe records one observation.
func (h *Histogram) Observe(x float64) {
	h.mu.Lock()
	h.h.Observe(x)
	h.mu.Unlock()
}

// Mean returns the mean observation, 0 before the first.
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.h.N() == 0 {
		return 0
	}
	return h.h.Sum() / float64(h.h.N())
}

func (h *Histogram) write(name string) func(io.Writer) {
	return func(w io.Writer) {
		h.mu.Lock()
		cum, n, sum := h.h.Cumulative(), h.h.N(), h.h.Sum()
		h.mu.Unlock()
		for i, b := range h.h.Bounds() {
			fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", name, b, cum[i])
		}
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, n)
		fmt.Fprintf(w, "%s_sum %g\n", name, sum)
		fmt.Fprintf(w, "%s_count %d\n", name, n)
	}
}
