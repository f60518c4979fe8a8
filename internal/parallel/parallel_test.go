package parallel

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunCoversRangeDisjointly checks every index in [0,n) is visited exactly
// once for a spread of pool widths and range sizes.
func TestRunCoversRangeDisjointly(t *testing.T) {
	for _, threads := range []int{1, 2, 3, 4, 7} {
		p := NewPool(threads)
		for _, n := range []int{0, 1, 2, 3, 7, 64, 1000, 1001} {
			hits := make([]int32, n)
			p.Run(n, func(lane, lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("threads=%d n=%d: index %d visited %d times", threads, n, i, h)
				}
			}
		}
		p.Close()
	}
}

// TestLaneIndicesDense checks the lane numbers a Run hands out are 0..L-1
// with no gaps and no duplicates, so they can key per-lane scratch slots.
func TestLaneIndicesDense(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	seen := make([]int32, p.Lanes())
	p.Run(1000, func(lane, lo, hi int) {
		atomic.AddInt32(&seen[lane], 1)
	})
	used := 0
	for lane, c := range seen {
		if c > 1 {
			t.Fatalf("lane %d used %d times in one Run", lane, c)
		}
		if c == 1 {
			used++
		}
	}
	if used == 0 {
		t.Fatal("no lanes ran")
	}
	// Used lanes must be the prefix 0..used-1.
	for lane := 0; lane < used; lane++ {
		if seen[lane] != 1 {
			t.Fatalf("lane numbering has a gap at %d", lane)
		}
	}
}

func TestNilPoolRunsInline(t *testing.T) {
	var p *Pool
	if p.Lanes() != 1 {
		t.Fatalf("nil pool Lanes() = %d, want 1", p.Lanes())
	}
	ran := false
	p.Run(10, func(lane, lo, hi int) {
		if lane != 0 || lo != 0 || hi != 10 {
			t.Fatalf("nil pool gave lane=%d [%d,%d), want single inline range", lane, lo, hi)
		}
		ran = true
	})
	if !ran {
		t.Fatal("nil pool never invoked fn")
	}
	p.Close() // must not panic
}

// TestRunGrainFloorsLaneWork checks small inputs collapse to fewer lanes so
// per-lane work never drops below the grain.
func TestRunGrainFloorsLaneWork(t *testing.T) {
	p := NewPool(8)
	defer p.Close()
	var lanes int32
	p.RunGrain(100, 64, func(lane, lo, hi int) {
		atomic.AddInt32(&lanes, 1)
		if hi-lo < 64 && lo != 0 {
			t.Errorf("lane %d got %d indices, below grain", lane, hi-lo)
		}
	})
	if lanes != 1 {
		t.Fatalf("n=100 grain=64 used %d lanes, want 1", lanes)
	}
}

// TestRunGrainNeverBelowGrain pins the documented work floor across the
// partition itself: no lane — including the last — may receive fewer than
// grain indices (unless the whole input is smaller than one grain). The
// pre-fix ceil-chunked split violated this (n=10, grain=3 → lanes 4/4/2).
func TestRunGrainNeverBelowGrain(t *testing.T) {
	cases := []struct {
		threads, n, grain int
	}{
		{4, 10, 3}, // the regression: last lane used to get 2 < 3
		{4, 11, 3},
		{8, 10, 3},
		{4, 100, 33},
		{8, 100, 7},
		{3, 9, 3},
		{4, 12, 3},
		{16, 1000, 64},
		{7, 6, 4},  // n > grain but < 2·grain: one lane
		{4, 2, 5},  // n < grain: one lane of n
		{2, 64, 1}, // grain 1: plain Run partition
	}
	for _, tc := range cases {
		p := NewPool(tc.threads)
		type lane struct{ lo, hi int }
		var mu sync.Mutex
		var got []lane
		p.RunGrain(tc.n, tc.grain, func(_, lo, hi int) {
			mu.Lock()
			got = append(got, lane{lo, hi})
			mu.Unlock()
		})
		p.Close()

		covered := make([]int, tc.n)
		for _, l := range got {
			size := l.hi - l.lo
			if len(got) > 1 && size < tc.grain {
				t.Errorf("threads=%d n=%d grain=%d: lane [%d,%d) has %d indices, below grain",
					tc.threads, tc.n, tc.grain, l.lo, l.hi, size)
			}
			for i := l.lo; i < l.hi; i++ {
				covered[i]++
			}
		}
		for i, c := range covered {
			if c != 1 {
				t.Fatalf("threads=%d n=%d grain=%d: index %d covered %d times",
					tc.threads, tc.n, tc.grain, i, c)
			}
		}
		if want := tc.n / tc.grain; want >= 1 && len(got) > want {
			t.Errorf("threads=%d n=%d grain=%d: %d lanes exceeds floor bound %d",
				tc.threads, tc.n, tc.grain, len(got), want)
		}
	}
}

// TestPoolStats checks the lane-utilization counters behind the pool gauges.
func TestPoolStats(t *testing.T) {
	var nilPool *Pool
	nilPool.Run(16, func(_, _, _ int) {})
	if s := nilPool.Stats(); s != (PoolStats{}) {
		t.Fatalf("nil pool stats = %+v", s)
	}
	nilPool.SetTracer(nil) // must not panic

	p := NewPool(4)
	defer p.Close()
	p.Run(1000, func(_, _, _ int) {})
	p.RunGrain(2, 8, func(_, _, _ int) {}) // collapses to one lane
	s := p.Stats()
	if s.Runs != 2 {
		t.Fatalf("Runs = %d, want 2", s.Runs)
	}
	if s.LanesUsed != 4+1 {
		t.Fatalf("LanesUsed = %d, want 5", s.LanesUsed)
	}
	if m := s.MeanLanes(); m < 2.4 || m > 2.6 {
		t.Fatalf("MeanLanes = %v, want 2.5", m)
	}
	if (PoolStats{}).MeanLanes() != 0 {
		t.Fatal("idle MeanLanes must be 0")
	}
}

// TestConcurrentSubmitters proves many goroutines can share one pool: each
// submitter fills a private slice through Run, so disjoint-output kernels on
// different buffers never interfere.
func TestConcurrentSubmitters(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	const submitters, n = 8, 4096
	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(tag int) {
			defer wg.Done()
			buf := make([]int, n)
			for rep := 0; rep < 20; rep++ {
				p.Run(n, func(lane, lo, hi int) {
					for i := lo; i < hi; i++ {
						buf[i] = tag + i
					}
				})
				for i, v := range buf {
					if v != tag+i {
						t.Errorf("submitter %d: buf[%d] = %d, want %d", tag, i, v, tag+i)
						return
					}
				}
			}
		}(s * 1000)
	}
	wg.Wait()
}

func TestNewPoolDefaultsToNumCPU(t *testing.T) {
	p := NewPool(0)
	defer p.Close()
	if p.Lanes() < 1 {
		t.Fatalf("NewPool(0).Lanes() = %d", p.Lanes())
	}
}

func TestCloseIdempotent(t *testing.T) {
	p := NewPool(3)
	p.Close()
	p.Close()
}

// TestIdlePoolParks checks the hand-off's spin is bounded: once a pool has
// no work, every worker stops polling the queue within the spin bound and
// parks on it, and Close still ends every worker.
func TestIdlePoolParks(t *testing.T) {
	p := NewPool(4)
	for i := 0; i < 100; i++ {
		p.Run(64, func(_, _, _ int) {})
	}
	time.Sleep(spinFor)
	waitFor(t, "idle workers to park", func() bool { return p.polling.Load() == 0 })
	if n := p.live.Load(); n != 3 {
		t.Fatalf("%d workers alive after parking, want 3", n)
	}
	p.Close()
	waitFor(t, "Close to end every worker", func() bool { return p.live.Load() == 0 })
}

// waitFor fails the test unless cond holds within a second, a bound far
// above the spin bound that a loaded machine still meets.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); !cond(); time.Sleep(spinFor) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}
