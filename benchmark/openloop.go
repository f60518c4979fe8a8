package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// opSample is the outcome of one scheduled operation of an open loop.
type opSample struct {
	// Latency runs from the instant the operation was due, not from when it
	// was sent, so a stall delays every operation queued behind it.
	Latency time.Duration
	// Lateness is how long after its due time the generator sent it.
	Lateness time.Duration
	Err      error
}

// poissonSchedule returns the due offsets of n Poisson arrivals at rate per
// second.
func poissonSchedule(rng *rand.Rand, rate float64, n int) []time.Duration {
	due := make([]time.Duration, n)
	t := 0.0
	for i := range due {
		t += rng.ExpFloat64() / rate
		due[i] = time.Duration(t * float64(time.Second))
	}
	return due
}

// pacedSchedule returns n due offsets one interval apart, starting at zero.
func pacedSchedule(interval time.Duration, n int) []time.Duration {
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(i) * interval
	}
	return due
}

// runOpenLoop issues op(worker, i) for every due[i] (offsets from start,
// ascending) over at most `workers` concurrent callers, in schedule order. A
// caller that is free before the next due time sleeps until then; when every
// caller is busy the operation goes out late and its latency still counts
// from the due time.
func runOpenLoop(start time.Time, due []time.Duration, workers int, op func(worker, i int) error) []opSample {
	out := make([]opSample, len(due))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				at := start.Add(due[i])
				if d := time.Until(at); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				err := op(w, i)
				out[i] = opSample{Latency: time.Since(at), Lateness: sent.Sub(at), Err: err}
			}
		}(w)
	}
	wg.Wait()
	return out
}

// runClosedLoop has each of `workers` callers issue op(worker, k) back to
// back, k counting that worker's own calls, until dur has passed. It returns
// the calls that succeeded, the calls that failed and the wall time of the
// whole loop, which ends when the last call in flight returns.
func runClosedLoop(dur time.Duration, workers int, op func(worker, k int) error) (ok, failed int, wall time.Duration) {
	var done, bad atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; time.Now().Before(deadline); k++ {
				if err := op(w, k); err != nil {
					bad.Add(1)
				} else {
					done.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	return int(done.Load()), int(bad.Load()), time.Since(start)
}

// openStats is one open loop: the latency in milliseconds of every operation
// that succeeded, the generator's lateness of every operation, and the
// failures, which have no latency and miss every limit.
type openStats struct {
	LatencyMS  []float64
	LatenessMS []float64
	Failed     int
	FirstErr   error
}

func summarise(samples []opSample) openStats {
	var st openStats
	for _, s := range samples {
		st.LatenessMS = append(st.LatenessMS, ms(s.Lateness.Seconds()))
		if s.Err != nil {
			st.Failed++
			if st.FirstErr == nil {
				st.FirstErr = s.Err
			}
			continue
		}
		st.LatencyMS = append(st.LatencyMS, ms(s.Latency.Seconds()))
	}
	return st
}
