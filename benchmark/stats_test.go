package main

import (
	"math"
	"testing"
)

func series(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i + 1)
	}
	return v
}

func TestPercentileNearestRank(t *testing.T) {
	hundred := series(100)
	for _, c := range []struct{ p, want float64 }{{50, 50}, {70, 70}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(hundred, c.p); got != c.want {
			t.Errorf("p%g of 1..100 = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(series(36), 70); got != 26 {
		t.Errorf("p70 of 1..36 = %g, want 26 (ceil(25.2))", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %g, want 5", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of an empty series must be NaN")
	}
}

// The tail percentile a series supports is the highest with at least ten
// samples beyond it: p70 for the 36-step training series, p99 from 1000
// samples up.
func TestSupportedTailTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{36, 70}, {33, 50}, {50, 80}, {100, 90}, {999, 95}, {1000, 99}, {10000, 99.9}, {5, 50}} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	if got := samplesBeyond(36, 70); got != 10 {
		t.Errorf("samples beyond p70 of 36 = %d, want 10", got)
	}
	if got := samplesBeyond(1000, 99); got != 10 {
		t.Errorf("samples beyond p99 of 1000 = %d, want 10", got)
	}
}

// The value a run reports is the one its least disturbed blocks agree on:
// a stall that inflates a few blocks, or a slow stretch that covers most of
// the run, moves neither a time nor a rate.
func TestQuietReadingIgnoresDisturbedBlocks(t *testing.T) {
	times := []float64{10.2, 10.0, 10.1, 10.3, 10.1, 10.2, 10.0, 10.4, 10.2, 10.1, 10.3, 10.2}
	calm := quietTime(times)
	for i := 3; i < len(times); i++ { // three quarters of the run a third slower
		times[i] *= 1.33
	}
	times[5] = 180 // and one stall
	if got := quietTime(times); math.Abs(got-calm)/calm > 0.02 {
		t.Errorf("quiet time moved from %g to %g", calm, got)
	}
	rates := []float64{190, 188, 191, 120, 125, 60, 130, 128, 189, 126, 124, 131}
	if got := quietRate(rates); got < 188 {
		t.Errorf("quiet rate = %g, want one of the undisturbed blocks'", got)
	}
	if got := quietTime([]float64{7}); got != 7 {
		t.Errorf("quiet time of one block = %g", got)
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles(series(10))
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6], n=4) == [1.25, 3.5, 5.75]
	q1, q2, q3 = quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6})
	if q1 != 1.25 || q2 != 3.5 || q3 != 5.75 {
		t.Errorf("quartiles = %g %g %g, want 1.25 3.5 5.75", q1, q2, q3)
	}
	if got := iqrSpread(series(10)); math.Abs(got-1) > 1e-12 {
		t.Errorf("iqrSpread(1..10) = %g, want 1", got)
	}
}
