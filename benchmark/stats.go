package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank percentile of an ascending series: the
// smallest sample with at least p percent of the series at or below it.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return math.NaN()
	}
	return asc[nearestRank(len(asc), p)-1]
}

// nearestRank is ceil(p/100 * n) clamped to 1..n; the small slack keeps a
// product that is a whole number in exact arithmetic (99.9 % of 10000) from
// rounding up.
func nearestRank(n int, p float64) int {
	rank := int(math.Ceil(p/100*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return rank
}

// The reference box is shared, and what its host does to a guest only ever
// adds time: for tens of seconds at a stretch everything runs a third slower,
// and several times a minute the whole process stands still for 50-170 ms
// (README.md has the measurements). A run's median therefore says how much of
// the run fell into such stretches, not how fast the program is. So every
// timing is read block by block all along the run, and the value reported is
// the one the least disturbed blocks agree on: the lower decile of a series
// of times, the upper decile of a series of rates.
const quietPercentile = 10

func quietTime(blocks []float64) float64 { return percentile(sorted(blocks), quietPercentile) }

func quietRate(blocks []float64) float64 {
	neg := make([]float64, len(blocks))
	for i, v := range blocks {
		neg[i] = -v
	}
	return -quietTime(neg)
}

func median(v []float64) float64 { return percentile(sorted(v), 50) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// samplesBeyond counts the samples strictly above the nearest-rank p-th
// percentile of an n-sample series.
func samplesBeyond(n int, p float64) int { return n - nearestRank(n, p) }

// tailPercentiles are the candidates for "the highest percentile with at
// least ten samples beyond it", highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 80, 70, 50}

// supportedTail returns the highest candidate percentile that an n-sample
// series supports with at least ten samples beyond it (p70 for the 36-step
// training series, p99 from 1000 requests up). Below 20 samples nothing
// qualifies and it returns 50.
func supportedTail(n int) float64 {
	for _, p := range tailPercentiles {
		if samplesBeyond(n, p) >= 10 {
			return p
		}
	}
	return 50
}

// quartiles reproduces Python's statistics.quantiles(values, n=4), the
// rule the benchmark contract uses to judge run-to-run spread.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sorted(v)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return math.NaN(), math.NaN(), math.NaN()
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// iqrSpread is (q3 - q1) / median: the share the contract compares with a
// metric's bound.
func iqrSpread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}

// maxRelSpread is (max - min) / median.
func maxRelSpread(v []float64) float64 {
	s := sorted(v)
	if len(s) == 0 {
		return math.NaN()
	}
	m := percentile(s, 50)
	if m == 0 {
		return 0
	}
	return math.Abs((s[len(s)-1] - s[0]) / m)
}

func ms(seconds float64) float64 { return seconds * 1e3 }
