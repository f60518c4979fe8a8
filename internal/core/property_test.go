package core

import (
	"math"
	"testing"
	"testing/quick"

	"skipper/internal/stats"
)

// Property: SegmentBounds partitions [0, T) exactly — no gaps, no overlap —
// for every valid (T, C), and CheckpointTimes are the segment starts.
func TestSegmentPartitionProperty(t *testing.T) {
	f := func(tRaw, cRaw uint8) bool {
		T := int(tRaw%200) + 1
		C := int(cRaw%uint8(T)) + 1
		covered := 0
		prevEnd := 0
		cps := CheckpointTimes(T, C)
		for s := 0; s < C; s++ {
			start, end := SegmentBounds(T, C, s)
			if start != prevEnd {
				return false // gap or overlap
			}
			if end < start {
				return false
			}
			if cps[s] != start {
				return false // checkpoint must sit at the segment start
			}
			covered += end - start
			prevEnd = end
		}
		return covered == T && prevEnd == T
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// percentileSkips is the threshold reading of Eq. 5 that the rank cut
// replaced, kept as the reference: a step is skipped iff its score is below
// the p-th percentile of the segment's scores.
func percentileSkips(scores []float64, p float64) []bool {
	sst := stats.Percentile(scores, p)
	skip := make([]bool, len(scores))
	for i, v := range scores {
		skip[i] = v < sst
	}
	return skip
}

// Property: selectSurvivors always covers the segment interior exactly
// (survivors + skipped = interior steps), always keeps the global final
// step, and returns survivors in ascending order. Its skip set is the rank
// cut: exactly k = ⌈(n−1)P/100⌉ steps counting an exempt one that ranked
// inside it, none of them scoring above a kept step, the percentile
// reference's set when all scores differ, evenly spread when all scores tie,
// and a function of its input alone. It never leaves fewer survivors than
// minSurvivors, the first pass's run bound.
func TestSelectSurvivorsProperty(t *testing.T) {
	f := func(scoresRaw []uint16, pRaw uint8, splitRaw uint8, shape uint8) bool {
		T := len(scoresRaw)
		if T < 3 {
			return true
		}
		scores := make([]float64, T)
		for i, v := range scoresRaw {
			switch shape % 3 {
			case 0: // as drawn: ties wherever the generator repeats itself
				scores[i] = float64(v)
			case 1: // all distinct
				scores[i] = float64(v)*float64(T) + float64(i)
			case 2: // all equal
				scores[i] = float64(scoresRaw[0])
			}
		}
		start := int(splitRaw) % (T - 1)
		end := T
		P := float64(pRaw % 101)
		s := Skipper{P: P}
		var st StepStats
		la := newLossAccumulator(Config{T: T, Batch: 1}, 0, nil)
		survivors := s.selectSurvivors(scores, start, end, la, &st)

		if st.SkippedSteps+len(survivors) != end-start-1 {
			return false
		}
		last := start
		keptFinal := false
		kept := map[int]bool{}
		for _, x := range survivors {
			if x <= last || x <= start || x >= end {
				return false // must be ascending, interior only
			}
			last = x
			kept[x] = true
			if x == T-1 {
				keptFinal = true
			}
		}
		// The final step belongs to this segment, so it must survive.
		if !keptFinal {
			return false
		}

		// The quota: k steps leave, less the exempt final step if it ranked
		// among them.
		seg := scores[start+1 : end]
		n := len(seg)
		k := int(math.Ceil(float64(n-1) * P / 100))
		skip := SkipSet(seg, P)
		exemptInSet := 0
		if skip[n-1] {
			exemptInSet = 1
		}
		if st.SkippedSteps+exemptInSet != k {
			return false
		}
		// The replay stores at least the S steps the first pass's runs are
		// bounded by (segmentPlan.runs).
		if len(survivors) < minSurvivors(start, end, P) {
			return false
		}
		// Rank: no skipped step outscores a kept one. The exempt step is kept
		// whatever its score, so it is judged by SkipSet's verdict.
		maxSkipped, minKept := math.Inf(-1), math.Inf(1)
		for i, v := range seg {
			if skip[i] != !kept[start+1+i] && i != n-1 {
				return false // selectSurvivors is SkipSet plus the exemption
			}
			if skip[i] {
				maxSkipped = math.Max(maxSkipped, v)
			} else {
				minKept = math.Min(minKept, v)
			}
		}
		if maxSkipped > minKept {
			return false
		}
		switch shape % 3 {
		case 1:
			// No tie anywhere: the percentile threshold drops the same steps.
			// stats.Percentile forms its rank as P/100·(n−1), which for a few
			// (P, n) lands an ulp above the integer (n−1)·P/100 (P=28, n=26:
			// 7.000000000000001) and then cuts one step high or not depending
			// on the scores' magnitude; the reference is consulted where the
			// two ranks agree.
			if math.Ceil(P/100*float64(n-1)) == float64(k) {
				for i, want := range percentileSkips(seg, P) {
					if skip[i] != want {
						return false
					}
				}
			}
		case 2:
			// One tie group: consecutive survivors at most ⌈n/(n−k)⌉ apart.
			gap, prev := (n+(n-k)-1)/(n-k), -1
			for i := range seg {
				if skip[i] {
					continue
				}
				if prev >= 0 && i-prev > gap {
					return false
				}
				prev = i
			}
		}
		// Same input, same output.
		var st2 StepStats
		again := s.selectSurvivors(scores, start, end, la, &st2)
		if st2.SkippedSteps != st.SkippedSteps || len(again) != len(survivors) {
			return false
		}
		for i := range again {
			if again[i] != survivors[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 600}); err != nil {
		t.Fatal(err)
	}
}

// Property: MaxSkipPercent is monotone — more layers or more checkpoints
// never increase the admissible skip fraction; more timesteps never
// decrease it.
func TestMaxSkipPercentMonotoneProperty(t *testing.T) {
	f := func(tRaw, cRaw, lnRaw uint8) bool {
		T := int(tRaw%200) + 2
		C := int(cRaw%16) + 1
		Ln := int(lnRaw%32) + 1
		p := MaxSkipPercent(T, C, Ln)
		if p < 0 || p > 100 {
			return false
		}
		if MaxSkipPercent(T, C, Ln+1) > p {
			return false
		}
		if MaxSkipPercent(T, C+1, Ln) > p {
			return false
		}
		if MaxSkipPercent(T+10, C, Ln) < p {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: a config admitted by ValidateSkip is also admitted by
// ValidateCheckpoints (Eq. 7 presupposes the Sec. V-A constraint).
func TestValidationConsistencyProperty(t *testing.T) {
	f := func(tRaw, cRaw, lnRaw, pRaw uint8) bool {
		T := int(tRaw%200) + 1
		C := int(cRaw%16) + 1
		Ln := int(lnRaw % 32)
		p := float64(pRaw % 101)
		if ValidateCheckpoints(T, C, Ln) != nil {
			return true // not admitted anyway
		}
		if err := ValidateSkip(T, C, Ln, p); err == nil {
			// Admitted: the segment must genuinely leave room for Ln layers
			// among the surviving steps.
			perSeg := float64(T) / float64(C)
			return (1-p/100)*perSeg >= float64(Ln)-1e-9
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
