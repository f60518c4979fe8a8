package core

import (
	"fmt"
	"math"
	"sort"

	"skipper/internal/layers"
)

// SAMMetric scores a timestep's network activity for the Spike Activity
// Monitor. The paper's default is the raw spike sum (Eq. 4); the
// alternatives it sketches in Sec. VI-A ("Choice of Spike Activity
// Monitor") are provided as ablation options.
type SAMMetric interface {
	// Score reduces one timestep's per-layer states to a scalar activity.
	Score(net *layers.Network, states []*layers.LayerState) float64
	// Name identifies the metric for configs and reports.
	Name() string
}

// SpikeSum is s_t = Σ_l sum(o_t^l), the paper's low-overhead default.
type SpikeSum struct{}

// Score implements SAMMetric.
func (SpikeSum) Score(net *layers.Network, states []*layers.LayerState) float64 {
	return net.SpikeSum(states)
}

// Name implements SAMMetric.
func (SpikeSum) Name() string { return "spikesum" }

// WeightedSpikeSum normalises each layer's spike count by its neuron count,
// so small deep layers are not drowned out by large early ones — the
// "sum of spike counts weighted by the neuron count in each layer" variant.
type WeightedSpikeSum struct{}

// Score implements SAMMetric.
func (WeightedSpikeSum) Score(net *layers.Network, states []*layers.LayerState) float64 {
	var s float64
	for i, st := range states {
		if lin, ok := net.Layers[i].(*layers.SpikingLinear); ok && lin.Readout {
			continue
		}
		if sum, size := net.Spikes(i, st); size > 0 {
			s += sum / float64(size)
		}
	}
	return s
}

// Name implements SAMMetric.
func (WeightedSpikeSum) Name() string { return "weighted" }

// MembraneL2 is the ℓ2-norm of the membrane trace per timestep — the
// finer-granularity monitor the paper suggests as future work.
type MembraneL2 struct{}

// Score implements SAMMetric.
func (MembraneL2) Score(net *layers.Network, states []*layers.LayerState) float64 {
	var s float64
	for i, st := range states {
		if lin, ok := net.Layers[i].(*layers.SpikingLinear); ok && lin.Readout {
			continue
		}
		s += membraneNorm(st)
	}
	return s
}

func membraneNorm(st *layers.LayerState) float64 {
	if st == nil {
		return 0
	}
	var sq float64
	if st.U != nil {
		for _, v := range st.U.Data {
			sq += float64(v) * float64(v)
		}
	}
	s := math.Sqrt(sq)
	for _, sub := range st.Sub {
		s += membraneNorm(sub)
	}
	return s
}

// Name implements SAMMetric.
func (MembraneL2) Name() string { return "membranel2" }

// SAMByName returns a metric for a config string.
func SAMByName(name string) (SAMMetric, error) {
	switch name {
	case "", "spikesum":
		return SpikeSum{}, nil
	case "weighted":
		return WeightedSpikeSum{}, nil
	case "membranel2":
		return MembraneL2{}, nil
	default:
		return nil, fmt.Errorf("core: unknown SAM metric %q", name)
	}
}

// SkipSet applies the Spike-Sum-Threshold SST_c (paper Eq. 5) to one
// segment's interior activity scores as a rank cut: it marks the
// k = ⌈(n−1)·p/100⌉ lowest-scoring of the n steps, which is exactly what the
// threshold percentile({s_t}, p) drops when all scores differ. A threshold
// cannot split steps that tie at the cut — on event data most of a segment
// ties at 0 and SST_c would keep all of it — so of the g steps tied there
// the m still owed are taken evenly spread in time: member i goes iff
// ⌊(i+1)·m/g⌋ > ⌊i·m/g⌋, which keeps the survivors at most ⌈g/(g−m)⌉ steps
// apart. Same scores, same set.
func SkipSet(scores []float64, p float64) []bool {
	skip := make([]bool, len(scores))
	k := skipQuota(len(scores), p)
	if k == 0 {
		return skip
	}
	sorted := append([]float64(nil), scores...)
	sort.Float64s(sorted)
	cut := sorted[k-1]
	below, tied := 0, 0
	for _, s := range scores {
		if s < cut {
			below++
		} else if s == cut {
			tied++
		}
	}
	m, i := k-below, 0
	for t, s := range scores {
		if s < cut {
			skip[t] = true
		} else if s == cut {
			skip[t] = (i+1)*m/tied > i*m/tied
			i++
		}
	}
	return skip
}

// skipQuota is the number of steps SkipSet marks among n at percentile p:
// k = ⌈(n−1)·p/100⌉, p clamped to [0, 100], never below 0.
func skipQuota(n int, p float64) int {
	return max(int(math.Ceil(float64(n-1)*math.Min(math.Max(p, 0), 100)/100)), 0)
}

// minSurvivors is the fewest interior steps of segment [start, end) that
// selectSurvivors at percentile p leaves to replay: the n interior steps
// less SkipSet's quota. An exempt loss step only adds a survivor.
func minSurvivors(start, end int, p float64) int {
	n := max(end-start-1, 0)
	return n - skipQuota(n, p)
}

// selectSurvivors returns the recompute timesteps of segment [start, end):
// the interior steps SkipSet leaves, plus every loss-carrying timestep,
// exempted after selection. The checkpoint step `start` is excluded (it is
// stored, not recomputed).
func (s Skipper) selectSurvivors(scores []float64, start, end int, la *lossAccumulator, st *StepStats) []int {
	if end <= start+1 {
		return nil
	}
	skip := SkipSet(scores[start+1:end], s.P)
	var out []int
	for t := start + 1; t < end; t++ {
		if skip[t-start-1] && !la.covers(t) {
			st.SkippedSteps++
		} else {
			out = append(out, t)
		}
	}
	return out
}

// samTrace carries the SAM scores of the first forward pass.
type samTrace struct {
	metric SAMMetric
	scores []float64
}

// newSAMTrace returns an empty T-step trace; a nil metric means the paper's
// spike sum.
func newSAMTrace(metric SAMMetric, T int) *samTrace {
	if metric == nil {
		metric = SpikeSum{}
	}
	return &samTrace{metric: metric, scores: make([]float64, T)}
}

// foldInto returns the exponential moving average of an activity profile
// and this trace: profile·momentum + scores·(1−momentum). A profile of
// another length (none yet, or a changed T) is replaced by the trace.
func (s *samTrace) foldInto(profile []float64, momentum float64) []float64 {
	if len(profile) != len(s.scores) {
		return s.scores
	}
	for t, v := range s.scores {
		profile[t] = momentum*profile[t] + (1-momentum)*v
	}
	return profile
}
