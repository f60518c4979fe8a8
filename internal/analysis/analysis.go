// Package analysis provides the spike-activity instrumentation a researcher
// uses to understand what the Spike Activity Monitor sees: per-timestep
// activity traces (the s_t series of paper Eq. 4 and Fig. 6), per-layer
// firing-rate statistics, and skip-decision previews for a given (C, p)
// before committing to a training run.
package analysis

import (
	"fmt"
	"io"
	"strings"

	"skipper/internal/core"
	"skipper/internal/layers"
	"skipper/internal/stats"
	"skipper/internal/tensor"
)

// Trace is the per-timestep activity record of one forward pass.
type Trace struct {
	// Scores is s_t per timestep under the chosen SAM metric.
	Scores []float64
	// LayerRates[t][l] is the firing rate (spikes/neuron) of layer l at t.
	LayerRates [][]float64
	// LayerNames labels the LayerRates columns.
	LayerNames []string
}

// Run unrolls the network over the input spike train (without training) and
// records the activity trace under the given SAM metric (nil = spike sum).
func Run(net *layers.Network, input []*tensor.Tensor, metric core.SAMMetric) *Trace {
	if metric == nil {
		metric = core.SpikeSum{}
	}
	tr := &Trace{
		Scores:     make([]float64, len(input)),
		LayerRates: make([][]float64, len(input)),
	}
	for _, l := range net.Layers {
		tr.LayerNames = append(tr.LayerNames, l.Name())
	}
	var states []*layers.LayerState
	for t, x := range input {
		states = net.ForwardStep(x, states)
		tr.Scores[t] = metric.Score(net, states)
		rates := make([]float64, len(states))
		for i, st := range states {
			if lin, ok := net.Layers[i].(*layers.SpikingLinear); ok && lin.Readout {
				continue // membrane, not spikes
			}
			if sum, size := net.Spikes(i, st); size > 0 {
				rates[i] = sum / float64(size)
			}
		}
		tr.LayerRates[t] = rates
	}
	return tr
}

// SkipPreview reports which timesteps Skipper would skip for the trace
// under C checkpoints and percentile p — the dry-run of the Fig. 6 logic.
type SkipPreview struct {
	C          int
	P          float64
	Skipped    []bool // per timestep
	SkipCount  int
	TotalSteps int
}

// PreviewSkips applies the engine's own selection (core.SkipSet per uniform
// segment) to the trace, with the default loss window: only the final
// timestep carries the loss and is exempt.
func (tr *Trace) PreviewSkips(C int, p float64) SkipPreview {
	T := len(tr.Scores)
	pre := SkipPreview{C: C, P: p, Skipped: make([]bool, T), TotalSteps: T}
	for s := 0; s < C; s++ {
		start, end := core.SegmentBounds(T, C, s)
		if end <= start+1 {
			continue
		}
		for i, skip := range core.SkipSet(tr.Scores[start+1:end], p) {
			if t := start + 1 + i; skip && t != T-1 {
				pre.Skipped[t] = true
				pre.SkipCount++
			}
		}
	}
	return pre
}

// MeanRate returns the average firing rate of layer l over the trace.
func (tr *Trace) MeanRate(l int) float64 {
	var s float64
	for _, row := range tr.LayerRates {
		s += row[l]
	}
	if len(tr.LayerRates) == 0 {
		return 0
	}
	return s / float64(len(tr.LayerRates))
}

// ActivityStats summarises the s_t series.
func (tr *Trace) ActivityStats() (min, mean, max float64) {
	var m stats.Meter
	for _, v := range tr.Scores {
		m.Add(v)
	}
	return m.Min(), m.Mean(), m.Max()
}

// WriteCSV emits the trace as CSV: timestep, score, skipped?, then one
// firing-rate column per layer. preview may be nil.
func (tr *Trace) WriteCSV(w io.Writer, preview *SkipPreview) error {
	cols := []string{"t", "sam_score", "skipped"}
	for _, n := range tr.LayerNames {
		cols = append(cols, "rate_"+n)
	}
	if _, err := fmt.Fprintln(w, strings.Join(cols, ",")); err != nil {
		return err
	}
	for t := range tr.Scores {
		skipped := 0
		if preview != nil && preview.Skipped[t] {
			skipped = 1
		}
		row := fmt.Sprintf("%d,%.6g,%d", t, tr.Scores[t], skipped)
		for l := range tr.LayerNames {
			row += fmt.Sprintf(",%.6g", tr.LayerRates[t][l])
		}
		if _, err := fmt.Fprintln(w, row); err != nil {
			return err
		}
	}
	return nil
}

// Sparkline renders the activity series as a coarse unicode strip — handy
// for a terminal look at where the quiet timesteps sit.
func (tr *Trace) Sparkline() string {
	if len(tr.Scores) == 0 {
		return ""
	}
	glyphs := []rune("▁▂▃▄▅▆▇█")
	min, _, max := tr.ActivityStats()
	span := max - min
	var b strings.Builder
	for _, v := range tr.Scores {
		idx := 0
		if span > 0 {
			idx = int((v - min) / span * float64(len(glyphs)-1))
		}
		b.WriteRune(glyphs[idx])
	}
	return b.String()
}
