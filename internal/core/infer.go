package core

import (
	"fmt"

	"skipper/internal/layers"
	"skipper/internal/tensor"
)

// InferOptions configures an inference-only forward pass.
type InferOptions struct {
	// EarlyExit enables the spike-activity exit rule: a sample stops
	// contributing to the horizon once its output-layer argmax has been
	// stable for K consecutive timesteps. This is the inference-time
	// counterpart of the paper's spike-activity skip proxy (Eq. 4/5): where
	// training drops timesteps whose activity says they carry little
	// gradient, inference stops stepping once the readout's decision has
	// demonstrably settled.
	EarlyExit bool
	// K is the stability window: the number of consecutive timesteps the
	// readout argmax must agree before a sample's prediction freezes.
	// Zero means DefaultExitK.
	K int
	// MinMargin is the confidence gate: a streak step counts only while
	// the accumulated leader's relative margin over the runner-up,
	// (top1 − top2) / (|top1| + |top2|), is at least this value. Ambiguous
	// samples whose leadership is churning never clear it and simply run
	// the full horizon. Zero means DefaultExitMargin; negative disables.
	MinMargin float64
	// MinSteps is the warm-up floor: no stability is counted before this
	// many timesteps have run. Input activity needs L_n steps to traverse
	// the stateful layers, and for a few multiples of L_n after that the
	// readout is dominated by the bias-driven transient rather than the
	// signal, so earlier argmax streaks freeze spuriously. Zero means
	// 3·StatefulCount, the observed settling horizon; at the paper's
	// horizons (T = 100–400, L_n ≈ 4–10) that still leaves most of the
	// timesteps skippable.
	MinSteps int
}

// DefaultExitK is the stability window used when InferOptions.K is zero.
const DefaultExitK = 5

// DefaultExitMargin is the relative-margin gate used when
// InferOptions.MinMargin is zero.
const DefaultExitMargin = 0.1

func (o InferOptions) k() int {
	if o.K <= 0 {
		return DefaultExitK
	}
	return o.K
}

func (o InferOptions) minMargin() float64 {
	if o.MinMargin == 0 {
		return DefaultExitMargin
	}
	if o.MinMargin < 0 {
		return 0
	}
	return o.MinMargin
}

// InferResult reports one inference batch. The decision rule is rate-based:
// a sample's class is the argmax of its time-averaged readout output, the
// quantity the exit rule watches for stability. (This differs from the
// trainer's Evaluate, which reads the final-step membrane only; the running
// average is the natural serving-time readout because it is meaningful at
// any prefix of the horizon.)
type InferResult struct {
	// Preds holds the per-sample predicted class, frozen at the sample's
	// exit step (the final step when no exit triggered).
	Preds []int
	// ExitSteps holds the 0-based timestep at which each sample's
	// prediction froze; T-1 for samples that ran the full horizon.
	ExitSteps []int
	// Logits is [B, classes]: each row is the time-averaged readout output
	// over the sample's executed steps, captured at its exit step.
	Logits *tensor.Tensor
	// T is the configured horizon, StepsRun the timesteps actually
	// executed for the batch (the whole batch steps until every sample has
	// frozen, so StepsRun = max(ExitSteps)+1).
	T, StepsRun int
}

// StepsSaved returns the batch-level timesteps the early exit avoided
// executing: T − StepsRun. This is the honest compute saving — samples that
// freeze early still ride along until the slowest sample in the batch exits.
func (r InferResult) StepsSaved() int { return r.T - r.StepsRun }

// EarlyExits counts the samples whose prediction froze before the final
// timestep.
func (r InferResult) EarlyExits() int {
	n := 0
	for _, e := range r.ExitSteps {
		if e < r.T-1 {
			n++
		}
	}
	return n
}

// InferStream runs an inference-only forward pass, pulling each timestep's
// input spikes from step (called with t = 0..T−1 in order, at most once
// each). Unlike the training strategies it stores no activation records: it
// steps a StreamState built at the first step's batch, so the footprint is
// O(1) in T. With opts.EarlyExit the pass stops as soon as
// every sample's readout argmax has been stable for K consecutive steps,
// which also skips the spike generation for the remaining timesteps.
//
// The pass mutates only per-layer scratch buffers, never parameters, so it
// is safe to interleave with other read-only uses of net — but NOT with
// concurrent forward passes on the same network.
func InferStream(net *layers.Network, T int, step func(t int) *tensor.Tensor, opts InferOptions) InferResult {
	if T <= 0 {
		panic(fmt.Sprintf("core: InferStream with T=%d", T))
	}
	k := opts.k()
	minMargin := opts.minMargin()
	minSteps := opts.MinSteps
	if minSteps <= 0 {
		minSteps = 3 * net.StatefulCount()
	}
	var (
		s       *StreamState
		res     InferResult
		acc     *tensor.Tensor // running sum of readout outputs
		lastArg []int
		streak  []int
		frozen  []bool
		nFrozen int
	)
	res.T = T
	for t := 0; t < T; t++ {
		x := step(t)
		if s == nil {
			s = NewStreamState(net, x.Dim(0))
		}
		s.StepInput(x)
		logits := s.Logits()
		res.StepsRun = t + 1
		b := logits.Dim(0)
		classes := logits.Dim(1)
		if res.Preds == nil {
			res.Preds = make([]int, b)
			res.ExitSteps = make([]int, b)
			res.Logits = tensor.New(logits.Shape()...)
			acc = tensor.New(logits.Shape()...)
			lastArg = make([]int, b)
			streak = make([]int, b)
			frozen = make([]bool, b)
			for i := range lastArg {
				lastArg[i] = -1
			}
		}
		tensor.AXPY(acc, 1, logits)
		args := tensor.Argmax(acc)
		inst := tensor.Argmax(logits)
		for i := 0; i < b; i++ {
			if frozen[i] {
				continue
			}
			// A step extends the streak only when the instantaneous readout
			// confirms the standing accumulated leader (a challenger class
			// winning individual timesteps means the decision has not
			// settled, even while the old leader still tops the running
			// sum) AND the leader's accumulated margin clears the
			// confidence gate (churning leadership keeps margins thin).
			confirm := args[i] == inst[i] && args[i] == lastArg[i] &&
				relMargin(acc.Data[i*classes:(i+1)*classes]) >= minMargin
			switch {
			case t < minSteps:
				// Warm-up: track the leader but accrue no stability.
				lastArg[i] = args[i]
				streak[i] = 0
			case confirm:
				streak[i]++
			default:
				lastArg[i] = args[i]
				streak[i] = 0
			}
			final := t == T-1
			if final || (opts.EarlyExit && streak[i] >= k) {
				frozen[i] = true
				nFrozen++
				res.Preds[i] = args[i]
				res.ExitSteps[i] = t
				scale := 1 / float32(t+1)
				for c := 0; c < classes; c++ {
					res.Logits.Data[i*classes+c] = acc.Data[i*classes+c] * scale
				}
			}
		}
		if opts.EarlyExit && nFrozen == b {
			break
		}
	}
	return res
}

// relMargin returns the accumulated leader's relative margin over the
// runner-up for one sample's class row: (top1 − top2) / (|top1| + |top2|).
func relMargin(row []float32) float64 {
	if len(row) < 2 {
		return 1
	}
	top1, top2 := float32(mathInf), float32(mathInf)
	for _, v := range row {
		if v > top1 {
			top2, top1 = top1, v
		} else if v > top2 {
			top2 = v
		}
	}
	den := float64(abs32(top1)) + float64(abs32(top2))
	if den == 0 {
		return 0
	}
	return float64(top1-top2) / den
}

const mathInf = float32(-3.4e38)

func abs32(x float32) float32 {
	if x < 0 {
		return -x
	}
	return x
}
