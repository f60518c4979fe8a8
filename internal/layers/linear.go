package layers

import (
	"fmt"

	"skipper/internal/parallel"
	"skipper/internal/snn"
	"skipper/internal/tensor"
)

// SpikingLinear is a fully-connected layer of LIF neurons. With Readout set
// it becomes the network's output integrator: the neurons accumulate
// membrane potential without firing or resetting (the standard readout for
// the hybrid-training recipe), and O is the membrane itself, so the loss can
// be applied to the accumulated potential at the final timestep.
//
// Rank-4 inputs [B,C,H,W] are flattened to [B,C·H·W] internally, so an
// explicit flatten layer is unnecessary.
type SpikingLinear struct {
	Out       int
	Neuron    snn.Params
	Surrogate snn.Surrogate
	Readout   bool
	Label     string

	weight, bias *tensor.Tensor
	gradW, gradB *tensor.Tensor
	inShape      []int
	inFeatures   int
	pool         *parallel.Pool
	// inputLayer: see SpikingConv2D.
	inputLayer bool
}

// SetPool implements PoolAware.
func (l *SpikingLinear) SetPool(p *parallel.Pool) { l.pool = p }

func (l *SpikingLinear) markInputLayer() { l.inputLayer = true }

// NewSpikingLinear returns an unbuilt spiking fully-connected layer.
func NewSpikingLinear(label string, out int, neuron snn.Params, surr snn.Surrogate) *SpikingLinear {
	return &SpikingLinear{Out: out, Neuron: neuron, Surrogate: surr, Label: label}
}

// NewReadout returns the output integrator layer with the given class count.
func NewReadout(label string, classes int, neuron snn.Params) *SpikingLinear {
	return &SpikingLinear{Out: classes, Neuron: neuron, Readout: true, Label: label}
}

// Name implements Layer.
func (l *SpikingLinear) Name() string { return l.Label }

// Stateful implements Layer.
func (l *SpikingLinear) Stateful() bool { return true }

// Build implements Layer.
func (l *SpikingLinear) Build(inShape []int, rng *tensor.RNG) ([]int, error) {
	if err := l.Neuron.Validate(); err != nil {
		return nil, fmt.Errorf("layers: %s: %w", l.Label, err)
	}
	if !l.Readout && l.Surrogate == nil {
		return nil, fmt.Errorf("layers: %s needs a surrogate gradient", l.Label)
	}
	l.inShape = append([]int(nil), inShape...)
	l.inFeatures = shapeVolume(inShape)
	l.weight = tensor.New(l.Out, l.inFeatures)
	l.bias = tensor.New(l.Out)
	l.gradW = tensor.New(l.Out, l.inFeatures)
	l.gradB = tensor.New(l.Out)
	rng.KaimingLinear(l.weight)
	return []int{l.Out}, nil
}

// Params implements Layer.
func (l *SpikingLinear) Params() []Param {
	return []Param{
		{Name: l.Label + ".weight", W: l.weight, G: l.gradW},
		{Name: l.Label + ".bias", W: l.bias, G: l.gradB},
	}
}

func (l *SpikingLinear) flatten(x *tensor.Tensor) *tensor.Tensor {
	b := x.Dim(0)
	if x.Rank() == 2 {
		return x
	}
	return x.Reshape(b, l.inFeatures)
}

// Forward implements Layer: forwardSteps on one step.
func (l *SpikingLinear) Forward(x *tensor.Tensor, prev *LayerState) *LayerState {
	return forwardOne(l, x, prev)
}

// forwardSteps implements stepLayer: one matrix product per run of
// contiguous inputs, then the recurrence scanned in time order.
func (l *SpikingLinear) forwardSteps(xs []*tensor.Tensor, prev *LayerState, out []*LayerState) {
	shape := []int{l.Out}
	us := newSteps(len(xs), xs[0].Dim(0), shape)
	eachRun(xs, us, func(x, u *tensor.Tensor) {
		tensor.MatMulTransB(l.pool, u, l.flatten(x), l.weight) // current = x·Wᵀ
		tensor.AddRowBias(u, l.bias)
	})
	scan(us, newSteps(len(xs), xs[0].Dim(0), shape), prev, l.fire, out)
}

// fire folds the leak/reset recurrence into st.U, which holds the step's
// synaptic current, and fires st.O.
func (l *SpikingLinear) fire(st, prev *LayerState) {
	if l.Readout {
		// Pure integrator: U_t = λ·U_{t−1} + I_t, no spike, no reset.
		if prev != nil {
			tensor.AXPY(st.U, l.Neuron.Leak, prev.U)
		}
		copy(st.O.Data, st.U.Data)
		return
	}
	stepLIFPrev(l.pool, st.U, st.O, prev, l.Neuron)
}

// Backward implements Layer: backwardSteps on one step.
func (l *SpikingLinear) Backward(x *tensor.Tensor, st *LayerState, gradOut *tensor.Tensor, deltaIn *Delta) (*tensor.Tensor, *Delta) {
	return backwardOne(l, x, st, gradOut, deltaIn, !l.inputLayer)
}

// backwardSteps implements stepLayer; see SpikingConv2D.backwardSteps for
// the recursion. For a readout layer σ' ≡ 1 (the output is the membrane
// itself).
func (l *SpikingLinear) backwardSteps(g *stepGrads, deltaIn *Delta) *Delta {
	last := l.scanDeltas(g, deltaIn)
	eachRun(g.delta, g.x, func(d, x *tensor.Tensor) {
		tensor.MatMulTransAAcc(l.pool, l.gradW, d, l.flatten(x)) // ∂W += δᵀ·x
		tensor.SumPerColumn(l.gradB, d)                          // ∂b += Σ_batch δ
	})
	if g.gradIn != nil {
		eachRun(g.delta, g.gradIn, func(d, gi *tensor.Tensor) {
			tensor.MatMul(l.pool, gi.Reshape(d.Dim(0), l.inFeatures), d, l.weight) // ∂L/∂x = δ·W
		})
	}
	return &Delta{D: last}
}

// scanDeltas is stepGrads.scanDeltas, or for a readout the integrator's
// δ_t = ∂L/∂o_t + λ·δ_{t+1}.
func (l *SpikingLinear) scanDeltas(g *stepGrads, deltaIn *Delta) *tensor.Tensor {
	if !l.Readout {
		return g.scanDeltas(l.pool, deltaIn, l.Neuron, l.Surrogate)
	}
	var last *tensor.Tensor
	if deltaIn != nil {
		last = deltaIn.D
	}
	for j, d := range g.delta {
		copy(d.Data, g.gradOut[j].Data)
		if last != nil {
			tensor.AXPY(d, l.Neuron.Leak, last)
		}
		last = d
	}
	return last
}

// StateBytes implements Layer: U and O per stored timestep.
func (l *SpikingLinear) StateBytes(batch int) int64 {
	return 2 * 4 * int64(batch) * int64(l.Out)
}

// WorkspaceBytes implements Layer.
func (l *SpikingLinear) WorkspaceBytes(int) int64 { return 0 }
