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
	spikePack    bool
	// inputLayer: see SpikingConv2D.
	inputLayer bool
}

// SetPool implements PoolAware.
func (l *SpikingLinear) SetPool(p *parallel.Pool) { l.pool = p }

// SetSpikePack implements SpikePackAware.
func (l *SpikingLinear) SetSpikePack(on bool) { l.spikePack = on }

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

// Forward implements Layer.
func (l *SpikingLinear) Forward(x *tensor.Tensor, prev *LayerState) *LayerState {
	xf := l.flatten(x)
	b := xf.Dim(0)
	u := tensor.New(b, l.Out)
	tensor.MatMulTransB(l.pool, u, xf, l.weight) // current = x·Wᵀ
	tensor.AddRowBias(u, l.bias)
	return l.fire(u, prev, b)
}

// ForwardPacked implements PackedForward: the synaptic current is gathered
// straight from the input spike bits (bit-identical to the dense matmul).
func (l *SpikingLinear) ForwardPacked(_ *tensor.Tensor, xp *tensor.PackedSpikes, prev *LayerState) *LayerState {
	b := xp.Shape()[0]
	u := tensor.New(b, l.Out)
	tensor.MatMulTransBPacked(l.pool, u, xp, l.weight) // current = x·Wᵀ over set bits
	tensor.AddRowBias(u, l.bias)
	return l.fire(u, prev, b)
}

// fire folds in the leak/reset recurrence and packages the state record.
func (l *SpikingLinear) fire(u *tensor.Tensor, prev *LayerState, b int) *LayerState {
	if l.Readout {
		// Pure integrator: U_t = λ·U_{t−1} + I_t, no spike, no reset.
		if prev != nil {
			tensor.AXPY(u, l.Neuron.Leak, prev.U)
		}
		return &LayerState{U: u, O: u.Clone()}
	}
	o := tensor.New(b, l.Out)
	stepLIFPrev(l.pool, u, o, prev, l.Neuron)
	st := &LayerState{U: u, O: o}
	if l.spikePack {
		packOutput(st, o)
	}
	return st
}

// Backward implements Layer; see SpikingConv2D.Backward for the recursion.
// For a readout layer σ' ≡ 1 (the output is the membrane itself).
func (l *SpikingLinear) Backward(x *tensor.Tensor, st *LayerState, gradOut *tensor.Tensor, deltaIn *Delta) (*tensor.Tensor, *Delta) {
	xf := l.flatten(x)
	b := xf.Dim(0)
	delta := tensor.New(b, l.Out)
	var next *tensor.Tensor
	if deltaIn != nil {
		next = deltaIn.D
	}
	if l.Readout {
		copy(delta.Data, gradOut.Data)
		if next != nil {
			tensor.AXPY(delta, l.Neuron.Leak, next)
		}
	} else {
		snn.SurrogateDelta(l.pool, delta, st.U, gradOut, next, l.Neuron.Threshold, l.Neuron.Leak, l.Surrogate)
	}
	tensor.MatMulTransAAcc(l.pool, l.gradW, delta, xf) // ∂W += δᵀ·x
	tensor.SumPerColumn(l.gradB, delta)                // ∂b += Σ_batch δ
	return l.gradInput(x.Shape(), delta), &Delta{D: delta}
}

// BackwardPacked implements PackedBackward: the input spikes enter the
// weight gradient only, and the packed accumulate kernel is bit-identical to
// the dense one, so a lazy checkpoint record never needs expanding here.
func (l *SpikingLinear) BackwardPacked(xp *tensor.PackedSpikes, st *LayerState, gradOut *tensor.Tensor, deltaIn *Delta) (*tensor.Tensor, *Delta) {
	b := xp.Shape()[0]
	delta := tensor.New(b, l.Out)
	var next *tensor.Tensor
	if deltaIn != nil {
		next = deltaIn.D
	}
	if l.Readout {
		copy(delta.Data, gradOut.Data)
		if next != nil {
			tensor.AXPY(delta, l.Neuron.Leak, next)
		}
	} else {
		snn.SurrogateDelta(l.pool, delta, st.U, gradOut, next, l.Neuron.Threshold, l.Neuron.Leak, l.Surrogate)
	}
	tensor.MatMulTransAPackedAcc(l.pool, l.gradW, delta, xp) // ∂W += δᵀ·x over set bits
	tensor.SumPerColumn(l.gradB, delta)                      // ∂b += Σ_batch δ
	return l.gradInput(xp.Shape(), delta), &Delta{D: delta}
}

// gradInput is ∂L/∂x = δ·W in the caller's view of x, or nil on the
// network's input layer.
func (l *SpikingLinear) gradInput(xShape []int, delta *tensor.Tensor) *tensor.Tensor {
	if l.inputLayer {
		return nil
	}
	gradFlat := tensor.New(delta.Dim(0), l.inFeatures)
	tensor.MatMul(l.pool, gradFlat, delta, l.weight)
	return gradFlat.Reshape(xShape...)
}

// StateBytes implements Layer: U and O per stored timestep.
func (l *SpikingLinear) StateBytes(batch int) int64 {
	return 2 * 4 * int64(batch) * int64(l.Out)
}

// WorkspaceBytes implements Layer.
func (l *SpikingLinear) WorkspaceBytes(int) int64 { return 0 }
