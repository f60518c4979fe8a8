package layers

import (
	"fmt"

	"skipper/internal/parallel"
	"skipper/internal/snn"
	"skipper/internal/tensor"
)

// SpikingConv2D is a convolutional layer followed by a layer of LIF neurons.
// Per timestep it computes the synaptic current I_t = conv(x_t, W) + b and
// advances the membrane per Eq. 1; its backward implements the δ recursion
// of Eq. 2 with the configured surrogate gradient.
type SpikingConv2D struct {
	Spec      tensor.ConvSpec
	Neuron    snn.Params
	Surrogate snn.Surrogate
	Label     string

	weight, bias *tensor.Tensor
	gradW, gradB *tensor.Tensor

	inShape  []int // [C,H,W]
	outShape []int // [Cout,OH,OW]
	pool     *parallel.Pool
	scratch  *tensor.Scratch
	colLen   int
	// inputLayer is set by Network.Build on Layers[0]: Backward then returns
	// a nil input gradient instead of computing one nobody reads.
	inputLayer bool
}

// NewSpikingConv2D returns an unbuilt spiking conv layer. kernel/stride/pad
// follow tensor.ConvSpec semantics.
func NewSpikingConv2D(label string, out, kernel, stride, pad int, neuron snn.Params, surr snn.Surrogate) *SpikingConv2D {
	return &SpikingConv2D{
		Spec:      tensor.ConvSpec{OutChannels: out, KernelH: kernel, KernelW: kernel, Stride: stride, Pad: pad},
		Neuron:    neuron,
		Surrogate: surr,
		Label:     label,
	}
}

// Name implements Layer.
func (l *SpikingConv2D) Name() string { return l.Label }

// Stateful implements Layer.
func (l *SpikingConv2D) Stateful() bool { return true }

// Build implements Layer.
func (l *SpikingConv2D) Build(inShape []int, rng *tensor.RNG) ([]int, error) {
	if len(inShape) != 3 {
		return nil, fmt.Errorf("layers: %s expects [C,H,W] input, got %v", l.Label, inShape)
	}
	if err := l.Neuron.Validate(); err != nil {
		return nil, fmt.Errorf("layers: %s: %w", l.Label, err)
	}
	l.Spec.InChannels = inShape[0]
	oh, ow := l.Spec.OutSize(inShape[1], inShape[2])
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("layers: %s output %dx%d collapses", l.Label, oh, ow)
	}
	l.inShape = append([]int(nil), inShape...)
	l.outShape = []int{l.Spec.OutChannels, oh, ow}
	l.weight = tensor.New(l.Spec.OutChannels, l.Spec.InChannels, l.Spec.KernelH, l.Spec.KernelW)
	l.bias = tensor.New(l.Spec.OutChannels)
	l.gradW = tensor.New(l.Spec.OutChannels, l.Spec.InChannels, l.Spec.KernelH, l.Spec.KernelW)
	l.gradB = tensor.New(l.Spec.OutChannels)
	rng.KaimingConv(l.weight)
	l.colLen = l.Spec.ColBufLen(inShape[1], inShape[2])
	l.scratch = tensor.NewScratch()
	return l.outShape, nil
}

// SetPool implements PoolAware.
func (l *SpikingConv2D) SetPool(p *parallel.Pool) { l.pool = p }

func (l *SpikingConv2D) markInputLayer() { l.inputLayer = true }

// Params implements Layer.
func (l *SpikingConv2D) Params() []Param {
	return []Param{
		{Name: l.Label + ".weight", W: l.weight, G: l.gradW},
		{Name: l.Label + ".bias", W: l.bias, G: l.gradB},
	}
}

// OutShape returns the built per-sample output shape.
func (l *SpikingConv2D) OutShape() []int { return l.outShape }

// Forward implements Layer: forwardSteps on one step.
func (l *SpikingConv2D) Forward(x *tensor.Tensor, prev *LayerState) *LayerState {
	return forwardOne(l, x, prev)
}

// forwardSteps implements stepLayer: the synaptic current of every step is
// computed directly into the records' U block by one convolution per run of
// contiguous inputs, then the leak/reset recurrence is scanned in time order.
func (l *SpikingConv2D) forwardSteps(xs []*tensor.Tensor, prev *LayerState, out []*LayerState) {
	us := newSteps(len(xs), xs[0].Dim(0), l.outShape)
	eachRun(xs, us, func(x, u *tensor.Tensor) {
		tensor.Conv2D(l.pool, u, x, l.weight, l.bias, l.Spec, l.scratch)
	})
	scan(us, newSteps(len(xs), xs[0].Dim(0), l.outShape), prev, l.fire, out)
}

// fire folds the leak/reset recurrence into st.U, which holds the step's
// synaptic current, and fires st.O.
func (l *SpikingConv2D) fire(st, prev *LayerState) {
	stepLIFPrev(l.pool, st.U, st.O, prev, l.Neuron)
}

// Backward implements Layer: backwardSteps on one step.
func (l *SpikingConv2D) Backward(x *tensor.Tensor, st *LayerState, gradOut *tensor.Tensor, deltaIn *Delta) (*tensor.Tensor, *Delta) {
	return backwardOne(l, x, st, gradOut, deltaIn, !l.inputLayer)
}

// backwardSteps implements stepLayer. It computes
//
//	δ_t = σ'(U_t) ⊙ ∂L/∂o_t + λ·δ_{t+1}
//	∂W     += convGradWeight(δ_t, x_t)
//	∂L/∂x_t = convGradInput(δ_t, W)
//
// the weight gradient over every step before any ∂L/∂x_t is written, since
// the walk may write ∂L/∂x_t over x_t.
func (l *SpikingConv2D) backwardSteps(g *stepGrads, deltaIn *Delta) *Delta {
	last := g.scanDeltas(l.pool, deltaIn, l.Neuron, l.Surrogate)
	eachRun(g.delta, g.x, func(d, x *tensor.Tensor) {
		tensor.Conv2DGradWeight(l.pool, l.gradW, l.gradB, d, x, l.Spec, l.scratch)
	})
	if g.gradIn != nil {
		eachRun(g.delta, g.gradIn, func(d, gi *tensor.Tensor) {
			tensor.Conv2DGradInput(l.pool, gi, d, l.weight, l.Spec, l.scratch)
		})
	}
	return &Delta{D: last}
}

// StateBytes implements Layer: U and O per stored timestep.
func (l *SpikingConv2D) StateBytes(batch int) int64 {
	return 2 * 4 * int64(batch) * int64(shapeVolume(l.outShape))
}

// WorkspaceBytes implements Layer: the im2col buffer. Charged at one column
// regardless of pool width — the device budget models accelerator workspace,
// which must not drift with the host's core count; extra per-lane host
// columns are not part of the paper's memory model.
func (l *SpikingConv2D) WorkspaceBytes(int) int64 { return 4 * int64(l.colLen) }
