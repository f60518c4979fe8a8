package layers

import (
	"fmt"

	"skipper/internal/parallel"
	"skipper/internal/snn"
	"skipper/internal/tensor"
)

// ResidualBlock is the SNN basic block used by the ResNet topologies: two
// 3×3 spiking conv stages, with the shortcut current added into the second
// stage's synaptic input before its LIF neurons fire (the formulation of
// Sengupta et al. for deep spiking ResNets). When the block changes shape
// (stride > 1 or channel growth) the shortcut is a 1×1 convolution,
// otherwise the identity.
type ResidualBlock struct {
	Out       int
	Stride    int
	Neuron    snn.Params
	Surrogate snn.Surrogate
	Label     string

	spec1, spec2, specSC     tensor.ConvSpec
	w1, b1, w2, b2, wsc      *tensor.Tensor
	gw1, gb1, gw2, gb2, gwsc *tensor.Tensor
	identity                 bool

	inShape, midShape, outShape []int
	pool                        *parallel.Pool
	scratch                     *tensor.Scratch
	colLen                      int
}

// SetPool implements PoolAware.
func (l *ResidualBlock) SetPool(p *parallel.Pool) { l.pool = p }

// NewResidualBlock returns an unbuilt residual block producing out channels
// with the given first-stage stride.
func NewResidualBlock(label string, out, stride int, neuron snn.Params, surr snn.Surrogate) *ResidualBlock {
	return &ResidualBlock{Out: out, Stride: stride, Neuron: neuron, Surrogate: surr, Label: label}
}

// Name implements Layer.
func (l *ResidualBlock) Name() string { return l.Label }

// Stateful implements Layer.
func (l *ResidualBlock) Stateful() bool { return true }

// Build implements Layer.
func (l *ResidualBlock) Build(inShape []int, rng *tensor.RNG) ([]int, error) {
	if len(inShape) != 3 {
		return nil, fmt.Errorf("layers: %s expects [C,H,W] input, got %v", l.Label, inShape)
	}
	if err := l.Neuron.Validate(); err != nil {
		return nil, fmt.Errorf("layers: %s: %w", l.Label, err)
	}
	in := inShape[0]
	l.inShape = append([]int(nil), inShape...)
	l.spec1 = tensor.ConvSpec{InChannels: in, OutChannels: l.Out, KernelH: 3, KernelW: 3, Stride: l.Stride, Pad: 1}
	oh, ow := l.spec1.OutSize(inShape[1], inShape[2])
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("layers: %s spatial output collapses", l.Label)
	}
	l.midShape = []int{l.Out, oh, ow}
	l.spec2 = tensor.ConvSpec{InChannels: l.Out, OutChannels: l.Out, KernelH: 3, KernelW: 3, Stride: 1, Pad: 1}
	l.outShape = []int{l.Out, oh, ow}

	l.w1 = tensor.New(l.Out, in, 3, 3)
	l.b1 = tensor.New(l.Out)
	l.w2 = tensor.New(l.Out, l.Out, 3, 3)
	l.b2 = tensor.New(l.Out)
	l.gw1 = tensor.New(l.Out, in, 3, 3)
	l.gb1 = tensor.New(l.Out)
	l.gw2 = tensor.New(l.Out, l.Out, 3, 3)
	l.gb2 = tensor.New(l.Out)
	rng.KaimingConv(l.w1)
	rng.KaimingConv(l.w2)

	l.identity = l.Stride == 1 && in == l.Out
	if !l.identity {
		l.specSC = tensor.ConvSpec{InChannels: in, OutChannels: l.Out, KernelH: 1, KernelW: 1, Stride: l.Stride, Pad: 0}
		l.wsc = tensor.New(l.Out, in, 1, 1)
		l.gwsc = tensor.New(l.Out, in, 1, 1)
		rng.KaimingConv(l.wsc)
	}
	n1 := l.spec1.ColBufLen(inShape[1], inShape[2])
	n2 := l.spec2.ColBufLen(oh, ow)
	n := n1
	if n2 > n {
		n = n2
	}
	l.colLen = n
	l.scratch = tensor.NewScratch()
	return l.outShape, nil
}

// Params implements Layer.
func (l *ResidualBlock) Params() []Param {
	ps := []Param{
		{Name: l.Label + ".conv1.weight", W: l.w1, G: l.gw1},
		{Name: l.Label + ".conv1.bias", W: l.b1, G: l.gb1},
		{Name: l.Label + ".conv2.weight", W: l.w2, G: l.gw2},
		{Name: l.Label + ".conv2.bias", W: l.b2, G: l.gb2},
	}
	if !l.identity {
		ps = append(ps, Param{Name: l.Label + ".shortcut.weight", W: l.wsc, G: l.gwsc})
	}
	return ps
}

// Forward implements Layer. State layout: top-level (U,O) is the second LIF
// stage; Sub[0] is the first LIF stage.
func (l *ResidualBlock) Forward(x *tensor.Tensor, prev *LayerState) *LayerState {
	b := x.Dim(0)
	var p1, p2 *LayerState
	if prev != nil {
		p1 = prev.Sub[0]
		p2 = prev
	}
	u1 := tensor.New(b, l.midShape[0], l.midShape[1], l.midShape[2])
	o1 := tensor.New(b, l.midShape[0], l.midShape[1], l.midShape[2])
	tensor.Conv2D(l.pool, u1, x, l.w1, l.b1, l.spec1, l.scratch)
	stepLIFPrev(l.pool, u1, o1, p1, l.Neuron)

	u2 := tensor.New(b, l.outShape[0], l.outShape[1], l.outShape[2])
	o2 := tensor.New(b, l.outShape[0], l.outShape[1], l.outShape[2])
	tensor.Conv2D(l.pool, u2, o1, l.w2, l.b2, l.spec2, l.scratch)
	// Shortcut current joins before the second LIF.
	if l.identity {
		tensor.AXPY(u2, 1, x)
	} else {
		sc := tensor.New(b, l.outShape[0], l.outShape[1], l.outShape[2])
		tensor.Conv2D(l.pool, sc, x, l.wsc, nil, l.specSC, l.scratch)
		tensor.AXPY(u2, 1, sc)
	}
	stepLIFPrev(l.pool, u2, o2, p2, l.Neuron)
	return &LayerState{U: u2, O: o2, Sub: []*LayerState{{U: u1, O: o1}}}
}

// Backward implements Layer, unwinding the two LIF stages and the shortcut.
func (l *ResidualBlock) Backward(x *tensor.Tensor, st *LayerState, gradOut *tensor.Tensor, deltaIn *Delta) (*tensor.Tensor, *Delta) {
	theta := l.Neuron.Threshold
	// Second stage: δ2 = σ'(U2)⊙gradOut + λ·δ2_{t+1}
	delta2 := tensor.New(st.U.Shape()...)
	var next2 *tensor.Tensor
	if deltaIn != nil {
		next2 = deltaIn.D
	}
	snn.SurrogateDelta(l.pool, delta2, st.U, gradOut, next2, theta, l.Neuron.Leak, l.Surrogate)
	st1 := st.Sub[0]
	// Main path through conv2 to the first stage's output.
	gradO1 := tensor.New(st1.O.Shape()...)
	tensor.Conv2DGradInput(l.pool, gradO1, delta2, l.w2, l.spec2, l.scratch)
	tensor.Conv2DGradWeight(l.pool, l.gw2, l.gb2, delta2, st1.O, l.spec2, l.scratch)
	// Shortcut path straight to the block input.
	gradIn := tensor.New(x.Shape()...)
	if l.identity {
		copy(gradIn.Data, delta2.Data)
	} else {
		tensor.Conv2DGradInput(l.pool, gradIn, delta2, l.wsc, l.specSC, l.scratch)
		tensor.Conv2DGradWeight(l.pool, l.gwsc, nil, delta2, x, l.specSC, l.scratch)
	}
	// First stage: δ1 = σ'(U1)⊙gradO1 + λ·δ1_{t+1}
	delta1 := tensor.New(st1.U.Shape()...)
	var next1 *tensor.Tensor
	if deltaIn != nil && len(deltaIn.Sub) > 0 {
		next1 = deltaIn.Sub[0].D
	}
	snn.SurrogateDelta(l.pool, delta1, st1.U, gradO1, next1, theta, l.Neuron.Leak, l.Surrogate)
	gradMain := tensor.New(x.Shape()...)
	tensor.Conv2DGradInput(l.pool, gradMain, delta1, l.w1, l.spec1, l.scratch)
	tensor.Conv2DGradWeight(l.pool, l.gw1, l.gb1, delta1, x, l.spec1, l.scratch)
	tensor.AXPY(gradIn, 1, gradMain)
	return gradIn, &Delta{D: delta2, Sub: []*Delta{{D: delta1}}}
}

// StateBytes implements Layer: both stages' (U,O) per stored timestep.
func (l *ResidualBlock) StateBytes(batch int) int64 {
	return 2 * 4 * int64(batch) * int64(shapeVolume(l.midShape)+shapeVolume(l.outShape))
}

// WorkspaceBytes implements Layer. One column regardless of pool width; see
// SpikingConv2D.WorkspaceBytes.
func (l *ResidualBlock) WorkspaceBytes(int) int64 { return 4 * int64(l.colLen) }

// ConvCount returns the number of convolution layers in the block (2 or 3
// with a projection shortcut), used for topology reports.
func (l *ResidualBlock) ConvCount() int {
	if l.identity {
		return 2
	}
	return 3
}
