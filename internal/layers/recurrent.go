package layers

import (
	"fmt"

	"skipper/internal/parallel"
	"skipper/internal/snn"
	"skipper/internal/tensor"
)

// RecurrentSpikingLinear is a fully-connected LIF layer with explicit
// lateral recurrence: the synaptic current at time t is
//
//	I_t = W·x_t + W_rec·o_{t-1}
//
// — the general recurrent-SNN case the paper's Eq. 1 specialises (its reset
// term is a diagonal self-recurrence). The temporal checkpointing and
// skipping machinery applies unchanged because the layer's state record is
// still U_t, from which o_t = 1[U_t > θ] is read, and its forward is a pure
// function of (x_t, state_{t-1}).
//
// The backward pass extends the δ recursion of Eq. 2 with the recurrent
// credit path: o_t influences U_{t+1} through W_rec, so
//
//	∂L/∂o_t = gradOut_t + W_recᵀ·δ_{t+1}
//	δ_t     = σ'(U_t) ⊙ ∂L/∂o_t + λ·δ_{t+1}
//	∂W_rec += δ_{t+1} ⊗ o_t
type RecurrentSpikingLinear struct {
	Out       int
	Neuron    snn.Params
	Surrogate snn.Surrogate
	Label     string

	weight, recWeight, bias *tensor.Tensor
	gradW, gradRec, gradB   *tensor.Tensor
	inShape                 []int
	inFeatures              int
	pool                    *parallel.Pool
}

// SetPool implements PoolAware.
func (l *RecurrentSpikingLinear) SetPool(p *parallel.Pool) { l.pool = p }

// NewRecurrentSpikingLinear returns an unbuilt recurrent spiking layer.
func NewRecurrentSpikingLinear(label string, out int, neuron snn.Params, surr snn.Surrogate) *RecurrentSpikingLinear {
	return &RecurrentSpikingLinear{Out: out, Neuron: neuron, Surrogate: surr, Label: label}
}

// Name implements Layer.
func (l *RecurrentSpikingLinear) Name() string { return l.Label }

// Stateful implements Layer.
func (l *RecurrentSpikingLinear) Stateful() bool { return true }

// Build implements Layer.
func (l *RecurrentSpikingLinear) Build(inShape []int, rng *tensor.RNG) ([]int, error) {
	if err := l.Neuron.Validate(); err != nil {
		return nil, fmt.Errorf("layers: %s: %w", l.Label, err)
	}
	if l.Surrogate == nil {
		return nil, fmt.Errorf("layers: %s needs a surrogate gradient", l.Label)
	}
	l.inShape = append([]int(nil), inShape...)
	l.inFeatures = shapeVolume(inShape)
	l.weight = tensor.New(l.Out, l.inFeatures)
	l.recWeight = tensor.New(l.Out, l.Out)
	l.bias = tensor.New(l.Out)
	l.gradW = tensor.New(l.Out, l.inFeatures)
	l.gradRec = tensor.New(l.Out, l.Out)
	l.gradB = tensor.New(l.Out)
	rng.KaimingLinear(l.weight)
	// Lateral weights start small so the recurrence does not destabilise
	// the membrane at initialisation.
	rng.FillNorm(l.recWeight, 0, 0.5/float32(l.Out))
	return []int{l.Out}, nil
}

// Params implements Layer.
func (l *RecurrentSpikingLinear) Params() []Param {
	return []Param{
		{Name: l.Label + ".weight", W: l.weight, G: l.gradW},
		{Name: l.Label + ".recurrent", W: l.recWeight, G: l.gradRec},
		{Name: l.Label + ".bias", W: l.bias, G: l.gradB},
	}
}

func (l *RecurrentSpikingLinear) flatten(x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() == 2 {
		return x
	}
	return x.Reshape(x.Dim(0), l.inFeatures)
}

// Forward implements Layer. The lateral recurrence W_rec·o_{t-1} is folded
// into the synaptic current before the leak/reset step; o_{t−1} is read
// back off prev's U.
func (l *RecurrentSpikingLinear) Forward(x *tensor.Tensor, prev *LayerState) *LayerState {
	xf := l.flatten(x)
	b := xf.Dim(0)
	u, o := tensor.New(b, l.Out), tensor.New(b, l.Out)
	tensor.MatMulTransB(l.pool, u, xf, l.weight)
	tensor.AddRowBias(u, l.bias)
	var uPrev, oPrev *tensor.Tensor
	if prev != nil {
		uPrev, oPrev = prev.U, output(l.pool, l, prev, o)
		rec := tensor.New(b, l.Out)
		tensor.MatMulTransB(l.pool, rec, oPrev, l.recWeight)
		tensor.AXPY(u, 1, rec)
	}
	snn.StepLIF(l.pool, u, o, uPrev, oPrev, u, l.Neuron)
	return &LayerState{U: u}
}

// Backward implements Layer. δ_t folds in the lateral credit from t+1 and
// ∂W_rec accumulates before the input gradient is formed.
func (l *RecurrentSpikingLinear) Backward(x *tensor.Tensor, st *LayerState, gradOut *tensor.Tensor, deltaIn *Delta) (*tensor.Tensor, *Delta) {
	xf := l.flatten(x)
	b := xf.Dim(0)
	// Total ∂L/∂o_t: the downstream gradient plus the lateral credit from
	// t+1 (δ_{t+1} entered U_{t+1} through W_rec·o_t).
	gradO := gradOut.Clone()
	var next *tensor.Tensor
	if deltaIn != nil && deltaIn.D != nil {
		next = deltaIn.D
		lat := tensor.New(b, l.Out)
		tensor.MatMul(l.pool, lat, next, l.recWeight)
		tensor.AXPY(gradO, 1, lat)
		tensor.MatMulTransAAcc(l.pool, l.gradRec, next, output(l.pool, l, st, nil)) // ∂W_rec += δ_{t+1}ᵀ · o_t
	}
	delta := tensor.New(b, l.Out)
	snn.SurrogateDelta(l.pool, delta, st.U, gradO, next, l.Neuron.Threshold, l.Neuron.Leak, l.Surrogate)
	gradFlat := tensor.New(b, l.inFeatures)
	tensor.MatMul(l.pool, gradFlat, delta, l.weight)
	tensor.MatMulTransAAcc(l.pool, l.gradW, delta, xf)
	tensor.SumPerColumn(l.gradB, delta)
	return gradFlat.Reshape(x.Shape()...), &Delta{D: delta}
}

// StateBytes implements Layer.
func (l *RecurrentSpikingLinear) StateBytes(batch int) int64 {
	return 4 * int64(batch) * int64(l.Out)
}

// WorkspaceBytes implements Layer.
func (l *RecurrentSpikingLinear) WorkspaceBytes(int) int64 { return 0 }
