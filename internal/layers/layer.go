// Package layers implements the spiking network layers and their analytic
// BPTT backward passes (paper Eq. 2). A network is a sequence of layers;
// each timestep's forward produces a per-layer state record — the
// "activations" whose storage the paper's checkpointing and time-skipping
// techniques manipulate — and the backward pass consumes those records while
// carrying the per-layer error signal δ_t backward through time. A LIF
// layer's record is its membrane U_t alone: snn.StepLIF stores U before the
// reset, so its output o_t = 1[U_t > θ] is read back from U (Network.Output).
package layers

import (
	"skipper/internal/parallel"
	"skipper/internal/snn"
	"skipper/internal/tensor"
)

// LayerState is the temporal record a layer produces at one timestep: the
// membrane potential U_t of a LIF layer, the output O of a stateless layer
// (with, for max pooling and batch norm, what its backward needs in U), and
// the sub-states of composite layers (residual blocks). A LIF record holds
// no O; Network.ForwardStep attaches its output there for callers that read
// a step's outputs directly, and no walk reads it.
type LayerState struct {
	U *tensor.Tensor
	O *tensor.Tensor
	// Sub holds internal states of composite layers, e.g. the first LIF of a
	// residual block.
	Sub []*LayerState
}

// Bytes returns the storage footprint of the record in bytes; this is what
// gets charged to the Activations category when a timestep is saved.
func (s *LayerState) Bytes() int64 {
	if s == nil {
		return 0
	}
	var n int64
	if s.U != nil {
		n += s.U.Bytes()
	}
	if s.O != nil {
		n += s.O.Bytes()
	}
	for _, sub := range s.Sub {
		n += sub.Bytes()
	}
	return n
}

// firing reports whether l is a LIF layer, whose output is 1[U > θ] read off
// its record's U, and its θ. A readout integrates without firing; its output
// is its membrane.
func firing(l Layer) (theta float32, ok bool) {
	switch v := l.(type) {
	case *SpikingConv2D:
		return v.Neuron.Threshold, true
	case *SpikingLinear:
		return v.Neuron.Threshold, !v.Readout
	case *RecurrentSpikingLinear:
		return v.Neuron.Threshold, true
	case *ResidualBlock:
		return v.Neuron.Threshold, true
	}
	return 0, false
}

// output is the one place a record becomes an output: layer l's output at
// the step whose record is st. A LIF layer's is Fire(U, θ), written into dst
// (a new tensor when dst is nil); a readout's is its membrane U; a stateless
// layer's is its O.
func output(pool *parallel.Pool, l Layer, st *LayerState, dst *tensor.Tensor) *tensor.Tensor {
	if theta, ok := firing(l); ok {
		if dst == nil {
			dst = tensor.New(st.U.Shape()...)
		}
		snn.Fire(pool, dst, st.U, theta)
		return dst
	}
	if lin, ok := l.(*SpikingLinear); ok && lin.Readout {
		return st.U
	}
	return st.O
}

// spikes is the sum of layer l's output at the step whose record is st,
// sub-states included, and the size of the output: a LIF layer's spikes are
// counted off U without being written.
func spikes(l Layer, st *LayerState) (sum float64, size int) {
	theta, ok := firing(l)
	if !ok {
		o := output(nil, l, st, nil)
		for _, v := range o.Data {
			sum += float64(v)
		}
		return sum, o.Len()
	}
	var count func(st *LayerState) int
	count = func(st *LayerState) int {
		n := snn.FireCount(st.U, theta)
		for _, sub := range st.Sub {
			n += count(sub)
		}
		return n
	}
	return float64(count(st)), st.U.Len()
}

// outShape is the shape of the output a record stands for.
func outShape(st *LayerState) []int {
	if st.O != nil {
		return st.O.Shape()
	}
	return st.U.Shape()
}

// Delta carries the backward-through-time error signal δ_t = ∂L/∂U_t for a
// layer (and its sub-layers), to be consumed at timestep t−1.
type Delta struct {
	D   *tensor.Tensor
	Sub []*Delta
}

// Param is a trainable parameter with its gradient accumulator.
type Param struct {
	Name string
	W    *tensor.Tensor
	G    *tensor.Tensor
}

// Layer is one stage of a spiking network. Implementations must make Forward
// a pure function of (x, prev) within one training iteration so that
// checkpoint recomputation reproduces the original states exactly.
type Layer interface {
	// Name identifies the layer for reports and parameter naming.
	Name() string

	// Build validates the per-sample input shape (e.g. [C,H,W] or [F]),
	// allocates parameters using rng, and returns the per-sample output
	// shape.
	Build(inShape []int, rng *tensor.RNG) ([]int, error)

	// Params returns the trainable parameters (empty for stateless layers).
	Params() []Param

	// Stateful reports whether the layer integrates membrane state over
	// time. The count of stateful layers is the L_n of the paper's
	// T/C > L_n constraint.
	Stateful() bool

	// Forward advances one timestep: x is the input [B, inShape...], prev is
	// this layer's state at t−1 (nil at t = 0). The returned record holds U
	// for a LIF layer and O for a stateless one; Network.Output reads the
	// layer's output off it.
	Forward(x *tensor.Tensor, prev *LayerState) *LayerState

	// Backward consumes ∂L/∂o_t (gradOut), the stored state st, the layer
	// input x at time t, and the δ_{t+1} carried from the future (deltaIn,
	// nil at t = T−1), accumulating parameter gradients and returning
	// ∂L/∂x_t and the δ_t to carry to t−1 (nil for stateless layers).
	Backward(x *tensor.Tensor, st *LayerState, gradOut *tensor.Tensor, deltaIn *Delta) (gradIn *tensor.Tensor, deltaOut *Delta)

	// StateBytes returns the per-timestep record footprint for a batch of
	// the given size, used for device-memory accounting: a LIF layer's U.
	StateBytes(batch int) int64

	// WorkspaceBytes returns the transient scratch footprint (im2col
	// buffers) for a batch of the given size.
	WorkspaceBytes(batch int) int64
}

// IterationLayer is implemented by layers with per-iteration randomness
// (dropout). The trainer calls BeginIteration once per batch; the sampled
// state is then frozen for the whole iteration, including checkpoint
// recomputation, so the recomputed forward pass is identical to the first.
type IterationLayer interface {
	BeginIteration(rng *tensor.RNG)
}

// shapeVolume multiplies the dims of a per-sample shape.
func shapeVolume(shape []int) int {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n
}
