// Package layers implements the spiking network layers and their analytic
// BPTT backward passes (paper Eq. 2). A network is a sequence of layers;
// each timestep's forward produces a per-layer state record (U_t, o_t) — the
// "activations" whose storage the paper's checkpointing and time-skipping
// techniques manipulate — and the backward pass consumes those records while
// carrying the per-layer error signal δ_t backward through time.
package layers

import (
	"skipper/internal/parallel"
	"skipper/internal/snn"
	"skipper/internal/tensor"
)

// LayerState is the temporal record a layer produces at one timestep: the
// membrane potential U_t (nil for stateless layers), the output o_t, and the
// sub-states of composite layers (residual blocks).
type LayerState struct {
	U *tensor.Tensor
	O *tensor.Tensor
	// Sub holds internal states of composite layers, e.g. the first LIF of a
	// residual block.
	Sub []*LayerState
}

// stepLIFPrev advances one LIF timestep from prev, the layer's state at t−1
// (nil at t = 0).
func stepLIFPrev(pool *parallel.Pool, u, o *tensor.Tensor, prev *LayerState, p snn.Params) {
	if prev == nil {
		snn.StepLIF(pool, u, o, nil, nil, u, p)
		return
	}
	snn.StepLIF(pool, u, o, prev.U, prev.O, u, p)
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

// SpikeSum returns the total number of spikes in the record including
// sub-states — the per-layer contribution to the SAM metric s_t (Eq. 4).
func (s *LayerState) SpikeSum() float64 {
	if s == nil {
		return 0
	}
	var sum float64
	if s.O != nil {
		for _, v := range s.O.Data {
			sum += float64(v)
		}
	}
	for _, sub := range s.Sub {
		sum += sub.SpikeSum()
	}
	return sum
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
	// this layer's state at t−1 (nil at t = 0). The returned state always
	// has O set.
	Forward(x *tensor.Tensor, prev *LayerState) *LayerState

	// Backward consumes ∂L/∂o_t (gradOut), the stored state st, the layer
	// input x at time t, and the δ_{t+1} carried from the future (deltaIn,
	// nil at t = T−1), accumulating parameter gradients and returning
	// ∂L/∂x_t and the δ_t to carry to t−1 (nil for stateless layers).
	Backward(x *tensor.Tensor, st *LayerState, gradOut *tensor.Tensor, deltaIn *Delta) (gradIn *tensor.Tensor, deltaOut *Delta)

	// StateBytes returns the per-timestep record footprint for a batch of
	// the given size, used for device-memory accounting.
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
