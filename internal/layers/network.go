package layers

import (
	"fmt"

	"skipper/internal/parallel"
	"skipper/internal/tensor"
)

// Network is a feed-forward stack of layers unrolled in time by the training
// engine. It provides the layer-major forward and backward walks over a run
// of timesteps (walk.go), and their single-timestep case, that every
// training strategy (BPTT, checkpointing, Skipper, TBPTT, TBPTT-LBP)
// composes.
type Network struct {
	Name    string
	InShape []int // per-sample input shape [C,H,W]
	Layers  []Layer

	outShape []int
	built    bool
	pool     *parallel.Pool
	// spikes are the two blocks a backward walk writes a layer's input
	// spikes, and then ∂L/∂x over them, into (spikeSteps): layer l uses
	// spikes[l%2], so the block it reads from the layer above is never the
	// one it writes.
	spikes [2][]float32
}

// PoolAware is implemented by layers whose kernels run on the parallel
// compute pool. Network.SetPool fans the pool out to them; a layer never
// owning a pool (nil) runs its kernels serially, which is always
// bit-identical to any pool size.
type PoolAware interface {
	SetPool(*parallel.Pool)
}

// SetPool hands every pool-aware layer the shared compute pool. Call once
// after Build (and again after a pool change); a nil pool reverts the
// network to serial kernels. Results are bit-identical either way.
func (n *Network) SetPool(p *parallel.Pool) {
	n.pool = p
	for _, l := range n.Layers {
		if pa, ok := l.(PoolAware); ok {
			pa.SetPool(p)
		}
	}
}

// Pool returns the compute pool the network's layers run on (nil = serial).
func (n *Network) Pool() *parallel.Pool { return n.pool }

// NewNetwork assembles an unbuilt network from layers.
func NewNetwork(name string, inShape []int, ls ...Layer) *Network {
	return &Network{Name: name, InShape: append([]int(nil), inShape...), Layers: ls}
}

// Build wires up all layer shapes and initialises parameters from rng.
func (n *Network) Build(rng *tensor.RNG) error {
	shape := n.InShape
	for i, l := range n.Layers {
		out, err := l.Build(shape, rng.Derive(uint64(i)))
		if err != nil {
			return fmt.Errorf("layers: building %s layer %d (%s): %w", n.Name, i, l.Name(), err)
		}
		shape = out
	}
	n.outShape = shape
	n.built = true
	// Nothing reads ∂L/∂x of the network input, so the first layer need not
	// compute it (conv1 is a third of vgg5's conv MACs).
	if len(n.Layers) > 0 {
		if il, ok := n.Layers[0].(interface{ markInputLayer() }); ok {
			il.markInputLayer()
		}
	}
	return nil
}

// OutShape returns the per-sample output shape (typically [classes]).
func (n *Network) OutShape() []int {
	n.mustBuilt()
	return n.outShape
}

func (n *Network) mustBuilt() {
	if !n.built {
		panic("layers: network used before Build")
	}
}

// Params returns all trainable parameters in layer order.
func (n *Network) Params() []Param {
	var ps []Param
	for _, l := range n.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// ParamCount returns the total number of trainable scalars.
func (n *Network) ParamCount() int {
	c := 0
	for _, p := range n.Params() {
		c += p.W.Len()
	}
	return c
}

// ParamBytes returns the weight footprint in bytes.
func (n *Network) ParamBytes() int64 {
	var b int64
	for _, p := range n.Params() {
		b += p.W.Bytes()
	}
	return b
}

// ZeroGrads clears all parameter gradients.
func (n *Network) ZeroGrads() {
	for _, p := range n.Params() {
		p.G.Zero()
	}
}

// BufferedLayer is implemented by layers holding persistent non-trainable
// buffers (batch-norm running statistics) that are not part of Params but
// must survive a checkpoint/resume cycle.
type BufferedLayer interface {
	// Buffers returns the live buffers (aliased, not copied).
	Buffers() []tensor.Named
}

// Buffers returns all persistent non-trainable tensors in layer order.
func (n *Network) Buffers() []tensor.Named {
	var bs []tensor.Named
	for _, l := range n.Layers {
		if bl, ok := l.(BufferedLayer); ok {
			bs = append(bs, bl.Buffers()...)
		}
	}
	return bs
}

// StatefulCount returns L_n: the number of membrane-carrying layers
// (residual blocks count their two LIF stages). This is the L_n in the
// paper's T/C > L_n constraint and Eq. 7.
func (n *Network) StatefulCount() int {
	c := 0
	for _, l := range n.Layers {
		if !l.Stateful() {
			continue
		}
		if rb, ok := l.(*ResidualBlock); ok {
			_ = rb
			c += 2
			continue
		}
		c++
	}
	return c
}

// BeginIteration re-samples per-iteration randomness (dropout masks).
func (n *Network) BeginIteration(rng *tensor.RNG) {
	for i, l := range n.Layers {
		if il, ok := l.(IterationLayer); ok {
			il.BeginIteration(rng.Derive(uint64(i)))
		}
	}
}

// EndIteration switches per-iteration layers back to evaluation behaviour.
func (n *Network) EndIteration() {
	for _, l := range n.Layers {
		if e, ok := l.(interface{ EndIteration() }); ok {
			e.EndIteration()
		}
	}
}

// BeginRecompute marks the start of a checkpoint replay: layers with
// first-pass-only side effects (batch-norm running statistics) freeze them.
func (n *Network) BeginRecompute() { n.setRecompute(true) }

// EndRecompute marks the end of a checkpoint replay.
func (n *Network) EndRecompute() { n.setRecompute(false) }

func (n *Network) setRecompute(on bool) {
	for _, l := range n.Layers {
		if r, ok := l.(RecomputeAware); ok {
			r.SetRecompute(on)
		}
	}
}

// ForwardStep advances the whole stack one timestep: Forward on one step. x
// is the input spikes [B, InShape...]; prev is the per-layer state at t−1
// (nil at t = 0). The returned slice has one state per layer, each holding
// the layer's output at the step in O — a LIF layer's spikes, the readout's
// U, a stateless layer's own output — for callers that read a step's
// outputs directly. No walk reads a LIF record's O, so such a record resumes
// a walk exactly as its U alone does.
func (n *Network) ForwardStep(x *tensor.Tensor, prev []*LayerState) []*LayerState {
	return n.forward([]*tensor.Tensor{x}, prev, true)[0]
}

// Output returns layer l's output at the step whose record is st, read the
// one way every reader reads it: a LIF layer's spikes 1[U > θ] in a new
// tensor, a readout's membrane U, a stateless layer's O.
func (n *Network) Output(l int, st *LayerState) *tensor.Tensor {
	return output(n.pool, n.Layers[l], st, nil)
}

// Spikes returns the sum of layer l's output at the step whose record is st,
// sub-states included, and the size of that output. A LIF layer's spikes are
// counted off U without being written.
func (n *Network) Spikes(l int, st *LayerState) (sum float64, size int) {
	return spikes(n.Layers[l], st)
}

// Logits returns the readout output of the final layer for a timestep's
// states.
func (n *Network) Logits(states []*LayerState) *tensor.Tensor {
	return n.Output(len(states)-1, states[len(states)-1])
}

// SpikeSum returns s_t = Σ_l sum(o_t^l) over all layers for one timestep's
// states (paper Eq. 4). The readout layer is excluded: its "output" is a
// membrane potential, not spikes.
func (n *Network) SpikeSum(states []*LayerState) float64 {
	var s float64
	for i, st := range states {
		if lin, ok := n.Layers[i].(*SpikingLinear); ok && lin.Readout {
			continue
		}
		sum, _ := n.Spikes(i, st)
		s += sum
	}
	return s
}

// BackwardStep runs one timestep of the δ recursion from the top of the
// stack to the bottom: Backward on one step, which leaves the caller's
// records intact. x and states are the input and records at time t. gradsAt
// injects external ∂L/∂o_t gradients by layer index (the final layer's entry
// is the loss gradient). deltas carries δ_{t+1} per layer (nil at the last
// computed timestep) and the replacement δ_t slice is returned.
func (n *Network) BackwardStep(x *tensor.Tensor, states []*LayerState, gradsAt map[int]*tensor.Tensor, deltas []*Delta) []*Delta {
	return n.Backward([]*tensor.Tensor{x}, [][]*LayerState{states}, []map[int]*tensor.Tensor{gradsAt}, deltas, nil, 0)
}

// RecordBytes returns the activation bytes of one stored timestep for a
// batch of the given size — the unit the paper's memory model is built from.
func (n *Network) RecordBytes(batch int) int64 {
	var b int64
	for _, l := range n.Layers {
		b += l.StateBytes(batch)
	}
	return b
}

// DeltaBytes returns the bytes of one timestep's δ for a batch of the given
// size: a stateful layer's δ has the shape of its record's U.
func (n *Network) DeltaBytes(batch int) int64 {
	var b int64
	for _, l := range n.Layers {
		if l.Stateful() {
			b += l.StateBytes(batch)
		}
	}
	return b
}

// SpikeBytes returns the most spikes a walk holds at once, per step it walks,
// for a batch of the given size. A LIF layer's output is in no record: a
// walk reads it off U as the layer above's input, writes ∂L/∂o over it on
// the way back, and drops it once that layer is done, so at most the spikes
// entering and leaving one layer are live.
func (n *Network) SpikeBytes(batch int) int64 {
	var most, below int64
	for _, l := range n.Layers {
		var b int64
		if _, ok := firing(l); ok {
			b = l.StateBytes(batch)
		}
		most = max(most, below+b)
		below = b
	}
	return most
}

// WorkspaceBytes returns the peak transient scratch requirement.
func (n *Network) WorkspaceBytes(batch int) int64 {
	var m int64
	for _, l := range n.Layers {
		if w := l.WorkspaceBytes(batch); w > m {
			m = w
		}
	}
	return m
}

// Summary renders a one-line-per-layer description of the built network.
func (n *Network) Summary() string {
	n.mustBuilt()
	s := fmt.Sprintf("%s: in=%v params=%d L_n=%d\n", n.Name, n.InShape, n.ParamCount(), n.StatefulCount())
	shape := n.InShape
	for i, l := range n.Layers {
		nextShape := layerOutShape(l, shape)
		s += fmt.Sprintf("  %2d %-18s %v -> %v\n", i, l.Name(), shape, nextShape)
		shape = nextShape
	}
	return s
}

// layerOutShape recovers a built layer's output shape for reporting.
func layerOutShape(l Layer, in []int) []int {
	switch v := l.(type) {
	case *SpikingConv2D:
		return v.outShape
	case *SpikingLinear:
		return []int{v.Out}
	case *AvgPool2D:
		return v.outShape
	case *MaxPool2D:
		return v.outShape
	case *GlobalAvgPool:
		return []int{v.inShape[0]}
	case *ResidualBlock:
		return v.outShape
	case *Dropout:
		return in
	default:
		return in
	}
}
