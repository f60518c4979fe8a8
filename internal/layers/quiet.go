package layers

import (
	"skipper/internal/tensor"
)

// QuietState is the leak-only fast-forward for all-zero input timesteps —
// the paper's time-skipping applied online. A quiet window of an event
// stream contributes no synaptic input, so the only work a timestep really
// needs is the membrane recurrence U_t = λ·U_{t−1} + I_bias − θ·o_{t−1};
// the synaptic current I_bias (the bias term pushed through the layer's
// kernel on a zero input) is the same every quiet step and is therefore
// computed once, by the layer's real kernel, and replayed from cache.
//
// Because the cached current carries the exact float bits a full forward on
// a zero tensor would have produced, and the recurrence reuses the layers'
// own fire paths, a quiet step is bitwise identical to
// Network.ForwardStep(zero, prev) by construction — the guarantee the
// stream-serving skip path is gated on.
type QuietState struct {
	net   *Network
	batch int
	// inShapes[i] is the per-sample input shape of layer i.
	inShapes [][]int
	// currents[i] caches layer i's zero-input synaptic current, computed
	// lazily the first time the quiet chain reaches layer i.
	currents []*tensor.Tensor
	// zeroIns[i] caches an all-zero input tensor for pass-through layers
	// and for the cache-filling kernel runs.
	zeroIns   []*tensor.Tensor
	supported bool
}

// NewQuietState prepares the fast path for one network at a fixed batch
// size. Supported reports false when the stack contains layers whose quiet
// behaviour is not modelled here (batch norm, residual blocks, recurrent
// cells) or when spike-pack mode is on; callers then fall back to a full
// zero-input ForwardStep, which is always correct, just slower.
func NewQuietState(net *Network, batch int) *QuietState {
	q := &QuietState{
		net:       net,
		batch:     batch,
		inShapes:  make([][]int, len(net.Layers)),
		currents:  make([]*tensor.Tensor, len(net.Layers)),
		zeroIns:   make([]*tensor.Tensor, len(net.Layers)),
		supported: net.QuietCovered(),
	}
	in := net.InShape
	for i, l := range net.Layers {
		q.inShapes[i] = append([]int(nil), in...)
		in = layerOutShape(l, in)
	}
	return q
}

// QuietCovered reports whether the leak-only step models every layer of the
// network: a stack of spiking conv and linear layers, pools and dropout, not
// in spike-pack mode.
func (n *Network) QuietCovered() bool {
	n.mustBuilt()
	for _, l := range n.Layers {
		switch l.(type) {
		case *SpikingConv2D, *SpikingLinear, *AvgPool2D, *GlobalAvgPool, *MaxPool2D, *Dropout:
		default:
			return false
		}
	}
	return !n.spikePack
}

// Supported reports whether the quiet fast path covers this network.
func (q *QuietState) Supported() bool { return q.supported }

// Invalidate drops the cached zero-input currents. Call after the network's
// weights change (checkpoint reload) so the cache is rebuilt from the new
// biases.
func (q *QuietState) Invalidate() {
	for i := range q.currents {
		q.currents[i] = nil
	}
}

func (q *QuietState) zeroIn(i int) *tensor.Tensor {
	if q.zeroIns[i] == nil {
		q.zeroIns[i] = tensor.New(append([]int{q.batch}, q.inShapes[i]...)...)
	}
	return q.zeroIns[i]
}

// current returns layer i's cached zero-input synaptic current, filling the
// cache through the layer's real kernel so every later reuse carries the
// exact bits of a full forward on a zero tensor.
func (q *QuietState) current(i int, compute func(zero *tensor.Tensor) *tensor.Tensor) *tensor.Tensor {
	if q.currents[i] == nil {
		q.currents[i] = compute(q.zeroIn(i))
	}
	return q.currents[i]
}

// Step advances the whole stack one timestep under an all-zero input
// without re-running the synaptic kernels for layers whose input is still
// quiet. Bias-driven spikes deeper in the stack are handled exactly: after
// each spiking layer the output is scanned, and the first non-zero output
// switches the remainder of the stack back to the normal Forward chain.
// Returns (nil, false) when the network is unsupported.
func (q *QuietState) Step(prev []*LayerState) ([]*LayerState, bool) {
	if !q.supported || q.net.spikePack {
		return nil, false
	}
	n := q.net
	states := make([]*LayerState, len(n.Layers))
	// cur == nil means "the input to the next layer is known all-zero";
	// once any layer emits a spike the rest of the stack runs normally.
	var cur *tensor.Tensor
	for i, l := range n.Layers {
		var p *LayerState
		if prev != nil {
			p = prev[i]
		}
		var st *LayerState
		if cur != nil {
			st = l.Forward(cur, p)
		} else {
			switch v := l.(type) {
			case *SpikingConv2D:
				u := q.current(i, func(zero *tensor.Tensor) *tensor.Tensor {
					u := tensor.New(q.batch, v.outShape[0], v.outShape[1], v.outShape[2])
					tensor.Conv2D(v.pool, u, zero, v.weight, v.bias, v.Spec, v.scratch)
					return u
				}).Clone()
				st = &LayerState{U: u, O: tensor.New(u.Shape()...)}
				v.fire(st, p)
			case *SpikingLinear:
				u := q.current(i, func(zero *tensor.Tensor) *tensor.Tensor {
					u := tensor.New(q.batch, v.Out)
					tensor.MatMulTransB(v.pool, u, v.flatten(zero), v.weight)
					tensor.AddRowBias(u, v.bias)
					return u
				}).Clone()
				st = &LayerState{U: u, O: tensor.New(u.Shape()...)}
				v.fire(st, p)
			default:
				// Stateless shape transforms (pools, dropout): zero in means
				// zero out, but the record (max-pool argmax planes, shapes)
				// must match a full forward exactly, so run the real kernel
				// on a real zero tensor.
				st = l.Forward(q.zeroIn(i), p)
			}
		}
		states[i] = st
		if i == len(n.Layers)-1 {
			break
		}
		if cur != nil || !allZero(st.O) {
			cur = st.O
		}
	}
	return states, true
}

func allZero(t *tensor.Tensor) bool {
	if t == nil {
		return true
	}
	for _, v := range t.Data {
		if v != 0 {
			return false
		}
	}
	return true
}

// OutShapes returns each layer's per-sample output shape in order — the
// shape contract a restored session state must satisfy.
func (n *Network) OutShapes() [][]int {
	n.mustBuilt()
	shapes := make([][]int, len(n.Layers))
	in := n.InShape
	for i, l := range n.Layers {
		out := layerOutShape(l, in)
		shapes[i] = append([]int(nil), out...)
		in = out
	}
	return shapes
}
