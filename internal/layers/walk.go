package layers

import (
	"fmt"

	"skipper/internal/parallel"
	"skipper/internal/snn"
	"skipper/internal/tensor"
)

// The layer-major walk. In a feed-forward stack, layer l at timestep t
// depends only on layer l−1 at t and on its own state at t−1, so every
// kernel can run as one call per layer over every listed step: the
// elementwise LIF and δ recurrences too, since each neuron's recurrence is
// its own, and each lane scans its neurons through the run's steps in time
// order. Network.Forward and Network.Backward walk the stack one layer at a
// time over a run of timesteps; ForwardStep and BackwardStep are their
// one-step case.
//
// Every per-step list in a walk runs latest step first. A layer allocates its
// outputs for k steps as one block in that order, so the walk's operands are
// consecutive slices of one array wherever the records came from one walk,
// and tensor.Span joins them into a single kernel operand. The backward
// accumulates parameter gradients image by image in operand order, which is
// therefore (t descending, batch ascending) — the order a step-at-a-time walk
// uses — however the steps group into calls.

// stepLayer is a layer whose kernels take any number of timesteps in one
// call; Forward and Backward are its one-step case. Layers without a batched
// form (batch norm's per-timestep statistics, residual blocks, recurrent
// cells, max pooling's batch-relative argmax record) run step by step inside
// the same layer loop instead.
type stepLayer interface {
	Layer
	// forwardSteps writes into out the records of the steps whose inputs are
	// xs (both latest first), advancing from prev, the state before the
	// earliest, and returns the steps' outputs, latest first. A LIF layer's
	// outputs are the walk's transient: the layer above reads them, and no
	// record keeps them.
	forwardSteps(xs []*tensor.Tensor, prev *LayerState, out []*LayerState) []*tensor.Tensor
	// backwardSteps accumulates the parameter gradients of the steps in g and
	// writes their δ and ∂L/∂x where g says. deltaIn carries δ from the step
	// after the latest; the returned Delta carries the earliest step's δ on
	// (nil for a stateless layer).
	backwardSteps(g *stepGrads, deltaIn *Delta) *Delta
}

// stepGrads is one layer's share of a backward walk: per step, latest first,
// what the layer reads and where it writes.
type stepGrads struct {
	x       []*tensor.Tensor // the layer's input o_t^{l−1}; nil for a stateless layer
	st      []*LayerState    // its record
	gradOut []*tensor.Tensor // ∂L/∂o_t, read only
	delta   []*tensor.Tensor // where δ_t goes (stateful layers)
	gradIn  []*tensor.Tensor // where ∂L/∂x_t goes; nil when nothing reads it
}

// oneStep is a layer Backward's walk: one step, with δ (for a record that
// has a membrane) and, when wanted, ∂L/∂x in fresh tensors.
func oneStep(x *tensor.Tensor, st *LayerState, gradOut *tensor.Tensor, wantIn bool) *stepGrads {
	g := &stepGrads{x: []*tensor.Tensor{x}, st: []*LayerState{st}, gradOut: []*tensor.Tensor{gradOut}}
	if st != nil && st.U != nil {
		g.delta = []*tensor.Tensor{tensor.New(st.U.Shape()...)}
	}
	if wantIn {
		g.gradIn = []*tensor.Tensor{tensor.New(x.Shape()...)}
	}
	return g
}

// forwardOne is a stepLayer's Forward: forwardSteps on one step.
func forwardOne(l stepLayer, x *tensor.Tensor, prev *LayerState) *LayerState {
	var out [1]*LayerState
	l.forwardSteps([]*tensor.Tensor{x}, prev, out[:])
	return out[0]
}

// backwardOne is a stepLayer's Backward: backwardSteps on one step, which
// writes into fresh tensors and so leaves the caller's record intact.
func backwardOne(l stepLayer, x *tensor.Tensor, st *LayerState, gradOut *tensor.Tensor, deltaIn *Delta, wantIn bool) (*tensor.Tensor, *Delta) {
	g := oneStep(x, st, gradOut, wantIn)
	d := l.backwardSteps(g, deltaIn)
	if !wantIn {
		return nil, d
	}
	return g.gradIn[0], d
}

// scanDeltas runs δ_t = σ'(U_t)⊙∂L/∂o_t + λ·δ_{t+1} across the steps, latest
// first, from the carry deltaIn, writing each δ where g says: one pool
// dispatch, each lane taking its neurons through every step. It returns the
// earliest step's δ. The reset-path gradient is ignored, as in the paper.
func (g *stepGrads) scanDeltas(pool *parallel.Pool, deltaIn *Delta, n snn.Params, s snn.Surrogate) *tensor.Tensor {
	var next *tensor.Tensor
	if deltaIn != nil {
		next = deltaIn.D
	}
	us := make([]*tensor.Tensor, len(g.st))
	for j, st := range g.st {
		us[j] = st.U
	}
	snn.ScanDelta(pool, g.delta, us, g.gradOut, next, n.Threshold, n.Leak, s)
	return g.delta[len(g.delta)-1]
}

// newSteps allocates one block holding k steps of a batch-b tensor with the
// given per-sample shape and returns the steps' views, latest first.
func newSteps(k, b int, shape []int) []*tensor.Tensor {
	var dims [5]int
	return tensor.New(append(append(dims[:0], k*b), shape...)...).Slots(k)
}

// eachRun calls fn once per maximal run of steps over which both lists'
// tensors lie end to end, with each list's run joined into one tensor: every
// step a kernel can take in one call goes in one call.
func eachRun(a, b []*tensor.Tensor, fn func(a, b *tensor.Tensor)) {
	for lo := 0; lo < len(a); {
		hi := lo + 1
		for hi < len(a) && tensor.Adjacent(a[hi-1], a[hi]) && tensor.Adjacent(b[hi-1], b[hi]) {
			hi++
		}
		fn(tensor.Span(a[lo:hi]), tensor.Span(b[lo:hi]))
		lo = hi
	}
}

// scan runs a LIF layer's recurrence across the steps in time order from
// prev, in one pool dispatch: us hold each step's synaptic current and
// become its membrane, the step's whole record in out. It returns the steps'
// spikes, latest first, in one new block: the walk's transient. The earliest
// step reads o_{t−1} back off prev's U.
func scan(pool *parallel.Pool, us []*tensor.Tensor, prev *LayerState, p snn.Params, out []*LayerState) []*tensor.Tensor {
	k := len(us)
	os := newSteps(k, us[0].Dim(0), us[0].Shape()[1:])
	var uPrev *tensor.Tensor
	if prev != nil {
		uPrev = prev.U
	}
	snn.ScanLIF(pool, us, os, uPrev, p)
	cells := make([]LayerState, k)
	for j, u := range us {
		cells[j].U = u
		out[j] = &cells[j]
	}
	return os
}

// outputs writes a stateless layer's per-step outputs into out as records
// and returns them.
func outputs(os []*tensor.Tensor, out []*LayerState) []*tensor.Tensor {
	cells := make([]LayerState, len(os))
	for j, o := range os {
		cells[j].O = o
		out[j] = &cells[j]
	}
	return os
}

// Forward advances the stack over a run of listed timesteps, one layer at a
// time: each layer computes its synaptic current for every step in one
// kernel call (a conv over |steps|·B images, weights hot, every lane busy),
// then scans its LIF recurrence across the steps in time order, hopping
// directly from one listed step to the next. xs is the network input at each
// step, oldest first; prev is the per-layer state before the first (nil: the
// zero state at t = 0). It returns each step's records, oldest first,
// bit-identical to ForwardStep over the same steps: every kernel computes an
// image exactly as it would alone, and an image with an all-zero input costs
// its layer a bias add. A LIF layer's spikes exist only while the layer
// above reads them (Network.SpikeBytes); its records keep U alone.
func (n *Network) Forward(xs []*tensor.Tensor, prev []*LayerState) [][]*LayerState {
	return n.forward(xs, prev, false)
}

// forward is Forward; with attach set, each record also carries the layer's
// output at its step in O.
func (n *Network) forward(xs []*tensor.Tensor, prev []*LayerState, attach bool) [][]*LayerState {
	n.mustBuilt()
	k, L := len(xs), len(n.Layers)
	recs := make([][]*LayerState, k)
	cells := make([]*LayerState, k*L)
	for i := range recs {
		recs[i] = cells[i*L : (i+1)*L : (i+1)*L]
	}
	if k == 0 {
		return recs
	}
	// in is the current layer's input at each step, latest first.
	in := make([]*tensor.Tensor, k)
	for j := range in {
		in[j] = xs[k-1-j]
	}
	out := make([]*LayerState, k)
	for l, layer := range n.Layers {
		var p *LayerState
		if prev != nil {
			p = prev[l]
		}
		if sl, ok := layer.(stepLayer); ok {
			copy(in, sl.forwardSteps(in, p, out))
		} else {
			for j := k - 1; j >= 0; j-- {
				out[j] = layer.Forward(in[j], p)
				p = out[j]
				in[j] = output(n.pool, layer, out[j], nil)
			}
		}
		for j, st := range out {
			recs[k-1-j][l] = st
			if attach {
				st.O = in[j]
			}
		}
	}
	return recs
}

// Backward runs the δ recursion over the records of a run of listed
// timesteps, one layer at a time from the top of the stack. Each layer takes
// the gradient entering at every step, scans δ across the steps latest to
// earliest (hopping between listed steps as the replay did), then
// accumulates its weight and bias gradients and computes its ∂L/∂x for every
// step in as few kernel calls as the records' layout allows. Gradients
// accumulate in (t descending, batch ascending) order, so the result is
// bit-identical to BackwardStep over the same steps, latest first.
//
// xs and recs are each step's network input and records, oldest first.
// inject[i] holds the external ∂L/∂o entering at step i by layer index (the
// final layer's entry is the loss gradient; TBPTT-LBP adds local-classifier
// entries at interior layers), nil where none enters; injections are only
// read. deltas carries δ from the step after the last listed one (nil at the
// last computed timestep), and the returned slice carries the first listed
// step's δ to the step before it. cut names the layers that take no gradient
// from the layer above (TBPTT-LBP's local supervision); nil cuts none.
//
// The walk consumes the records: once a layer has taken σ'(U_t), δ_t
// overwrites U_t. A weight layer above a LIF layer reads the spikes it takes
// as input back off the records' U into the network's spike block, and once
// its weight gradient has read them ∂L/∂o_t^{l−1} overwrites them; above a
// stateless layer whose backward does not read its own output,
// ∂L/∂o_t^{l−1} overwrites that output in the record. A walk therefore
// needs no storage beyond the records, the injected gradients, one δ carry
// and two spike blocks, the one a layer reads and the one it writes
// (Network.SpikeBytes). keep is the index of a record that must come
// through intact (a windowed caller's next start state), or -1.
func (n *Network) Backward(xs []*tensor.Tensor, recs [][]*LayerState, inject []map[int]*tensor.Tensor, deltas []*Delta, cut map[int]bool, keep int) []*Delta {
	n.mustBuilt()
	k, L := len(xs), len(n.Layers)
	if len(recs) != k {
		panic(fmt.Sprintf("layers: Backward got %d records for %d steps", len(recs), k))
	}
	for _, r := range recs {
		if len(r) != L {
			panic(fmt.Sprintf("layers: Backward got %d states for %d layers", len(r), L))
		}
	}
	if k == 0 {
		return deltas
	}
	if keep >= 0 {
		keep = k - 1 - keep // the lists below run latest first
	}
	newDeltas := make([]*Delta, L)
	// flow is ∂L/∂o of the current layer from the layer above, per step; nil
	// when none flows.
	var flow []*tensor.Tensor
	g := &stepGrads{st: make([]*LayerState, k), gradOut: make([]*tensor.Tensor, k)}
	for l := L - 1; l >= 0; l-- {
		layer := n.Layers[l]
		if cut[l] {
			flow = nil
		}
		var zero *tensor.Tensor
		for j := range g.st {
			i := k - 1 - j
			g.st[j] = recs[i][l]
			var out, inj *tensor.Tensor
			if flow != nil {
				out = flow[j]
			}
			if inject != nil {
				inj = inject[i][l]
			}
			switch {
			case out != nil && inj != nil:
				tensor.AXPY(out, 1, inj)
			case inj != nil:
				out = inj
			case out == nil:
				if zero == nil {
					zero = tensor.New(outShape(g.st[j])...)
				}
				out = zero
			}
			g.gradOut[j] = out
		}
		wantIn := l > 0 && !cut[l-1]
		var din *Delta
		if deltas != nil {
			din = deltas[l]
		}
		sl, batched := layer.(stepLayer)
		// A stateless batched layer does not read its input.
		var fresh bool
		g.x = nil
		if !batched || layer.Stateful() {
			g.x, fresh = n.inputs(l, xs, recs)
		}
		if !batched {
			newDeltas[l], flow = n.backwardEachStep(l, g.x, g.st, g.gradOut, din, wantIn)
			continue
		}
		g.delta = nil
		if layer.Stateful() {
			g.delta = make([]*tensor.Tensor, k)
			for j, st := range g.st {
				if j == keep {
					g.delta[j] = tensor.New(st.U.Shape()...)
				} else {
					g.delta[j] = st.U
				}
			}
		}
		g.gradIn = nil
		switch {
		case !wantIn:
		case fresh:
			g.gradIn = g.x
		default:
			g.gradIn = n.gradInputs(l, recs, keep)
		}
		newDeltas[l] = sl.backwardSteps(g, din)
		flow = g.gradIn
	}
	return newDeltas
}

// inputs lists layer l's input at each step, latest first: the network
// input, or the output of the layer below read off its record. A LIF layer's
// spikes go into layer l's spike block, one Fire per run of records that lie
// end to end, and fresh reports it: the walk may write over them once the
// layer has read them.
func (n *Network) inputs(l int, xs []*tensor.Tensor, recs [][]*LayerState) (in []*tensor.Tensor, fresh bool) {
	k := len(xs)
	in = make([]*tensor.Tensor, k)
	if l == 0 {
		for j := range in {
			in[j] = xs[k-1-j]
		}
		return in, false
	}
	below := n.Layers[l-1]
	theta, fresh := firing(below)
	if !fresh {
		for j := range in {
			in[j] = output(n.pool, below, recs[k-1-j][l-1], nil)
		}
		return in, false
	}
	for j := range in {
		in[j] = recs[k-1-j][l-1].U
	}
	spikes := n.spikeSteps(l, k, in[0].Shape())
	eachRun(in, spikes, func(u, o *tensor.Tensor) { snn.Fire(n.pool, o, u, theta) })
	return spikes, true
}

// gradInputs lists where layer l's ∂L/∂x goes at each step, latest first,
// when the layer's input is not a block the walk may write over: over the
// output a stateless batched layer below keeps in its record — its backward
// does not read it — unless that record must come through intact (keep),
// and otherwise into layer l's spike block.
func (n *Network) gradInputs(l int, recs [][]*LayerState, keep int) []*tensor.Tensor {
	k := len(recs)
	below := n.Layers[l-1]
	_, lif := firing(below)
	if _, batched := below.(stepLayer); batched && !lif {
		gi := make([]*tensor.Tensor, k)
		for j := range gi {
			o := recs[k-1-j][l-1].O
			if j == keep {
				o = tensor.New(o.Shape()...)
			}
			gi[j] = o
		}
		return gi
	}
	return n.spikeSteps(l, k, outShape(recs[0][l-1]))
}

// spikeSteps returns k steps of a tensor of one step's shape, latest first,
// over layer l's spike block, grown as needed. What the block held is
// stale: the caller writes every element.
func (n *Network) spikeSteps(l, k int, shape []int) []*tensor.Tensor {
	buf := &n.spikes[l%2]
	size := k * tensor.Volume(shape)
	if cap(*buf) < size {
		*buf = make([]float32, size)
	}
	dims := append([]int{k * shape[0]}, shape[1:]...)
	return tensor.FromSlice((*buf)[:size:size], dims...).Slots(k)
}

// backwardEachStep is the walk's step-by-step form of layer l, latest step
// first, through the layer's own Backward. x, st and gradOut are the layer's
// input, record and ∂L/∂o at each step, latest first. It returns the
// earliest step's δ carry and, when wanted, each step's ∂L/∂x.
func (n *Network) backwardEachStep(l int, x []*tensor.Tensor, st []*LayerState, gradOut []*tensor.Tensor, din *Delta, wantIn bool) (*Delta, []*tensor.Tensor) {
	var ins []*tensor.Tensor
	if wantIn {
		ins = make([]*tensor.Tensor, len(x))
	}
	for j := range gradOut {
		var gradIn *tensor.Tensor
		gradIn, din = n.Layers[l].Backward(x[j], st[j], gradOut[j], din)
		if wantIn {
			ins[j] = gradIn
		}
	}
	return din, ins
}
