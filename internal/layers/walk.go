package layers

import (
	"fmt"

	"skipper/internal/parallel"
	"skipper/internal/snn"
	"skipper/internal/tensor"
)

// The layer-major walk. In a feed-forward stack, layer l at timestep t
// depends only on layer l−1 at t and on its own state at t−1, so everything
// but the elementwise LIF and δ recurrences can run as one kernel call per
// layer over every listed step. Network.Forward and Network.Backward walk the
// stack one layer at a time over a run of timesteps; ForwardStep and
// BackwardStep are their one-step case.
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
	// earliest.
	forwardSteps(xs []*tensor.Tensor, prev *LayerState, out []*LayerState)
	// backwardSteps accumulates the parameter gradients of the steps in g and
	// writes their δ and ∂L/∂x where g says. deltaIn carries δ from the step
	// after the latest; the returned Delta carries the earliest step's δ on
	// (nil for a stateless layer).
	backwardSteps(g *stepGrads, deltaIn *Delta) *Delta
}

// stepGrads is one layer's share of a backward walk: per step, latest first,
// what the layer reads and where it writes.
type stepGrads struct {
	x       []*tensor.Tensor // the layer's input o_t^{l−1}
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
// first, from the carry deltaIn, writing each δ where g says. It returns the
// earliest step's δ. The reset-path gradient is ignored, as in the paper.
func (g *stepGrads) scanDeltas(pool *parallel.Pool, deltaIn *Delta, n snn.Params, s snn.Surrogate) *tensor.Tensor {
	var next *tensor.Tensor
	if deltaIn != nil {
		next = deltaIn.D
	}
	for j, d := range g.delta {
		snn.SurrogateDelta(pool, d, g.st[j].U, g.gradOut[j], next, n.Threshold, n.Leak, s)
		next = d
	}
	return next
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
// prev: us hold each step's synaptic current and os receive its spikes, and
// fire advances one step in place. It writes the records into out; every
// list runs latest first.
func scan(us, os []*tensor.Tensor, prev *LayerState, fire func(st, prev *LayerState), out []*LayerState) {
	cells := make([]LayerState, len(us))
	for j := len(us) - 1; j >= 0; j-- {
		st := &cells[j]
		st.U, st.O = us[j], os[j]
		fire(st, prev)
		out[j] = st
		prev = st
	}
}

// outputs writes a stateless layer's per-step outputs into out as records.
func outputs(os []*tensor.Tensor, out []*LayerState) {
	cells := make([]LayerState, len(os))
	for j, o := range os {
		cells[j].O = o
		out[j] = &cells[j]
	}
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
// its layer a bias add.
func (n *Network) Forward(xs []*tensor.Tensor, prev []*LayerState) [][]*LayerState {
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
			sl.forwardSteps(in, p, out)
		} else {
			for j := k - 1; j >= 0; j-- {
				out[j] = layer.Forward(in[j], p)
				p = out[j]
			}
		}
		for j, st := range out {
			recs[k-1-j][l] = st
			in[j] = st.O
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
// overwrites U_t, and once layer l has read o_t^{l−1} for its weight
// gradient, ∂L/∂o_t^{l−1} overwrites it where layer l−1's backward does not
// read its own output. A walk therefore needs no storage beyond the records,
// the injected gradients and one δ carry. keep is the index of a record that
// must come through intact (a windowed caller's next start state), or -1.
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
					zero = tensor.New(g.st[j].O.Shape()...)
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
		if !batched {
			newDeltas[l], flow = n.backwardEachStep(l, xs, recs, g.gradOut, din, wantIn)
			continue
		}
		g.x = make([]*tensor.Tensor, k)
		for j := range g.x {
			if l == 0 {
				g.x[j] = xs[k-1-j]
			} else {
				g.x[j] = recs[k-1-j][l-1].O
			}
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
		if wantIn {
			g.gradIn = make([]*tensor.Tensor, k)
			if _, below := n.Layers[l-1].(stepLayer); below {
				for j, x := range g.x {
					if j == keep {
						g.gradIn[j] = tensor.New(x.Shape()...)
					} else {
						g.gradIn[j] = x
					}
				}
			} else {
				copy(g.gradIn, newSteps(k, g.x[0].Dim(0), g.x[0].Shape()[1:]))
			}
		}
		newDeltas[l] = sl.backwardSteps(g, din)
		flow = g.gradIn
	}
	return newDeltas
}

// backwardEachStep is the walk's step-by-step form of layer l, latest step
// first, through the layer's own Backward. It returns the earliest step's δ
// carry and, when wanted, each step's ∂L/∂x.
func (n *Network) backwardEachStep(l int, xs []*tensor.Tensor, recs [][]*LayerState, gradOut []*tensor.Tensor, din *Delta, wantIn bool) (*Delta, []*tensor.Tensor) {
	k := len(xs)
	var ins []*tensor.Tensor
	if wantIn {
		ins = make([]*tensor.Tensor, k)
	}
	for j := range gradOut {
		i := k - 1 - j
		x := xs[i]
		if l > 0 {
			x = recs[i][l-1].O
		}
		var gradIn *tensor.Tensor
		gradIn, din = n.Layers[l].Backward(x, recs[i][l], gradOut[j], din)
		if wantIn {
			ins[j] = gradIn
		}
	}
	return din, ins
}
