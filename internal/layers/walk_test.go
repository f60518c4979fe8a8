package layers_test

import (
	"fmt"
	"math"
	"testing"

	"skipper/internal/layers"
	"skipper/internal/models"
	"skipper/internal/parallel"
	"skipper/internal/snn"
	"skipper/internal/tensor"
)

// walkNets are the stacks the walk property runs on: every layer kind, with
// and without a batched form. A low threshold keeps every layer firing, so
// every surrogate gradient and every weight gradient is non-trivial.
var walkNets = []struct {
	name  string
	in    []int
	build func() (*layers.Network, error)
}{
	{"vgg5", []int{3, 16, 16}, modelNet("vgg5", models.Options{})},
	{"vgg5+bn", []int{3, 16, 16}, modelNet("vgg5", models.Options{BatchNorm: true})},
	{"vgg5+dropout", []int{3, 16, 16}, modelNet("vgg5", models.Options{DropoutP: 0.3})},
	{"resnet20", []int{3, 16, 16}, modelNet("resnet20", models.Options{})},
	{"lenet", []int{2, 16, 16}, modelNet("lenet", models.Options{})},
	{"recurrent", []int{2, 8, 8}, func() (*layers.Network, error) {
		n := walkNeuron
		net := layers.NewNetwork("rec", []int{2, 8, 8},
			layers.NewSpikingConv2D("conv", 4, 3, 1, 1, n, snn.Triangle{}),
			layers.NewMaxPool2D("pool", 2),
			layers.NewRecurrentSpikingLinear("rec", 12, n, snn.Triangle{}),
			layers.NewSpikingLinear("fc", 8, n, snn.Triangle{}),
			layers.NewReadout("out", 3, n),
		)
		return net, net.Build(tensor.NewRNG(3))
	}},
}

var walkNeuron = snn.Params{Leak: 0.9, Threshold: 0.5}

func modelNet(name string, o models.Options) func() (*layers.Network, error) {
	return func() (*layers.Network, error) {
		o.Width, o.Neuron = 0.5, walkNeuron
		return models.Build(name, o)
	}
}

// walkInput is T steps of binary spikes at batch 3, with step 3 silent and
// sample 1 silent at step 5, so the walk meets whole quiet steps and quiet
// images inside a busy step.
func walkInput(in []int, T int) []*tensor.Tensor {
	rng := tensor.NewRNG(17)
	xs := make([]*tensor.Tensor, T)
	for t := range xs {
		xs[t] = tensor.New(append([]int{3}, in...)...)
		if t == 3 {
			continue
		}
		for i := range xs[t].Data {
			xs[t].Data[i] = rng.Bernoulli(0.4)
		}
		if t == 5 {
			per := xs[t].Len() / 3
			clear(xs[t].Data[per : 2*per])
		}
	}
	return xs
}

// pair is one network stepped a step per call on the serial path (ref) and
// its twin walked many steps per call on a pool (walk), with the same
// weights and dropout masks.
type pair struct{ ref, walk *layers.Network }

func newPair(t *testing.T, build func() (*layers.Network, error), lanes int) pair {
	t.Helper()
	var p pair
	for _, n := range []**layers.Network{&p.ref, &p.walk} {
		net, err := build()
		if err != nil {
			t.Fatal(err)
		}
		net.BeginIteration(tensor.NewRNG(9))
		net.ZeroGrads()
		*n = net
	}
	pool := parallel.NewPool(lanes)
	t.Cleanup(pool.Close)
	p.walk.SetPool(pool)
	return p
}

// firstPass steps both networks over [0, end), the step-major pass that
// decides the boundary records, and returns each one's record at every step.
func (p pair) firstPass(xs []*tensor.Tensor, end int) (ref, walk [][]*layers.LayerState) {
	ref, walk = make([][]*layers.LayerState, end), make([][]*layers.LayerState, end)
	var a, b []*layers.LayerState
	for t := 0; t < end; t++ {
		a, b = p.ref.ForwardStep(xs[t], a), p.walk.ForwardStep(xs[t], b)
		ref[t], walk[t] = a, b
	}
	return ref, walk
}

// gradsAt is the loss gradient entering at step t: at the readout on every
// step, and at layer 1 on step 6 as well (added to the gradient flowing down
// from layer 2).
func gradsAt(net *layers.Network, t int, rec []*layers.LayerState) map[int]*tensor.Tensor {
	rng := tensor.NewRNG(uint64(100 + t))
	top := len(net.Layers) - 1
	g := tensor.New(rec[top].O.Shape()...)
	rng.FillNorm(g, 0, 0.1)
	inj := map[int]*tensor.Tensor{top: g}
	if t == 6 {
		g1 := tensor.New(rec[1].O.Shape()...)
		rng.FillNorm(g1, 0, 0.1)
		inj[1] = g1
	}
	return inj
}

func bitsEqual(a, b *tensor.Tensor) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if fmt.Sprint(a.Shape()) != fmt.Sprint(b.Shape()) {
		return false
	}
	for i, v := range a.Data {
		if math.Float32bits(v) != math.Float32bits(b.Data[i]) {
			return false
		}
	}
	return true
}

func sameState(a, b *layers.LayerState) bool {
	if !bitsEqual(a.U, b.U) || !bitsEqual(a.O, b.O) || len(a.Sub) != len(b.Sub) {
		return false
	}
	for i := range a.Sub {
		if !sameState(a.Sub[i], b.Sub[i]) {
			return false
		}
	}
	return true
}

func sameDeltas(a, b []*layers.Delta) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if (a[i] == nil) != (b[i] == nil) {
			return false
		}
		if a[i] == nil {
			continue
		}
		if !bitsEqual(a[i].D, b[i].D) || !sameDeltas(a[i].Sub, b[i].Sub) {
			return false
		}
	}
	return true
}

func cloneState(s *layers.LayerState) *layers.LayerState {
	c := &layers.LayerState{O: s.O.Clone()}
	if s.U != nil {
		c.U = s.U.Clone()
	}
	for _, sub := range s.Sub {
		c.Sub = append(c.Sub, cloneState(sub))
	}
	return c
}

func requireSameGrads(t *testing.T, p pair) {
	t.Helper()
	rp, wp := p.ref.Params(), p.walk.Params()
	for i := range rp {
		if !bitsEqual(rp[i].G, wp[i].G) {
			t.Fatalf("gradient of %s differs", rp[i].Name)
		}
		if tensor.Norm2(rp[i].G) == 0 {
			t.Fatalf("gradient of %s is zero: the case pins nothing", rp[i].Name)
		}
	}
}

// Replaying a segment's survivors and walking them back many steps per call
// (Network.Forward/Backward, on 1, 2 and 4 lanes) is bit-identical to one
// step per call on the serial path (ForwardStep/BackwardStep): every record,
// the δ carried between two segments, every parameter gradient and the
// logits — on stacks with and without a batched form, over survivor lists
// with gaps, quiet steps and quiet images. With pack=true the walk resumes
// each segment from a boundary record that went through bit-packed storage
// and back, as Config.CompressSpikes keeps its checkpoints.
func TestWalkManyStepsEqualsOneStepPerCall(t *testing.T) {
	const T = 9
	// Two segments of a T=9 batch, walked last first: [5, 9) keeping steps
	// 6 and 8, then [0, 5) keeping 1, 3 (silent) and 4.
	segments := []struct {
		start     int
		survivors []int
	}{{5, []int{6, 8}}, {0, []int{1, 3, 4}}}
	for _, nc := range walkNets {
		for _, pack := range []bool{false, true} {
			for _, lanes := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("%s/pack=%v/lanes=%d", nc.name, pack, lanes), func(t *testing.T) {
					p := newPair(t, nc.build, lanes)
					xs := walkInput(nc.in, T)
					refFirst, walkFirst := p.firstPass(xs, T)
					p.ref.BeginRecompute()
					p.walk.BeginRecompute()
					var refCarry, walkCarry []*layers.Delta
					for _, seg := range segments {
						steps := append([]int{seg.start}, seg.survivors...)
						refRecs := [][]*layers.LayerState{refFirst[seg.start]}
						states := refFirst[seg.start]
						for _, s := range seg.survivors {
							states = p.ref.ForwardStep(xs[s], states)
							refRecs = append(refRecs, states)
						}
						var sx []*tensor.Tensor
						for _, s := range seg.survivors {
							sx = append(sx, xs[s])
						}
						boundary := walkFirst[seg.start]
						if pack {
							boundary = packRoundTrip(t, boundary)
						}
						walkRecs := append([][]*layers.LayerState{boundary}, p.walk.Forward(sx, boundary)...)
						for i := range steps {
							for l := range refRecs[i] {
								if !sameState(refRecs[i][l], walkRecs[i][l]) {
									t.Fatalf("step %d layer %d (%s): records differ", steps[i], l, p.ref.Layers[l].Name())
								}
							}
						}
						if !bitsEqual(p.ref.Logits(refRecs[len(steps)-1]), p.walk.Logits(walkRecs[len(steps)-1])) {
							t.Fatal("logits differ")
						}

						var wx []*tensor.Tensor
						var winj []map[int]*tensor.Tensor
						for i := len(steps) - 1; i >= 0; i-- {
							refCarry = p.ref.BackwardStep(xs[steps[i]], refRecs[i], gradsAt(p.ref, steps[i], refRecs[i]), refCarry)
						}
						for i, s := range steps {
							wx = append(wx, xs[s])
							winj = append(winj, gradsAt(p.walk, s, walkRecs[i]))
						}
						walkCarry = p.walk.Backward(wx, walkRecs, winj, walkCarry, nil, -1)
						if !sameDeltas(refCarry, walkCarry) {
							t.Fatalf("δ carry out of segment [%d, …) differs", seg.start)
						}
					}
					requireSameGrads(t, p)
				})
			}
		}
	}
}

// packRoundTrip returns a record set whose binary outputs went through
// tensor.PackSpikes and back to floats, the storage Config.CompressSpikes
// gives a checkpoint; non-binary outputs and membranes are kept as they are.
// It fails the test if no output was packed, which would leave pack=true
// pinning nothing.
func packRoundTrip(t *testing.T, recs []*layers.LayerState) []*layers.LayerState {
	t.Helper()
	packed := 0
	var trip func(s *layers.LayerState) *layers.LayerState
	trip = func(s *layers.LayerState) *layers.LayerState {
		c := &layers.LayerState{U: s.U, O: s.O}
		if p, ok := tensor.PackSpikes(s.O); ok {
			c.O = p.Unpack()
			packed++
		}
		for _, sub := range s.Sub {
			c.Sub = append(c.Sub, trip(sub))
		}
		return c
	}
	out := make([]*layers.LayerState, len(recs))
	for i, s := range recs {
		out[i] = trip(s)
	}
	if packed == 0 {
		t.Fatal("no boundary output is binary: pack=true pins nothing")
	}
	return out
}

// A windowed caller's kept record comes through the walk untouched, while
// the rest are consumed, and the gradients are those of one step per call.
func TestWalkLeavesKeptRecordIntact(t *testing.T) {
	const T = 6
	for _, nc := range walkNets {
		t.Run(nc.name, func(t *testing.T) {
			p := newPair(t, nc.build, 2)
			xs := walkInput(nc.in, T)
			refRecs, _ := p.firstPass(xs, T)
			walkRecs := p.walk.Forward(xs, nil)
			kept := make([]*layers.LayerState, len(walkRecs[T-1]))
			for l, st := range walkRecs[T-1] {
				kept[l] = cloneState(st)
			}
			var refCarry []*layers.Delta
			injs := make([]map[int]*tensor.Tensor, T)
			for s := T - 1; s >= 0; s-- {
				injs[s] = map[int]*tensor.Tensor{}
				if s == T-1 {
					injs[s] = gradsAt(p.ref, s, refRecs[s])
				}
				refCarry = p.ref.BackwardStep(xs[s], refRecs[s], injs[s], refCarry)
			}
			walkCarry := p.walk.Backward(xs, walkRecs, injs, nil, nil, T-1)
			for l, st := range walkRecs[T-1] {
				if !sameState(st, kept[l]) {
					t.Fatalf("kept record, layer %d (%s), was overwritten", l, p.walk.Layers[l].Name())
				}
			}
			if !sameDeltas(refCarry, walkCarry) {
				t.Fatal("δ carry differs")
			}
			requireSameGrads(t, p)
		})
	}
}
