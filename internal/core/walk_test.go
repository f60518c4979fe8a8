package core

import (
	"fmt"
	"testing"

	"skipper/internal/dataset"
	"skipper/internal/layers"
	"skipper/internal/mem"
	"skipper/internal/tensor"
)

// backwardStepBlocked is one step of TBPTT-LBP's backward: the network's
// walk on one step with the gradient from above cut at the boundary layers.
func (lb *TBPTTLBP) backwardStepBlocked(net *layers.Network, x *tensor.Tensor, states []*layers.LayerState, gradsAt map[int]*tensor.Tensor, deltas []*layers.Delta, boundary map[int]bool) []*layers.Delta {
	return net.Backward([]*tensor.Tensor{x}, [][]*layers.LayerState{states}, []map[int]*tensor.Tensor{gradsAt}, deltas, boundary, 0)
}

// statesBits appends the bit patterns of a record's tensors, sub-states
// included.
func statesBits(ts []*tensor.Tensor, states []*layers.LayerState) []*tensor.Tensor {
	for _, st := range states {
		if st.U != nil {
			ts = append(ts, st.U)
		}
		ts = append(ts, st.O)
		ts = statesBits(ts, st.Sub)
	}
	return ts
}

func deltasBits(ts []*tensor.Tensor, ds []*layers.Delta) []*tensor.Tensor {
	for _, d := range ds {
		if d != nil {
			ts = deltasBits(append(ts, d.D), d.Sub)
		}
	}
	return ts
}

// walkResult is what one batch's walks produced: per segment, last first,
// the hash of its records before the backward walk and of the δ carried out
// of it; then the gradients and the step counters.
type walkResult struct {
	records, carry []uint64
	grads          uint64
	st             StepStats
}

// walkRun drives one batch through the engine's per-segment helpers the way
// trainSegments does — the storing first pass, then, last segment first, the
// segment's survivors replayed and its records walked back — handing each
// helper its whole step list, or with each set one step per call. Every
// third interior step of a segment is skipped (the final step never), so
// the lists have gaps.
func walkRun(t *testing.T, fix goldenFixture, threads int, mode string, each bool) walkResult {
	t.Helper()
	net, data, T := fix(t)
	rt := NewRuntime(WithThreads(threads))
	t.Cleanup(rt.Close)
	cfg := Config{T: T, Batch: 2, Device: mem.Unlimited(), CompressSpikes: mode == "compress"}
	tr, err := rt.NewTrainer(net, data, Checkpoint{C: 3}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tr.Close)
	input, labels := data.SpikeBatch(dataset.Train, []int{0, 1}, T)
	net.BeginIteration(tensor.NewRNG(1))
	net.ZeroGrads()

	st := StepStats{N: len(labels)}
	p := tr.newPass(input, &st)
	defer p.rs.dropAll()
	plan := segmentPlan{name: "walk", bounds: CheckpointTimes(T, 3)}
	la := newLossAccumulator(tr.Cfg, 0, labels)
	if err := p.firstPass(plan, la); err != nil {
		t.Fatal(err)
	}
	net.BeginRecompute()
	defer net.EndRecompute()
	out := len(net.Layers) - 1
	inject := func(t int) map[int]*tensor.Tensor {
		if dl := la.at(t); dl != nil {
			return map[int]*tensor.Tensor{out: dl}
		}
		return nil
	}

	var res walkResult
	end := T
	for seg := len(plan.bounds) - 1; seg >= 0; seg-- {
		start := plan.bounds[seg]
		var survivors []int
		for s := start + 1; s < end; s++ {
			if (s-start)%3 != 0 || s == T-1 {
				survivors = append(survivors, s)
			}
		}
		if each {
			states := p.rs.get(start)
			for _, s := range survivors {
				if states, err = p.forward([]int{s}, states); err != nil {
					t.Fatal(err)
				}
			}
		} else if _, err := p.forward(survivors, p.rs.get(start)); err != nil {
			t.Fatal(err)
		}
		walk := append([]int{start}, survivors...)
		var recs []*tensor.Tensor
		for _, s := range walk {
			recs = statesBits(recs, p.rs.get(s))
		}
		res.records = append(res.records, bitsHash(recs))
		if each {
			for i := len(walk) - 1; i >= 0; i-- {
				p.backward(walk[i:i+1], -1, inject)
			}
		} else {
			p.backward(walk, -1, inject)
		}
		res.carry = append(res.carry, bitsHash(deltasBits(nil, p.deltas)))
		end = start
	}
	res.grads = bitsHash(gradsOf(net))
	st.ForwardTime, st.RecomputeTime, st.BackwardTime = 0, 0, 0
	res.st = st
	return res
}

// The engine's helpers given a segment's whole survivor list — one
// layer-major walk per replay and per backward — produce exactly what they
// produce one step per call: every record (the readout's membrane among
// them, so the logits), the δ carried between segments, every gradient and
// the step counters, quiet steps included. On 1, 2 and 4 threads, with the
// boundary records plain and bit-packed, on frame input and on event input
// whose steps are mostly quiet.
func TestPassWalkManyStepsEqualsOneStepPerCall(t *testing.T) {
	fixtures := []struct {
		name string
		fix  goldenFixture
	}{{"cifar10", tinyFixture}, {"events", eventFixture(true)}}
	for _, fx := range fixtures {
		for _, mode := range []string{"plain", "compress"} {
			for _, threads := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("%s/%s/threads=%d", fx.name, mode, threads), func(t *testing.T) {
					whole := walkRun(t, fx.fix, threads, mode, false)
					each := walkRun(t, fx.fix, 1, mode, true)
					if fmt.Sprint(whole) != fmt.Sprint(each) {
						t.Fatalf("whole lists %+v\none step per call %+v", whole, each)
					}
					if fx.name == "events" && whole.st.QuietSteps == 0 {
						t.Fatal("no quiet step: the events case pins nothing")
					}
				})
			}
		}
	}
}

// TBPTT's kept record — the window's last step, the next window's start
// state — comes back from the backward walk untouched, whole list or one
// step per call, and the gradients agree.
func TestPassWalkKeepsWindowCarry(t *testing.T) {
	run := func(each bool) (uint64, uint64, uint64) {
		const T, w1 = 18, 7
		net, data, input, labels := tinySetup(t, T)
		tr := newTestTrainer(t, net, data, TBPTT{Window: w1}, Config{T: T, Batch: 2})
		net.ZeroGrads()
		st := StepStats{N: len(labels)}
		p := tr.newPass(input, &st)
		defer p.rs.dropAll()
		window := stepRange(0, w1)
		states, err := p.forward(window, nil)
		if err != nil {
			t.Fatal(err)
		}
		before := bitsHash(statesBits(nil, states))
		_, _, dl := lossGrad(tr.Net.Logits(states), labels, 0)
		inject := func(t int) map[int]*tensor.Tensor {
			if t == w1-1 {
				return map[int]*tensor.Tensor{len(net.Layers) - 1: dl}
			}
			return nil
		}
		if each {
			for i := w1 - 1; i >= 0; i-- {
				p.backward(window[i:i+1], w1-1, inject)
			}
		} else {
			p.backward(window, w1-1, inject)
		}
		if p.rs.get(w1-1) == nil {
			t.Fatal("kept record dropped")
		}
		return before, bitsHash(statesBits(nil, p.rs.get(w1-1))), bitsHash(gradsOf(net))
	}
	wBefore, wAfter, wGrads := run(false)
	eBefore, eAfter, eGrads := run(true)
	if wAfter != wBefore || eAfter != eBefore {
		t.Fatalf("kept record changed: whole %#x -> %#x, one step per call %#x -> %#x", wBefore, wAfter, eBefore, eAfter)
	}
	if wBefore != eBefore || wGrads != eGrads {
		t.Fatalf("whole list and one step per call differ: records %#x vs %#x, grads %#x vs %#x", wBefore, eBefore, wGrads, eGrads)
	}
}
