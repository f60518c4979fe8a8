package core

import (
	"fmt"
	"math"
	"testing"

	"skipper/internal/dataset"
	"skipper/internal/layers"
	"skipper/internal/mem"
	"skipper/internal/tensor"
)

// planner is a strategy of the segment engine: its boundary plan and
// survivor policy for a T-step batch.
type planner interface {
	Strategy
	plan(T int) segmentPlan
}

// oneStepPerCall is the first pass's run taken one step per walk.
func oneStepPerCall(net *layers.Network, xs []*tensor.Tensor, prev []*layers.LayerState) [][]*layers.LayerState {
	recs := make([][]*layers.LayerState, len(xs))
	for i, x := range xs {
		recs[i] = net.Forward([]*tensor.Tensor{x}, prev)[0]
		prev = recs[i]
	}
	return recs
}

// compressedSteps is the first pass's run taken one ForwardStep at a time,
// each record compressed to what the engine keeps: ForwardStep attaches
// every layer's output, and a LIF layer's record is its U alone.
func compressedSteps(net *layers.Network, xs []*tensor.Tensor, prev []*layers.LayerState) [][]*layers.LayerState {
	recs := make([][]*layers.LayerState, len(xs))
	for i, x := range xs {
		recs[i] = net.ForwardStep(x, prev)
		for l, st := range recs[i] {
			if net.Layers[l].Stateful() {
				st.O = nil
			}
		}
		prev = recs[i]
	}
	return recs
}

// withForwardRun swaps the first pass's walk for the duration of a test.
func withForwardRun(t *testing.T, run func(*layers.Network, []*tensor.Tensor, []*layers.LayerState) [][]*layers.LayerState) {
	saved := forwardRun
	forwardRun = run
	t.Cleanup(func() { forwardRun = saved })
}

// firstPassResult is everything one batch's first pass hands the rest of the
// engine, and the device's peaks when it is done.
type firstPassResult struct {
	scores, inject, records uint64
	kept                    []int
	loss                    float64
	correct                 int
	forward, quiet          int
	peakAct, peakReserved   int64
}

// firstPassSetup builds a trainer for the fixture under strat and returns
// the pass and plan of one batch, ready for its first pass.
func firstPassSetup(t *testing.T, fix goldenFixture, strat planner, threads int, dev *mem.Device) (*pass, segmentPlan, *lossAccumulator) {
	t.Helper()
	net, data, T := fix(t)
	rt := NewRuntime(WithThreads(threads))
	t.Cleanup(rt.Close)
	cfg := Config{T: T, Batch: 2, Device: dev}
	tr, err := rt.NewTrainer(net, data, strat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tr.Close)
	if a, ok := strat.(*AdaptiveSkipper); ok {
		// A rising activity profile places the bounds unevenly.
		a.profile = make([]float64, T)
		for i := range a.profile {
			a.profile[i] = float64(i)
		}
	}
	input, labels := data.SpikeBatch(dataset.Train, []int{0, 1}, T)
	net.BeginIteration(tensor.NewRNG(1))
	t.Cleanup(net.EndIteration)
	st := &StepStats{N: len(labels)}
	p := tr.newPass(input, st)
	t.Cleanup(p.rs.dropAll)
	return p, strat.plan(T), newLossAccumulator(tr.Cfg, 0, labels)
}

func firstPassRun(t *testing.T, fix goldenFixture, strat planner, threads int) (firstPassResult, *pass) {
	t.Helper()
	dev := mem.Unlimited()
	p, plan, la := firstPassSetup(t, fix, strat, threads, dev)
	if err := p.firstPass(plan, la); err != nil {
		t.Fatal(err)
	}
	res := firstPassResult{
		loss: la.Loss, correct: la.Correct, forward: p.st.ForwardSteps, quiet: p.st.QuietSteps,
		peakAct: dev.PeakBy(mem.Activations), peakReserved: dev.PeakReserved(),
	}
	if plan.sam != nil {
		bits := tensor.New(2 * len(plan.sam.scores))
		for i, s := range plan.sam.scores {
			b := math.Float64bits(s)
			bits.Data[2*i], bits.Data[2*i+1] = math.Float32frombits(uint32(b)), math.Float32frombits(uint32(b>>32))
		}
		res.scores = bitsHash([]*tensor.Tensor{bits})
	}
	var inject, recs []*tensor.Tensor
	for s := 0; s < p.tr.Cfg.T; s++ {
		if dl := la.at(s); dl != nil {
			inject = append(inject, dl)
		}
		if r := p.rs.get(s); r != nil {
			res.kept = append(res.kept, s)
			recs = statesBits(recs, r)
		}
	}
	res.inject, res.records = bitsHash(inject), bitsHash(recs)
	return res, p
}

// The first pass walked in runs of steps produces exactly what it produces
// one step per call: every SAM score, the loss, the accuracy and every
// injected loss gradient, every kept record, the step counters, and the
// activation and reserved peaks once it is done — for every strategy of the
// segment engine, on 1, 2 and 4 threads, on frame input and on event input
// whose steps are mostly quiet, woken and as built. BPTT's records lie end
// to end per layer, so its backward takes each layer in one kernel call.
// One step per call is a one-step walk ("plain"), or ForwardStep with its
// records compressed to the engine's ("compress"), so the step-at-a-time
// API computes the records the engine keeps.
func TestFirstPassRunsEqualOneStepPerCall(t *testing.T) {
	fixtures := []struct {
		name string
		fix  goldenFixture
		C    int
		P    float64
	}{{"cifar10", tinyFixture, 3, 30}, {"events", eventFixture(true), 6, 59}, {"events/built", eventFixture(false), 6, 59}}
	for _, fx := range fixtures {
		strategies := []struct {
			name  string
			strat func() planner
		}{
			{"bptt", func() planner { return BPTT{} }},
			{"ckpt", func() planner { return Checkpoint{C: fx.C} }},
			{"skipper", func() planner { return Skipper{C: fx.C, P: fx.P} }},
			{"adaptive", func() planner { return &AdaptiveSkipper{C: fx.C, P: fx.P} }},
		}
		for _, sc := range strategies {
			for _, mode := range []string{"plain", "compress"} {
				t.Run(fmt.Sprintf("%s/%s/%s", fx.name, sc.name, mode), func(t *testing.T) {
					saved := forwardRun
					forwardRun = oneStepPerCall
					if mode == "compress" {
						forwardRun = compressedSteps
					}
					each, _ := firstPassRun(t, fx.fix, sc.strat(), 1)
					forwardRun = saved
					if fx.name != "cifar10" && each.quiet == 0 {
						t.Fatal("no quiet step: the events case pins nothing")
					}
					for _, threads := range []int{1, 2, 4} {
						t.Run(fmt.Sprintf("threads=%d", threads), func(t *testing.T) {
							runs, p := firstPassRun(t, fx.fix, sc.strat(), threads)
							if fmt.Sprint(runs) != fmt.Sprint(each) {
								t.Fatalf("in runs %+v\none step per call %+v", runs, each)
							}
							if sc.name == "bptt" {
								assertEndToEnd(t, p)
							}
						})
					}
				})
			}
		}
	}
}

// assertEndToEnd checks that each layer's stored records, latest step first,
// are pairwise tensor.Adjacent.
func assertEndToEnd(t *testing.T, p *pass) {
	t.Helper()
	for s := p.tr.Cfg.T - 1; s > 0; s-- {
		later, earlier := p.rs.get(s), p.rs.get(s-1)
		for l := range later {
			if u := later[l].U; u != nil && !tensor.Adjacent(u, earlier[l].U) {
				t.Fatalf("layer %d: U at t=%d and t=%d do not lie end to end", l, s, s-1)
			}
			if o := later[l].O; o != nil && !tensor.Adjacent(o, earlier[l].O) {
				t.Fatalf("layer %d: O at t=%d and t=%d do not lie end to end", l, s, s-1)
			}
		}
	}
}

// reaches reports whether x's data lies in the part of a backing array that
// a's data, extended to its capacity, reaches.
func reaches(a, x *tensor.Tensor) bool {
	if a == nil || x == nil || len(x.Data) == 0 {
		return false
	}
	full := a.Data[:cap(a.Data)]
	for i := range full {
		if &full[i] == &x.Data[0] {
			return true
		}
	}
	return false
}

// pinnedBy reports whether some tensor of a record reaches into one of runs.
func pinnedBy(record []*layers.LayerState, runs [][]*layers.LayerState) bool {
	for l, st := range record {
		for _, r := range runs {
			if reaches(r[l].U, st.U) || reaches(r[l].O, st.O) {
				return true
			}
		}
	}
	return false
}

// A two-pass plan keeps a record, not its run: neither a stored boundary nor
// the carry into the next run shares a backing array with the run it came
// from, which the device is not charged for.
func TestFirstPassKeptRecordsPinNoRun(t *testing.T) {
	for _, strat := range []planner{Checkpoint{C: 3}, Skipper{C: 3, P: 30}} {
		{
			t.Run(strat.Name()+"/plain", func(t *testing.T) {
				var walked [][]*layers.LayerState
				longest := 0
				withForwardRun(t, func(net *layers.Network, xs []*tensor.Tensor, prev []*layers.LayerState) [][]*layers.LayerState {
					if prev != nil && pinnedBy(prev, walked) {
						t.Error("the carry shares its run's blocks")
					}
					recs := net.Forward(xs, prev)
					walked = append(walked, recs...)
					longest = max(longest, len(xs))
					return recs
				})
				p, plan, la := firstPassSetup(t, tinyFixture, strat, 1, mem.Unlimited())
				if err := p.firstPass(plan, la); err != nil {
					t.Fatal(err)
				}
				if longest < 2 {
					t.Fatal("every run is one step: nothing shares a block")
				}
				for _, s := range plan.bounds {
					if pinnedBy(p.rs.get(s), walked) {
						t.Errorf("the boundary record at t=%d shares its run's blocks", s)
					}
				}
			})
		}
	}
}

// The runs cover [0, T) in order, each within one segment and starting a
// segment at its boundary, and none of them charges more records than the
// segment's replay: the carry plus a segment's first run, and the carry,
// the boundary and a later run, hold at most 1 + minSurvivors. A run of one
// step charges what the step-at-a-time first pass did.
func TestFirstPassRunsBoundedByReplay(t *testing.T) {
	for T := 2; T <= 40; T++ {
		for C := 1; C <= T; C++ {
			for _, P := range []float64{0, 10, 30, 42, 59, 90, 100} {
				plan := Skipper{C: C, P: P}.plan(T)
				next := 0
				for _, r := range plan.runs(T) {
					seg := 0
					for seg+1 < len(plan.bounds) && plan.bounds[seg+1] <= r[0] {
						seg++
					}
					start, end := plan.bounds[seg], T
					if seg+1 < len(plan.bounds) {
						end = plan.bounds[seg+1]
					}
					n, s := r[1]-r[0], minSurvivors(start, end, P)
					live := 1 + n // the carry and the run
					if r[0] > start {
						live++ // and the boundary
					}
					if r[0] != next || n < 1 || r[1] > end || n > 1 && live > 1+s {
						t.Fatalf("T=%d C=%d P=%v: run %v of segment [%d,%d) (S=%d) after %d", T, C, P, r, start, end, s, next)
					}
					next = r[1]
				}
				if next != T {
					t.Fatalf("T=%d C=%d P=%v: runs end at %d", T, C, P, next)
				}
			}
		}
	}
	if runs := (BPTT{}).plan(48).runs(48); len(runs) != 1 || runs[0] != [2]int{0, 48} {
		t.Fatalf("bptt runs %v, want one run of all 48 steps", runs)
	}
}
