package core

import (
	"fmt"
	"time"

	"skipper/internal/layers"
	"skipper/internal/mem"
	"skipper/internal/tensor"
	"skipper/internal/trace"
)

// segmentPlan is what BPTT, Checkpoint, Skipper and AdaptiveSkipper declare
// for a batch: which records the first pass keeps (Sec. V) and
// which timesteps the second pass replays (Sec. VI, Eq. 4–7). trainSegments
// is the one loop that runs it.
type segmentPlan struct {
	// name prefixes error messages ("ckpt", "skipper", ...).
	name string
	// bounds is the boundary plan: the segment start timesteps, ascending
	// from 0. The first pass keeps a record at each; segment i spans
	// [bounds[i], bounds[i+1]) and the last one runs to T.
	bounds []int
	// keepAll also keeps every step between the bounds (BPTT): nothing is
	// left to replay.
	keepAll bool
	// sam, when non-nil, receives the activity score s_t (Eq. 4) of every
	// first-pass timestep.
	sam *samTrace
	// survivors is the survivor policy: the interior timesteps of segment
	// [start, end) to replay, ascending, given the first pass's SAM scores
	// (it counts what it drops in st.SkippedSteps). Nil replays every
	// interior step.
	survivors func(scores []float64, start, end int, la *lossAccumulator, st *StepStats) []int
	// p is the survivor policy's skip percentile (0: every interior step is
	// replayed). Segment [start, end) replays at least minSurvivors(start,
	// end, p) steps, which bounds the first pass's runs.
	p float64
}

// runs splits [0, T) into the first pass's runs, each one layer-major walk.
// BPTT keeps every record, so all T steps go in one run and its records lie
// end to end per layer. A two-pass plan's replay of segment [start, end)
// stores at least 1 + S records, the boundary and S = minSurvivors steps, so
// the segment's first run takes at most S steps and each later one at most
// S − 1, never fewer than 1. The carry from the run before plus a run (with
// the boundary, once stored) then never holds more records than that replay
// will, and no peak moves.
func (plan segmentPlan) runs(T int) [][2]int {
	if plan.keepAll {
		return [][2]int{{0, T}}
	}
	var runs [][2]int
	for i, start := range plan.bounds {
		end := T
		if i+1 < len(plan.bounds) {
			end = plan.bounds[i+1]
		}
		s := minSurvivors(start, end, plan.p)
		for a, n := start, max(s, 1); a < end; a, n = a+n, max(s-1, 1) {
			runs = append(runs, [2]int{a, min(a+n, end)})
		}
	}
	return runs
}

// trainSegments runs one batch under the plan and leaves the parameter
// gradients accumulated on the network.
func (tr *Trainer) trainSegments(input []*tensor.Tensor, labels []int, plan segmentPlan) (StepStats, error) {
	T := tr.Cfg.T
	st := StepStats{N: len(labels)}
	p := tr.newPass(input, &st)
	defer p.rs.dropAll()

	// Step 1: forward in time, keeping only the planned records.
	la := newLossAccumulator(tr.Cfg, tr.lossDenom, labels)
	if err := p.firstPass(plan, la); err != nil {
		return st, err
	}
	st.Loss, st.Correct = la.Loss, la.Correct

	// Everything from here on is replay: freeze first-pass-only side
	// effects (batch-norm running statistics).
	tr.Net.BeginRecompute()
	defer tr.Net.EndRecompute()

	scratch, err := tr.deltaScratch(len(labels))
	if err != nil {
		return st, fmt.Errorf("core: %s backward scratch: %w", plan.name, err)
	}
	defer scratch.Release()

	outIdx := len(tr.Net.Layers) - 1
	lossInjected := false
	inject := func(t int) map[int]*tensor.Tensor {
		dl := la.at(t)
		if dl == nil {
			return nil
		}
		lossInjected = lossInjected || t == T-1
		return map[int]*tensor.Tensor{outIdx: dl}
	}

	// Steps 2..5: per segment, last to first — select, replay, backprop.
	end := T
	for seg := len(plan.bounds) - 1; seg >= 0; seg-- {
		start := plan.bounds[seg]
		segAttr := trace.Attr{Key: "seg", Val: int64(seg)}

		// Step 2: SST_c from the segment's SAM scores picks the surviving
		// timesteps. The boundary step itself is stored, not replayed.
		walk := stepRange(start, end)
		if plan.survivors != nil {
			sel := time.Now()
			survivors := plan.survivors(plan.sam.scores, start, end, la, &st)
			tr.tracer().SpanAt(trace.TrackTrain, "sam_select", sel, time.Since(sel), segAttr,
				trace.Attr{Key: "survivors", Val: int64(len(survivors))})
			walk = append(walk[:1], survivors...)
		}

		// Steps 3/4: shallow recompute over survivors only, layer by layer.
		// State hops directly between surviving timesteps.
		if !plan.keepAll {
			replay, rec, quiet := walk[1:], time.Now(), st.QuietSteps
			if _, err := p.forward(replay, p.rs.get(start)); err != nil {
				return st, fmt.Errorf("core: %s recompute %w", plan.name, err)
			}
			st.RecomputedSteps += len(replay)
			tr.phaseDone(&st.RecomputeTime, "recompute", rec, segAttr,
				trace.Attr{Key: "survivors", Val: int64(len(replay))}, p.quietSince(quiet))
		}

		// Step 5: backward over the segment's records, layer by layer,
		// consuming and freeing them.
		bwd := time.Now()
		if err := p.backward(walk, -1, inject); err != nil {
			return st, fmt.Errorf("core: %s backward %w", plan.name, err)
		}
		tr.phaseDone(&st.BackwardTime, "backward", bwd, segAttr)
		end = start
	}
	if !lossInjected {
		return st, fmt.Errorf("core: %s never injected the loss gradient (T-1 not visited)", plan.name)
	}
	return st, nil
}

// pass is one batch's working set — the input train, the record store, the
// running δ and the step counters — and the per-segment helpers every
// strategy's loop is built from.
type pass struct {
	tr    *Trainer
	input []*tensor.Tensor
	rs    *recordStore
	st    *StepStats
	// deltas is the δ recursion's carry between backward walks (between
	// segments, for the two-pass strategies).
	deltas []*layers.Delta
	// cut names the layers the backward walk gives no gradient from the
	// layer above: TBPTT-LBP's local supervision.
	cut map[int]bool
}

func (tr *Trainer) newPass(input []*tensor.Tensor, st *StepStats) *pass {
	return &pass{tr: tr, input: input, rs: tr.newRecordStore(), st: st}
}

// allZero reports whether a timestep's input is zero for the whole batch.
// The walk's kernels turn such a step's images into a bias add.
func allZero(x *tensor.Tensor) bool {
	for _, v := range x.Data {
		if v != 0 {
			return false
		}
	}
	return true
}

// quietSince is the span attr counting the quiet steps taken since the
// counter read `before`.
func (p *pass) quietSince(before int) trace.Attr {
	return trace.Attr{Key: "quiet", Val: int64(p.st.QuietSteps - before)}
}

// stepRange lists the timesteps [a, b).
func stepRange(a, b int) []int {
	steps := make([]int, 0, b-a)
	for t := a; t < b; t++ {
		steps = append(steps, t)
	}
	return steps
}

// forwardRun is the first pass's walk over one run of steps, a variable so
// that a test can take the run one step per call.
var forwardRun = (*layers.Network).Forward

// firstPass is the storing forward pass over all T timesteps, one
// layer-major walk per run (segmentPlan.runs), with the run's spikes charged
// while it runs. After a run's walk its records are read in time order — SAM
// score, loss — and charged in time order: stored at the plan's timesteps,
// charged as rolling records elsewhere. Then the run's spikes and the
// previous run's carry are released, and every rolling record but the run's
// last, which carries the state into the next run. So the device sees
// every record that is live at once.
//
// A two-pass plan keeps a record, not the run it came from: a stored boundary
// and the carry are copied out of the run's per-layer blocks (tensor.Slots
// views share one array), so that the host holds what the device is charged
// for.
func (p *pass) firstPass(plan segmentPlan, la *lossAccumulator) error {
	tr := p.tr
	isBound := map[int]bool{}
	for _, t := range plan.bounds {
		isBound[t] = true
	}
	fwd, quiet := time.Now(), p.st.QuietSteps
	var carry []*layers.LayerState
	var carryBlock *mem.Block
	for _, r := range plan.runs(tr.Cfg.T) {
		steps := stepRange(r[0], r[1])
		xs := make([]*tensor.Tensor, len(steps))
		for i, t := range steps {
			xs[i] = p.input[t]
		}
		spikes, err := p.chargeSpikes(len(steps))
		if err != nil {
			carryBlock.Release()
			return fmt.Errorf("core: %s forward t=%d: %w", plan.name, r[0], err)
		}
		recs := forwardRun(tr.Net, xs, carry)
		rolling := make([]*mem.Block, len(steps))
		for i, t := range steps {
			p.st.ForwardSteps++
			if allZero(p.input[t]) {
				p.st.QuietSteps++
			}
			if plan.sam != nil {
				plan.sam.scores[t] = plan.sam.metric.Score(tr.Net, recs[i])
			}
			la.observe(t, tr.Net.Logits(recs[i]))
			var err error
			switch {
			case plan.keepAll:
				err = p.rs.put(t, recs[i])
			case isBound[t]:
				recs[i] = detach(recs[i])
				err = p.rs.put(t, recs[i])
			default:
				rolling[i], err = tr.Dev.Alloc(mem.Activations, stateBytes(recs[i]))
			}
			if err != nil {
				spikes()
				carryBlock.Release()
				for _, b := range rolling {
					b.Release()
				}
				return fmt.Errorf("core: %s forward t=%d: %w", plan.name, t, err)
			}
		}
		spikes()
		carryBlock.Release()
		last := len(steps) - 1
		for _, b := range rolling[:last] {
			b.Release()
		}
		// The run's last record carries the state on: a stored one as it is,
		// a rolling one copied out of its run.
		carry, carryBlock = recs[last], rolling[last]
		if carryBlock != nil {
			carry = detach(carry)
		}
	}
	carryBlock.Release()
	tr.phaseDone(&p.st.ForwardTime, "forward", fwd, p.quietSince(quiet))
	return nil
}

// detach copies a record's tensors out of the blocks they share with the
// other steps of their walk.
func detach(states []*layers.LayerState) []*layers.LayerState {
	out := make([]*layers.LayerState, len(states))
	for i, st := range states {
		c := *st
		if st.U != nil {
			c.U = st.U.Clone()
		}
		if st.O != nil {
			c.O = st.O.Clone()
		}
		if st.Sub != nil {
			c.Sub = detach(st.Sub)
		}
		out[i] = &c
	}
	return out
}

// forward advances the network from states over the given timesteps (hopping
// directly from one listed step to the next) in one layer-major walk, stores
// every record, and returns the last step's state. The records are charged
// in time order once the walk is done, and the walk's spikes, charged before
// it, released after them; nothing else is charged meanwhile.
// A quiet step is counted as in the first pass; the walk's kernels give its
// all-zero images a bias add (tensor.Conv2D).
func (p *pass) forward(steps []int, states []*layers.LayerState) ([]*layers.LayerState, error) {
	if len(steps) == 0 {
		return states, nil
	}
	xs := make([]*tensor.Tensor, len(steps))
	for i, t := range steps {
		xs[i] = p.input[t]
		if allZero(p.input[t]) {
			p.st.QuietSteps++
		}
	}
	spikes, err := p.chargeSpikes(len(steps))
	if err != nil {
		return nil, fmt.Errorf("t=%d: %w", steps[0], err)
	}
	defer spikes()
	recs := p.tr.Net.Forward(xs, states)
	for i, t := range steps {
		if err := p.rs.put(t, recs[i]); err != nil {
			return nil, fmt.Errorf("t=%d: %w", t, err)
		}
	}
	return recs[len(recs)-1], nil
}

// chargeSpikes charges the spikes a walk of k steps of the pass holds
// (Trainer.chargeSpikes).
func (p *pass) chargeSpikes(k int) (release func(), err error) {
	return p.tr.chargeSpikes(p.input[0].Dim(0), k)
}

// backward walks δ back over the stored records of the given timesteps in
// one layer-major walk, then drops them — except keep's (-1: none), which a
// windowed caller still needs as the next window's start state and the walk
// leaves intact. inject returns the loss gradients entering at timestep t,
// by layer index. The walk's spikes and gradients of them are charged while
// it runs; nothing else is, so dropping the records at its end leaves the
// device where dropping each as it was consumed did.
func (p *pass) backward(steps []int, keep int, inject func(t int) map[int]*tensor.Tensor) error {
	xs := make([]*tensor.Tensor, len(steps))
	recs := make([][]*layers.LayerState, len(steps))
	injs := make([]map[int]*tensor.Tensor, len(steps))
	kept := -1
	for i, t := range steps {
		xs[i], recs[i], injs[i] = p.input[t], p.rs.get(t), inject(t)
		if t == keep {
			kept = i
		}
	}
	spikes, err := p.chargeSpikes(len(steps))
	if err != nil {
		return fmt.Errorf("t=%d: %w", steps[0], err)
	}
	p.deltas = p.tr.Net.Backward(xs, recs, injs, p.deltas, p.cut, kept)
	spikes()
	for _, t := range steps {
		if t != keep {
			p.rs.drop(t)
		}
	}
	p.st.BackwardSteps += len(steps)
	return nil
}
