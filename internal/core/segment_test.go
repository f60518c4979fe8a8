package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"skipper/internal/dataset"
	"skipper/internal/layers"
	"skipper/internal/mem"
	"skipper/internal/tensor"
	"skipper/internal/trace"
)

// bitsHash is the FNV-64a of the tensors' float32 bit patterns, in order.
func bitsHash(ts []*tensor.Tensor) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, x := range ts {
		for _, v := range x.Data {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

func weightHash(net *layers.Network) uint64 {
	var ws []*tensor.Tensor
	for _, p := range net.Params() {
		ws = append(ws, p.W)
	}
	return bitsHash(ws)
}

// goldenRow is what two optimizer steps at B=2 did to the device accountant,
// the step counters and the weights: on tinySetup (T=18, seed 0x5EED) or on
// eventSetup (T=120).
type goldenRow struct {
	peakAct, peakReserved                int64
	forward, recomputed, skipped, backwd int
	weights                              uint64
}

type goldenCase struct {
	name  string
	strat func() Strategy
	want  goldenRow
}

// goldenFixture is the network, dataset and T a golden row runs on.
type goldenFixture func(t *testing.T) (*layers.Network, dataset.Source, int)

func tinyFixture(t *testing.T) (*layers.Network, dataset.Source, int) {
	net, data, _, _ := tinySetup(t, 18)
	return net, data, 18
}

func eventFixture(woken bool) goldenFixture {
	return func(t *testing.T) (*layers.Network, dataset.Source, int) {
		net, data := eventSetup(t, woken)
		return net, data, 120
	}
}

func goldenRun(t *testing.T, fix goldenFixture, strat Strategy) goldenRow {
	t.Helper()
	net, data, T := fix(t)
	dev := mem.Unlimited()
	tr := newTestTrainer(t, net, data, strat, Config{T: T, Batch: 2, Device: dev})
	var st StepStats
	for _, idx := range [][]int{{0, 1}, {2, 3}} {
		s, err := tr.TrainBatchIndices(dataset.Train, idx)
		if err != nil {
			t.Fatal(err)
		}
		st.Add(s)
	}
	return goldenRow{
		peakAct: dev.PeakBy(mem.Activations), peakReserved: dev.PeakReserved(),
		forward: st.ForwardSteps, recomputed: st.RecomputedSteps, skipped: st.SkippedSteps, backwd: st.BackwardSteps,
		weights: weightHash(net),
	}
}

// The accounting contract of the segment engine, captured from the four
// hand-written TrainBatch loops it replaced (commit 833653c): peak
// activation and reserved bytes pin the allocate-before-release order of the
// rolling record, the records dropped as the backward walk consumes them and
// each walk's spikes in Workspace; the counters pin what was replayed and
// skipped; the weight hash pins the gradient bits through two Adam steps.
// Each peakAct is a whole number of records: 17 616 bytes a record on the
// tiny fixture, 29 912 on events (a LIF layer's record is its U alone).
func TestSegmentEngineGoldenAccounting(t *testing.T) {
	cases := []goldenCase{
		{"bptt", func() Strategy { return BPTT{} }, goldenRow{317088, 652288, 36, 0, 0, 36, 0xf637b30bfdb9792}},
		{"ckpt", func() Strategy { return Checkpoint{C: 3} }, goldenRow{140928, 374784, 36, 30, 0, 36, 0xf637b30bfdb9792}},
		{"skipper", func() Strategy { return Skipper{C: 3, P: 30} }, goldenRow{123312, 348672, 36, 19, 11, 25, 0xf4d4d1789a93fe48}},
		{"adaptive", func() Strategy { return &AdaptiveSkipper{C: 3, P: 30} }, goldenRow{123312, 348672, 36, 20, 10, 26, 0xbc7f8e117a5ea197}},
		// The window strategies keep their own loops but run on the engine's
		// per-segment helpers; the carry record stays charged across a window.
		{"tbptt", func() Strategy { return TBPTT{Window: 7} }, goldenRow{140928, 382976, 36, 0, 0, 36, 0xf2ffea10ad0ed65a}},
		{"tbptt-lbp", func() Strategy { return &TBPTTLBP{Window: 7, LocalAt: []int{1}} }, goldenRow{140928, 403456, 36, 0, 0, 36, 0x1b4e3250f135ca8a}},
	}
	check := func(fix goldenFixture, cases []goldenCase) {
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				got := goldenRun(t, fix, tc.strat())
				if got != tc.want {
					t.Errorf("got %+v\nwant %+v", got, tc.want)
				}
			})
		}
	}
	check(tinyFixture, cases)

	// The same contract on event data (eventSetup, T=120, B=2, C=6, P=59),
	// where about 74 of each batch's 120 timesteps have an all-zero input,
	// which each layer's kernels turn into a bias add; the second optimizer
	// step is there so that state outliving the first would show in the
	// weights. The first six rows run the woken network and were all
	// captured at commit 0e0f6f0, before the quiet step, the zero-image skip
	// in Conv2DGradWeight and the input layer's dropped ∂L/∂x existed: all
	// three are exact, and with no tie at any segment's cut the rank cut
	// keeps the percentile threshold's survivors to the step. The built rows
	// run the network as the benchmark builds it, where most of a segment
	// ties at score 0. They are this commit's. At 0e0f6f0 the threshold,
	// being 0 there, kept every step of such a segment and read
	// {1415600, 2018816, 240, 196, 32, 208, 0xf0b34b4c04bf0dd0} for skipper,
	// Checkpoint's peak to the byte, and
	// {2038464, 2643968, 240, 181, 47, 193, 0xdb465e90e450c473} for adaptive,
	// above it; the rank cut takes 11 of every segment's 19 interior steps.
	// (Only out.bias learns in the built network, and Adam's step does not
	// see a gradient's scale, so with the same number of steps skipped in
	// both batches its weights now equal BPTT's; the woken rows are the ones
	// that pin gradient bits.)
	check(eventFixture(true), []goldenCase{
		{"events/bptt", func() Strategy { return BPTT{} }, goldenRow{3589440, 6187520, 240, 0, 0, 240, 0x4c1f4d98943e7aba}},
		{"events/ckpt", func() Strategy { return Checkpoint{C: 6} }, goldenRow{747800, 1679360, 240, 228, 0, 240, 0x4c1f4d98943e7aba}},
		{"events/tbptt", func() Strategy { return TBPTT{Window: 20} }, goldenRow{628152, 1558528, 240, 0, 0, 240, 0xaa8058f8bfca99f0}},
		{"events/skipper", func() Strategy { return Skipper{C: 6, P: 59} }, goldenRow{448680, 1213440, 240, 98, 130, 110, 0xbd3d2569482ddb9e}},
		{"events/adaptive", func() Strategy { return &AdaptiveSkipper{C: 6, P: 59} }, goldenRow{448680, 1262592, 240, 97, 131, 109, 0x79f1cd763b2a62dd}},
	})
	check(eventFixture(false), []goldenCase{
		{"events/built/skipper", func() Strategy { return Skipper{C: 6, P: 59} }, goldenRow{448680, 1213440, 240, 98, 130, 110, 0x29aa4f931e3e8b3b}},
		{"events/built/adaptive", func() Strategy { return &AdaptiveSkipper{C: 6, P: 59} }, goldenRow{448680, 1295360, 240, 98, 130, 110, 0x29aa4f931e3e8b3b}},
	})
}

// The benchmark's event configuration (train_events: lenet w0.5 on
// dvsgesture, T=120, B=4, C=6, P=59) from untrained weights, where at most
// steps more than P % of a segment ties at score 0. Skipper must still skip
// its quota in every segment — a threshold at the tie kept all 19 interior
// steps of such a segment, and one unskipped segment set the peak at
// Checkpoint's, byte for byte — and the quiet-step counter must report the
// share of the workload that has the property.
func TestSkipperKeepsItsQuotaOnEvents(t *testing.T) {
	const T, B, C, P, batches = 120, 4, 6, 59, 4
	tc := trace.New(0)
	rt := NewRuntime(WithTracer(tc))
	t.Cleanup(rt.Close)
	run := func(strat Strategy) (int64, StepStats) {
		net, data := eventSetup(t, false)
		dev := mem.Unlimited()
		tr, err := rt.NewTrainer(net, data, strat, Config{T: T, Batch: B, Device: dev})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(tr.Close)
		var st StepStats
		for b := 0; b < batches; b++ {
			s, err := tr.TrainBatchIndices(dataset.Train, []int{B * b, B*b + 1, B*b + 2, B*b + 3})
			if err != nil {
				t.Fatal(err)
			}
			st.Add(s)
		}
		return dev.PeakReserved(), st
	}
	ckptPeak, ckpt := run(Checkpoint{C: C})
	skipPeak, skip := run(Skipper{C: C, P: P})

	if float64(skipPeak) > 0.75*float64(ckptPeak) {
		t.Errorf("skipper peak reserved %d, checkpoint %d: ratio %.2f, want <= 0.75", skipPeak, ckptPeak, float64(skipPeak)/float64(ckptPeak))
	}
	n := T/C - 1
	k := int(math.Ceil(float64(n-1) * P / 100))
	if lo, hi := batches*(C*k-1), batches*C*k; skip.SkippedSteps < lo || skip.SkippedSteps > hi {
		t.Errorf("skipped %d steps over %d batches, want %d..%d", skip.SkippedSteps, batches, lo, hi)
	}
	// Checkpoint takes every timestep twice bar the C boundaries; about 0.61
	// of them have no event in any of the B samples.
	if share := float64(ckpt.QuietSteps) / float64(ckpt.ForwardSteps+ckpt.RecomputedSteps); share < 0.5 || share > 0.7 {
		t.Errorf("quiet share %.3f of checkpoint's steps, want about 0.61", share)
	}

	var buf bytes.Buffer
	if err := tc.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var dump struct {
		TraceEvents []struct {
			Name string           `json:"name"`
			Args map[string]int64 `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatal(err)
	}
	selects, quiet := 0, 0
	for _, ev := range dump.TraceEvents {
		switch ev.Name {
		case "sam_select":
			selects++
			if got := int(ev.Args["survivors"]); got != n-k && got != n-k+1 {
				t.Errorf("segment %d kept %d survivors, want %d or %d", ev.Args["seg"], got, n-k, n-k+1)
			}
		case "forward", "recompute":
			quiet += int(ev.Args["quiet"])
		}
	}
	if selects != batches*C {
		t.Errorf("%d sam_select spans, want %d", selects, batches*C)
	}
	if quiet != ckpt.QuietSteps+skip.QuietSteps {
		t.Errorf("forward and recompute spans carry %d quiet steps, StepStats %d", quiet, ckpt.QuietSteps+skip.QuietSteps)
	}
}

// ladderRun trains `batches` batches of the same input on a fresh tinySetup
// network (no optimizer step in between, gradients zeroed before each) and
// returns the last batch's stats and gradient bits.
func ladderRun(t *testing.T, strat Strategy, batches int) (StepStats, uint64) {
	t.Helper()
	const T = 18
	net, data, input, labels := tinySetup(t, T)
	tr := newTestTrainer(t, net, data, strat, Config{T: T, Batch: 2})
	var st StepStats
	for i := 0; i < batches; i++ {
		net.ZeroGrads()
		var err error
		if st, err = strat.TrainBatch(tr, input, labels); err != nil {
			t.Fatal(err)
		}
	}
	st.ForwardTime, st.RecomputeTime, st.BackwardTime = 0, 0, 0
	return st, bitsHash(gradsOf(net))
}

// Each strategy is the one below it with one policy relaxed, so at the
// relaxed setting the outcomes — not just the placements — must coincide
// bit for bit.
func TestPolicyLadderBitExact(t *testing.T) {
	t.Run("skipper(P=0)==ckpt", func(t *testing.T) {
		ck, ckG := ladderRun(t, Checkpoint{C: 3}, 1)
		sk, skG := ladderRun(t, Skipper{C: 3, P: 0}, 1)
		if skG != ckG || sk.Loss != ck.Loss || sk.RecomputedSteps != ck.RecomputedSteps || sk.BackwardSteps != ck.BackwardSteps {
			t.Fatalf("skipper %+v grads %#x\nckpt    %+v grads %#x", sk, skG, ck, ckG)
		}
	})
	t.Run("adaptive(first batch)==skipper", func(t *testing.T) {
		sk, skG := ladderRun(t, Skipper{C: 3, P: 30}, 1)
		ad, adG := ladderRun(t, &AdaptiveSkipper{C: 3, P: 30}, 1)
		if sk.SkippedSteps == 0 {
			t.Fatal("nothing skipped: the row would not exercise the filter")
		}
		if ad != sk || adG != skG {
			t.Fatalf("adaptive %+v grads %#x\nskipper  %+v grads %#x", ad, adG, sk, skG)
		}
	})
	t.Run("adaptive(P=0, placed bounds)==bptt", func(t *testing.T) {
		_, bpG := ladderRun(t, BPTT{}, 1)
		strat := &AdaptiveSkipper{C: 3, P: 0}
		ad, adG := ladderRun(t, strat, 2)
		if uniform := CheckpointTimes(18, 3); fmt.Sprint(strat.placements(18)) == fmt.Sprint(uniform) {
			t.Fatalf("second batch placed uniformly (%v): the row would not exercise ragged bounds", uniform)
		}
		if ad.SkippedSteps != 0 || adG != bpG {
			t.Fatalf("adaptive %+v grads %#x, bptt grads %#x", ad, adG, bpG)
		}
	})
}
