package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"skipper/internal/dataset"
	"skipper/internal/layers"
	"skipper/internal/mem"
	"skipper/internal/tensor"
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

// goldenRow is what two optimizer steps on tinySetup (T=18, B=2, seed
// 0x5EED) did to the device accountant, the step counters and the weights.
type goldenRow struct {
	peakAct, peakReserved                int64
	forward, recomputed, skipped, backwd int
	weights                              uint64
}

func goldenRun(t *testing.T, strat Strategy, compress bool) goldenRow {
	t.Helper()
	const T = 18
	net, data, _, _ := tinySetup(t, T)
	dev := mem.Unlimited()
	tr := newTestTrainer(t, net, data, strat, Config{T: T, Batch: 2, Device: dev, CompressSpikes: compress})
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
// rolling record, put-vs-putPacked, and records dropped as the backward walk
// consumes them; the counters pin what was replayed and skipped; the weight
// hash pins the gradient bits through two Adam steps.
func TestSegmentEngineGoldenAccounting(t *testing.T) {
	cases := []struct {
		name     string
		strat    func() Strategy
		compress bool
		want     goldenRow
	}{
		{"bptt", func() Strategy { return BPTT{} }, false, goldenRow{576576, 764416, 36, 0, 0, 36, 0xf637b30bfdb9792}},
		{"bptt/compress", func() Strategy { return BPTT{} }, true, goldenRow{576576, 764416, 36, 0, 0, 36, 0xf637b30bfdb9792}},
		{"ckpt", func() Strategy { return Checkpoint{C: 3} }, false, goldenRow{256256, 441856, 36, 30, 0, 36, 0xf637b30bfdb9792}},
		{"ckpt/compress", func() Strategy { return Checkpoint{C: 3} }, true, goldenRow{214472, 400384, 36, 30, 0, 36, 0xf637b30bfdb9792}},
		{"skipper", func() Strategy { return Skipper{C: 3, P: 30} }, false, goldenRow{224224, 409600, 36, 19, 11, 25, 0xf4d4d1789a93fe48}},
		{"skipper/compress", func() Strategy { return Skipper{C: 3, P: 30} }, true, goldenRow{182368, 368128, 36, 19, 11, 25, 0xf4d4d1789a93fe48}},
		{"adaptive", func() Strategy { return &AdaptiveSkipper{C: 3, P: 30} }, false, goldenRow{224224, 409600, 36, 20, 10, 26, 0xbc7f8e117a5ea197}},
		{"adaptive/compress", func() Strategy { return &AdaptiveSkipper{C: 3, P: 30} }, true, goldenRow{182368, 368128, 36, 20, 10, 26, 0xbc7f8e117a5ea197}},
		// The window strategies keep their own loops but run on the engine's
		// per-segment helpers; the carry record stays charged across a window.
		{"tbptt", func() Strategy { return TBPTT{Window: 7} }, false, goldenRow{256256, 441856, 36, 0, 0, 36, 0xf2ffea10ad0ed65a}},
		{"tbptt-lbp", func() Strategy { return &TBPTTLBP{Window: 7, LocalAt: []int{1}} }, false, goldenRow{256256, 462336, 36, 0, 0, 36, 0x1b4e3250f135ca8a}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := goldenRun(t, tc.strat(), tc.compress)
			if got != tc.want {
				t.Errorf("got %+v\nwant %+v", got, tc.want)
			}
		})
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
