package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"skipper/internal/dataset"
	"skipper/internal/layers"
	"skipper/internal/mem"
	"skipper/internal/models"
	"skipper/internal/opt"
	"skipper/internal/snn"
	"skipper/internal/tensor"
)

// Checkpoint exactness must also hold when T is not divisible by C (the
// remainder lands in the last segment).
func TestCheckpointExactWithRaggedSegments(t *testing.T) {
	const T = 13 // C=2 -> segments [0,6) and [6,13)
	netA, data, input, labels := tinySetup(t, T)
	netB, _, _, _ := tinySetup(t, T)
	trA := newTestTrainer(t, netA, data, BPTT{}, Config{T: T, Batch: 2})
	trB := newTestTrainer(t, netB, data, Checkpoint{C: 2}, Config{T: T, Batch: 2})
	netA.ZeroGrads()
	if _, err := (BPTT{}).TrainBatch(trA, input, labels); err != nil {
		t.Fatal(err)
	}
	netB.ZeroGrads()
	st, err := (Checkpoint{C: 2}).TrainBatch(trB, input, labels)
	if err != nil {
		t.Fatal(err)
	}
	if st.BackwardSteps != T {
		t.Fatalf("backward steps %d, want %d", st.BackwardSteps, T)
	}
	if d := maxGradDiff(gradsOf(netA), gradsOf(netB)); d != 0 {
		t.Fatalf("ragged-segment checkpointing not exact: %v", d)
	}
}

// Exactness through residual blocks: the per-block sub-deltas must carry
// across segment boundaries correctly.
func TestCheckpointExactThroughResNet(t *testing.T) {
	const T = 44 // resnet20 L_n=20 -> C=2 gives segments of 22 > 20
	build := func() *Trainer {
		net, err := models.Build("resnet20", models.Options{Width: 0.25, InShape: []int{3, 16, 16}})
		if err != nil {
			t.Fatal(err)
		}
		data, err := dataset.Open("cifar10", 1)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := NewTrainer(net, data, BPTT{}, Config{T: T, Batch: 1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(tr.Close)
		return tr
	}
	trA := build()
	trB := build()
	data := trA.Data
	input, labels := data.SpikeBatch(dataset.Train, []int{0}, T)

	trA.Net.ZeroGrads()
	if _, err := (BPTT{}).TrainBatch(trA, input, labels); err != nil {
		t.Fatal(err)
	}
	trB.Net.ZeroGrads()
	if _, err := (Checkpoint{C: 2}).TrainBatch(trB, input, labels); err != nil {
		t.Fatal(err)
	}
	if d := maxGradDiff(gradsOf(trA.Net), gradsOf(trB.Net)); d != 0 {
		t.Fatalf("resnet checkpointing not exact: max |Δgrad| = %v", d)
	}
}

// Exactness with dropout: the per-iteration mask must be frozen across
// recomputation, otherwise the replay diverges from the first pass.
func TestCheckpointExactWithDropout(t *testing.T) {
	const T = 16
	build := func() *Trainer {
		net, err := models.Build("vgg5", models.Options{Width: 0.25, InShape: []int{3, 16, 16}, DropoutP: 0.4})
		if err != nil {
			t.Fatal(err)
		}
		data, err := dataset.Open("cifar10", 1)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := NewTrainer(net, data, BPTT{}, Config{T: T, Batch: 2})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(tr.Close)
		return tr
	}
	trA := build()
	trB := build()
	input, labels := trA.Data.SpikeBatch(dataset.Train, []int{0, 1}, T)

	// Identical masks on both networks for this iteration.
	trA.Net.BeginIteration(tensor.NewRNG(42))
	trB.Net.BeginIteration(tensor.NewRNG(42))
	defer trA.Net.EndIteration()
	defer trB.Net.EndIteration()

	trA.Net.ZeroGrads()
	if _, err := (BPTT{}).TrainBatch(trA, input, labels); err != nil {
		t.Fatal(err)
	}
	trB.Net.ZeroGrads()
	if _, err := (Checkpoint{C: 2}).TrainBatch(trB, input, labels); err != nil {
		t.Fatal(err)
	}
	if d := maxGradDiff(gradsOf(trA.Net), gradsOf(trB.Net)); d != 0 {
		t.Fatalf("checkpointing with dropout not exact: %v (mask not frozen?)", d)
	}
}

func TestSkipperSingleSegment(t *testing.T) {
	const T = 16
	net, data, input, labels := tinySetup(t, T)
	strat := Skipper{C: 1, P: 30}
	tr := newTestTrainer(t, net, data, strat, Config{T: T, Batch: 2})
	net.ZeroGrads()
	st, err := strat.TrainBatch(tr, input, labels)
	if err != nil {
		t.Fatal(err)
	}
	if st.SkippedSteps == 0 {
		t.Fatal("single-segment skipper skipped nothing")
	}
}

func TestTBPTTRaggedWindows(t *testing.T) {
	const T = 14 // trW=6 -> windows 6,6,2
	net, data, input, labels := tinySetup(t, T)
	strat := TBPTT{Window: 6}
	tr := newTestTrainer(t, net, data, strat, Config{T: T, Batch: 2})
	net.ZeroGrads()
	st, err := strat.TrainBatch(tr, input, labels)
	if err != nil {
		t.Fatal(err)
	}
	if st.ForwardSteps != T || st.BackwardSteps != T {
		t.Fatalf("steps fwd=%d bwd=%d, want %d", st.ForwardSteps, st.BackwardSteps, T)
	}
}

// Failure injection: a budget that admits the persistent state but not the
// unrolled graph must surface ErrOutOfMemory from the strategy, and after
// Close the device must be fully drained (no leaked blocks on error paths).
func TestOOMErrorPathLeaksNothing(t *testing.T) {
	const T = 18
	for _, strat := range []Strategy{BPTT{}, Checkpoint{C: 3}, Skipper{C: 3, P: 20}, TBPTT{Window: 6}} {
		// Calibrate: measure the strategy's true peak, then offer 80% of it.
		netProbe, data, _, _ := tinySetup(t, T)
		devProbe := mem.Unlimited()
		trProbe := newTestTrainer(t, netProbe, data, strat,
			Config{T: T, Batch: 4, Device: devProbe, MaxBatchesPerEpoch: 1})
		if _, err := trProbe.TrainEpoch(); err != nil {
			t.Fatal(err)
		}
		budget := devProbe.PeakReserved() * 8 / 10

		net, _, _, _ := tinySetup(t, T)
		dev := mem.NewDevice(mem.Config{Budget: budget})
		tr, err := NewTrainer(net, data, strat, Config{T: T, Batch: 4, Device: dev, MaxBatchesPerEpoch: 1})
		if err != nil {
			// Even the persistent state did not fit — acceptable, nothing to leak.
			continue
		}
		_, err = tr.TrainEpoch()
		if err == nil {
			t.Fatalf("%s: expected OOM at 80%% of its measured peak", strat.Name())
		}
		if !errors.Is(err, mem.ErrOutOfMemory) {
			t.Fatalf("%s: error %v is not an OOM", strat.Name(), err)
		}
		tr.Close()
		if got := dev.Allocated(); got != 0 {
			t.Fatalf("%s: leaked %d bytes on the OOM path", strat.Name(), got)
		}
	}
}

func TestEvaluateOOMPropagates(t *testing.T) {
	const T = 18
	net, data, _, _ := tinySetup(t, T)
	dev := mem.NewDevice(mem.Config{Budget: 900 << 10})
	tr, err := NewTrainer(net, data, Checkpoint{C: 3}, Config{T: T, Batch: 64, Device: dev})
	if err != nil {
		t.Skip("persistent state already over budget")
	}
	defer tr.Close()
	if _, _, err := tr.Evaluate(1); err == nil {
		t.Fatal("expected eval OOM at batch 64 under 900 KiB")
	}
}

// TestEvaluateChargesTwoRecords pins evaluation's device charges. The pass
// keeps only the rolling state: each step's record — a LIF layer's U alone —
// is charged before the previous one is released, so exactly two records
// are live at the peak, beside one step's spikes in Workspace, and every
// charge is returned when Evaluate does. A reference device fed the same
// sequence (input, spikes, record, record) gives the expected peaks as
// mem.Device rounds and caches them.
func TestEvaluateChargesTwoRecords(t *testing.T) {
	const T, batch = 6, 4
	net, data, _, _ := tinySetup(t, T)
	dev := mem.NewDevice(mem.Config{})
	tr := newTestTrainer(t, net, data, BPTT{}, Config{T: T, Batch: batch, Device: dev})
	reserved := dev.Reserved()
	if _, _, err := tr.Evaluate(1); err != nil {
		t.Fatal(err)
	}

	var rec int64
	for _, st := range net.Forward([]*tensor.Tensor{tensor.New(append([]int{batch}, net.InShape...)...)}, nil)[0] {
		rec += st.Bytes()
	}
	input, labels := data.SpikeBatch(dataset.Test, make([]int, batch), T)
	ref := mem.Unlimited()
	in := ref.MustAlloc(mem.Input, tr.inputBytes(input, labels))
	spikes := ref.MustAlloc(mem.Workspace, net.SpikeBytes(batch))
	a := ref.MustAlloc(mem.Activations, rec)
	ref.MustAlloc(mem.Activations, rec).Release()
	a.Release()
	spikes.Release()
	in.Release()

	for _, c := range []mem.Category{mem.Activations, mem.Input} {
		if got, want := dev.PeakBy(c), ref.PeakBy(c); got != want {
			t.Errorf("%v peak %d bytes, want %d", c, got, want)
		}
		if live := dev.AllocatedBy(c); live != 0 {
			t.Errorf("%v still holds %d bytes after Evaluate", c, live)
		}
	}
	if got, want := dev.PeakReserved()-reserved, ref.PeakReserved(); got != want {
		t.Errorf("Evaluate grew reserved memory by %d bytes, want %d", got, want)
	}
}

func TestGradClipLimitsUpdate(t *testing.T) {
	const T = 12
	run := func(clip float32) float32 {
		net, data, _, _ := tinySetup(t, T)
		w0 := net.Params()[0].W.Clone()
		cfg := Config{T: T, Batch: 2, GradClip: clip, LR: 0.1, MaxBatchesPerEpoch: 1}
		tr := newTestTrainer(t, net, data, BPTT{}, cfg)
		if _, err := tr.TrainEpoch(); err != nil {
			t.Fatal(err)
		}
		diff := tensor.New(w0.Shape()...)
		tensor.Sub(diff, net.Params()[0].W, w0)
		return tensor.Norm2(diff)
	}
	// Adam normalises step size, so compare against an absurdly small clip
	// which starves the update entirely.
	free := run(0)
	starved := run(1e-12)
	if starved >= free {
		t.Fatalf("grad clip had no effect: %v vs %v", starved, free)
	}
}

// The readout always receives the loss exactly once per batch in skipper,
// even when the final segment is heavily skipped.
func TestSkipperLossInjectionSurvivesHeavySkipping(t *testing.T) {
	const T = 24
	net, data, input, labels := tinySetup(t, T) // customnet L_n = 4
	maxP := MaxSkipPercent(T, 2, net.StatefulCount())
	strat := Skipper{C: 2, P: float64(int(maxP))}
	tr := newTestTrainer(t, net, data, strat, Config{T: T, Batch: 2})
	net.ZeroGrads()
	st, err := strat.TrainBatch(tr, input, labels)
	if err != nil {
		t.Fatal(err)
	}
	// The readout weight gradient must be non-zero: the loss reached it.
	var readoutGrad float32
	ps := net.Params()
	readoutGrad = tensor.Norm2(ps[len(ps)-2].G) + tensor.Norm2(ps[len(ps)-1].G)
	if readoutGrad == 0 {
		t.Fatalf("loss gradient lost under p=%v skipping", strat.P)
	}
	if st.SkippedSteps == 0 {
		t.Fatal("expected heavy skipping")
	}
}

// Two successive batches must not interfere: records from batch 1 are gone
// before batch 2 runs (peak activations for 2 sequential batches equals the
// single-batch peak).
func TestSequentialBatchesSameActivationPeak(t *testing.T) {
	const T = 12
	peakAfter := func(nBatches int) int64 {
		net, data, _, _ := tinySetup(t, T)
		dev := mem.Unlimited()
		tr := newTestTrainer(t, net, data, Checkpoint{C: 2},
			Config{T: T, Batch: 2, Device: dev, MaxBatchesPerEpoch: nBatches})
		if _, err := tr.TrainEpoch(); err != nil {
			t.Fatal(err)
		}
		return dev.PeakBy(mem.Activations)
	}
	if a, b := peakAfter(1), peakAfter(3); a != b {
		t.Fatalf("activation peak grew across batches: %d -> %d (leak)", a, b)
	}
}

func TestEvaluateConfusion(t *testing.T) {
	const T = 10
	net, data, _, _ := tinySetup(t, T)
	tr := newTestTrainer(t, net, data, BPTT{}, Config{T: T, Batch: 4})
	conf, err := tr.EvaluateConfusion(3)
	if err != nil {
		t.Fatal(err)
	}
	if conf.Total() != 12 {
		t.Fatalf("confusion total = %d, want 12", conf.Total())
	}
	if conf.K != 10 {
		t.Fatalf("confusion classes = %d", conf.K)
	}
	// Consistency with Evaluate's accuracy on the same batches.
	_, acc, err := tr.Evaluate(3)
	if err != nil {
		t.Fatal(err)
	}
	if conf.Accuracy() != acc {
		t.Fatalf("confusion accuracy %v != Evaluate %v", conf.Accuracy(), acc)
	}
}

func TestLRScheduleAppliedPerEpoch(t *testing.T) {
	const T = 10
	net, data, _, _ := tinySetup(t, T)
	sched := opt.StepDecay{Base: 0.01, Gamma: 0.1, Every: 1}
	tr := newTestTrainer(t, net, data, BPTT{}, Config{
		T: T, Batch: 2, MaxBatchesPerEpoch: 1, Schedule: sched,
	})
	for e := 1; e <= 3; e++ {
		if _, err := tr.TrainEpoch(); err != nil {
			t.Fatal(err)
		}
		adam, ok := tr.Opt.(*opt.Adam)
		if !ok {
			t.Fatal("default optimizer should be Adam")
		}
		want := sched.LR(e)
		if adam.LR != want {
			t.Fatalf("epoch %d LR = %v, want %v", e, adam.LR, want)
		}
	}
}

// Windowed loss: checkpointing must remain gradient-exact when the loss
// covers the last K timesteps instead of only the final one.
func TestCheckpointExactWithLossWindow(t *testing.T) {
	const T, K = 14, 4
	netA, data, input, labels := tinySetup(t, T)
	netB, _, _, _ := tinySetup(t, T)
	cfg := Config{T: T, Batch: 2, LossWindow: K}
	trA := newTestTrainer(t, netA, data, BPTT{}, cfg)
	trB := newTestTrainer(t, netB, data, Checkpoint{C: 2}, cfg)
	netA.ZeroGrads()
	stA, err := (BPTT{}).TrainBatch(trA, input, labels)
	if err != nil {
		t.Fatal(err)
	}
	netB.ZeroGrads()
	stB, err := (Checkpoint{C: 2}).TrainBatch(trB, input, labels)
	if err != nil {
		t.Fatal(err)
	}
	if stA.Loss != stB.Loss {
		t.Fatalf("windowed loss differs: %v vs %v", stA.Loss, stB.Loss)
	}
	if d := maxGradDiff(gradsOf(netA), gradsOf(netB)); d != 0 {
		t.Fatalf("windowed checkpointing not exact: %v", d)
	}
}

// Skipper must keep every loss-carrying timestep alive in the replay graph.
func TestSkipperKeepsLossWindowSteps(t *testing.T) {
	const T, K = 24, 6
	net, data, input, labels := tinySetup(t, T)
	strat := Skipper{C: 2, P: 30}
	tr := newTestTrainer(t, net, data, strat, Config{T: T, Batch: 2, LossWindow: K})
	net.ZeroGrads()
	st, err := strat.TrainBatch(tr, input, labels)
	if err != nil {
		t.Fatal(err)
	}
	// The K loss steps are unskippable, so at most T-2-(K-1) interior steps
	// can be skipped (T-1 is in the window anyway).
	if st.SkippedSteps > T-2-(K-1) {
		t.Fatalf("skipped %d steps; loss window must be kept", st.SkippedSteps)
	}
	if st.Loss <= 0 {
		t.Fatalf("loss %v", st.Loss)
	}
}

func TestLossWindowValidation(t *testing.T) {
	net, data, _, _ := tinySetup(t, 12)
	if _, err := NewTrainer(net, data, BPTT{}, Config{T: 12, Batch: 1, LossWindow: 13}); err == nil {
		t.Fatal("loss window > T must be rejected")
	}
	if _, err := NewTrainer(net, data, TBPTT{Window: 6}, Config{T: 12, Batch: 1, LossWindow: 2}); err == nil {
		t.Fatal("tbptt with LossWindow > 1 must be rejected")
	}
}

// Checkpoint exactness must hold through explicitly recurrent layers: the
// lateral credit path crosses segment boundaries via the carried deltas.
func TestCheckpointExactThroughRecurrence(t *testing.T) {
	const T = 12
	build := func() *Trainer {
		nrn := snn.Params{Leak: 0.9, Threshold: 0.8}
		net := layers.NewNetwork("recnet", []int{3, 16, 16},
			layers.NewRecurrentSpikingLinear("rec1", 12, nrn, snn.FastSigmoid{}),
			layers.NewReadout("out", 10, nrn),
		)
		if err := net.Build(tensor.NewRNG(77)); err != nil {
			t.Fatal(err)
		}
		data, err := dataset.Open("cifar10", 1)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := NewTrainer(net, data, BPTT{}, Config{T: T, Batch: 2})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(tr.Close)
		return tr
	}
	trA := build()
	trB := build()
	input, labels := trA.Data.SpikeBatch(dataset.Train, []int{0, 1}, T)
	trA.Net.ZeroGrads()
	if _, err := (BPTT{}).TrainBatch(trA, input, labels); err != nil {
		t.Fatal(err)
	}
	trB.Net.ZeroGrads()
	if _, err := (Checkpoint{C: 3}).TrainBatch(trB, input, labels); err != nil {
		t.Fatal(err)
	}
	if d := maxGradDiff(gradsOf(trA.Net), gradsOf(trB.Net)); d != 0 {
		t.Fatalf("recurrent checkpointing not exact: %v", d)
	}
}

// Gradient accumulation: micro-batching must cut the live activation peak
// while producing (near-)identical gradients to the full-batch pass.
func TestMicroBatchReducesActivationPeak(t *testing.T) {
	const T = 12
	peakOf := func(micro int) int64 {
		net, data, _, _ := tinySetup(t, T)
		dev := mem.Unlimited()
		tr := newTestTrainer(t, net, data, BPTT{},
			Config{T: T, Batch: 8, MicroBatch: micro, Device: dev, MaxBatchesPerEpoch: 1})
		if _, err := tr.TrainEpoch(); err != nil {
			t.Fatal(err)
		}
		return dev.PeakBy(mem.Activations)
	}
	full, quarter := peakOf(0), peakOf(2)
	if quarter >= full {
		t.Fatalf("micro-batch peak %d >= full-batch peak %d", quarter, full)
	}
}

func TestMicroBatchGradientsMatchFullBatch(t *testing.T) {
	const T = 12
	grads := func(micro int) []*tensor.Tensor {
		// Gradients are read after the optimizer step; the step does not
		// modify p.G, so the accumulated values are intact.
		net, data, _, _ := tinySetup(t, T)
		tr := newTestTrainer(t, net, data, BPTT{},
			Config{T: T, Batch: 4, MicroBatch: micro, Seed: 5})
		if _, err := tr.TrainBatchIndices(dataset.Train, []int{0, 1, 2, 3}); err != nil {
			t.Fatal(err)
		}
		return gradsOf(net)
	}
	full := grads(0)
	half := grads(2)
	if d := maxGradDiff(full, half); d > 2e-5 {
		t.Fatalf("micro-batched gradients diverge from full batch: max |Δ| = %v", d)
	}
}

func TestMicroBatchValidation(t *testing.T) {
	net, data, _, _ := tinySetup(t, 12)
	if _, err := NewTrainer(net, data, BPTT{}, Config{T: 12, Batch: 4, MicroBatch: 8}); err == nil {
		t.Fatal("micro-batch > batch must be rejected")
	}
}

func TestMetricsJSONL(t *testing.T) {
	const T = 12
	var buf bytes.Buffer
	rt := NewRuntime(WithMetrics(&buf))
	defer rt.Close()
	net, data, _, _ := tinySetup(t, T)
	tr := newTestTrainer(t, net, data, Skipper{C: 2, P: 20},
		Config{Runtime: rt, T: T, Batch: 2, MaxBatchesPerEpoch: 2})
	if _, err := tr.TrainEpoch(); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.TrainEpoch(); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("metrics lines = %d, want 2", len(lines))
	}
	var m map[string]any
	if err := json.Unmarshal(lines[1], &m); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if m["epoch"].(float64) != 2 || m["strategy"] != "skipper(C=2,p=20)" {
		t.Fatalf("metrics content: %v", m)
	}
	for _, key := range []string{"loss", "train_accuracy", "skipped_steps", "peak_reserved_bytes", "duration_ms"} {
		if _, ok := m[key]; !ok {
			t.Fatalf("metrics missing %q", key)
		}
	}
}

// Batch norm + checkpointing: gradients stay bit-exact, and the running
// statistics must be updated exactly once per batch (the replay is frozen).
func TestCheckpointExactThroughBatchNorm(t *testing.T) {
	const T = 14
	build := func() (*Trainer, *layers.TemporalBatchNorm) {
		nrn := snn.Params{Leak: 0.9, Threshold: 0.8}
		bn := layers.NewTemporalBatchNorm("bn1")
		net := layers.NewNetwork("bn-net", []int{3, 16, 16},
			layers.NewSpikingConv2D("c1", 4, 3, 1, 1, nrn, snn.Triangle{}),
			bn,
			layers.NewAvgPool2D("p1", 2),
			layers.NewReadout("out", 10, nrn),
		)
		if err := net.Build(tensor.NewRNG(31)); err != nil {
			t.Fatal(err)
		}
		data, err := dataset.Open("cifar10", 1)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := NewTrainer(net, data, BPTT{}, Config{T: T, Batch: 2, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(tr.Close)
		return tr, bn
	}
	trA, bnA := build()
	trB, bnB := build()
	if _, err := trA.TrainBatchIndices(dataset.Train, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	trB.Strat = Checkpoint{C: 2}
	if _, err := trB.TrainBatchIndices(dataset.Train, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	// Weights after one identical optimizer step must match exactly.
	pa, pb := trA.Net.Params(), trB.Net.Params()
	for i := range pa {
		for j := range pa[i].W.Data {
			if pa[i].W.Data[j] != pb[i].W.Data[j] {
				t.Fatalf("weights diverged at %s[%d]", pa[i].Name, j)
			}
		}
	}
	// Running statistics must be identical: the checkpointed replay did not
	// double-count any timestep.
	statsA := bnA.RunningMean()
	statsB := bnB.RunningMean()
	for i := range statsA {
		if statsA[i] != statsB[i] {
			t.Fatalf("running stats diverged: %v vs %v (replay double-counted)", statsA, statsB)
		}
	}
}
