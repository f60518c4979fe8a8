package skipper

import (
	"io"
	"math/rand"
	"testing"
	"time"

	"skipper/internal/bench"
	"skipper/internal/core"
	"skipper/internal/dataset"
	"skipper/internal/mem"
	"skipper/internal/models"
	"skipper/internal/tensor"
)

// runExperiment executes one registered paper experiment at Tiny scale.
// There is one benchmark below for every table and figure in the paper's
// evaluation section; run a single one with e.g.
//
//	go test -bench BenchmarkFig7 -benchtime 1x
func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := bench.Get(id)
	if err != nil {
		b.Fatal(err)
	}
	cfg := bench.RunConfig{Scale: bench.Tiny, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(cfg, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// Fig 3: motivation — accuracy/memory vs T, tensor breakdown, epoch time vs B.
func BenchmarkFig3ab_AccuracyMemoryVsTimesteps(b *testing.B)  { runExperiment(b, "fig3ab") }
func BenchmarkFig3cd_MemoryBreakdownVsTimesteps(b *testing.B) { runExperiment(b, "fig3cd") }
func BenchmarkFig3ef_EpochTimeVsBatch(b *testing.B)           { runExperiment(b, "fig3ef") }

// Fig 4: ResNet34/ImageNet-surrogate memory breakdown and data parallelism.
func BenchmarkFig4a_ResNet34Breakdown(b *testing.B) { runExperiment(b, "fig4a") }
func BenchmarkFig4b_DataParallel(b *testing.B)      { runExperiment(b, "fig4b") }

// Fig 7: peak memory and compute time vs number of checkpoints C.
func BenchmarkFig7_MemoryVsCheckpoints(b *testing.B) { runExperiment(b, "fig7") }

// Table I: accuracy of 5 networks × 4 training techniques.
func BenchmarkTable1_AccuracyGrid(b *testing.B) { runExperiment(b, "table1") }

// Figs 8–9: LeNet/DVS-gesture from-scratch curves and accuracy vs T.
func BenchmarkFig8_FromScratchCurves(b *testing.B)   { runExperiment(b, "fig8") }
func BenchmarkFig9_AccuracyVsTimesteps(b *testing.B) { runExperiment(b, "fig9") }

// Figs 10–13: the batch sweep (compute overhead, epoch latency, memory,
// tensor/cache/context breakdown).
func BenchmarkFig10_ComputeOverhead(b *testing.B) { runExperiment(b, "fig10") }
func BenchmarkFig11_EpochLatency(b *testing.B)    { runExperiment(b, "fig11") }
func BenchmarkFig12_MemoryVsBatch(b *testing.B)   { runExperiment(b, "fig12") }
func BenchmarkFig13_MemoryBreakdown(b *testing.B) { runExperiment(b, "fig13") }

// Fig 14: timestep scaling under a fixed budget.
func BenchmarkFig14_TimestepScaling(b *testing.B) { runExperiment(b, "fig14") }

// Fig 15: edge device with budget + swap.
func BenchmarkFig15_EdgeDevice(b *testing.B) { runExperiment(b, "fig15") }

// Table II / Fig 16: comparison against TBPTT-LBP [28].
func BenchmarkTable2_VsTBPTTLBP(b *testing.B)       { runExperiment(b, "table2") }
func BenchmarkFig16_VsTBPTTLBPHorizon(b *testing.B) { runExperiment(b, "fig16") }

// Ablations beyond the paper's grid (Sec. VI-A / VIII design choices).
func BenchmarkAblationSAMMetric(b *testing.B)      { runExperiment(b, "ablate-sam") }
func BenchmarkAblationSkipPercentile(b *testing.B) { runExperiment(b, "ablate-p") }
func BenchmarkAblationSurrogate(b *testing.B)      { runExperiment(b, "ablate-surrogate") }

// --- Kernel and strategy micro-benchmarks ---

func BenchmarkKernelConv2DForward(b *testing.B) {
	s := tensor.ConvSpec{InChannels: 8, OutChannels: 16, KernelH: 3, KernelW: 3, Stride: 1, Pad: 1}
	x := tensor.New(4, 8, 16, 16)
	w := tensor.New(16, 8, 3, 3)
	bias := tensor.New(16)
	tensor.NewRNG(1).FillNorm(x, 0, 1)
	tensor.NewRNG(2).FillNorm(w, 0, 0.1)
	out := tensor.New(4, 16, 16, 16)
	sc := tensor.NewScratch()
	b.SetBytes(x.Bytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.Conv2D(nil, out, x, w, bias, s, sc)
	}
}

func BenchmarkKernelMatMul(b *testing.B) {
	m, k, n := 64, 256, 64
	x := tensor.New(m, k)
	y := tensor.New(k, n)
	tensor.NewRNG(1).FillNorm(x, 0, 1)
	tensor.NewRNG(2).FillNorm(y, 0, 1)
	out := tensor.New(m, n)
	b.SetBytes(int64(m*k+k*n) * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMul(nil, out, x, y)
	}
}

func BenchmarkKernelLIFStep(b *testing.B) {
	net, err := models.Build("vgg5", models.Options{Width: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	x := tensor.New(4, 3, 16, 16)
	tensor.NewRNG(1).FillUniform(x, 0, 1.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ForwardStep(x, nil)
	}
}

// benchWorkloads are the benchmark's two training configurations
// (benchmark/spec.go: train_dense and train_events), half-width models.
var benchWorkloads = []struct {
	name, model, data string
	T, B, C           int
	P                 float64
}{
	{"dense", "vgg5", "cifar10", 48, 8, 4, 42},
	{"events", "lenet", "dvsgesture", 120, 4, 6, 59},
}

// benchStrategyBatch times one whole training step (encode, train batch,
// optimizer step) under a strategy on each benchmark workload, on batches
// drawn from untrained weights, and reports the run's exact cost counters
// and heap allocations beside the time and its split into the first pass,
// the replay and the backward walk, so `go test -bench Strategy -benchtime
// 10x -count 6` on two trees is an in-process paired comparison that shows
// where a saving lands.
func benchStrategyBatch(b *testing.B, strat func(T, C int, P float64) core.Strategy) {
	b.Helper()
	for _, w := range benchWorkloads {
		b.Run(w.name, func(b *testing.B) {
			data, err := dataset.Open(w.data, 1)
			if err != nil {
				b.Fatal(err)
			}
			net, err := models.Build(w.model, models.Options{Width: 0.5, InShape: data.InShape(), Classes: data.Classes()})
			if err != nil {
				b.Fatal(err)
			}
			dev := mem.Unlimited()
			tr, err := core.NewTrainer(net, data, strat(w.T, w.C, w.P), core.Config{T: w.T, Batch: w.B, Device: dev})
			if err != nil {
				b.Fatal(err)
			}
			defer tr.Close()
			// Samples are drawn as benchmark/train.go draws them; the first
			// samples in index order are unrepresentative on events, where
			// almost every hidden δ image is zero.
			rng := rand.New(rand.NewSource(3))
			idx := make([]int, w.B)
			var total core.StepStats
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range idx {
					idx[j] = rng.Intn(data.Len(dataset.Train))
				}
				st, err := tr.TrainBatchIndices(dataset.Train, idx)
				if err != nil {
					b.Fatal(err)
				}
				total.Add(st)
			}
			perOp := func(d time.Duration) float64 { return float64(d) / 1e6 / float64(b.N) }
			b.ReportMetric(perOp(total.ForwardTime), "forward-ms/op")
			b.ReportMetric(perOp(total.RecomputeTime), "recompute-ms/op")
			b.ReportMetric(perOp(total.BackwardTime), "backward-ms/op")
			b.ReportMetric(float64(total.SkippedSteps)/float64(b.N), "skipped-steps/op")
			b.ReportMetric(float64(total.QuietSteps)/float64(b.N), "quiet-steps/op")
			b.ReportMetric(float64(dev.PeakBy(mem.Activations)), "peak-act-B")
			b.ReportMetric(float64(dev.PeakReserved()), "peak-reserved-B")
		})
	}
}

func BenchmarkStrategyBPTT(b *testing.B) {
	benchStrategyBatch(b, func(int, int, float64) core.Strategy { return core.BPTT{} })
}
func BenchmarkStrategyCheckpoint(b *testing.B) {
	benchStrategyBatch(b, func(_, C int, _ float64) core.Strategy { return core.Checkpoint{C: C} })
}
func BenchmarkStrategySkipper(b *testing.B) {
	benchStrategyBatch(b, func(_, C int, P float64) core.Strategy { return core.Skipper{C: C, P: P} })
}
func BenchmarkStrategyAdaptiveSkipper(b *testing.B) {
	benchStrategyBatch(b, func(_, C int, P float64) core.Strategy { return &core.AdaptiveSkipper{C: C, P: P} })
}
func BenchmarkStrategyTBPTT(b *testing.B) {
	benchStrategyBatch(b, func(T, C int, _ float64) core.Strategy { return core.TBPTT{Window: T / C} })
}

func BenchmarkAblationPlacement(b *testing.B) { runExperiment(b, "ablate-placement") }

func BenchmarkAblationSpikeCompression(b *testing.B) { runExperiment(b, "ablate-compress") }
