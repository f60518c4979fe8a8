package bench

import (
	"fmt"
	"io"
	"time"

	"skipper/internal/core"
	"skipper/internal/dataset"
	"skipper/internal/mem"
	"skipper/internal/models"
)

// trainBudget scales the accuracy-producing runs.
type trainBudget struct {
	epochs, batchesPerEpoch, evalBatches, measureBatches int
}

func budgetFor(sc Scale) trainBudget {
	switch sc {
	case Tiny:
		return trainBudget{epochs: 1, batchesPerEpoch: 4, evalBatches: 3, measureBatches: 2}
	case Small:
		return trainBudget{epochs: 3, batchesPerEpoch: 16, evalBatches: 8, measureBatches: 3}
	default:
		return trainBudget{epochs: 8, batchesPerEpoch: 48, evalBatches: 16, measureBatches: 5}
	}
}

// tSweep builds the timestep sweep for the motivation figures.
func tSweep(base int, sc Scale) []int {
	switch sc {
	case Tiny:
		return []int{base, base * 2}
	case Small:
		return []int{base, base * 2, base * 3}
	default:
		return []int{base, base * 2, base * 3, base * 4, base * 5}
	}
}

// trainAndEval trains a fresh workload network with the strategy for the
// scale's budget and returns test accuracy.
func trainAndEval(w Workload, strat core.Strategy, T, B int, bud trainBudget, seed uint64) (float64, error) {
	w.T = T
	net, err := w.buildNet()
	if err != nil {
		return 0, err
	}
	data, err := dataset.Open(w.Data, seed)
	if err != nil {
		return 0, err
	}
	if err := core.Pretrain(net, data, core.PretrainConfig{
		T: minInt(T, net.StatefulCount()+2), Batch: B, Seed: seed,
		Epochs: 1, BatchesPerEpoch: bud.batchesPerEpoch,
	}); err != nil {
		return 0, err
	}
	tr, err := core.NewTrainer(net, data, strat, core.Config{
		T: T, Batch: B, Seed: seed, MaxBatchesPerEpoch: bud.batchesPerEpoch,
	})
	if err != nil {
		return 0, err
	}
	defer tr.Close()
	for e := 0; e < bud.epochs; e++ {
		if _, err := tr.TrainEpoch(); err != nil {
			return 0, err
		}
	}
	_, acc, err := tr.Evaluate(bud.evalBatches)
	return acc, err
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func init() {
	register(Experiment{
		ID:    "fig3ab",
		Title: "SNN test accuracy and training memory vs timesteps (VGG5, ResNet20 on CIFAR10)",
		Run: func(cfg RunConfig, out io.Writer) error {
			bud := budgetFor(cfg.Scale)
			for _, model := range []string{"vgg5", "resnet20"} {
				w, err := WorkloadFor(model, cfg.Scale)
				if err != nil {
					return err
				}
				header(out, "fig3ab", "accuracy & memory vs T — "+model, w)
				fmt.Fprintf(out, "%8s %10s %14s\n", "T", "accuracy", "peak memory")
				base := w.T / 2
				if base < 8 {
					base = 8
				}
				B := w.Batches[len(w.Batches)-1]
				for _, T := range tSweep(base, cfg.Scale) {
					acc, err := trainAndEval(w, core.BPTT{}, T, B, bud, cfg.seed())
					if err != nil {
						return err
					}
					wt := w
					wt.T = T
					m, err := wt.measure(core.BPTT{}, B, measureOpts{batches: bud.measureBatches, seed: cfg.seed()})
					if err != nil {
						return err
					}
					fmt.Fprintf(out, "%8d %9.2f%% %14s\n", T, 100*acc, gib(m.PeakReserved))
				}
			}
			return nil
		},
	})

	register(Experiment{
		ID:    "fig3cd",
		Title: "GPU tensor-memory breakdown vs timesteps (VGG5, ResNet20)",
		Run: func(cfg RunConfig, out io.Writer) error {
			bud := budgetFor(cfg.Scale)
			for _, model := range []string{"vgg5", "resnet20"} {
				w, err := WorkloadFor(model, cfg.Scale)
				if err != nil {
					return err
				}
				header(out, "fig3cd", "tensor breakdown vs T — "+model, w)
				fmt.Fprintf(out, "%8s %13s %9s %9s %12s %9s\n",
					"T", "activations", "input", "weights", "wt grads+opt", "others")
				base := w.T / 2
				if base < 8 {
					base = 8
				}
				B := w.Batches[0]
				for _, T := range tSweep(base, cfg.Scale) {
					wt := w
					wt.T = T
					m, err := wt.measure(core.BPTT{}, B, measureOpts{batches: bud.measureBatches, seed: cfg.seed()})
					if err != nil {
						return err
					}
					var total int64
					for _, v := range m.PeakByCat {
						total += v
					}
					pct := func(c mem.Category) float64 {
						if total == 0 {
							return 0
						}
						return 100 * float64(m.PeakByCat[c]) / float64(total)
					}
					fmt.Fprintf(out, "%8d %12.1f%% %8.1f%% %8.1f%% %11.1f%% %8.1f%%\n",
						T, pct(mem.Activations), pct(mem.Input), pct(mem.Weights),
						pct(mem.WeightGrads)+pct(mem.Optimizer), pct(mem.Workspace)+pct(mem.Other))
				}
			}
			return nil
		},
	})

	register(Experiment{
		ID:    "fig3ef",
		Title: "Training time per epoch and memory vs batch size (VGG5, ResNet20)",
		Run: func(cfg RunConfig, out io.Writer) error {
			bud := budgetFor(cfg.Scale)
			for _, model := range []string{"vgg5", "resnet20"} {
				w, err := WorkloadFor(model, cfg.Scale)
				if err != nil {
					return err
				}
				header(out, "fig3ef", "epoch time & memory vs B — "+model, w)
				fmt.Fprintf(out, "%8s %16s %14s\n", "B", "time/epoch", "peak memory")
				data, err := dataset.Open(w.Data, cfg.seed())
				if err != nil {
					return err
				}
				n := data.Len(dataset.Train)
				for _, B := range w.Batches {
					m, err := w.measure(core.BPTT{}, B, measureOpts{batches: bud.measureBatches, seed: cfg.seed()})
					if err != nil {
						return err
					}
					epoch := m.TimePerBatch * time.Duration((n+B-1)/B)
					fmt.Fprintf(out, "%8d %16s %14s\n", B, epoch.Round(time.Millisecond), gib(m.PeakReserved))
				}
			}
			return nil
		},
	})

	register(Experiment{
		ID:    "fig4a",
		Title: "ResNet34 (ImageNet surrogate) memory breakdown vs timesteps at B=1",
		Run: func(cfg RunConfig, out io.Writer) error {
			bud := budgetFor(cfg.Scale)
			net, err := models.Build("resnet34", models.Options{Width: 0.5, Classes: 50})
			if err != nil {
				return err
			}
			ln := net.StatefulCount()
			w := Workload{Model: "resnet34", Data: "imagenet", Width: 0.5, Classes: 50}
			header(out, "fig4a", "ResNet34 tensor breakdown vs T, B=1")
			fmt.Fprintf(out, "%8s %13s %9s %9s %12s %12s\n",
				"T", "activations", "input", "weights", "wt grads+opt", "total")
			for _, T := range tSweep(ln+4, cfg.Scale) {
				w.T = T
				m, err := w.measure(core.BPTT{}, 1, measureOpts{batches: bud.measureBatches, seed: cfg.seed()})
				if err != nil {
					return err
				}
				var total int64
				for _, v := range m.PeakByCat {
					total += v
				}
				pct := func(c mem.Category) float64 {
					if total == 0 {
						return 0
					}
					return 100 * float64(m.PeakByCat[c]) / float64(total)
				}
				fmt.Fprintf(out, "%8d %12.1f%% %8.1f%% %8.1f%% %11.1f%% %12s\n",
					T, pct(mem.Activations), pct(mem.Input), pct(mem.Weights),
					pct(mem.WeightGrads)+pct(mem.Optimizer), gib(total))
			}
			return nil
		},
	})

	register(Experiment{
		ID:    "fig4b",
		Title: "Data-parallel (4 replicas) train time and per-replica memory vs batch size",
		Run: func(cfg RunConfig, out io.Writer) error {
			replicas, width, samplesPer := 4, 0.5, 16
			if cfg.Scale == Tiny {
				replicas, width, samplesPer = 2, 0.25, 2
			}
			net0, err := models.Build("resnet34", models.Options{Width: width, Classes: 50})
			if err != nil {
				return err
			}
			T := net0.StatefulCount() + 6
			if cfg.Scale == Full {
				T = 2 * net0.StatefulCount()
			}
			data, err := dataset.Open("imagenet", cfg.seed())
			if err != nil {
				return err
			}
			samples := samplesPer * replicas
			header(out, "fig4b", fmt.Sprintf("ResNet34 data-parallel, R=%d, T=%d, %d samples", replicas, T, samples))
			fmt.Fprintf(out, "%8s %16s %18s\n", "B/gpu", "train time", "memory per gpu")
			bs := []int{1, 2}
			if cfg.Scale != Tiny {
				bs = append(bs, 4)
			}
			for _, perGPU := range bs {
				factory := func(i int) (*core.Trainer, error) {
					net, err := models.Build("resnet34", models.Options{Width: width, Classes: 50})
					if err != nil {
						return nil, err
					}
					return core.NewTrainer(net, data, core.BPTT{}, core.Config{
						T: T, Batch: perGPU, Seed: cfg.seed(), Device: mem.Unlimited(),
					})
				}
				dp, err := core.NewDataParallel(replicas, factory)
				if err != nil {
					return err
				}
				idx := dataset.Indices(data, dataset.Train, cfg.seed(), 0, true)[:samples]
				global := perGPU * replicas
				var wall time.Duration
				for _, b := range dataset.Batches(idx, global) {
					st, err := dp.TrainBatchIndices(dataset.Train, b)
					if err != nil {
						dp.Close()
						return err
					}
					wall += st.Wall
				}
				var peak int64
				for _, tr := range dp.Replicas {
					if p := tr.Dev.PeakReserved(); p > peak {
						peak = p
					}
				}
				dp.Close()
				fmt.Fprintf(out, "%8d %16s %18s\n", perGPU, wall.Round(time.Millisecond), gib(peak))
			}
			return nil
		},
	})
}
