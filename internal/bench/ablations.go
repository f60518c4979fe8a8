package bench

import (
	"fmt"
	"io"
	"time"

	"skipper/internal/core"
	"skipper/internal/models"
	"skipper/internal/snn"
)

func init() {
	register(Experiment{
		ID:    "ablate-sam",
		Title: "Ablation: Spike Activity Monitor metric (spike-sum vs weighted vs membrane-l2)",
		Run: func(cfg RunConfig, out io.Writer) error {
			bud := budgetFor(cfg.Scale)
			w, err := WorkloadFor("vgg5", cfg.Scale)
			if err != nil {
				return err
			}
			B := w.Batches[len(w.Batches)-1]
			header(out, "ablate-sam", "SAM metric choice (paper Sec. VI-A future work)", w)
			fmt.Fprintf(out, "%-14s %12s %14s %16s\n", "metric", "accuracy", "time/batch", "skipped steps")
			for _, metric := range []core.SAMMetric{core.SpikeSum{}, core.WeightedSpikeSum{}, core.MembraneL2{}} {
				strat := core.Skipper{C: w.C, P: w.P, Metric: metric}
				acc, err := trainAndEval(w, strat, w.T, B, bud, cfg.seed())
				if err != nil {
					return err
				}
				m, err := w.measure(strat, B, measureOpts{batches: bud.measureBatches, seed: cfg.seed()})
				if err != nil {
					return err
				}
				fmt.Fprintf(out, "%-14s %11.2f%% %14s %16d\n", metric.Name(), 100*acc,
					m.TimePerBatch.Round(time.Millisecond), m.Stats.SkippedSteps)
			}
			return nil
		},
	})

	register(Experiment{
		ID:    "ablate-p",
		Title: "Ablation: skip percentile p sweep (accuracy / time / memory trade-off)",
		Run: func(cfg RunConfig, out io.Writer) error {
			bud := budgetFor(cfg.Scale)
			w, err := WorkloadFor("vgg5", cfg.Scale)
			if err != nil {
				return err
			}
			net, err := w.buildNet()
			if err != nil {
				return err
			}
			maxP := core.MaxSkipPercent(w.T, w.C, net.StatefulCount())
			B := w.Batches[len(w.Batches)-1]
			header(out, "ablate-p", fmt.Sprintf("p sweep (Eq.7 bound %.0f%%)", maxP), w)
			fmt.Fprintf(out, "%8s %12s %14s %14s\n", "p", "accuracy", "time/batch", "memory")
			for _, frac := range []float64{0, 0.25, 0.5, 0.85} {
				p := float64(int(frac * maxP))
				strat := core.Skipper{C: w.C, P: p}
				acc, err := trainAndEval(w, strat, w.T, B, bud, cfg.seed())
				if err != nil {
					return err
				}
				m, err := w.measure(strat, B, measureOpts{batches: bud.measureBatches, seed: cfg.seed()})
				if err != nil {
					return err
				}
				fmt.Fprintf(out, "%8.0f %11.2f%% %14s %14s\n", p, 100*acc,
					m.TimePerBatch.Round(time.Millisecond), gib(m.PeakReserved))
			}
			return nil
		},
	})

	register(Experiment{
		ID:    "ablate-surrogate",
		Title: "Ablation: surrogate gradient choice under skipper",
		Run: func(cfg RunConfig, out io.Writer) error {
			bud := budgetFor(cfg.Scale)
			w, err := WorkloadFor("vgg5", cfg.Scale)
			if err != nil {
				return err
			}
			B := w.Batches[len(w.Batches)-1]
			header(out, "ablate-surrogate", "surrogate gradient choice", w)
			fmt.Fprintf(out, "%-14s %12s\n", "surrogate", "accuracy")
			for _, name := range []string{"triangle", "fastsigmoid", "atan", "rectangular"} {
				surr, err := snn.ByName(name)
				if err != nil {
					return err
				}
				// Rebuild the workload's network with the chosen surrogate.
				wv := w
				acc, err := trainAndEvalWithSurrogate(wv, surr, core.Skipper{C: w.C, P: w.P}, B, bud, cfg.seed())
				if err != nil {
					return err
				}
				fmt.Fprintf(out, "%-14s %11.2f%%\n", name, 100*acc)
			}
			return nil
		},
	})
}

// trainAndEvalWithSurrogate is trainAndEval with a surrogate override.
func trainAndEvalWithSurrogate(w Workload, surr snn.Surrogate, strat core.Strategy, B int, bud trainBudget, seed uint64) (float64, error) {
	in := inShapeFor(w.Data)
	net, err := models.Build(w.Model, models.Options{
		Width: w.Width, Classes: w.Classes, InShape: in, Surrogate: surr,
	})
	if err != nil {
		return 0, err
	}
	data, err := openData(w.Data, seed)
	if err != nil {
		return 0, err
	}
	tr, err := core.NewTrainer(net, data, strat, core.Config{
		T: w.T, Batch: B, Seed: seed, MaxBatchesPerEpoch: bud.batchesPerEpoch,
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

func init() {
	register(Experiment{
		ID:    "ablate-placement",
		Title: "Extension: uniform vs activity-aware checkpoint placement (AdaptiveSkipper)",
		Run: func(cfg RunConfig, out io.Writer) error {
			bud := budgetFor(cfg.Scale)
			w, err := WorkloadFor("lenet", cfg.Scale) // event data: real activity variation
			if err != nil {
				return err
			}
			B := w.Batches[len(w.Batches)-1]
			header(out, "ablate-placement", "checkpoint placement policy", w)
			fmt.Fprintf(out, "%-12s %12s %14s %14s %16s\n",
				"placement", "accuracy", "time/batch", "peak memory", "skipped steps")
			for _, row := range []struct {
				label string
				strat core.Strategy
			}{
				{"uniform", core.Skipper{C: w.C, P: w.P}},
				{"adaptive", &core.AdaptiveSkipper{C: w.C, P: w.P}},
			} {
				acc, err := trainAndEval(w, row.strat, w.T, B, bud, cfg.seed())
				if err != nil {
					return err
				}
				m, err := w.measure(row.strat, B, measureOpts{batches: bud.measureBatches, seed: cfg.seed()})
				if err != nil {
					return err
				}
				fmt.Fprintf(out, "%-12s %11.2f%% %14s %14s %16d\n", row.label, 100*acc,
					m.TimePerBatch.Round(time.Millisecond), gib(m.PeakReserved), m.Stats.SkippedSteps)
			}
			return nil
		},
	})
}
