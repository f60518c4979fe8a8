package bench

import (
	"fmt"
	"io"
	"sync"
	"time"

	"skipper/internal/core"
	"skipper/internal/dataset"
	"skipper/internal/mem"
)

// figContext is the fixed "CUDA context" footprint used for the batch-sweep
// figures, sized so its share of a small run matches the paper's 50–80%
// observation at our tensor scale.
const figContext = 8 << 20

// sweepKey caches the expensive 4-workload × batch × strategy sweep shared
// by figs 10, 11, 12, and 13.
type sweepKey struct {
	scale Scale
	seed  uint64
}

// sweepCell is one (workload, strategy, batch) measurement.
type sweepCell struct {
	Workload Workload
	M        Measurement
}

var (
	sweepMu    sync.Mutex
	sweepCache = map[sweepKey][]sweepCell{}
)

// sweepModels are the four workloads of the paper's batch-sweep figures.
var sweepModels = []string{"vgg5", "vgg11", "resnet20", "lenet"}

// batchSweep runs (or returns the cached) strategy × batch sweep.
func batchSweep(cfg RunConfig) ([]sweepCell, error) {
	key := sweepKey{cfg.Scale, cfg.seed()}
	sweepMu.Lock()
	defer sweepMu.Unlock()
	if cells, ok := sweepCache[key]; ok {
		return cells, nil
	}
	bud := budgetFor(cfg.Scale)
	var cells []sweepCell
	for _, model := range sweepModels {
		w, err := WorkloadFor(model, cfg.Scale)
		if err != nil {
			return nil, err
		}
		for _, B := range w.Batches {
			for _, strat := range strategiesFor(w) {
				m, err := w.measure(strat, B, measureOpts{
					batches: bud.measureBatches,
					seed:    cfg.seed(),
					devCfg:  mem.Config{ContextOverhead: figContext},
				})
				if err != nil {
					return nil, fmt.Errorf("sweep %s/%s/B=%d: %w", model, strat.Name(), B, err)
				}
				cells = append(cells, sweepCell{Workload: w, M: m})
			}
		}
	}
	sweepCache[key] = cells
	return cells, nil
}

// cellsFor filters the sweep by model, strategy name, and batch.
func cellsFor(cells []sweepCell, model string) []sweepCell {
	var out []sweepCell
	for _, c := range cells {
		if c.Workload.Model == model {
			out = append(out, c)
		}
	}
	return out
}

func findCell(cells []sweepCell, strat string, B int) *sweepCell {
	for i := range cells {
		if cells[i].M.Strategy == strat && cells[i].M.B == B {
			return &cells[i]
		}
	}
	return nil
}

func init() {
	register(Experiment{
		ID:    "fig10",
		Title: "Computational overhead of checkpointing / skipper / TBPTT vs batch size",
		Run: func(cfg RunConfig, out io.Writer) error {
			cells, err := batchSweep(cfg)
			if err != nil {
				return err
			}
			for _, model := range sweepModels {
				mc := cellsFor(cells, model)
				w := mc[0].Workload
				header(out, "fig10", "time overhead vs B — "+model, w)
				fmt.Fprintf(out, "%6s %16s %16s %16s\n", "B",
					fmt.Sprintf("ckpt C=%d", w.C),
					fmt.Sprintf("skipper p=%.0f", w.P),
					fmt.Sprintf("tbptt trW=%d", w.TrW))
				for _, B := range w.Batches {
					base := findCell(mc, (core.BPTT{}).Name(), B)
					if base == nil {
						continue
					}
					row := fmt.Sprintf("%6d", B)
					for _, s := range strategiesFor(w)[1:] {
						c := findCell(mc, s.Name(), B)
						if c == nil {
							row += fmt.Sprintf(" %16s", "—")
							continue
						}
						over := 100 * (float64(c.M.TimePerBatch)/float64(base.M.TimePerBatch) - 1)
						row += fmt.Sprintf(" %+15.0f%%", over)
					}
					fmt.Fprintln(out, row)
				}
			}
			return nil
		},
	})

	register(Experiment{
		ID:    "fig11",
		Title: "End-to-end training latency per epoch vs batch size (memory annotated)",
		Run: func(cfg RunConfig, out io.Writer) error {
			cells, err := batchSweep(cfg)
			if err != nil {
				return err
			}
			for _, model := range sweepModels {
				mc := cellsFor(cells, model)
				w := mc[0].Workload
				header(out, "fig11", "epoch latency vs B — "+model, w)
				data, err := dataset.Open(w.Data, cfg.seed())
				if err != nil {
					return err
				}
				n := data.Len(dataset.Train)
				fmt.Fprintf(out, "%6s %-14s %14s %14s\n", "B", "strategy", "time/epoch", "memory")
				for _, B := range w.Batches {
					for _, s := range strategiesFor(w) {
						c := findCell(mc, s.Name(), B)
						if c == nil {
							continue
						}
						epoch := c.M.TimePerBatch * time.Duration((n+B-1)/B)
						fmt.Fprintf(out, "%6d %-14s %14s %14s\n", B, s.Name(),
							epoch.Round(time.Millisecond), gib(c.M.PeakReserved))
					}
				}
			}
			return nil
		},
	})

	register(Experiment{
		ID:    "fig12",
		Title: "Overall GPU memory of BPTT / checkpointing / skipper / TBPTT vs batch size",
		Run: func(cfg RunConfig, out io.Writer) error {
			cells, err := batchSweep(cfg)
			if err != nil {
				return err
			}
			for _, model := range sweepModels {
				mc := cellsFor(cells, model)
				w := mc[0].Workload
				header(out, "fig12", "memory vs B — "+model, w)
				fmt.Fprintf(out, "%6s %14s %14s %14s %14s %10s %12s\n", "B",
					"baseline", "ckpt", "skipper", "tbptt", "saving", "tensor-only")
				for _, B := range w.Batches {
					base := findCell(mc, (core.BPTT{}).Name(), B)
					ck := findCell(mc, (core.Checkpoint{C: w.C}).Name(), B)
					sk := findCell(mc, (core.Skipper{C: w.C, P: w.P}).Name(), B)
					tb := findCell(mc, (core.TBPTT{Window: w.TrW}).Name(), B)
					if base == nil || ck == nil || sk == nil || tb == nil {
						continue
					}
					// Overall saving (context included, as nvidia-smi would
					// report) and the tensor-census saving the paper's
					// parenthesised numbers correspond to.
					saving := float64(base.M.PeakReserved) / float64(sk.M.PeakReserved)
					tensorSaving := float64(base.M.PeakTensors) / float64(sk.M.PeakTensors)
					fmt.Fprintf(out, "%6d %14s %14s %14s %14s %9.1fx %11.1fx\n", B,
						gib(base.M.PeakReserved), gib(ck.M.PeakReserved),
						gib(sk.M.PeakReserved), gib(tb.M.PeakReserved), saving, tensorSaving)
				}
			}
			return nil
		},
	})

	register(Experiment{
		ID:    "fig13",
		Title: "Memory breakdown: tensors vs allocator cache vs context, per strategy and batch",
		Run: func(cfg RunConfig, out io.Writer) error {
			cells, err := batchSweep(cfg)
			if err != nil {
				return err
			}
			for _, model := range sweepModels {
				mc := cellsFor(cells, model)
				w := mc[0].Workload
				header(out, "fig13", "tensor/cache/context shares — "+model, w)
				fmt.Fprintf(out, "%6s %-14s %10s %10s %10s\n", "B", "strategy", "tensors", "cached", "context")
				for _, B := range w.Batches {
					for _, s := range strategiesFor(w)[:3] { // base, ckpt, skipper as in the paper
						c := findCell(mc, s.Name(), B)
						if c == nil {
							continue
						}
						total := float64(c.M.PeakReserved)
						tensors := float64(c.M.PeakTensors)
						context := float64(figContext)
						cached := total - tensors - context
						if cached < 0 {
							cached = 0
						}
						fmt.Fprintf(out, "%6d %-14s %9.1f%% %9.1f%% %9.1f%%\n", B, s.Name(),
							100*tensors/total, 100*cached/total, 100*context/total)
					}
				}
			}
			return nil
		},
	})
}
