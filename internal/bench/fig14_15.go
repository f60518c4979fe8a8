package bench

import (
	"fmt"
	"io"
	"time"

	"skipper/internal/core"
	"skipper/internal/mem"
)

func init() {
	register(Experiment{
		ID:    "fig14",
		Title: "Peak memory vs timesteps under a fixed budget: baseline OOMs first, skipper scales furthest",
		Run: func(cfg RunConfig, out io.Writer) error {
			bud := budgetFor(cfg.Scale)
			for _, model := range []string{"vgg11", "resnet20"} {
				w, err := WorkloadFor(model, cfg.Scale)
				if err != nil {
					return err
				}
				net, err := w.buildNet()
				if err != nil {
					return err
				}
				ln := net.StatefulCount()
				B := w.Batches[0]

				// Calibrate the budget: 2.5x the baseline's footprint at the
				// base horizon, so the baseline dies within the sweep while
				// checkpointing and skipper keep scaling (paper Fig 14).
				baseT := w.T
				m0, err := w.measure(core.BPTT{}, B, measureOpts{batches: 1, seed: cfg.seed()})
				if err != nil {
					return err
				}
				budgetBytes := m0.PeakReserved * 5 / 2
				header(out, "fig14", fmt.Sprintf("memory vs T at budget %s — %s", gib(budgetBytes), model), w)
				fmt.Fprintf(out, "%8s %16s %16s %16s\n", "T", "baseline", fmt.Sprintf("ckpt C=%d", w.C), "skipper")

				mult := []int{1, 2, 3, 4, 6, 9}
				if cfg.Scale == Tiny {
					mult = []int{1, 2, 4}
				}
				for _, k := range mult {
					T := baseT * k
					wt := w
					wt.T = T
					row := fmt.Sprintf("%8d", T)
					for _, mk := range []func() core.Strategy{
						func() core.Strategy { return core.BPTT{} },
						func() core.Strategy { return core.Checkpoint{C: w.C} },
						func() core.Strategy {
							p := w.P
							if maxP := core.MaxSkipPercent(T, w.C, ln); p > maxP {
								p = float64(int(0.85 * maxP))
							}
							return core.Skipper{C: w.C, P: p}
						},
					} {
						strat := mk()
						m, err := wt.measure(strat, B, measureOpts{
							batches: 1, seed: cfg.seed(),
							devCfg: mem.Config{Budget: budgetBytes},
						})
						if err != nil {
							if isOOM(err) {
								row += fmt.Sprintf(" %16s", "OOM")
								continue
							}
							return err
						}
						row += fmt.Sprintf(" %16s", gib(m.PeakReserved))
					}
					fmt.Fprintln(out, row)
				}
				_ = bud
			}
			return nil
		},
	})

	register(Experiment{
		ID:    "fig15",
		Title: "Edge device (budget + swap): memory and epoch latency vs batch size",
		Run: func(cfg RunConfig, out io.Writer) error {
			bud := budgetFor(cfg.Scale)
			w, err := WorkloadFor("vgg5", cfg.Scale)
			if err != nil {
				return err
			}
			// Size the "edge" budget so the baseline only fits the smallest
			// batch (as the Jetson Nano only fit B=8 in the paper): measure
			// the baseline at the smallest batch and allow 1.3x that.
			bs := append([]int{1}, w.Batches...)
			m0, err := w.measure(core.BPTT{}, bs[0], measureOpts{batches: 1, seed: cfg.seed()})
			if err != nil {
				return err
			}
			edge := mem.Config{
				Budget:          m0.PeakReserved * 13 / 10,
				SwapBytes:       m0.PeakReserved,
				SwapPenalty:     3,
				ContextOverhead: m0.PeakReserved / 4, // the context share is large on edge parts
			}
			header(out, "fig15", fmt.Sprintf("edge budget %s + swap %s — vgg5", gib(edge.Budget), gib(edge.SwapBytes)), w)
			fmt.Fprintf(out, "%6s %-18s %14s %16s\n", "B", "strategy", "memory", "latency/epoch")
			for _, B := range bs {
				for _, strat := range []core.Strategy{
					core.BPTT{},
					core.Checkpoint{C: w.C},
					core.Skipper{C: w.C, P: w.P},
				} {
					m, err := w.measure(strat, B, measureOpts{
						batches: bud.measureBatches, seed: cfg.seed(), devCfg: edge,
					})
					if err != nil {
						if isOOM(err) {
							fmt.Fprintf(out, "%6d %-18s %14s %16s\n", B, strat.Name(), "OOM", "—")
							continue
						}
						return err
					}
					// Swap residency slows the epoch down by the device's
					// bandwidth-penalty factor.
					dev := mem.NewDevice(edge)
					_ = dev
					slow := 1.0
					if m.PeakReserved > edge.Budget {
						frac := float64(m.PeakReserved-edge.Budget) / float64(edge.Budget)
						slow = 1 + edge.SwapPenalty*frac
					}
					perEpoch := time.Duration(float64(m.TimePerBatch) * slow * float64((512+B-1)/B))
					fmt.Fprintf(out, "%6d %-18s %14s %16s\n", B, strat.Name(),
						gib(m.PeakReserved), perEpoch.Round(time.Millisecond))
				}
			}
			return nil
		},
	})
}
