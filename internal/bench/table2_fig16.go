package bench

import (
	"fmt"
	"io"
	"time"

	"skipper/internal/core"
)

// lbpSitesFor places the local classifiers the way the paper's best
// configuration does for AlexNet (after the 4th and 8th layers of the
// stack); indices are into the layer list of our AlexNet build.
func lbpSitesFor() []int { return []int{3, 7} }

// alexWorkload derives the AlexNet comparison workload at a given horizon
// multiplier (Table II uses T=20, Fig 16 uses T=50 in the paper).
func alexWorkload(sc Scale, longHorizon bool) (Workload, int, error) {
	w, err := WorkloadFor("alexnet", sc)
	if err != nil {
		return w, 0, err
	}
	net, err := w.buildNet()
	if err != nil {
		return w, 0, err
	}
	ln := net.StatefulCount()
	if longHorizon {
		// Table II uses T=20 and Fig 16 T=50 in the paper (2.5x); the tiny
		// scale stretches less to stay fast.
		if sc == Tiny {
			w.T = w.T * 3 / 2
		} else {
			w.T = w.T * 5 / 2
		}
	}
	for w.C > 1 && w.T/w.C <= ln {
		w.C--
	}
	if maxP := core.MaxSkipPercent(w.T, w.C, ln); w.P > maxP {
		w.P = float64(int(0.85 * maxP))
	}
	w.TrW = w.T / 2
	if w.TrW <= ln {
		w.TrW = ln + 1
	}
	return w, ln, nil
}

func init() {
	register(Experiment{
		ID:    "table2",
		Title: "Checkpointing & skipper vs TBPTT-LBP [28] on AlexNet: accuracy and memory (short horizon)",
		Run: func(cfg RunConfig, out io.Writer) error {
			bud := budgetFor(cfg.Scale)
			w, ln, err := alexWorkload(cfg.Scale, false)
			if err != nil {
				return err
			}
			B := w.Batches[len(w.Batches)-1]
			header(out, "table2", "AlexNet comparison at short T", w)
			fmt.Fprintf(out, "%-28s %12s %14s\n", "config", "accuracy", "memory")
			type row struct {
				label string
				strat core.Strategy
			}
			trWshort := w.TrW / 2
			if trWshort <= ln {
				trWshort = ln + 1
			}
			rows := []row{
				{fmt.Sprintf("TBPTT-LBP trW=%d", trWshort), &core.TBPTTLBP{Window: trWshort, LocalAt: lbpSitesFor()}},
				{fmt.Sprintf("TBPTT-LBP trW=%d", w.TrW), &core.TBPTTLBP{Window: w.TrW, LocalAt: lbpSitesFor()}},
				{fmt.Sprintf("This work C=%d", w.C), core.Checkpoint{C: w.C}},
				{fmt.Sprintf("This work C=%d & p=%.0f", w.C, w.P), core.Skipper{C: w.C, P: w.P}},
			}
			for _, r := range rows {
				acc, err := trainAndEval(w, r.strat, w.T, B, bud, cfg.seed())
				if err != nil {
					return fmt.Errorf("table2 %s: %w", r.label, err)
				}
				m, err := w.measure(r.strat, B, measureOpts{batches: bud.measureBatches, seed: cfg.seed()})
				if err != nil {
					return err
				}
				fmt.Fprintf(out, "%-28s %11.2f%% %14s\n", r.label, 100*acc, gib(m.PeakReserved))
			}
			return nil
		},
	})

	register(Experiment{
		ID:    "fig16",
		Title: "TBPTT-LBP truncation sweep vs checkpointing/skipper at a longer horizon: memory/time/accuracy",
		Run: func(cfg RunConfig, out io.Writer) error {
			bud := budgetFor(cfg.Scale)
			w, ln, err := alexWorkload(cfg.Scale, true)
			if err != nil {
				return err
			}
			B := w.Batches[len(w.Batches)-1]
			header(out, "fig16", "AlexNet at longer T", w)
			fmt.Fprintf(out, "%-28s %12s %14s %14s\n", "config", "accuracy", "memory", "time/batch")
			report := func(label string, strat core.Strategy) error {
				acc, err := trainAndEval(w, strat, w.T, B, bud, cfg.seed())
				if err != nil {
					return fmt.Errorf("fig16 %s: %w", label, err)
				}
				m, err := w.measure(strat, B, measureOpts{batches: bud.measureBatches, seed: cfg.seed()})
				if err != nil {
					return err
				}
				fmt.Fprintf(out, "%-28s %11.2f%% %14s %14s\n", label, 100*acc,
					gib(m.PeakReserved), m.TimePerBatch.Round(time.Millisecond))
				return nil
			}
			// (a) TBPTT-LBP truncation-window sweep.
			for _, trW := range []int{ln + 1, w.T / 4, w.T / 2} {
				if trW <= ln || trW > w.T {
					continue
				}
				if err := report(fmt.Sprintf("TBPTT-LBP trW=%d", trW),
					&core.TBPTTLBP{Window: trW, LocalAt: lbpSitesFor()}); err != nil {
					return err
				}
			}
			// (b) This work: baseline, checkpointing, skipper at two p values.
			if err := report("Baseline BPTT", core.BPTT{}); err != nil {
				return err
			}
			if err := report(fmt.Sprintf("C=%d", w.C), core.Checkpoint{C: w.C}); err != nil {
				return err
			}
			halfP := float64(int(w.P / 2))
			if err := report(fmt.Sprintf("C=%d & p=%.0f", w.C, halfP), core.Skipper{C: w.C, P: halfP}); err != nil {
				return err
			}
			if err := report(fmt.Sprintf("C=%d & p=%.0f", w.C, w.P), core.Skipper{C: w.C, P: w.P}); err != nil {
				return err
			}
			return nil
		},
	})
}
