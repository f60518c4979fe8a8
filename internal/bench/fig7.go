package bench

import (
	"fmt"
	"io"
	"math"
	"time"

	"skipper/internal/core"
)

// cSweep builds the checkpoint-count sweep for a workload: every admissible
// C up to the Sec. V-A bound, always including √T (the Eq. 3 optimum).
func cSweep(w Workload, ln int) []int {
	maxC := w.T / (ln + 1)
	if maxC < 1 {
		maxC = 1
	}
	sqrtT := int(math.Round(math.Sqrt(float64(w.T))))
	cands := []int{2, 4, sqrtT, 8, 10, 12, 16, 20}
	seen := map[int]bool{}
	var out []int
	for _, c := range cands {
		if c < 1 || c > maxC || seen[c] {
			continue
		}
		if core.ValidateCheckpoints(w.T, c, ln) != nil {
			continue
		}
		seen[c] = true
		out = append(out, c)
	}
	// keep ascending
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func init() {
	register(Experiment{
		ID:    "fig7",
		Title: "Peak memory and compute time vs number of checkpoints C (4 workloads)",
		Run: func(cfg RunConfig, out io.Writer) error {
			bud := budgetFor(cfg.Scale)
			for _, model := range []string{"vgg5", "vgg11", "resnet20", "lenet"} {
				w, err := WorkloadFor(model, cfg.Scale)
				if err != nil {
					return err
				}
				net, err := w.buildNet()
				if err != nil {
					return err
				}
				ln := net.StatefulCount()
				header(out, "fig7", "memory & time vs C — "+model, w)
				B := w.Batches[0]
				fmt.Fprintf(out, "%10s %14s %14s %12s\n", "C", "peak memory", "time/batch", "overhead")
				base, err := w.measure(core.BPTT{}, B, measureOpts{batches: bud.measureBatches, seed: cfg.seed()})
				if err != nil {
					return err
				}
				fmt.Fprintf(out, "%10s %14s %14s %12s\n", "base", gib(base.PeakReserved),
					base.TimePerBatch.Round(time.Millisecond), "—")
				for _, C := range cSweep(w, ln) {
					m, err := w.measure(core.Checkpoint{C: C}, B, measureOpts{batches: bud.measureBatches, seed: cfg.seed()})
					if err != nil {
						return err
					}
					over := 100 * (float64(m.TimePerBatch)/float64(base.TimePerBatch) - 1)
					mark := ""
					if C == int(math.Round(math.Sqrt(float64(w.T)))) {
						mark = " <- C=sqrt(T)"
					}
					fmt.Fprintf(out, "%10d %14s %14s %+11.0f%%%s\n", C, gib(m.PeakReserved),
						m.TimePerBatch.Round(time.Millisecond), over, mark)
				}
			}
			return nil
		},
	})
}
