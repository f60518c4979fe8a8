package core

import (
	"fmt"
	"math"

	"skipper/internal/layers"
)

// Plan is AutoTune's recommendation: the cheapest-approximation strategy
// whose predicted footprint fits the budget, along with the model's
// prediction for transparency.
type Plan struct {
	// Strategy is ready to hand to NewTrainer.
	Strategy Strategy
	// C and P echo the chosen knobs (0 for plain BPTT).
	C int
	P float64
	// PredictedPeak is the analytic footprint estimate in bytes.
	PredictedPeak int64
	// Reason explains the choice in one line.
	Reason string
}

// AutoTune operationalises the paper's design rules (Sec. V-A and Eq. 7):
// given a time horizon, batch size, and device budget it returns the least
// approximate strategy predicted to fit:
//
//  1. plain BPTT if the full unroll fits (gradient-exact, no overhead),
//  2. otherwise checkpointing at the admissible C nearest √T (still
//     gradient-exact; Eq. 3 is minimised there), growing C if needed,
//  3. otherwise Skipper at the smallest skip percentile that fits, bounded
//     by Eq. 7.
//
// budget <= 0 means unlimited, which always yields plain BPTT.
func AutoTune(net *layers.Network, inputShape []int, cfg Config, budget int64) (Plan, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return Plan{}, err
	}
	ln := net.StatefulCount()
	if cfg.T <= ln {
		return Plan{}, fmt.Errorf("core: autotune: T=%d must exceed L_n=%d", cfg.T, ln)
	}
	est := newEstimator(net, inputShape, cfg)

	if budget <= 0 || est.bpttPeak() <= budget {
		return Plan{
			Strategy:      BPTT{},
			PredictedPeak: est.bpttPeak(),
			Reason:        "full unroll fits the budget; baseline BPTT is exact with no recompute overhead",
		}, nil
	}

	// Admissible checkpoint counts, nearest-to-√T first.
	sqrtT := math.Sqrt(float64(cfg.T))
	var cs []int
	for c := 2; c <= cfg.T/(ln+1); c++ {
		if ValidateCheckpoints(cfg.T, c, ln) == nil {
			cs = append(cs, c)
		}
	}
	if len(cs) == 0 {
		return Plan{}, fmt.Errorf("core: autotune: no admissible checkpoint count for T=%d, L_n=%d", cfg.T, ln)
	}
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && math.Abs(float64(cs[j])-sqrtT) < math.Abs(float64(cs[j-1])-sqrtT); j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
	for _, c := range cs {
		if peak := est.ckptPeak(c, 0); peak <= budget {
			return Plan{
				Strategy:      Checkpoint{C: c},
				C:             c,
				PredictedPeak: peak,
				Reason:        fmt.Sprintf("plain checkpointing at C=%d (√T rule) fits; gradients stay exact", c),
			}, nil
		}
	}

	// Skipping: for each C (best segment economics first = largest C),
	// find the smallest p that fits.
	bestC := cs[len(cs)-1]
	for _, c := range cs {
		maxP := MaxSkipPercent(cfg.T, c, ln)
		for p := 5.0; p <= maxP; p += 5 {
			if peak := est.ckptPeak(c, p); peak <= budget {
				return Plan{
					Strategy:      Skipper{C: c, P: p},
					C:             c,
					P:             p,
					PredictedPeak: peak,
					Reason: fmt.Sprintf("checkpointing alone exceeds the budget; skipping p=%.0f%% of timesteps (Eq.7 bound %.0f%%) fits",
						p, maxP),
				}, nil
			}
		}
	}
	return Plan{}, fmt.Errorf("core: autotune: even skipper at C=%d, p=%.0f%% needs %s; budget %d bytes is too small",
		bestC, MaxSkipPercent(cfg.T, bestC, ln), fmtBytes(est.ckptPeak(bestC, MaxSkipPercent(cfg.T, bestC, ln))), budget)
}

// estimator predicts peak footprints from the same quantities the engine
// charges: per-timestep record and walk-spike bytes, parameter bytes, input
// train bytes, and workspace. A safety factor absorbs allocator-bin
// rounding.
type estimator struct {
	cfg        Config
	rec, spike int64
	fixed      int64
	safety     float64
}

func newEstimator(net *layers.Network, inputShape []int, cfg Config) *estimator {
	rec := net.RecordBytes(cfg.Batch)
	pb := net.ParamBytes()
	inVol := int64(4 * cfg.Batch)
	for _, d := range inputShape {
		inVol *= int64(d)
	}
	fixed := pb /*weights*/ + pb /*grads*/ + 2*pb /*adam moments*/ +
		int64(cfg.T)*inVol /*input train*/ +
		net.WorkspaceBytes(cfg.Batch) + net.DeltaBytes(cfg.Batch) /*delta scratch*/
	return &estimator{cfg: cfg, rec: rec, spike: net.SpikeBytes(cfg.Batch), fixed: fixed, safety: 1.15}
}

// bpttPeak is T records and the backward walk's spikes over all T steps.
func (e *estimator) bpttPeak() int64 {
	return int64(float64(int64(e.cfg.T)*(e.rec+e.spike)+e.fixed) * e.safety)
}

// ckptPeak follows Eq. 3 / Eq. 6: C boundary records plus the (possibly
// skip-thinned) live segment, plus one transient record for the rolling
// forward state, and the spikes of the segment's backward walk.
func (e *estimator) ckptPeak(c int, p float64) int64 {
	seg := (e.cfg.T + c - 1) / c
	live := int64(math.Ceil((1 - p/100) * float64(seg)))
	act := (int64(c)+live+1)*e.rec + (live+1)*e.spike
	return int64(float64(act+e.fixed) * e.safety)
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(n)/(1<<20))
	default:
		return fmt.Sprintf("%d B", n)
	}
}
