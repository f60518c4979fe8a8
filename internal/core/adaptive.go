package core

import (
	"fmt"

	"skipper/internal/layers"
	"skipper/internal/tensor"
)

// AdaptiveSkipper extends Skipper with activity-aware checkpoint placement —
// one of the refinements the paper leaves open (Sec. VI-A discusses richer
// activity monitors; placement is the natural next knob). Instead of
// spacing the C checkpoints uniformly in time, each training batch places
// them so that every segment carries roughly equal *cumulative spike
// activity*, using an exponential moving average of the previous batches'
// SAM traces (activity profiles are stable across batches, so last batch's
// profile is a good predictor for this one). Quiet stretches then share a
// segment — where skipping is cheap — while busy stretches get shorter
// segments, trimming the worst-case live-segment memory.
//
// The first batch (no profile yet) falls back to uniform placement, so the
// strategy is never worse-configured than plain Skipper. Every segment is
// still forced to be longer than L_n (Sec. V-A).
type AdaptiveSkipper struct {
	// C is the number of temporal checkpoints.
	C int
	// P is the skip percentile within each segment (Eq. 7-bounded against
	// the largest segment the placement can produce).
	P float64
	// Metric is the SAM metric; nil means spike sum.
	Metric SAMMetric
	// Momentum is the EMA factor for the activity profile; 0 means 0.7.
	Momentum float64

	profile []float64
	ln      int
}

// Name implements Strategy.
func (a *AdaptiveSkipper) Name() string {
	return fmt.Sprintf("adaskipper(C=%d,p=%.0f)", a.C, a.P)
}

// Validate implements Strategy.
func (a *AdaptiveSkipper) Validate(cfg Config, net *layers.Network) error {
	if err := ValidateCheckpoints(cfg.T, a.C, net.StatefulCount()); err != nil {
		return err
	}
	a.ln = net.StatefulCount()
	if a.P < 0 || a.P > 100 {
		return fmt.Errorf("core: adaptive skipper percentile %v outside [0,100]", a.P)
	}
	return nil
}

func (a *AdaptiveSkipper) momentum() float64 {
	if a.Momentum == 0 {
		return 0.7
	}
	return a.Momentum
}

// placements returns this batch's checkpoint timesteps.
func (a *AdaptiveSkipper) placements(T int) []int {
	if len(a.profile) != T {
		return CheckpointTimes(T, a.C)
	}
	return EqualActivityBounds(a.profile, a.C, a.ln)
}

// TrainBatch implements Strategy: Skipper's rank cut over bounds
// placed from the activity profile, which this batch's SAM trace then
// updates for the next batch.
func (a *AdaptiveSkipper) TrainBatch(tr *Trainer, input []*tensor.Tensor, labels []int) (StepStats, error) {
	plan := a.plan(tr.Cfg.T)
	st, err := tr.trainSegments(input, labels, plan)
	if err == nil {
		a.profile = plan.sam.foldInto(a.profile, a.momentum())
	}
	return st, err
}

func (a *AdaptiveSkipper) plan(T int) segmentPlan {
	return segmentPlan{
		name:      "adaptive skipper",
		bounds:    a.placements(T),
		sam:       newSAMTrace(a.Metric, T),
		survivors: Skipper{C: a.C, P: a.P}.selectSurvivors,
		p:         a.P,
	}
}
