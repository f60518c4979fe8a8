package core

import (
	"fmt"

	"skipper/internal/layers"
	"skipper/internal/tensor"
)

// Skipper is activation checkpointing with time-skipping (paper Sec. VI).
//
// The first forward pass stores only the C checkpoint records and, in
// addition, the Spike Activity Monitor (SAM) records the per-timestep
// activity score s_t (Eq. 4 for the default spike-sum metric). Before each
// segment's recomputation, the Spike-Sum-Threshold SST_c at the p-th
// percentile of the segment's scores (Eq. 5) is applied as a rank cut
// (SkipSet): the lowest-activity timesteps, p % of the segment, are skipped
// in both the second forward pass and the backward pass, ties at the cut
// included — the recomputed graph is shallower, which simultaneously
// recovers the recomputation overhead and cuts the live activation memory
// (Eq. 6). The functional outcome approximates BPTT; the admissible p is
// bounded by Eq. 7 so that information still propagates through all L_n
// layers within each segment.
type Skipper struct {
	// C is the number of temporal checkpoints.
	C int
	// P is the skip percentile (0..100): the fraction of timesteps dropped
	// from recomputation, bounded by Eq. 7.
	P float64
	// Metric is the SAM activity metric; nil means the paper's spike sum.
	Metric SAMMetric
}

// Name implements Strategy.
func (s Skipper) Name() string { return fmt.Sprintf("skipper(C=%d,p=%.0f)", s.C, s.P) }

// Validate implements Strategy.
func (s Skipper) Validate(cfg Config, net *layers.Network) error {
	if err := ValidateCheckpoints(cfg.T, s.C, net.StatefulCount()); err != nil {
		return err
	}
	return ValidateSkip(cfg.T, s.C, net.StatefulCount(), s.P)
}

// TrainBatch implements Strategy: uniform bounds, and per segment the
// SST_c rank cut over the first pass's SAM scores.
func (s Skipper) TrainBatch(tr *Trainer, input []*tensor.Tensor, labels []int) (StepStats, error) {
	return tr.trainSegments(input, labels, s.plan(tr.Cfg.T))
}

func (s Skipper) plan(T int) segmentPlan {
	return segmentPlan{
		name:      "skipper",
		bounds:    CheckpointTimes(T, s.C),
		sam:       newSAMTrace(s.Metric, T),
		survivors: s.selectSurvivors,
		p:         s.P,
	}
}
