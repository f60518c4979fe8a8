package core

import (
	"fmt"

	"skipper/internal/layers"
	"skipper/internal/tensor"
)

// Checkpoint is temporal activation checkpointing (paper Sec. V): the first
// forward pass stores records only at C uniformly spaced checkpoint
// timesteps; the backward pass walks the segments last-to-first, re-running
// the forward within a segment to restore its records, back-propagating
// through it, and releasing the segment's memory before moving on.
// Activation memory follows Eq. 3: O(T/C) + O(C), minimised at C = √T.
//
// The result is bit-identical to baseline BPTT — the recomputation replays
// exactly the same deterministic forward — at the cost of one extra forward
// pass (≈33% more compute).
type Checkpoint struct {
	// C is the number of temporal checkpoints (1 <= C, T/C > L_n).
	C int
}

// Name implements Strategy.
func (c Checkpoint) Name() string { return fmt.Sprintf("ckpt(C=%d)", c.C) }

// Validate implements Strategy.
func (c Checkpoint) Validate(cfg Config, net *layers.Network) error {
	return ValidateCheckpoints(cfg.T, c.C, net.StatefulCount())
}

// TrainBatch implements Strategy: uniform bounds, every interior step
// replayed.
func (c Checkpoint) TrainBatch(tr *Trainer, input []*tensor.Tensor, labels []int) (StepStats, error) {
	return tr.trainSegments(input, labels, c.plan(tr.Cfg.T))
}

func (c Checkpoint) plan(T int) segmentPlan {
	return segmentPlan{name: "ckpt", bounds: CheckpointTimes(T, c.C)}
}
