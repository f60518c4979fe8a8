package core

import (
	"fmt"

	"skipper/internal/layers"
	"skipper/internal/tensor"
)

// BPTT is the baseline: the network is fully unrolled in time, every
// timestep's activations (U_t, o_t of every layer) stay resident until the
// backward pass consumes them (paper Sec. III-B). Activation memory grows
// linearly with T — the problem the other strategies attack.
type BPTT struct{}

// Name implements Strategy.
func (BPTT) Name() string { return "bptt" }

// Validate implements Strategy.
func (BPTT) Validate(cfg Config, net *layers.Network) error {
	if cfg.T <= net.StatefulCount() {
		return fmt.Errorf("core: bptt needs T > L_n (%d <= %d) for spikes to reach the readout", cfg.T, net.StatefulCount())
	}
	return nil
}

// TrainBatch implements Strategy: every step kept, one segment, nothing to
// replay.
func (b BPTT) TrainBatch(tr *Trainer, input []*tensor.Tensor, labels []int) (StepStats, error) {
	return tr.trainSegments(input, labels, b.plan(tr.Cfg.T))
}

func (BPTT) plan(int) segmentPlan {
	return segmentPlan{name: "bptt", bounds: []int{0}, keepAll: true}
}
