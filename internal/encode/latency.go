package encode

import (
	"fmt"

	"skipper/internal/tensor"
)

// Latency is a time-to-first-spike encoder: each pixel emits exactly one
// spike, earlier for brighter pixels — t = round((1−value)·(T−1)) — and
// pixels below MinIntensity stay silent. Latency coding is the standard
// sparse alternative to Poisson rate coding in the SNN literature; it
// stresses the temporal dimension differently (all information in timing,
// total spike count fixed), which makes it a useful counterpoint for
// activity-driven mechanisms like SAM.
type Latency struct {
	// MinIntensity silences pixels dimmer than this; 0 means 0.05.
	MinIntensity float32
}

// EncodeTrain expands frames [B,C,H,W] with values in [0,1] into a
// T-timestep spike train.
func (l Latency) EncodeTrain(frames *tensor.Tensor, T int) []*tensor.Tensor {
	if T < 1 {
		panic(fmt.Sprintf("encode: latency train needs T >= 1, got %d", T))
	}
	min := l.MinIntensity
	if min == 0 {
		min = 0.05
	}
	train := newTrain(T, frames.Shape())
	for i, v := range frames.Data {
		if v < min {
			continue
		}
		if v > 1 {
			v = 1
		}
		t := int((1 - v) * float32(T-1) * 0.999999)
		train[t].Data[i] = 1
	}
	return train
}

// SpikeBudget returns the exact number of spikes the encoder will emit for
// the given frames — useful for verifying the fixed-count property.
func (l Latency) SpikeBudget(frames *tensor.Tensor) int {
	min := l.MinIntensity
	if min == 0 {
		min = 0.05
	}
	n := 0
	for _, v := range frames.Data {
		if v >= min {
			n++
		}
	}
	return n
}
