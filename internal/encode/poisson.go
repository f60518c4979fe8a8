// Package encode converts data into spike trains. Frame data (CIFAR-like
// images) passes through Poisson rate encoding — the scheme the paper uses
// for CIFAR10/100 — while event data (DVS-like streams) is binned directly
// into per-timestep spike tensors.
//
// All encoders are deterministic functions of (seed, sample id, timestep),
// so a checkpointed recomputation pass regenerates bit-identical inputs and
// an experiment re-run reproduces exactly.
package encode

import (
	"fmt"

	"skipper/internal/tensor"
)

// Poisson is a rate encoder: each pixel of a [0,1]-valued frame emits a
// spike at each timestep with probability MaxRate·value.
type Poisson struct {
	// MaxRate is the spike probability of a full-intensity pixel per
	// timestep; 0 means 1.0.
	MaxRate float32
	// Seed namespaces the encoder's random stream.
	Seed uint64
}

// EncodeStep fills dst [B, C, H, W] with one timestep of spikes for frames
// [B, C, H, W]. sampleIDs names each batch row globally so encoding is
// independent of batch composition. The ids are full-width uint64 values —
// the serving path derives them from a 64-bit content hash, and narrowing
// them to int would truncate on 32-bit platforms, making the same request
// encode differently across architectures.
func (p Poisson) EncodeStep(dst, frames *tensor.Tensor, sampleIDs []uint64, t int) {
	if !dst.SameShape(frames) {
		panic(fmt.Sprintf("encode: EncodeStep shape mismatch %v vs %v", dst.Shape(), frames.Shape()))
	}
	b := frames.Dim(0)
	if len(sampleIDs) != b {
		panic(fmt.Sprintf("encode: %d sample ids for batch %d", len(sampleIDs), b))
	}
	rate := p.MaxRate
	if rate == 0 {
		rate = 1
	}
	n := frames.Len() / b
	for i := 0; i < b; i++ {
		rng := tensor.NewRNG(tensor.DeriveSeed(p.Seed, sampleIDs[i], uint64(t)))
		src := frames.Data[i*n : (i+1)*n]
		out := dst.Data[i*n : (i+1)*n]
		for j, v := range src {
			if rng.Float32() < rate*v {
				out[j] = 1
			} else {
				out[j] = 0
			}
		}
	}
}

// EncodeTrain expands frames into a full T-timestep spike train, one tensor
// per timestep. This mirrors the reference implementation, which
// materialises the whole input spike tensor on the device (the "input"
// memory category of the paper's breakdown figures).
func (p Poisson) EncodeTrain(frames *tensor.Tensor, sampleIDs []uint64, T int) []*tensor.Tensor {
	train := newTrain(T, frames.Shape())
	for t, st := range train {
		p.EncodeStep(st, frames, sampleIDs, t)
	}
	return train
}

// newTrain allocates a T-step train of batches of the given shape as one
// block, latest step first. A run of consecutive timesteps is then one
// contiguous operand, which the training walk's kernels take in one call
// (layers.Network.Forward); the bytes are those of T separate tensors.
func newTrain(T int, shape []int) []*tensor.Tensor {
	train := make([]*tensor.Tensor, T)
	if T == 0 {
		return train
	}
	slots := tensor.New(append([]int{T * shape[0]}, shape[1:]...)...).Slots(T)
	for t := range train {
		train[t] = slots[T-1-t]
	}
	return train
}

// TrainBytes returns the device footprint of a T-step spike train for the
// given frame shape.
func TrainBytes(frameShape []int, T int) int64 {
	return int64(T) * 4 * int64(tensor.Volume(frameShape))
}
