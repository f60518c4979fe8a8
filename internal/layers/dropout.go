package layers

import (
	"fmt"

	"skipper/internal/tensor"
)

// Dropout zeroes a per-neuron subset of its input with probability P and
// rescales survivors by 1/(1−P). The mask is sampled once per training
// iteration (BeginIteration) and frozen across all timesteps and across
// checkpoint recomputation — the standard choice for SNN training, and a
// prerequisite for recompute determinism. With no mask set (evaluation) the
// layer is the identity.
type Dropout struct {
	P     float32
	Label string

	inShape []int
	mask    *tensor.Tensor // per-sample mask broadcast over the batch
}

// NewDropout returns an unbuilt dropout layer with drop probability p.
func NewDropout(label string, p float32) *Dropout {
	return &Dropout{P: p, Label: label}
}

// Name implements Layer.
func (l *Dropout) Name() string { return l.Label }

// Stateful implements Layer.
func (l *Dropout) Stateful() bool { return false }

// Build implements Layer.
func (l *Dropout) Build(inShape []int, _ *tensor.RNG) ([]int, error) {
	if l.P < 0 || l.P >= 1 {
		return nil, fmt.Errorf("layers: %s probability %v outside [0,1)", l.Label, l.P)
	}
	l.inShape = append([]int(nil), inShape...)
	return inShape, nil
}

// Params implements Layer.
func (l *Dropout) Params() []Param { return nil }

// BeginIteration samples a fresh mask for the coming iteration. Implements
// IterationLayer.
func (l *Dropout) BeginIteration(rng *tensor.RNG) {
	if l.P == 0 {
		l.mask = nil
		return
	}
	n := shapeVolume(l.inShape)
	l.mask = tensor.New(n)
	scale := 1 / (1 - l.P)
	for i := 0; i < n; i++ {
		if rng.Float32() >= l.P {
			l.mask.Data[i] = scale
		}
	}
}

// EndIteration clears the mask, returning the layer to identity
// (evaluation) behaviour.
func (l *Dropout) EndIteration() { l.mask = nil }

func (l *Dropout) applyMask(dst, src *tensor.Tensor) {
	b := src.Dim(0)
	n := src.Len() / b
	for img := 0; img < b; img++ {
		d := dst.Data[img*n : (img+1)*n]
		s := src.Data[img*n : (img+1)*n]
		for i := range d {
			d[i] = s[i] * l.mask.Data[i]
		}
	}
}

// apply writes src through the mask into dst (a copy without one).
func (l *Dropout) apply(src, dst *tensor.Tensor) {
	if l.mask == nil {
		copy(dst.Data, src.Data)
	} else {
		l.applyMask(dst, src)
	}
}

// Forward implements Layer: forwardSteps on one step.
func (l *Dropout) Forward(x *tensor.Tensor, _ *LayerState) *LayerState {
	return forwardOne(l, x, nil)
}

// forwardSteps implements stepLayer.
func (l *Dropout) forwardSteps(xs []*tensor.Tensor, _ *LayerState, out []*LayerState) []*tensor.Tensor {
	os := newSteps(len(xs), xs[0].Dim(0), xs[0].Shape()[1:])
	eachRun(xs, os, l.apply)
	return outputs(os, out)
}

// Backward implements Layer: backwardSteps on one step.
func (l *Dropout) Backward(x *tensor.Tensor, _ *LayerState, gradOut *tensor.Tensor, _ *Delta) (*tensor.Tensor, *Delta) {
	return backwardOne(l, x, nil, gradOut, nil, true)
}

// backwardSteps implements stepLayer.
func (l *Dropout) backwardSteps(g *stepGrads, _ *Delta) *Delta {
	if g.gradIn != nil {
		eachRun(g.gradOut, g.gradIn, l.apply)
	}
	return nil
}

// StateBytes implements Layer.
func (l *Dropout) StateBytes(batch int) int64 {
	return 4 * int64(batch) * int64(shapeVolume(l.inShape))
}

// WorkspaceBytes implements Layer.
func (l *Dropout) WorkspaceBytes(int) int64 { return 0 }
