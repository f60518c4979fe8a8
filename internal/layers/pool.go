package layers

import (
	"fmt"

	"skipper/internal/parallel"
	"skipper/internal/tensor"
)

// AvgPool2D is a stateless spatial average-pooling layer with window and
// stride k. SNN stacks pool spike trains with average pooling so that rate
// information survives (max pooling over binary spikes is nearly saturating).
type AvgPool2D struct {
	K     int
	Label string

	inShape  []int
	outShape []int
	pool     *parallel.Pool
}

// NewAvgPool2D returns an unbuilt average-pooling layer.
func NewAvgPool2D(label string, k int) *AvgPool2D {
	return &AvgPool2D{K: k, Label: label}
}

// Name implements Layer.
func (l *AvgPool2D) Name() string { return l.Label }

// Stateful implements Layer.
func (l *AvgPool2D) Stateful() bool { return false }

// Build implements Layer.
func (l *AvgPool2D) Build(inShape []int, _ *tensor.RNG) ([]int, error) {
	if len(inShape) != 3 {
		return nil, fmt.Errorf("layers: %s expects [C,H,W] input, got %v", l.Label, inShape)
	}
	if l.K < 1 || inShape[1]%l.K != 0 || inShape[2]%l.K != 0 {
		return nil, fmt.Errorf("layers: %s window %d does not divide %dx%d", l.Label, l.K, inShape[1], inShape[2])
	}
	l.inShape = append([]int(nil), inShape...)
	l.outShape = []int{inShape[0], inShape[1] / l.K, inShape[2] / l.K}
	return l.outShape, nil
}

// SetPool implements PoolAware.
func (l *AvgPool2D) SetPool(p *parallel.Pool) { l.pool = p }

// Params implements Layer.
func (l *AvgPool2D) Params() []Param { return nil }

// Forward implements Layer: forwardSteps on one step.
func (l *AvgPool2D) Forward(x *tensor.Tensor, _ *LayerState) *LayerState {
	return forwardOne(l, x, nil)
}

// forwardSteps implements stepLayer.
func (l *AvgPool2D) forwardSteps(xs []*tensor.Tensor, _ *LayerState, out []*LayerState) []*tensor.Tensor {
	os := newSteps(len(xs), xs[0].Dim(0), l.outShape)
	eachRun(xs, os, func(x, o *tensor.Tensor) { tensor.AvgPool2D(l.pool, o, x, l.K) })
	return outputs(os, out)
}

// Backward implements Layer: backwardSteps on one step.
func (l *AvgPool2D) Backward(x *tensor.Tensor, _ *LayerState, gradOut *tensor.Tensor, _ *Delta) (*tensor.Tensor, *Delta) {
	return backwardOne(l, x, nil, gradOut, nil, true)
}

// backwardSteps implements stepLayer.
func (l *AvgPool2D) backwardSteps(g *stepGrads, _ *Delta) *Delta {
	if g.gradIn != nil {
		eachRun(g.gradOut, g.gradIn, func(d, gi *tensor.Tensor) { tensor.AvgPool2DGrad(l.pool, gi, d, l.K) })
	}
	return nil
}

// StateBytes implements Layer: the pooled output per stored timestep.
func (l *AvgPool2D) StateBytes(batch int) int64 {
	return 4 * int64(batch) * int64(shapeVolume(l.outShape))
}

// WorkspaceBytes implements Layer.
func (l *AvgPool2D) WorkspaceBytes(int) int64 { return 0 }

// GlobalAvgPool collapses [B,C,H,W] to [B,C], the head of ResNet stacks.
type GlobalAvgPool struct {
	Label   string
	inShape []int
}

// NewGlobalAvgPool returns an unbuilt global average-pooling layer.
func NewGlobalAvgPool(label string) *GlobalAvgPool { return &GlobalAvgPool{Label: label} }

// Name implements Layer.
func (l *GlobalAvgPool) Name() string { return l.Label }

// Stateful implements Layer.
func (l *GlobalAvgPool) Stateful() bool { return false }

// Build implements Layer.
func (l *GlobalAvgPool) Build(inShape []int, _ *tensor.RNG) ([]int, error) {
	if len(inShape) != 3 {
		return nil, fmt.Errorf("layers: %s expects [C,H,W] input, got %v", l.Label, inShape)
	}
	l.inShape = append([]int(nil), inShape...)
	return []int{inShape[0]}, nil
}

// Params implements Layer.
func (l *GlobalAvgPool) Params() []Param { return nil }

// Forward implements Layer: forwardSteps on one step.
func (l *GlobalAvgPool) Forward(x *tensor.Tensor, _ *LayerState) *LayerState {
	return forwardOne(l, x, nil)
}

// forwardSteps implements stepLayer.
func (l *GlobalAvgPool) forwardSteps(xs []*tensor.Tensor, _ *LayerState, out []*LayerState) []*tensor.Tensor {
	os := newSteps(len(xs), xs[0].Dim(0), l.inShape[:1])
	eachRun(xs, os, func(x, o *tensor.Tensor) { tensor.GlobalAvgPool2D(o, x) })
	return outputs(os, out)
}

// Backward implements Layer: backwardSteps on one step.
func (l *GlobalAvgPool) Backward(x *tensor.Tensor, _ *LayerState, gradOut *tensor.Tensor, _ *Delta) (*tensor.Tensor, *Delta) {
	return backwardOne(l, x, nil, gradOut, nil, true)
}

// backwardSteps implements stepLayer.
func (l *GlobalAvgPool) backwardSteps(g *stepGrads, _ *Delta) *Delta {
	if g.gradIn != nil {
		eachRun(g.gradOut, g.gradIn, func(d, gi *tensor.Tensor) { tensor.GlobalAvgPool2DGrad(gi, d) })
	}
	return nil
}

// StateBytes implements Layer.
func (l *GlobalAvgPool) StateBytes(batch int) int64 {
	return 4 * int64(batch) * int64(l.inShape[0])
}

// WorkspaceBytes implements Layer.
func (l *GlobalAvgPool) WorkspaceBytes(int) int64 { return 0 }
