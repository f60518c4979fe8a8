package layers

import (
	"math"
	"testing"

	"skipper/internal/snn"
	"skipper/internal/tensor"
)

// The linear layer's input gradient must be the adjoint of its
// surrogate-linearised forward dx -> σ'(U) ⊙ (dx·Wᵀ).
func TestSpikingLinearBackwardAdjoint(t *testing.T) {
	nrn := snn.Params{Leak: 0.9, Threshold: 0.8}
	l := NewSpikingLinear("fc", 6, nrn, snn.FastSigmoid{})
	if _, err := l.Build([]int{10}, tensor.NewRNG(3)); err != nil {
		t.Fatal(err)
	}
	r := tensor.NewRNG(4)
	x := tensor.New(3, 10)
	r.FillUniform(x, 0, 1.5)
	st := l.Forward(x, nil)

	g := tensor.New(3, 6)
	r.FillNorm(g, 0, 1)
	dx := tensor.New(3, 10)
	r.FillNorm(dx, 0, 1)

	l.gradW.Zero()
	l.gradB.Zero()
	gradIn, _ := l.Backward(x, st, g, nil)

	lin := tensor.New(3, 6)
	tensor.MatMulTransB(nil, lin, dx, l.weight)
	for i := range lin.Data {
		lin.Data[i] *= l.Surrogate.Grad(st.U.Data[i], nrn.Threshold)
	}
	lhs := float64(tensor.Dot(lin, g))
	rhs := float64(tensor.Dot(dx, gradIn))
	if math.Abs(lhs-rhs) > 1e-2*math.Max(1, math.Abs(lhs)) {
		t.Fatalf("linear adjoint violated: %v vs %v", lhs, rhs)
	}
}

// Same identity for the linear weight gradient:
// ⟨σ'(U)⊙(x·dWᵀ), g⟩ == ⟨dW, gradW⟩.
func TestSpikingLinearWeightGradAdjoint(t *testing.T) {
	nrn := snn.Params{Leak: 0.9, Threshold: 0.8}
	l := NewSpikingLinear("fc", 5, nrn, snn.FastSigmoid{})
	if _, err := l.Build([]int{8}, tensor.NewRNG(5)); err != nil {
		t.Fatal(err)
	}
	r := tensor.NewRNG(6)
	x := tensor.New(2, 8)
	r.FillUniform(x, 0, 1.5)
	st := l.Forward(x, nil)
	g := tensor.New(2, 5)
	r.FillNorm(g, 0, 1)

	l.gradW.Zero()
	l.gradB.Zero()
	l.Backward(x, st, g, nil)

	dW := tensor.New(5, 8)
	r.FillNorm(dW, 0, 1)
	lin := tensor.New(2, 5)
	tensor.MatMulTransB(nil, lin, x, dW)
	for i := range lin.Data {
		lin.Data[i] *= l.Surrogate.Grad(st.U.Data[i], nrn.Threshold)
	}
	lhs := float64(tensor.Dot(lin, g))
	rhs := float64(tensor.Dot(dW, l.gradW))
	if math.Abs(lhs-rhs) > 1e-2*math.Max(1, math.Abs(lhs)) {
		t.Fatalf("linear weight-grad adjoint violated: %v vs %v", lhs, rhs)
	}
}

// Strided conv: the adjoint identity must also hold at stride 2 (the
// downsampling stages of the ResNets).
func TestStridedConvBackwardAdjoint(t *testing.T) {
	nrn := snn.Params{Leak: 0.9, Threshold: 0.8}
	l := NewSpikingConv2D("c", 4, 3, 2, 1, nrn, snn.FastSigmoid{})
	if _, err := l.Build([]int{3, 8, 8}, tensor.NewRNG(7)); err != nil {
		t.Fatal(err)
	}
	r := tensor.NewRNG(8)
	x := tensor.New(2, 3, 8, 8)
	r.FillUniform(x, 0, 1.5)
	st := l.Forward(x, nil)
	g := tensor.New(outShape(st)...)
	r.FillNorm(g, 0, 1)
	dx := tensor.New(x.Shape()...)
	r.FillNorm(dx, 0, 1)

	l.gradW.Zero()
	l.gradB.Zero()
	gradIn, _ := l.Backward(x, st, g, nil)

	lin := tensor.New(outShape(st)...)
	tensor.Conv2D(nil, lin, dx, l.weight, nil, l.Spec, nil)
	for i := range lin.Data {
		lin.Data[i] *= l.Surrogate.Grad(st.U.Data[i], nrn.Threshold)
	}
	lhs := float64(tensor.Dot(lin, g))
	rhs := float64(tensor.Dot(dx, gradIn))
	if math.Abs(lhs-rhs) > 1e-2*math.Max(1, math.Abs(lhs)) {
		t.Fatalf("strided conv adjoint violated: %v vs %v", lhs, rhs)
	}
}

// The bias gradient of a spiking layer is the surrogate-masked gradOut
// summed per output unit.
func TestBiasGradients(t *testing.T) {
	nrn := snn.Params{Leak: 0.9, Threshold: 0.8}
	l := NewSpikingLinear("fc", 4, nrn, snn.FastSigmoid{})
	if _, err := l.Build([]int{6}, tensor.NewRNG(9)); err != nil {
		t.Fatal(err)
	}
	r := tensor.NewRNG(10)
	x := tensor.New(3, 6)
	r.FillUniform(x, 0, 1.5)
	st := l.Forward(x, nil)
	g := tensor.New(3, 4)
	r.FillNorm(g, 0, 1)
	l.gradW.Zero()
	l.gradB.Zero()
	l.Backward(x, st, g, nil)
	for j := 0; j < 4; j++ {
		var want float32
		for b := 0; b < 3; b++ {
			want += g.At(b, j) * l.Surrogate.Grad(st.U.At(b, j), nrn.Threshold)
		}
		if math.Abs(float64(l.gradB.Data[j]-want)) > 1e-4 {
			t.Fatalf("bias grad[%d] = %v, want %v", j, l.gradB.Data[j], want)
		}
	}
}
