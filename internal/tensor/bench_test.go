package tensor

import (
	"fmt"
	"testing"

	"skipper/internal/parallel"
)

// BenchmarkKernelConv2DDensity is the row gatherDensity is chosen from: the
// forward and the weight gradient of two training shapes, on binary inputs
// of a swept density, through the dense path (im2col, as before the gather)
// and through the gather path, serially. Run it with
//
//	go test -run '^$' -bench KernelConv2DDensity -benchtime 20x ./internal/tensor
//
// The crossover is the density at which the two paths' ns/op meet.
func BenchmarkKernelConv2DDensity(b *testing.B) {
	shapes := []struct {
		name             string
		n, cin, cout, hw int
	}{
		{"lenet-conv2", 480, 4, 4, 16}, // train_events: T=120 × B=4
		{"vgg5-conv2", 384, 8, 16, 8},  // train_dense: T=48 × B=8
	}
	paths := []struct {
		name    string
		density int
	}{{"dense", neverGather}, {"gather", alwaysGather}}
	for _, sh := range shapes {
		s := ConvSpec{InChannels: sh.cin, OutChannels: sh.cout, KernelH: 3, KernelW: 3, Stride: 1, Pad: 1}
		x := New(sh.n, sh.cin, sh.hw, sh.hw)
		weight, bias := New(sh.cout, sh.cin, 3, 3), New(sh.cout)
		NewRNG(2).FillNorm(weight, 0, 0.1)
		out, dout := New(sh.n, sh.cout, sh.hw, sh.hw), New(sh.n, sh.cout, sh.hw, sh.hw)
		NewRNG(3).FillNorm(dout, 0, 0.1)
		dw, db := New(sh.cout, sh.cin, 3, 3), New(sh.cout)
		for _, d := range []float64{0.002, 0.005, 0.01, 0.02, 0.04, 0.0625, 0.1, 0.15, 0.2, 0.3, 0.5} {
			fillSpikes(x.Data, 1, d)
			for _, p := range paths {
				sc := NewScratch()
				b.Run(fmt.Sprintf("%s/d=%g/fwd/%s", sh.name, d, p.name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						conv2D(nil, out, x, weight, bias, s, sc, p.density)
					}
				})
				b.Run(fmt.Sprintf("%s/d=%g/gradw/%s", sh.name, d, p.name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						conv2DGradWeight(nil, dw, db, dout, x, s, sc, p.density)
					}
				})
			}
		}
	}
}

// BenchmarkKernelConv2DGradInput times the input gradient on the training
// shapes of lenet (train_events, T=120 × B=4) and vgg5 (train_dense, T=48 ×
// B=8), on δ with no zero plane and with 40 % of its planes zero, through
// the column form (im2col's adjoint, as the kernel was before) and through
// Conv2DGradInput, serially. Run it with
//
//	go test -run '^$' -bench KernelConv2DGradInput -benchtime 20x ./internal/tensor
func BenchmarkKernelConv2DGradInput(b *testing.B) {
	shapes := []struct {
		name             string
		n, cin, cout, hw int
	}{
		{"lenet-conv2", 480, 4, 4, 16},
		{"lenet-conv4", 480, 8, 8, 8},
		{"lenet-conv5", 480, 8, 16, 4},
		{"vgg5-conv2", 384, 8, 16, 8},
		{"vgg5-conv3", 384, 16, 16, 4},
	}
	kernels := []struct {
		name string
		run  func(p *parallel.Pool, dx, dout, weight *Tensor, s ConvSpec, sc *Scratch)
	}{{"columns", conv2DGradInputColumns}, {"kernel", Conv2DGradInput}}
	for _, sh := range shapes {
		s := ConvSpec{InChannels: sh.cin, OutChannels: sh.cout, KernelH: 3, KernelW: 3, Stride: 1, Pad: 1}
		weight := New(sh.cout, sh.cin, 3, 3)
		NewRNG(2).FillNorm(weight, 0, 0.1)
		dx, dout := New(sh.n, sh.cin, sh.hw, sh.hw), New(sh.n, sh.cout, sh.hw, sh.hw)
		for _, df := range deltaFills[:2] {
			df.fill(dout, 3)
			for _, kr := range kernels {
				sc := NewScratch()
				b.Run(fmt.Sprintf("%s/%s/%s", sh.name, df.name, kr.name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						kr.run(nil, dx, dout, weight, s, sc)
					}
				})
			}
		}
	}
}
