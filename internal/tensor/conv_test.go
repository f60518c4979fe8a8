package tensor

import (
	"fmt"
	"math"
	"testing"

	"skipper/internal/parallel"
)

// convNaive is an independent direct-convolution reference.
func convNaive(x, w, bias *Tensor, s ConvSpec) *Tensor {
	xs := x.Shape()
	n, _, h, wd := xs[0], xs[1], xs[2], xs[3]
	oh, ow := s.OutSize(h, wd)
	out := New(n, s.OutChannels, oh, ow)
	for img := 0; img < n; img++ {
		for co := 0; co < s.OutChannels; co++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					var acc float32
					for ci := 0; ci < s.InChannels; ci++ {
						for ky := 0; ky < s.KernelH; ky++ {
							for kx := 0; kx < s.KernelW; kx++ {
								iy := oy*s.Stride + ky - s.Pad
								ix := ox*s.Stride + kx - s.Pad
								if iy < 0 || iy >= h || ix < 0 || ix >= wd {
									continue
								}
								acc += x.At(img, ci, iy, ix) * w.At(co, ci, ky, kx)
							}
						}
					}
					if bias != nil {
						acc += bias.Data[co]
					}
					out.Set(acc, img, co, oy, ox)
				}
			}
		}
	}
	return out
}

func TestConv2DMatchesNaive(t *testing.T) {
	r := NewRNG(31)
	cases := []ConvSpec{
		{InChannels: 1, OutChannels: 1, KernelH: 3, KernelW: 3, Stride: 1, Pad: 1},
		{InChannels: 3, OutChannels: 4, KernelH: 3, KernelW: 3, Stride: 1, Pad: 1},
		{InChannels: 2, OutChannels: 3, KernelH: 3, KernelW: 3, Stride: 2, Pad: 1},
		{InChannels: 2, OutChannels: 2, KernelH: 1, KernelW: 1, Stride: 1, Pad: 0},
		{InChannels: 1, OutChannels: 2, KernelH: 5, KernelW: 5, Stride: 1, Pad: 2},
	}
	for ci, s := range cases {
		h, w := 6, 7
		x := New(2, s.InChannels, h, w)
		wt := New(s.OutChannels, s.InChannels, s.KernelH, s.KernelW)
		bias := New(s.OutChannels)
		r.FillNorm(x, 0, 1)
		r.FillNorm(wt, 0, 1)
		r.FillNorm(bias, 0, 1)
		oh, ow := s.OutSize(h, w)
		got := New(2, s.OutChannels, oh, ow)
		Conv2D(nil, got, x, wt, bias, s, nil)
		want := convNaive(x, wt, bias, s)
		for i := range got.Data {
			if math.Abs(float64(got.Data[i]-want.Data[i])) > 1e-3 {
				t.Fatalf("case %d: Conv2D[%d] = %v, want %v", ci, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestIm2ColCol2ImAdjoint(t *testing.T) {
	// Col2Im must be the exact adjoint of Im2Col:
	// <Im2Col(x), c> == <x, Col2Im(c)> for all x, c.
	r := NewRNG(37)
	s := ConvSpec{InChannels: 2, OutChannels: 1, KernelH: 3, KernelW: 3, Stride: 2, Pad: 1}
	c, h, w := 2, 5, 6
	x := New(c, h, w)
	r.FillNorm(x, 0, 1)
	n := s.ColBufLen(h, w)
	colX := make([]float32, n)
	Im2Col(colX, x.Data, c, h, w, s)
	cvec := New(n)
	r.FillNorm(cvec, 0, 1)
	var lhs float64
	for i := range colX {
		lhs += float64(colX[i]) * float64(cvec.Data[i])
	}
	back := New(c, h, w)
	Col2Im(back.Data, cvec.Data, c, h, w, s)
	var rhs float64
	for i := range x.Data {
		rhs += float64(x.Data[i]) * float64(back.Data[i])
	}
	if math.Abs(lhs-rhs) > 1e-2*math.Max(1, math.Abs(lhs)) {
		t.Fatalf("adjoint identity violated: %v vs %v", lhs, rhs)
	}
}

// convLoss is a scalar function of conv output for gradient checking.
func convLoss(x, wt, bias *Tensor, s ConvSpec, probe *Tensor) float64 {
	xs := x.Shape()
	oh, ow := s.OutSize(xs[2], xs[3])
	out := New(xs[0], s.OutChannels, oh, ow)
	Conv2D(nil, out, x, wt, bias, s, nil)
	var l float64
	for i := range out.Data {
		l += float64(out.Data[i]) * float64(probe.Data[i])
	}
	return l
}

func TestConv2DGradInputFiniteDiff(t *testing.T) {
	r := NewRNG(41)
	s := ConvSpec{InChannels: 2, OutChannels: 3, KernelH: 3, KernelW: 3, Stride: 1, Pad: 1}
	x := New(1, 2, 4, 4)
	wt := New(3, 2, 3, 3)
	bias := New(3)
	r.FillNorm(x, 0, 1)
	r.FillNorm(wt, 0, 0.5)
	oh, ow := s.OutSize(4, 4)
	probe := New(1, 3, oh, ow)
	r.FillNorm(probe, 0, 1)

	dx := New(1, 2, 4, 4)
	Conv2DGradInput(nil, dx, probe, wt, s, nil)

	eps := float32(1e-2)
	for i := 0; i < x.Len(); i += 3 { // sample every third element
		old := x.Data[i]
		x.Data[i] = old + eps
		lp := convLoss(x, wt, bias, s, probe)
		x.Data[i] = old - eps
		lm := convLoss(x, wt, bias, s, probe)
		x.Data[i] = old
		fd := (lp - lm) / (2 * float64(eps))
		if math.Abs(fd-float64(dx.Data[i])) > 2e-2 {
			t.Fatalf("grad-input[%d] = %v, finite-diff %v", i, dx.Data[i], fd)
		}
	}
}

func TestConv2DGradWeightFiniteDiff(t *testing.T) {
	r := NewRNG(43)
	s := ConvSpec{InChannels: 2, OutChannels: 2, KernelH: 3, KernelW: 3, Stride: 1, Pad: 1}
	x := New(2, 2, 4, 4)
	wt := New(2, 2, 3, 3)
	bias := New(2)
	r.FillNorm(x, 0, 1)
	r.FillNorm(wt, 0, 0.5)
	oh, ow := s.OutSize(4, 4)
	probe := New(2, 2, oh, ow)
	r.FillNorm(probe, 0, 1)

	dw := New(2, 2, 3, 3)
	db := New(2)
	Conv2DGradWeight(nil, dw, db, probe, x, s, nil)

	eps := float32(1e-2)
	for i := 0; i < wt.Len(); i++ {
		old := wt.Data[i]
		wt.Data[i] = old + eps
		lp := convLoss(x, wt, bias, s, probe)
		wt.Data[i] = old - eps
		lm := convLoss(x, wt, bias, s, probe)
		wt.Data[i] = old
		fd := (lp - lm) / (2 * float64(eps))
		if math.Abs(fd-float64(dw.Data[i])) > 3e-2 {
			t.Fatalf("grad-weight[%d] = %v, finite-diff %v", i, dw.Data[i], fd)
		}
	}
	// bias gradient: d(loss)/d(bias_c) = sum of probe over channel c
	for cch := 0; cch < 2; cch++ {
		var want float32
		for img := 0; img < 2; img++ {
			for y := 0; y < oh; y++ {
				for xx := 0; xx < ow; xx++ {
					want += probe.At(img, cch, y, xx)
				}
			}
		}
		if math.Abs(float64(db.Data[cch]-want)) > 1e-3 {
			t.Fatalf("grad-bias[%d] = %v, want %v", cch, db.Data[cch], want)
		}
	}
}

func TestConv2DGradWeightAccumulates(t *testing.T) {
	s := ConvSpec{InChannels: 1, OutChannels: 1, KernelH: 1, KernelW: 1, Stride: 1, Pad: 0}
	x := FromSlice([]float32{2}, 1, 1, 1, 1)
	dout := FromSlice([]float32{3}, 1, 1, 1, 1)
	dw := FromSlice([]float32{10}, 1, 1, 1, 1)
	Conv2DGradWeight(nil, dw, nil, dout, x, s, nil)
	if dw.Data[0] != 16 {
		t.Fatalf("grad-weight should accumulate: got %v, want 16", dw.Data[0])
	}
}

// An all-zero image is skipped by Conv2DGradWeight. On a batch [x0, 0, x2]
// dW must carry exactly the bits of running [x0] then [x2] into the same
// accumulator (the per-image terms land in the same order), and the bias
// gradient must still include the zero image's dout, at every pool width.
func TestConv2DGradWeightSkipsZeroImages(t *testing.T) {
	s := ConvSpec{InChannels: 3, OutChannels: 4, KernelH: 3, KernelW: 3, Stride: 1, Pad: 1}
	const h, w = 6, 5
	oh, ow := s.OutSize(h, w)
	x := New(3, 3, h, w)
	dout := New(3, 4, oh, ow)
	equivFill(x.Data, 7)
	equivFill(dout.Data, 11)
	chw, cohw := 3*h*w, 4*oh*ow
	for i := chw; i < 2*chw; i++ {
		x.Data[i] = 0
	}
	image := func(t *Tensor, per, img int) *Tensor {
		return FromSlice(t.Data[img*per:(img+1)*per], append([]int{1}, t.Shape()[1:]...)...)
	}

	wantW, wantB := New(4, 3, 3, 3), New(4)
	equivFill(wantW.Data, 13) // accumulate into a non-zero dW
	start := wantW.Clone()
	for _, img := range []int{0, 2} {
		Conv2DGradWeight(nil, wantW, nil, image(dout, cohw, img), image(x, chw, img), s, nil)
	}
	SumPerChannel(wantB, dout)

	for _, lanes := range []int{1, 2, 4} {
		pool := parallel.NewPool(lanes)
		dw, db := start.Clone(), New(4)
		Conv2DGradWeight(pool, dw, db, dout, x, s, NewScratch())
		pool.Close()
		requireBitEqual(t, fmt.Sprintf("dW@%d lanes", lanes), wantW, dw)
		requireBitEqual(t, fmt.Sprintf("dbias@%d lanes", lanes), wantB, db)
	}
	// The zero image's dout is in the bias gradient: without it the sums
	// differ.
	without := New(4)
	for _, img := range []int{0, 2} {
		SumPerChannel(without, image(dout, cohw, img))
	}
	same := true
	for i := range without.Data {
		same = same && without.Data[i] == wantB.Data[i]
	}
	if same {
		t.Fatal("the zero image's dout is all zero: the bias check pins nothing")
	}

	// A non-finite dout on the skipped image no longer poisons dW (Inf·0),
	// but still reaches the bias gradient, which is where the divergence
	// guard's gradient norm sees it.
	dout.Data[cohw] = float32(math.Inf(1))
	dw, db := New(4, 3, 3, 3), New(4)
	Conv2DGradWeight(nil, dw, db, dout, x, s, nil)
	for i, v := range dw.Data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatalf("dW[%d] = %v: the zero image was not skipped", i, v)
		}
	}
	if !math.IsInf(float64(db.Data[0]), 1) {
		t.Fatalf("dbias[0] = %v, want +Inf from the skipped image's dout", db.Data[0])
	}
}

func TestConvOutSize(t *testing.T) {
	s := ConvSpec{KernelH: 3, KernelW: 3, Stride: 2, Pad: 1}
	oh, ow := s.OutSize(8, 8)
	if oh != 4 || ow != 4 {
		t.Fatalf("OutSize = %d,%d, want 4,4", oh, ow)
	}
	s2 := ConvSpec{KernelH: 3, KernelW: 3, Stride: 1, Pad: 1}
	oh, ow = s2.OutSize(8, 8)
	if oh != 8 || ow != 8 {
		t.Fatalf("same-pad OutSize = %d,%d, want 8,8", oh, ow)
	}
}

func TestAvgPool2DAndGrad(t *testing.T) {
	x := FromSlice([]float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 1, 4, 4)
	out := New(1, 1, 2, 2)
	AvgPool2D(nil, out, x, 2)
	want := []float32{3.5, 5.5, 11.5, 13.5}
	for i := range want {
		if out.Data[i] != want[i] {
			t.Fatalf("AvgPool2D = %v, want %v", out.Data, want)
		}
	}
	dout := FromSlice([]float32{4, 8, 12, 16}, 1, 1, 2, 2)
	dx := New(1, 1, 4, 4)
	AvgPool2DGrad(nil, dx, dout, 2)
	if dx.At(0, 0, 0, 0) != 1 || dx.At(0, 0, 1, 1) != 1 {
		t.Fatalf("AvgPool2DGrad top-left window = %v", dx.Data[:8])
	}
	if dx.At(0, 0, 3, 3) != 4 {
		t.Fatalf("AvgPool2DGrad bottom-right = %v", dx.At(0, 0, 3, 3))
	}
}

func TestAvgPoolGradIsAdjoint(t *testing.T) {
	// <AvgPool(x), g> == <x, AvgPoolGrad(g)>
	r := NewRNG(47)
	x := New(2, 3, 6, 6)
	r.FillNorm(x, 0, 1)
	out := New(2, 3, 3, 3)
	AvgPool2D(nil, out, x, 2)
	g := New(2, 3, 3, 3)
	r.FillNorm(g, 0, 1)
	lhs := float64(Dot(out, g))
	dx := New(2, 3, 6, 6)
	AvgPool2DGrad(nil, dx, g, 2)
	rhs := float64(Dot(x, dx))
	if math.Abs(lhs-rhs) > 1e-3 {
		t.Fatalf("avgpool adjoint violated: %v vs %v", lhs, rhs)
	}
}

func TestGlobalAvgPool(t *testing.T) {
	x := New(1, 2, 2, 2)
	x.Fill(2)
	for i := 4; i < 8; i++ {
		x.Data[i] = 4
	}
	out := New(1, 2)
	GlobalAvgPool2D(out, x)
	if out.Data[0] != 2 || out.Data[1] != 4 {
		t.Fatalf("GlobalAvgPool2D = %v", out.Data)
	}
	dout := FromSlice([]float32{8, 16}, 1, 2)
	dx := New(1, 2, 2, 2)
	GlobalAvgPool2DGrad(dx, dout)
	if dx.Data[0] != 2 || dx.Data[7] != 4 {
		t.Fatalf("GlobalAvgPool2DGrad = %v", dx.Data)
	}
}

func TestMaxPool2DAndGrad(t *testing.T) {
	x := FromSlice([]float32{
		1, 5, 2, 0,
		3, 4, 1, 7,
		0, 0, 9, 1,
		2, 8, 3, 4,
	}, 1, 1, 4, 4)
	out := New(1, 1, 2, 2)
	idx := make([]int32, 4)
	MaxPool2D(out, x, idx, 2)
	want := []float32{5, 7, 8, 9}
	for i := range want {
		if out.Data[i] != want[i] {
			t.Fatalf("MaxPool2D = %v, want %v", out.Data, want)
		}
	}
	dout := FromSlice([]float32{1, 2, 3, 4}, 1, 1, 2, 2)
	dx := New(1, 1, 4, 4)
	MaxPool2DGrad(dx, dout, idx)
	// Gradients land exactly at the argmax positions.
	if dx.At(0, 0, 0, 1) != 1 || dx.At(0, 0, 1, 3) != 2 || dx.At(0, 0, 3, 1) != 3 || dx.At(0, 0, 2, 2) != 4 {
		t.Fatalf("MaxPool2DGrad = %v", dx.Data)
	}
	if got := Sum(dx); got != 10 {
		t.Fatalf("gradient mass %v, want 10", got)
	}
}

func TestMaxPoolGradIsAdjoint(t *testing.T) {
	// <MaxPool(x+εd) - MaxPool(x), g>/ε ≈ <d, MaxPoolGrad(g)> away from ties;
	// verify the exact adjoint identity through the recorded indices.
	r := NewRNG(53)
	x := New(2, 3, 6, 6)
	r.FillNorm(x, 0, 1)
	out := New(2, 3, 3, 3)
	idx := make([]int32, out.Len())
	MaxPool2D(out, x, idx, 2)
	g := New(2, 3, 3, 3)
	r.FillNorm(g, 0, 1)
	dx := New(2, 3, 6, 6)
	MaxPool2DGrad(dx, g, idx)
	// The adjoint of a selection operator satisfies <S(x), g> == <x, Sᵀ(g)>
	// when S is treated as linear at the recorded selection.
	lhs := float64(Dot(out, g))
	var rhs float64
	for o, src := range idx {
		rhs += float64(x.Data[src]) * float64(g.Data[o])
	}
	_ = dx
	if math.Abs(lhs-rhs) > 1e-4 {
		t.Fatalf("selection adjoint violated: %v vs %v", lhs, rhs)
	}
}
