package tensor

import (
	"fmt"

	"skipper/internal/parallel"
)

// ConvSpec describes a 2-D convolution: kernel size, stride, and symmetric
// zero padding. Dilation is fixed at 1, which covers every topology in the
// paper (VGG/ResNet/LeNet/AlexNet families).
type ConvSpec struct {
	InChannels  int
	OutChannels int
	KernelH     int
	KernelW     int
	Stride      int
	Pad         int
}

// OutSize returns the spatial output size for an input of size h×w.
func (s ConvSpec) OutSize(h, w int) (oh, ow int) {
	oh = (h+2*s.Pad-s.KernelH)/s.Stride + 1
	ow = (w+2*s.Pad-s.KernelW)/s.Stride + 1
	return oh, ow
}

// ColBufLen returns the length of the im2col buffer needed for an input of
// spatial size h×w, in float32 elements.
func (s ConvSpec) ColBufLen(h, w int) int {
	oh, ow := s.OutSize(h, w)
	return s.InChannels * s.KernelH * s.KernelW * oh * ow
}

// Im2Col unpacks one image x [C,H,W] into col laid out
// [C*KH*KW, OH*OW] (row-major), honoring stride and padding. col must have
// at least ColBufLen elements; contents are fully overwritten.
func Im2Col(col []float32, x []float32, c, h, w int, s ConvSpec) {
	oh, ow := s.OutSize(h, w)
	ohw := oh * ow
	row := 0
	for ch := 0; ch < c; ch++ {
		chBase := ch * h * w
		for kh := 0; kh < s.KernelH; kh++ {
			for kw := 0; kw < s.KernelW; kw++ {
				dst := col[row*ohw : (row+1)*ohw]
				row++
				i := 0
				for oy := 0; oy < oh; oy++ {
					iy := oy*s.Stride + kh - s.Pad
					if iy < 0 || iy >= h {
						for ox := 0; ox < ow; ox++ {
							dst[i] = 0
							i++
						}
						continue
					}
					rowBase := chBase + iy*w
					ix := kw - s.Pad
					for ox := 0; ox < ow; ox++ {
						if ix >= 0 && ix < w {
							dst[i] = x[rowBase+ix]
						} else {
							dst[i] = 0
						}
						i++
						ix += s.Stride
					}
				}
			}
		}
	}
}

// Col2Im scatters col [C*KH*KW, OH*OW] back into the image gradient
// dx [C,H,W], accumulating overlapping contributions. dx is not zeroed;
// callers zero it when starting a fresh accumulation.
func Col2Im(dx []float32, col []float32, c, h, w int, s ConvSpec) {
	oh, ow := s.OutSize(h, w)
	ohw := oh * ow
	row := 0
	for ch := 0; ch < c; ch++ {
		chBase := ch * h * w
		for kh := 0; kh < s.KernelH; kh++ {
			for kw := 0; kw < s.KernelW; kw++ {
				src := col[row*ohw : (row+1)*ohw]
				row++
				i := 0
				for oy := 0; oy < oh; oy++ {
					iy := oy*s.Stride + kh - s.Pad
					if iy < 0 || iy >= h {
						i += ow
						continue
					}
					rowBase := chBase + iy*w
					ix := kw - s.Pad
					for ox := 0; ox < ow; ox++ {
						if ix >= 0 && ix < w {
							dx[rowBase+ix] += src[i]
						}
						i++
						ix += s.Stride
					}
				}
			}
		}
	}
}

// Conv2D computes out = conv(x, weight) + bias for x [N,Cin,H,W],
// weight [Cout,Cin,KH,KW], bias [Cout] (bias may be nil). out must have shape
// [N,Cout,OH,OW]. The batch dimension partitions across pool lanes, each with
// a private im2col column from sc (nil sc allocates a throwaway workspace).
// Every image is processed by exactly the serial per-image code, so the
// output is bit-identical for every pool size.
func Conv2D(p *parallel.Pool, out, x, weight, bias *Tensor, s ConvSpec, sc *Scratch) {
	xs := x.Shape()
	n, c, h, w := xs[0], xs[1], xs[2], xs[3]
	oh, ow := s.OutSize(h, w)
	checkConvShapes("Conv2D", out, x, weight, s, n, oh, ow)
	k := s.InChannels * s.KernelH * s.KernelW
	ohw := oh * ow
	if sc == nil {
		sc = NewScratch()
	}
	sc.reserve(p.Lanes())
	wMat := weight.Data // [Cout, k] row-major view
	p.Run(n, func(lane, lo, hi int) {
		col := sc.lane(lane, k*ohw)
		for img := lo; img < hi; img++ {
			Im2Col(col, x.Data[img*c*h*w:(img+1)*c*h*w], c, h, w, s)
			dst := out.Data[img*s.OutChannels*ohw : (img+1)*s.OutChannels*ohw]
			for i := range dst {
				dst[i] = 0
			}
			matmulAcc(dst, wMat, col, s.OutChannels, k, ohw)
		}
	})
	if bias != nil {
		AddBias(out, bias)
	}
}

// Conv2DGradInput computes dx = convBackwardInput(dout, weight) for
// dout [N,Cout,OH,OW] and weight [Cout,Cin,KH,KW]. dx must have the input
// shape [N,Cin,H,W] and is fully overwritten. Images partition across lanes
// with per-lane columns, as in Conv2D.
func Conv2DGradInput(p *parallel.Pool, dx, dout, weight *Tensor, s ConvSpec, sc *Scratch) {
	xs := dx.Shape()
	n, c, h, w := xs[0], xs[1], xs[2], xs[3]
	oh, ow := s.OutSize(h, w)
	checkConvShapes("Conv2DGradInput", dout, dx, weight, s, n, oh, ow)
	k := s.InChannels * s.KernelH * s.KernelW
	ohw := oh * ow
	if sc == nil {
		sc = NewScratch()
	}
	sc.reserve(p.Lanes())
	dx.Zero()
	p.Run(n, func(lane, lo, hi int) {
		col := sc.lane(lane, k*ohw)
		for img := lo; img < hi; img++ {
			// col = Wᵀ · dout[img]  with W [Cout,k], dout[img] [Cout,ohw].
			for i := range col[:k*ohw] {
				col[i] = 0
			}
			dslice := dout.Data[img*s.OutChannels*ohw : (img+1)*s.OutChannels*ohw]
			for co := 0; co < s.OutChannels; co++ {
				wrow := weight.Data[co*k : (co+1)*k]
				drow := dslice[co*ohw : (co+1)*ohw]
				for kk := 0; kk < k; kk++ {
					wv := wrow[kk]
					if wv == 0 {
						continue
					}
					crow := col[kk*ohw : (kk+1)*ohw]
					for j := range drow {
						crow[j] += wv * drow[j]
					}
				}
			}
			Col2Im(dx.Data[img*c*h*w:(img+1)*c*h*w], col, c, h, w, s)
		}
	})
}

// Conv2DGradWeight accumulates dW += convBackwardWeight(dout, x) and, when
// dbias is non-nil, dbias += per-channel sums of dout. x is the forward input
// [N,Cin,H,W]; dout [N,Cout,OH,OW]; dw [Cout,Cin,KH,KW].
//
// Parallelism is over OUTPUT channels, not images: each lane owns a disjoint
// block of dW rows and walks the whole batch in ascending image order with a
// private im2col column, so every dW element accumulates its per-image terms
// in exactly the serial order — no cross-lane partial accumulators, no
// reduction, bit-identical results for every pool size.
//
// An image whose input is all zero (a sample with no event this timestep)
// is skipped: its column is zero, so for finite dout it would add ±0 to
// every dW element, which changes none of them (dW accumulates up from +0
// and is never −0) — the identity Conv2DGradInput's wv == 0 skip already
// relies on. Its dout still enters dbias, so a non-finite dout still reaches
// the divergence guard.
func Conv2DGradWeight(p *parallel.Pool, dw, dbias, dout, x *Tensor, s ConvSpec, sc *Scratch) {
	xs := x.Shape()
	n, c, h, w := xs[0], xs[1], xs[2], xs[3]
	oh, ow := s.OutSize(h, w)
	checkConvShapes("Conv2DGradWeight", dout, x, dw, s, n, oh, ow)
	k := s.InChannels * s.KernelH * s.KernelW
	ohw := oh * ow
	if sc == nil {
		sc = NewScratch()
	}
	sc.reserve(p.Lanes())
	p.Run(s.OutChannels, func(lane, lo, hi int) {
		col := sc.lane(lane, k*ohw)
		for img := 0; img < n; img++ {
			ximg := x.Data[img*c*h*w : (img+1)*c*h*w]
			if allZero(ximg) {
				continue
			}
			Im2Col(col, ximg, c, h, w, s)
			dslice := dout.Data[img*s.OutChannels*ohw : (img+1)*s.OutChannels*ohw]
			// dW[co,kk] += Σ_j dout[co,j] * col[kk,j]
			for co := lo; co < hi; co++ {
				drow := dslice[co*ohw : (co+1)*ohw]
				wrow := dw.Data[co*k : (co+1)*k]
				for kk := 0; kk < k; kk++ {
					crow := col[kk*ohw : (kk+1)*ohw]
					var sum float32
					for j := range drow {
						sum += drow[j] * crow[j]
					}
					wrow[kk] += sum
				}
			}
		}
	})
	if dbias != nil {
		SumPerChannel(dbias, dout)
	}
}

func allZero(xs []float32) bool {
	for _, v := range xs {
		if v != 0 {
			return false
		}
	}
	return true
}

func checkConvShapes(op string, out, x, weight *Tensor, s ConvSpec, n, oh, ow int) {
	os := out.Shape()
	ws := weight.Shape()
	if len(os) != 4 || os[0] != n || os[1] != s.OutChannels || os[2] != oh || os[3] != ow {
		panic(fmt.Sprintf("tensor: %s output shape %v, want [%d %d %d %d]", op, os, n, s.OutChannels, oh, ow))
	}
	if len(ws) != 4 || ws[0] != s.OutChannels || ws[1] != s.InChannels || ws[2] != s.KernelH || ws[3] != s.KernelW {
		panic(fmt.Sprintf("tensor: %s weight shape %v, want [%d %d %d %d]", op, ws, s.OutChannels, s.InChannels, s.KernelH, s.KernelW))
	}
	if x.Dim(1) != s.InChannels {
		panic(fmt.Sprintf("tensor: %s input channels %d, spec wants %d", op, x.Dim(1), s.InChannels))
	}
}
