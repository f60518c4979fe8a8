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
	im2colRows(col, x, h, w, s, 0, c*s.KernelH*s.KernelW)
}

// im2colRows writes rows [r0, r1) of x's im2col matrix — row (ch·KH+kh)·KW+kw
// is input channel ch seen through kernel tap (kh, kw) — into col, which
// starts at row r0.
func im2colRows(col []float32, x []float32, h, w int, s ConvSpec, r0, r1 int) {
	oh, ow := s.OutSize(h, w)
	ohw := oh * ow
	taps := s.KernelH * s.KernelW
	for row := r0; row < r1; row++ {
		ch, tap := row/taps, row%taps
		kh, kw := tap/s.KernelW, tap%s.KernelW
		chBase := ch * h * w
		dst := col[(row-r0)*ohw : (row-r0+1)*ohw]
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

// Col2Im scatters col [C*KH*KW, OH*OW] back into the image gradient
// dx [C,H,W], accumulating overlapping contributions. dx is not zeroed;
// callers zero it when starting a fresh accumulation.
func Col2Im(dx []float32, col []float32, c, h, w int, s ConvSpec) {
	col2imRows(dx, col, h, w, s, 0, c*s.KernelH*s.KernelW)
}

// col2imRows scatters rows [r0, r1) of an im2col matrix, held in col from
// row r0, back into dx, row after row.
func col2imRows(dx []float32, col []float32, h, w int, s ConvSpec, r0, r1 int) {
	oh, ow := s.OutSize(h, w)
	ohw := oh * ow
	taps := s.KernelH * s.KernelW
	for row := r0; row < r1; row++ {
		ch, tap := row/taps, row%taps
		kh, kw := tap/s.KernelW, tap%s.KernelW
		chBase := ch * h * w
		src := col[(row-r0)*ohw : (row-r0+1)*ohw]
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

// Conv2D computes out = conv(x, weight) + bias for x [N,Cin,H,W],
// weight [Cout,Cin,KH,KW], bias [Cout] (bias may be nil). out must have shape
// [N,Cout,OH,OW]. The batch dimension partitions across pool lanes, each with
// private workspace from sc (nil sc allocates a throwaway workspace). Every
// image is processed by exactly the serial per-image code, so the output is
// bit-identical for every pool size.
//
// Each image takes one of two paths, picked from a count of its nonzero
// inputs (see gatherDensity). A dense image is unpacked by im2col and
// multiplied. A sparse one gets no im2col: each nonzero input is multiplied
// into the outputs it reaches, kernel tap by kernel tap in im2col row order
// (convGather). Both give every output element the same terms in the same
// order except the product's zero terms w·0 = ±0, which change no partial
// sum that starts at +0, so for finite weights the two paths agree bit for
// bit. An image whose input is all zero (no spike this timestep) is the
// empty gather: its output is zero before the bias, the identity
// Conv2DGradWeight's zero-image skip relies on, and a quiet timestep in a
// batch of timesteps costs a bias add.
func Conv2D(p *parallel.Pool, out, x, weight, bias *Tensor, s ConvSpec, sc *Scratch) {
	conv2D(p, out, x, weight, bias, s, sc, gatherDensity)
}

// conv2D is Conv2D with the crossover as a parameter: an image gathers when
// fewer than 1/density of its inputs are nonzero.
func conv2D(p *parallel.Pool, out, x, weight, bias *Tensor, s ConvSpec, sc *Scratch, density int) {
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
	limit := gatherLimit(c*h*w, density)
	wMat := weight.Data // [Cout, k] row-major view
	p.Run(n, func(lane, lo, hi int) {
		cs := sc.convSpace(lane, s, h, w, limit, k*ohw)
		for img := lo; img < hi; img++ {
			dst := out.Data[img*s.OutChannels*ohw : (img+1)*s.OutChannels*ohw]
			clear(dst)
			ximg := x.Data[img*c*h*w : (img+1)*c*h*w]
			if cs.collect(ximg) {
				cs.convGather(dst, wMat)
				continue
			}
			Im2Col(cs.col, ximg, c, h, w, s)
			matmulAcc(dst, wMat, cs.col, s.OutChannels, k, ohw)
		}
	})
	if bias != nil {
		AddBias(out, bias)
	}
}

// Conv2DGradInput computes dx = convBackwardInput(dout, weight) for
// dout [N,Cout,OH,OW] and weight [Cout,Cin,KH,KW]. dx must have the input
// shape [N,Cin,H,W] and is fully overwritten. Images partition across lanes.
// Each row of the image's column gradient Wᵀ·dout (one input channel and
// kernel tap) is summed over the output channels in ascending order into a
// one-row buffer of the lane's column and scattered into dx at once, so
// every dx element takes its taps in ascending row order, as a scatter of
// the whole column would give them.
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
		row := sc.lane(lane, ohw)
		for img := lo; img < hi; img++ {
			dslice := dout.Data[img*s.OutChannels*ohw : (img+1)*s.OutChannels*ohw]
			for kk := 0; kk < k; kk++ {
				// row = Σ_co W[co,kk]·dout[img,co], co ascending.
				clear(row)
				for co := 0; co < s.OutChannels; co++ {
					w0 := weight.Data[co*k+kk]
					if w0 == 0 {
						continue
					}
					d0 := dslice[co*ohw : (co+1)*ohw]
					if co+1 < s.OutChannels {
						if w1 := weight.Data[(co+1)*k+kk]; w1 != 0 {
							axpy2(row, w0, d0, w1, dslice[(co+1)*ohw:(co+2)*ohw])
							co++
							continue
						}
					}
					axpy(row, w0, d0)
				}
				col2imRows(dx.Data[img*c*h*w:(img+1)*c*h*w], row, h, w, s, kk, kk+1)
			}
		}
	})
}

// Conv2DGradWeight accumulates dW += convBackwardWeight(dout, x) and, when
// dbias is non-nil, dbias += per-channel sums of dout. x is the forward input
// [N,Cin,H,W]; dout [N,Cout,OH,OW]; dw [Cout,Cin,KH,KW].
//
// Parallelism is over the rows of the im2col matrix, which are dW's columns
// (one per input channel and kernel tap): each lane owns the dW elements its
// rows feed and reads every image for them, with no workspace beyond one
// column's rows and one nonzero list per lane. Every dW element accumulates
// its per-image terms in ascending image order, exactly as the serial loop
// does — no cross-lane partial accumulators, no reduction, bit-identical
// results for every pool size.
//
// An image's term for one element is Σ_p dout[co,p]·col[kk,p], summed over p
// in ascending order from +0. A dense image computes it from its im2col rows;
// a sparse one (see gatherDensity) from its nonzero inputs alone
// (gradWeightGather), whose row-kk positions p ascend in the list's (row,
// column) order. The two sums differ only by the zero terms dout·0 = ±0,
// which change no partial sum that starts at +0, so for finite dout the paths
// agree bit for bit. An image whose input is all zero (a sample with no event
// this timestep) adds nothing to dW, for the same reason (dW accumulates up
// from +0 and is never −0) — the identity Conv2DGradInput's zero-weight skip
// already relies on. Its dout still enters dbias, so a non-finite dout still
// reaches the divergence guard.
func Conv2DGradWeight(p *parallel.Pool, dw, dbias, dout, x *Tensor, s ConvSpec, sc *Scratch) {
	conv2DGradWeight(p, dw, dbias, dout, x, s, sc, gatherDensity)
}

// conv2DGradWeight is Conv2DGradWeight with the crossover as a parameter, as
// conv2D is Conv2D's.
func conv2DGradWeight(p *parallel.Pool, dw, dbias, dout, x *Tensor, s ConvSpec, sc *Scratch, density int) {
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
	limit := gatherLimit(c*h*w, density)
	p.RunGrain(k, grainFor(n*s.OutChannels*ohw), func(lane, lo, hi int) {
		cs := sc.convSpace(lane, s, h, w, limit, (hi-lo)*ohw)
		for img := 0; img < n; img++ {
			ximg := x.Data[img*c*h*w : (img+1)*c*h*w]
			dslice := dout.Data[img*s.OutChannels*ohw : (img+1)*s.OutChannels*ohw]
			if cs.collect(ximg) {
				cs.gradWeightGather(dw.Data, dslice, lo, hi)
				continue
			}
			im2colRows(cs.col, ximg, h, w, s, lo, hi)
			for co := 0; co < s.OutChannels; co++ {
				gradWeightRow(dw.Data[co*k+lo:co*k+hi], dslice[co*ohw:(co+1)*ohw], cs.col)
			}
		}
	})
	if dbias != nil {
		SumPerChannel(dbias, dout)
	}
}

// gradWeightRow adds one image's terms to a run of dW elements:
// wrow[r] += Σ_j drow[j]·col[r][j], each sum running over j in order from
// zero. Four sums run side by side — independent chains the processor can
// overlap — without changing any one's order.
func gradWeightRow(wrow, drow, col []float32) {
	ohw := len(drow)
	r := 0
	for ; r+4 <= len(wrow); r += 4 {
		c0 := col[r*ohw : (r+1)*ohw]
		c1 := col[(r+1)*ohw : (r+2)*ohw]
		c2 := col[(r+2)*ohw : (r+3)*ohw]
		c3 := col[(r+3)*ohw : (r+4)*ohw]
		var s0, s1, s2, s3 float32
		for j, d := range drow {
			s0 += d * c0[j]
			s1 += d * c1[j]
			s2 += d * c2[j]
			s3 += d * c3[j]
		}
		wrow[r] += s0
		wrow[r+1] += s1
		wrow[r+2] += s2
		wrow[r+3] += s3
	}
	for ; r < len(wrow); r++ {
		crow := col[r*ohw : (r+1)*ohw]
		var sum float32
		for j, d := range drow {
			sum += d * crow[j]
		}
		wrow[r] += sum
	}
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
