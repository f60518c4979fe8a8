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
// starts at row r0. Each output row's in-bounds span is copied from x, and
// only the padding around it is cleared.
func im2colRows(col []float32, x []float32, h, w int, s ConvSpec, r0, r1 int) {
	oh, ow := s.OutSize(h, w)
	ohw := oh * ow
	taps := s.KernelH * s.KernelW
	for row := r0; row < r1; row++ {
		ch, tap := row/taps, row%taps
		kh, kw := tap/s.KernelW, tap%s.KernelW
		oy0, oy1 := tapSpan(kh, h, oh, s)
		ox0, ox1 := tapSpan(kw, w, ow, s)
		dst := col[(row-r0)*ohw : (row-r0+1)*ohw]
		clear(dst[:oy0*ow])
		clear(dst[oy1*ow:])
		for oy := oy0; oy < oy1; oy++ {
			d := dst[oy*ow : (oy+1)*ow]
			clear(d[:ox0])
			clear(d[ox1:])
			src := x[ch*h*w+(oy*s.Stride+kh-s.Pad)*w:]
			ix := ox0*s.Stride + kw - s.Pad
			if s.Stride == 1 {
				copy(d[ox0:ox1], src[ix:])
				continue
			}
			for ox := ox0; ox < ox1; ox++ {
				d[ox] = src[ix]
				ix += s.Stride
			}
		}
	}
}

// tapSpan returns the outputs [o0, o1), of on along one axis, whose input
// o·stride + kk − pad through kernel offset kk lies inside the axis's n
// inputs: the output span a kernel tap reads without padding.
func tapSpan(kk, n, on int, s ConvSpec) (o0, o1 int) {
	if d := s.Pad - kk; d > 0 {
		o0 = (d + s.Stride - 1) / s.Stride
	}
	if last := n - 1 - kk + s.Pad; last >= 0 {
		o1 = min(on, last/s.Stride+1)
	}
	return o0, max(o0, o1)
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
	if bias != nil && bias.Len() != s.OutChannels {
		panic(fmt.Sprintf("tensor: Conv2D bias length %d != out channels %d", bias.Len(), s.OutChannels))
	}
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
			} else {
				Im2Col(cs.col, ximg, c, h, w, s)
				matmulAcc(dst, wMat, cs.col, s.OutChannels, k, ohw)
			}
			if bias == nil {
				continue
			}
			for co, b := range bias.Data {
				plane := dst[co*ohw : (co+1)*ohw]
				for i := range plane {
					plane[i] += b
				}
			}
		}
	})
}

// Conv2DGradInput computes dx = convBackwardInput(dout, weight) for
// dout [N,Cout,OH,OW] and weight [Cout,Cin,KH,KW]. dx must have the input
// shape [N,Cin,H,W] and is fully overwritten. Images partition across lanes.
//
// Each row kk of an image's column gradient Wᵀ·dout (one input channel and
// kernel tap) sums, over ascending co, the terms W[co,kk]·dout[co] of the
// output channels whose δ plane holds a nonzero and whose weight is
// nonzero; an image whose δ is all zero is skipped. The first term is
// written into a one-row buffer (scale), the middle ones are added to it
// (axpy2, axpy), and the last is added on the way into dx (axpyAdd). A
// single term is added to dx directly. Every dx element thus takes its taps
// in ascending kk order, each tap the sum of its terms in ascending co
// order — the order of the column form, which builds the whole column from
// a cleared row and scatters it back (col2im).
//
// At stride 1 a tap is a shift, so its add is one span: the lane copies the
// live δ planes into rows widened by zero columns, builds the row in that
// layout, and adds it into a widened copy of one input channel of dx, whose
// extra columns catch what the shift carries past a row's end and are
// dropped. Each dx element then takes from a tap either its term of
// the column form or, where that tap reads padding, a sum of products with
// zero. At other strides the row is added output row by output row, over
// the span the tap maps inside the image.
//
// The column form differs only by dropped and added terms w·0 = ±0 and by a
// row that starts at its first product instead of +0: a partial sum that
// starts at +0 is never −0, and neither is dx, so for finite weights none of
// these changes a bit of dx.
//
// BenchmarkKernelConv2DGradInput (serial, 2-core Xeon guest, fastest of
// 10, the column form on the same SSE2 leaves) puts column form → this
// kernel, in ms, with no zero δ plane / with 40 % of the planes zero, at
// lenet conv2 10.1 → 2.8 / 9.9 → 2.2; conv4 7.2 → 4.3 / 7.2 → 2.8; conv5
// 4.1 → 4.4 / 4.2 → 2.9; vgg5 conv2 7.8 → 5.8 / 7.7 → 4.0; conv3 6.7 → 6.9
// / 6.7 → 4.4. On 4×4 planes the zero columns cost what the scatter saved.
func Conv2DGradInput(p *parallel.Pool, dx, dout, weight *Tensor, s ConvSpec, sc *Scratch) {
	xs := dx.Shape()
	n, c, h, w := xs[0], xs[1], xs[2], xs[3]
	oh, ow := s.OutSize(h, w)
	checkConvShapes("Conv2DGradInput", dout, dx, weight, s, n, oh, ow)
	k := s.InChannels * s.KernelH * s.KernelW
	ohw, cout := oh*ow, s.OutChannels
	// The lane's δ planes have rows ws wide, δ in columns [pl, pl+OW). At
	// stride 1 zero columns surround it, and one input channel of dx is
	// held in rows of the same width, the image in columns [xl, xl+W), in
	// xLen floats: tap (kh, kw) then carries wide δ position q to wide dx
	// position q + (kh−pad)·ws + kw. A real dx element reads the δ it reads
	// in the column form, or a zero column where that lies outside δ, and
	// the widths keep every read and write inside the planes. At other
	// strides δ is not widened and dx is written in place.
	ws, pl, xl, xLen := ow, 0, 0, 0
	if s.Stride == 1 {
		pl = max(0, s.KernelW-1-s.Pad)
		ws = pl + max(ow, w+s.Pad)
		xl, xLen = pl+s.Pad, h*ws+s.KernelW-1
	}
	plane := oh * ws
	if sc == nil {
		sc = NewScratch()
	}
	sc.reserve(p.Lanes())
	p.Run(n, func(lane, lo, hi int) {
		fl := sc.lane(lane, k*cout+(cout+1)*plane+xLen)
		wt, row := fl[:k*cout], fl[k*cout:k*cout+plane]
		wide, x := fl[k*cout+plane:k*cout+(cout+1)*plane], fl[k*cout+(cout+1)*plane:]
		for co := 0; co < cout; co++ {
			for kk, v := range weight.Data[co*k : (co+1)*k] {
				wt[kk*cout+co] = v
			}
		}
		clear(wide) // the margins stay zero: only δ is copied in
		ints := sc.laneInts(lane, 2*cout)
		live, terms := ints[:cout], ints[cout:]
		for img := lo; img < hi; img++ {
			dimg := dout.Data[img*cout*ohw : (img+1)*cout*ohw]
			nl := 0
			for co := 0; co < cout; co++ {
				d := dimg[co*ohw : (co+1)*ohw]
				if allZero(d) {
					continue
				}
				live[nl] = int32(co)
				nl++
				for oy := 0; oy < oh; oy++ {
					copy(wide[co*plane+oy*ws+pl:co*plane+oy*ws+pl+ow], d[oy*ow:(oy+1)*ow])
				}
			}
			if nl == 0 || s.Stride != 1 {
				// At stride 1 every channel of an image with a live plane is
				// copied out whole.
				clear(dx.Data[img*c*h*w : (img+1)*c*h*w])
			}
			if nl == 0 {
				continue
			}
			kk := 0
			for ch := 0; ch < c; ch++ {
				dxch := dx.Data[(img*c+ch)*h*w : (img*c+ch+1)*h*w]
				if s.Stride == 1 {
					clear(x)
				}
				for kh := 0; kh < s.KernelH; kh++ {
					oy0, oy1 := tapSpan(kh, h, oh, s)
					for kw := 0; kw < s.KernelW; kw++ {
						wk := wt[kk*cout : (kk+1)*cout]
						kk++
						nt := 0
						for _, co := range live[:nl] {
							if wk[co] != 0 {
								terms[nt] = co
								nt++
							}
						}
						if nt == 0 {
							continue
						}
						r := sumTerms(row, wk, wide, terms[:nt-1])
						co := int(terms[nt-1])
						a, d := wk[co], wide[co*plane:(co+1)*plane]
						if s.Stride != 1 {
							addTapStrided(dxch, r, a, d, oy0, oy1, kh, kw, w, ow, s)
							continue
						}
						// The tap's outputs (oy, ·) for oy in [oy0, oy1) land
						// on input rows oy+kh−pad, shifted kw columns in x.
						q0, q1 := oy0*ws, oy1*ws
						o := q0 + (kh-s.Pad)*ws + kw
						dst := x[o : o+q1-q0]
						if r == nil {
							axpy(dst, a, d[q0:q1])
						} else {
							axpyAdd(dst, r[q0:q1], a, d[q0:q1])
						}
					}
				}
				if s.Stride == 1 {
					for iy := 0; iy < h; iy++ {
						copy(dxch[iy*w:(iy+1)*w], x[iy*ws+xl:])
					}
				}
			}
		}
	})
}

// sumTerms writes row = Σ wk[co]·planes[co] over the output channels co in
// terms, each plane len(row) long: the first term is written, the others
// added in order, two to a pass. It returns row, or nil for no terms.
func sumTerms(row, wk, planes []float32, terms []int32) []float32 {
	if len(terms) == 0 {
		return nil
	}
	n := len(row)
	plane := func(co int32) []float32 { return planes[int(co)*n : int(co+1)*n] }
	scale(row, wk[terms[0]], plane(terms[0]))
	i := 1
	for ; i+1 < len(terms); i += 2 {
		axpy2(row, wk[terms[i]], plane(terms[i]), wk[terms[i+1]], plane(terms[i+1]))
	}
	if i < len(terms) {
		axpy(row, wk[terms[i]], plane(terms[i]))
	}
	return row
}

// addTapStrided adds the row of kernel tap (kh, kw), whose last term a·d is
// still to come, into one channel of an image's dx [H,W]: dx[iy, ix] +=
// r[p] + a·d[p] for every output position p = (oy, ox) that the tap maps
// inside the image (oy in [oy0, oy1)), or += a·d[p] when r is nil.
func addTapStrided(dx, r []float32, a float32, d []float32, oy0, oy1, kh, kw, w, ow int, s ConvSpec) {
	ox0, ox1 := tapSpan(kw, w, ow, s)
	for oy := oy0; oy < oy1; oy++ {
		ix := (oy*s.Stride+kh-s.Pad)*w + ox0*s.Stride + kw - s.Pad
		for p := oy*ow + ox0; p < oy*ow+ox1; p++ {
			if r == nil {
				dx[ix] += float32(a * d[p])
			} else {
				dx[ix] += r[p] + float32(a*d[p])
			}
			ix += s.Stride
		}
	}
}

// Conv2DGradWeight accumulates dW += convBackwardWeight(dout, x) and, when
// dbias is non-nil, dbias += per-channel sums of dout. x is the forward input
// [N,Cin,H,W]; dout [N,Cout,OH,OW]; dw [Cout,Cin,KH,KW].
//
// Parallelism is over the rows of the im2col matrix, which are dW's columns
// (one per input channel and kernel tap): each lane owns the dW elements its
// rows feed and reads every image for them, with a workspace of its rows of
// the column, one image's δ transposed, the rows' sums and one nonzero list.
// Every dW element accumulates its per-image terms in ascending image order,
// exactly as the serial loop does — no cross-lane partial accumulators, no
// reduction, bit-identical results for every pool size.
//
// An image's term for one element is Σ_p dout[co,p]·col[kk,p], summed over p
// in ascending order from +0. A dense image computes it from its im2col rows
// and its δ transposed to [OH·OW][Cout], four output channels to a vector
// and four rows side by side (mulAccT), each channel's sum still its own,
// over ascending p; a sparse one (see gatherDensity) from its nonzero inputs
// alone (gradWeightGather), whose row-kk positions p ascend in the list's
// (row, column) order. The two sums differ only by the zero terms dout·0 =
// ±0, which change no partial sum that starts at +0, so for finite dout the
// paths agree bit for bit. An image whose input is all zero (a sample with
// no event this timestep) adds nothing to dW, for the same reason (dW
// accumulates up from +0 and is never −0) — the identity Conv2DGradInput's
// zero-plane skip also relies on. Its dout still enters dbias, so a
// non-finite dout still reaches the divergence guard.
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
	cout := s.OutChannels
	p.RunGrain(k, grainFor(n*cout*ohw), func(lane, lo, hi int) {
		rows := hi - lo
		cs := sc.convSpace(lane, s, h, w, limit, rows*ohw+ohw*cout+rows*cout)
		col, dT, acc := cs.col[:rows*ohw], cs.col[rows*ohw:rows*ohw+ohw*cout], cs.col[rows*ohw+ohw*cout:]
		for img := 0; img < n; img++ {
			ximg := x.Data[img*c*h*w : (img+1)*c*h*w]
			dslice := dout.Data[img*cout*ohw : (img+1)*cout*ohw]
			if cs.collect(ximg) {
				cs.gradWeightGather(dw.Data, dslice, lo, hi)
				continue
			}
			im2colRows(col, ximg, h, w, s, lo, hi)
			for co := 0; co < cout; co++ {
				for p, v := range dslice[co*ohw : (co+1)*ohw] {
					dT[p*cout+co] = v
				}
			}
			clear(acc)
			mulAccT(acc, col, dT, rows, ohw, cout)
			for r := 0; r < rows; r++ {
				for co, v := range acc[r*cout : (r+1)*cout] {
					dw.Data[co*k+lo+r] += v
				}
			}
		}
	})
	if dbias != nil {
		SumPerChannel(dbias, dout)
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
