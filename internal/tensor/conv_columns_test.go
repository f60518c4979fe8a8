package tensor

import "skipper/internal/parallel"

// The column form of the convolution's input gradient: Col2Im, the adjoint
// of Im2Col, and the grad-input kernel built on it. Conv2DGradInput must
// agree with conv2DGradInputColumns bit for bit
// (TestConvKernelsBitIdenticalAcrossPoolSizes).

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

// conv2DGradInputColumns is the column form of Conv2DGradInput, the kernel
// as it was before the column scatter was removed, kept as its test oracle.
// It computes dx = convBackwardInput(dout, weight) for
// dout [N,Cout,OH,OW] and weight [Cout,Cin,KH,KW]. dx must have the input
// shape [N,Cin,H,W] and is fully overwritten. Images partition across lanes.
// Each row of the image's column gradient Wᵀ·dout (one input channel and
// kernel tap) is summed over the output channels in ascending order into a
// one-row buffer of the lane's column and scattered into dx at once, so
// every dx element takes its taps in ascending row order, as a scatter of
// the whole column would give them.
func conv2DGradInputColumns(p *parallel.Pool, dx, dout, weight *Tensor, s ConvSpec, sc *Scratch) {
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
