package tensor

import (
	"fmt"

	"skipper/internal/parallel"
)

// AvgPool2D computes non-overlapping average pooling with window k and
// stride k over x [N,C,H,W] into out [N,C,H/k,W/k]. The paper's evaluated
// topologies use average pooling (standard for SNNs, where max pooling over
// binary spikes loses rate information). The N·C channel planes partition
// across pool lanes; a plane's outputs are computed by the serial code, so
// the result is bit-identical for every pool size.
func AvgPool2D(p *parallel.Pool, out, x *Tensor, k int) {
	xs := x.Shape()
	n, c, h, w := xs[0], xs[1], xs[2], xs[3]
	oh, ow := h/k, w/k
	os := out.Shape()
	if len(os) != 4 || os[0] != n || os[1] != c || os[2] != oh || os[3] != ow {
		panic(fmt.Sprintf("tensor: AvgPool2D output shape %v, want [%d %d %d %d]", os, n, c, oh, ow))
	}
	inv := 1 / float32(k*k)
	p.RunGrain(n*c, grainFor(h*w), func(_, lo, hi int) {
		for plane := lo; plane < hi; plane++ {
			src := x.Data[plane*h*w:]
			dst := out.Data[plane*oh*ow:]
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					var s float32
					for ky := 0; ky < k; ky++ {
						base := (oy*k+ky)*w + ox*k
						for kx := 0; kx < k; kx++ {
							s += src[base+kx]
						}
					}
					dst[oy*ow+ox] = s * inv
				}
			}
		}
	})
}

// AvgPool2DGrad computes the input gradient of AvgPool2D: each output
// gradient is spread uniformly over its k×k window. dx is fully overwritten.
// The channel planes partition across pool lanes as in AvgPool2D.
func AvgPool2DGrad(p *parallel.Pool, dx, dout *Tensor, k int) {
	xs := dx.Shape()
	n, c, h, w := xs[0], xs[1], xs[2], xs[3]
	oh, ow := h/k, w/k
	os := dout.Shape()
	if len(os) != 4 || os[0] != n || os[1] != c || os[2] != oh || os[3] != ow {
		panic(fmt.Sprintf("tensor: AvgPool2DGrad dout shape %v, want [%d %d %d %d]", os, n, c, oh, ow))
	}
	inv := 1 / float32(k*k)
	p.RunGrain(n*c, grainFor(h*w), func(_, lo, hi int) {
		for plane := lo; plane < hi; plane++ {
			dst := dx.Data[plane*h*w : (plane+1)*h*w]
			clear(dst)
			src := dout.Data[plane*oh*ow:]
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					g := src[oy*ow+ox] * inv
					for ky := 0; ky < k; ky++ {
						base := (oy*k+ky)*w + ox*k
						for kx := 0; kx < k; kx++ {
							dst[base+kx] += g
						}
					}
				}
			}
		}
	})
}

// GlobalAvgPool2D averages each channel plane of x [N,C,H,W] into out [N,C].
func GlobalAvgPool2D(out, x *Tensor) {
	xs := x.Shape()
	n, c, h, w := xs[0], xs[1], xs[2], xs[3]
	os := out.Shape()
	if len(os) != 2 || os[0] != n || os[1] != c {
		panic(fmt.Sprintf("tensor: GlobalAvgPool2D output shape %v, want [%d %d]", os, n, c))
	}
	hw := h * w
	inv := 1 / float32(hw)
	for img := 0; img < n; img++ {
		for ch := 0; ch < c; ch++ {
			src := x.Data[(img*c+ch)*hw : (img*c+ch+1)*hw]
			var s float32
			for _, v := range src {
				s += v
			}
			out.Data[img*c+ch] = s * inv
		}
	}
}

// GlobalAvgPool2DGrad spreads dout [N,C] uniformly over dx [N,C,H,W].
func GlobalAvgPool2DGrad(dx, dout *Tensor) {
	xs := dx.Shape()
	n, c, h, w := xs[0], xs[1], xs[2], xs[3]
	hw := h * w
	inv := 1 / float32(hw)
	for img := 0; img < n; img++ {
		for ch := 0; ch < c; ch++ {
			g := dout.Data[img*c+ch] * inv
			dst := dx.Data[(img*c+ch)*hw : (img*c+ch+1)*hw]
			for i := range dst {
				dst[i] = g
			}
		}
	}
}

// MaxPool2D computes non-overlapping max pooling with window k and stride k
// over x [N,C,H,W] into out [N,C,H/k,W/k], recording the argmax flat index
// of each window into idx (same shape as out) for the backward pass.
// Provided for ANN-style stacks; spiking stacks usually prefer AvgPool2D.
func MaxPool2D(out, x *Tensor, idx []int32, k int) {
	xs := x.Shape()
	n, c, h, w := xs[0], xs[1], xs[2], xs[3]
	oh, ow := h/k, w/k
	os := out.Shape()
	if len(os) != 4 || os[0] != n || os[1] != c || os[2] != oh || os[3] != ow {
		panic(fmt.Sprintf("tensor: MaxPool2D output shape %v, want [%d %d %d %d]", os, n, c, oh, ow))
	}
	if len(idx) != out.Len() {
		panic(fmt.Sprintf("tensor: MaxPool2D index buffer %d, want %d", len(idx), out.Len()))
	}
	o := 0
	for img := 0; img < n; img++ {
		for ch := 0; ch < c; ch++ {
			base := (img*c + ch) * h * w
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					best := base + (oy*k)*w + ox*k
					bv := x.Data[best]
					for ky := 0; ky < k; ky++ {
						row := base + (oy*k+ky)*w + ox*k
						for kx := 0; kx < k; kx++ {
							if v := x.Data[row+kx]; v > bv {
								bv, best = v, row+kx
							}
						}
					}
					out.Data[o] = bv
					idx[o] = int32(best)
					o++
				}
			}
		}
	}
}

// MaxPool2DGrad routes each output gradient to its recorded argmax
// position. dx is fully overwritten.
func MaxPool2DGrad(dx, dout *Tensor, idx []int32) {
	if len(idx) != dout.Len() {
		panic(fmt.Sprintf("tensor: MaxPool2DGrad index buffer %d, want %d", len(idx), dout.Len()))
	}
	dx.Zero()
	for o, src := range idx {
		dx.Data[src] += dout.Data[o]
	}
}
