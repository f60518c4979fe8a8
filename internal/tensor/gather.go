package tensor

// Gather convolution: a sparse image is convolved at its nonzero inputs
// only. Conv2D and Conv2DGradWeight pick it per image, from a count of the
// image's nonzero inputs made while listing them.

// gatherDensity is the crossover between the two convolution paths: an
// image with fewer than 1/gatherDensity of its inputs nonzero is gathered,
// any other goes through im2col. BenchmarkKernelConv2DDensity (binary
// inputs, serial, 2-core Xeon guest, fastest of 3), on the lenet conv2 and
// vgg5 conv2 shapes, forward and weight gradient alike, puts gather/dense
// at 0.15–0.31 at density ≤ 0.02, 0.58–0.64 at 1/16, 0.68–0.96 at 0.1,
// 1.23–1.54 at 0.15 and 2.2–3.2 at 0.5: the paths are level near 1/8. The
// row read 0.34–0.53 at 0.1–0.15 before the dense path ran on the SSE2
// leaves (leaves_amd64.s), when 1/8 kept gather under half of dense.
const gatherDensity = 8

// gatherLimit is the nonzero count at which an image of size ≥ 1 inputs
// leaves the gather path for the dense one: ⌈size/density⌉, written so that
// a density near math.MaxInt cannot overflow.
func gatherLimit(size, density int) int {
	return (size-1)/density + 1
}

// convSpace is one lane's workspace for one convolution call, carved from
// its Scratch slots: the im2col column rows a dense image is unpacked into,
// or the nonzero list of a sparse one.
type convSpace struct {
	s                   ConvSpec
	h, w, oh, ow, limit int
	col                 []float32
	// The list: channel ch's nonzeros are (ys[i], xs[i], vals[i]) for i in
	// [start[ch], start[ch+1]), in ascending (row, column) order.
	start, ys, xs []int32
	vals          []float32
	// rowOut[kh·H+y] is the output row that input row y reaches through
	// kernel row kh, or −1 if none; colOut[kw·W+x] likewise for columns.
	rowOut, colOut []int32
	// One im2col row's nonzeros: positions, ascending, and values.
	rowP []int32
	rowV []float32
}

// convSpace returns lane's workspace for spec sp on h×w inputs: colLen
// floats of column, and room for limit−1 nonzeros (collect gives up at the
// limit-th). The tap tables are filled.
func (s *Scratch) convSpace(lane int, sp ConvSpec, h, w, limit, colLen int) convSpace {
	c, m := sp.InChannels, limit-1
	fl := s.lane(lane, colLen+2*m)
	in := s.laneInts(lane, c+1+sp.KernelH*h+sp.KernelW*w+3*m)
	cs := convSpace{s: sp, h: h, w: w, limit: limit}
	cs.oh, cs.ow = sp.OutSize(h, w)
	cs.col, cs.vals, cs.rowV = fl[:colLen], fl[colLen:colLen+m], fl[colLen+m:]
	cs.start, in = in[:c+1], in[c+1:]
	cs.rowOut, in = in[:sp.KernelH*h], in[sp.KernelH*h:]
	cs.colOut, in = in[:sp.KernelW*w], in[sp.KernelW*w:]
	cs.ys, cs.xs, cs.rowP = in[:m], in[m:2*m], in[2*m:]
	tapTable(cs.rowOut, sp.KernelH, h, cs.oh, sp)
	tapTable(cs.colOut, sp.KernelW, w, cs.ow, sp)
	return cs
}

// tapTable fills out[kk·n+i] with the output index that input index i
// reaches through kernel offset kk along one axis of on outputs, or −1.
func tapTable(out []int32, k, n, on int, s ConvSpec) {
	for kk := 0; kk < k; kk++ {
		row := out[kk*n : (kk+1)*n]
		for i := range row {
			row[i] = -1
		}
		for o := 0; o < on; o++ {
			if i := o*s.Stride + kk - s.Pad; i >= 0 && i < n {
				row[i] = int32(o)
			}
		}
	}
}

// collect lists the nonzeros of one input image x [Cin,H,W] and reports
// whether there are fewer than the limit. It stops reading at the limit-th
// nonzero, so a dense image costs a fraction of one pass and leaves the list
// incomplete.
func (cs *convSpace) collect(x []float32) bool {
	c, h, w := cs.s.InChannels, cs.h, cs.w
	n := 0
	i := 0
	for ch := 0; ch < c; ch++ {
		cs.start[ch] = int32(n)
		for y := 0; y < h; y++ {
			for xx, v := range x[i : i+w] {
				if v != 0 {
					if n == cs.limit-1 {
						return false
					}
					cs.ys[n], cs.xs[n], cs.vals[n] = int32(y), int32(xx), v
					n++
				}
			}
			i += w
		}
	}
	cs.start[c] = int32(n)
	return true
}

// row lists the nonzeros of im2col row kk = (ch, kh, kw): the output
// positions p that channel ch's nonzeros reach through tap (kh, kw), in
// ascending order (the channel's list is in (row, column) order, and the
// tap keeps that order), with their values.
func (cs *convSpace) row(ch, kh, kw int) ([]int32, []float32) {
	h, w, ow := cs.h, cs.w, int32(cs.ow)
	lo, hi := cs.start[ch], cs.start[ch+1]
	ys, xs, vals := cs.ys[lo:hi], cs.xs[lo:hi:hi], cs.vals[lo:hi:hi]
	rows, cols := cs.rowOut[kh*h:(kh+1)*h], cs.colOut[kw*w:(kw+1)*w]
	ps, pv := cs.rowP[:len(ys)], cs.rowV[:len(ys)]
	n := 0
	for i, y := range ys {
		oy, ox := rows[y], cols[xs[i]]
		if oy < 0 || ox < 0 {
			continue
		}
		ps[n], pv[n] = oy*ow+ox, vals[i]
		n++
	}
	return ps[:n], pv[:n]
}

// convGather adds weight ⊛ x into dst [Cout,OH,OW] from x's nonzero list,
// walking im2col rows kk = (ch, kh, kw) in ascending order. Within one row
// each output takes at most one term, so every output element takes its
// terms in ascending kk order, as matmulAcc over the im2col column gives
// them, less the terms whose input is zero.
func (cs *convSpace) convGather(dst, wMat []float32) {
	s := cs.s
	k := s.InChannels * s.KernelH * s.KernelW
	ohw := cs.oh * cs.ow
	kk := 0
	for ch := 0; ch < s.InChannels; ch++ {
		if cs.start[ch] == cs.start[ch+1] {
			kk += s.KernelH * s.KernelW
			continue
		}
		for kh := 0; kh < s.KernelH; kh++ {
			for kw := 0; kw < s.KernelW; kw++ {
				ps, pv := cs.row(ch, kh, kw)
				for co := 0; co < s.OutChannels; co++ {
					wv, d := wMat[co*k+kk], dst[co*ohw:(co+1)*ohw]
					for i, p := range ps {
						d[p] += wv * pv[i]
					}
				}
				kk++
			}
		}
	}
}

// gradWeightGather adds one image's terms to dW's columns [lo, hi) (dw is
// the whole [Cout, k] gradient) from its nonzero list: for each im2col row
// kk, Σ_p dout[co,p]·x summed from +0 over the row's nonzeros, p ascending —
// the dense path's sum less its zero terms.
func (cs *convSpace) gradWeightGather(dw, dimg []float32, lo, hi int) {
	s := cs.s
	k := s.InChannels * s.KernelH * s.KernelW
	taps := s.KernelH * s.KernelW
	ohw := cs.oh * cs.ow
	for kk := lo; kk < hi; kk++ {
		ch, tap := kk/taps, kk%taps
		if cs.start[ch] == cs.start[ch+1] {
			continue
		}
		ps, pv := cs.row(ch, tap/s.KernelW, tap%s.KernelW)
		for co := 0; co < s.OutChannels; co++ {
			d := dimg[co*ohw : (co+1)*ohw]
			var sum float32
			for i, p := range ps {
				sum += d[p] * pv[i]
			}
			dw[co*k+kk] += sum
		}
	}
}
