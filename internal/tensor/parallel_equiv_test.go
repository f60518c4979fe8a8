package tensor

import (
	"fmt"
	"math"
	"testing"

	"skipper/internal/parallel"
)

// The parallel runtime's central contract: every kernel partitions output
// elements with lane-independent arithmetic, so a pooled run is bit-identical
// to the serial one for every pool size and every shape — including shapes
// smaller than the lane count, shapes below the work-floor grain, and inputs
// dense with the zeros the matmul kernels skip.

// equivFill writes a deterministic pseudo-random pattern with a sprinkling
// of exact zeros, exercising the zero-skip fast paths identically in both
// runs.
func equivFill(d []float32, seed uint64) {
	s := seed*0x9E3779B97F4A7C15 + 1
	for i := range d {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		if s%5 == 0 {
			d[i] = 0
			continue
		}
		d[i] = float32(s%2048)/1024 - 1
	}
}

func requireBitEqual(t *testing.T, name string, serial, pooled *Tensor) {
	t.Helper()
	for i, v := range serial.Data {
		if v != pooled.Data[i] {
			t.Fatalf("%s: element %d differs: serial %v, pooled %v", name, i, v, pooled.Data[i])
		}
	}
}

// matmulShapes spans tiny (fewer rows than lanes), odd, and grain-crossing
// sizes.
var matmulShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{2, 3, 5},
	{3, 1, 7},
	{7, 16, 9},
	{16, 16, 16},
	{33, 17, 29},
	{64, 128, 48}, // crosses the minLaneWork grain on multi-lane pools
}

func TestMatMulFamilyBitIdenticalAcrossPoolSizes(t *testing.T) {
	for _, lanes := range []int{2, 3, 4, 7} {
		pool := parallel.NewPool(lanes)
		defer pool.Close()
		for _, sh := range matmulShapes {
			kernels := []struct {
				name string
				run  func(p *parallel.Pool, dst *Tensor, a, b *Tensor)
				a, b *Tensor
				acc  bool
			}{
				{"MatMul", MatMul, New(sh.m, sh.k), New(sh.k, sh.n), false},
				{"MatMulAcc", MatMulAcc, New(sh.m, sh.k), New(sh.k, sh.n), true},
				{"MatMulTransA", MatMulTransA, New(sh.k, sh.m), New(sh.k, sh.n), false},
				{"MatMulTransAAcc", MatMulTransAAcc, New(sh.k, sh.m), New(sh.k, sh.n), true},
				{"MatMulTransB", MatMulTransB, New(sh.m, sh.k), New(sh.n, sh.k), false},
			}
			for _, kr := range kernels {
				equivFill(kr.a.Data, uint64(sh.m*31+sh.k))
				equivFill(kr.b.Data, uint64(sh.n*17+sh.k))
				outS, outP := New(sh.m, sh.n), New(sh.m, sh.n)
				if kr.acc {
					equivFill(outS.Data, 99)
					copy(outP.Data, outS.Data)
				}
				kr.run(nil, outS, kr.a, kr.b)
				kr.run(pool, outP, kr.a, kr.b)
				requireBitEqual(t, fmt.Sprintf("%s[%dx%dx%d]@%d lanes", kr.name, sh.m, sh.k, sh.n, lanes), outS, outP)
			}
		}
	}
}

var convShapes = []struct {
	n, c, h, w     int
	out, kh, s, pd int
}{
	{1, 1, 4, 4, 1, 3, 1, 1},   // single image: fewer images than lanes
	{2, 3, 8, 8, 4, 3, 1, 1},   // padding
	{5, 2, 9, 7, 3, 3, 2, 0},   // odd spatial, stride 2, no pad
	{8, 4, 6, 6, 6, 5, 1, 2},   // 5x5 kernel, wide pad
	{3, 2, 5, 5, 2, 1, 1, 0},   // 1x1 kernel
	{4, 3, 11, 9, 5, 5, 2, 2},  // 5x5 kernel, stride 2, wide pad
	{6, 4, 16, 16, 4, 3, 1, 1}, // lenet conv2, per image
	{3, 2, 7, 6, 3, 3, 1, 0},   // stride 1, no pad: narrower output
	{2, 3, 5, 5, 4, 3, 1, 2},   // stride 1, pad past the kernel: wider output
}

// convFill is one input of the conv table: the original mixed pattern, or
// an exact count of nonzeros per image (binary or not) that places each
// image on a chosen side of the gather/dense crossover.
type convFill struct {
	name   string
	nnz    func(size int) int // nonzeros per image of size inputs; nil: equivFill
	binary bool
}

func convFills() []convFill {
	frac := func(d float64) func(int) int {
		return func(size int) int {
			if d == 0 {
				return 0
			}
			return max(1, int(d*float64(size)+0.5))
		}
	}
	crossover := func(off int) func(int) int {
		return func(size int) int { return max(0, gatherLimit(size, gatherDensity)+off) }
	}
	fills := []convFill{{name: "mixed"}}
	for _, binary := range []bool{true, false} {
		for _, d := range []struct {
			name string
			nnz  func(int) int
		}{
			{"0", frac(0)},
			{"0.001", frac(0.001)},
			{"0.01", frac(0.01)},
			{"below-crossover", crossover(-1)},
			{"at-crossover", crossover(0)},
			{"0.5", frac(0.5)},
		} {
			fills = append(fills, convFill{name: fmt.Sprintf("%s binary=%v", d.name, binary), nnz: d.nnz, binary: binary})
		}
	}
	return fills
}

// fill writes x [N,...] image by image; each image of the count fills gets
// exactly that many nonzeros at pseudo-random distinct positions.
func (f convFill) fill(x *Tensor, seed uint64) {
	if f.nnz == nil {
		equivFill(x.Data, seed)
		return
	}
	clear(x.Data)
	n := x.Dim(0)
	size := len(x.Data) / n
	s := seed*0x9E3779B97F4A7C15 + 1
	next := func() uint64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return s
	}
	for img := 0; img < n; img++ {
		d := x.Data[img*size : (img+1)*size]
		for placed := 0; placed < min(f.nnz(size), size); {
			i := int(next() % uint64(size))
			if d[i] != 0 {
				continue
			}
			v := float32(1)
			if !f.binary {
				if v = float32(int(next()%2047)-1023) / 512 * roughScale; v == 0 {
					v = roughScale
				}
			}
			d[i] = v
			placed++
		}
	}
}

// roughScale has a full mantissa: operands scaled by it make products and
// sums round, so a kernel that adds its terms in another order shows. The
// dyadic values of equivFill add exactly in any order.
const roughScale = float32(math.Pi / 4)

// operand fills a weight, bias or gradient operand: equivFill for the mixed
// fill, as the table always had, else equivFill scaled by roughScale.
func (f convFill) operand(d []float32, seed uint64) {
	equivFill(d, seed)
	if f.nnz != nil {
		for i := range d {
			d[i] *= roughScale
		}
	}
}

// alwaysGather and neverGather are crossovers for the test seams conv2D and
// conv2DGradWeight: gather every image that is not fully dense, or only the
// empty ones — the dense path as it was before the gather.
const (
	alwaysGather = 1
	neverGather  = math.MaxInt
)

func TestConvKernelsBitIdenticalAcrossPoolSizes(t *testing.T) {
	for _, lanes := range []int{2, 4, 5} {
		pool := parallel.NewPool(lanes)
		defer pool.Close()
		for _, sh := range convShapes {
			spec := ConvSpec{
				InChannels: sh.c, OutChannels: sh.out,
				KernelH: sh.kh, KernelW: sh.kh, Stride: sh.s, Pad: sh.pd,
			}
			oh, ow := spec.OutSize(sh.h, sh.w)
			if oh <= 0 || ow <= 0 {
				t.Fatalf("bad conv shape %+v", sh)
			}
			for _, fill := range convFills() {
				x := New(sh.n, sh.c, sh.h, sh.w)
				weight := New(sh.out, sh.c, sh.kh, sh.kh)
				bias := New(sh.out)
				fill.fill(x, 3)
				fill.operand(weight.Data, 5)
				fill.operand(bias.Data, 7)
				label := fmt.Sprintf("[N%d C%d->%d %dx%d k%d s%d p%d %s]@%d lanes",
					sh.n, sh.c, sh.out, sh.h, sh.w, sh.kh, sh.s, sh.pd, fill.name, lanes)

				outS := New(sh.n, sh.out, oh, ow)
				outP := New(sh.n, sh.out, oh, ow)
				Conv2D(nil, outS, x, weight, bias, spec, NewScratch())
				Conv2D(pool, outP, x, weight, bias, spec, NewScratch())
				requireBitEqual(t, "Conv2D"+label, outS, outP)
				// Gather ≡ dense: the dense path, serial, is the reference
				// for both paths at every pool width.
				ref := New(sh.n, sh.out, oh, ow)
				conv2D(nil, ref, x, weight, bias, spec, NewScratch(), neverGather)
				requireBitEqual(t, "Conv2D≡dense"+label, ref, outP)
				for _, p := range []*parallel.Pool{nil, pool} {
					gathered := New(sh.n, sh.out, oh, ow)
					conv2D(p, gathered, x, weight, bias, spec, NewScratch(), alwaysGather)
					requireBitEqual(t, "Conv2D gather≡dense"+label, ref, gathered)
				}

				dout := New(sh.n, sh.out, oh, ow)
				fill.operand(dout.Data, 11)

				dwS, dwP := New(sh.out, sh.c, sh.kh, sh.kh), New(sh.out, sh.c, sh.kh, sh.kh)
				dbS, dbP := New(sh.out), New(sh.out)
				// Gradient kernels accumulate; seed both sides identically.
				fill.operand(dwS.Data, 13)
				copy(dwP.Data, dwS.Data)
				fill.operand(dbS.Data, 19)
				copy(dbP.Data, dbS.Data)
				Conv2DGradWeight(nil, dwS, dbS, dout, x, spec, NewScratch())
				Conv2DGradWeight(pool, dwP, dbP, dout, x, spec, NewScratch())
				requireBitEqual(t, "Conv2DGradWeight"+label, dwS, dwP)
				requireBitEqual(t, "Conv2DGradWeight(bias)"+label, dbS, dbP)

				// Gather ≡ dense for the weight gradient, accumulating over
				// two calls into one seeded gradient and one scratch.
				dout2 := New(sh.n, sh.out, oh, ow)
				fill.operand(dout2.Data, 17)
				grads := func(p *parallel.Pool, density int) (dw, db *Tensor) {
					dw, db = New(sh.out, sh.c, sh.kh, sh.kh), New(sh.out)
					fill.operand(dw.Data, 13)
					fill.operand(db.Data, 19)
					sc := NewScratch()
					conv2DGradWeight(p, dw, db, dout, x, spec, sc, density)
					conv2DGradWeight(p, dw, db, dout2, x, spec, sc, density)
					return dw, db
				}
				dwRef, dbRef := grads(nil, neverGather)
				for _, p := range []*parallel.Pool{nil, pool} {
					for _, density := range []int{gatherDensity, alwaysGather} {
						dw, db := grads(p, density)
						name := fmt.Sprintf("Conv2DGradWeight crossover 1/%d ≡ dense%s", density, label)
						requireBitEqual(t, name, dwRef, dw)
						requireBitEqual(t, name+"(bias)", dbRef, db)
					}
				}
			}

			// The δ axis: grad-input ≡ its column form, serial and pooled.
			weight := New(sh.out, sh.c, sh.kh, sh.kh)
			deltaWeight(weight, 5)
			for _, df := range deltaFills {
				dout := New(sh.n, sh.out, oh, ow)
				df.fill(dout, 11)
				label := fmt.Sprintf("[N%d C%d->%d %dx%d k%d s%d p%d %s]@%d lanes",
					sh.n, sh.c, sh.out, sh.h, sh.w, sh.kh, sh.s, sh.pd, df.name, lanes)
				ref := New(sh.n, sh.c, sh.h, sh.w)
				conv2DGradInputColumns(nil, ref, dout, weight, spec, NewScratch())
				for _, p := range []*parallel.Pool{nil, pool} {
					dx := New(sh.n, sh.c, sh.h, sh.w)
					equivFill(dx.Data, 23) // fully overwritten
					Conv2DGradInput(p, dx, dout, weight, spec, NewScratch())
					requireBitEqual(t, "Conv2DGradInput≡columns"+label, ref, dx)
				}
			}
		}
	}
}

// deltaFills are the δ operands of the grad-input check. Every value is
// scaled by roughScale, so a kernel that sums a row's terms in another
// order, or adds the last term early, shows. The sparse ones zero 40 % of
// the δ planes, some of them with −0 entries, put −0 among live entries,
// and zero one image entirely (a plane or image of −0 is all zero too).
var deltaFills = []struct {
	name string
	fill func(d *Tensor, seed uint64)
}{
	{"dense δ", func(d *Tensor, seed uint64) { roughFill(d.Data, seed) }},
	{"zero planes δ", func(d *Tensor, seed uint64) { sparseDelta(d, seed, -1) }},
	{"zero planes+image δ", func(d *Tensor, seed uint64) { sparseDelta(d, seed, d.Dim(0)/2) }},
	{"all-zero δ", func(d *Tensor, seed uint64) { sparseDelta(d, seed, -2) }},
}

// roughFill is equivFill scaled by roughScale.
func roughFill(d []float32, seed uint64) {
	equivFill(d, seed)
	for i := range d {
		d[i] *= roughScale
	}
}

// sparseDelta fills δ [N,Cout,OH,OW] with rough values, then zeroes about
// 40 % of its planes (every third entry of a zeroed plane −0), every plane
// of image zeroImg, or every plane when zeroImg is −2, and writes −0 over
// every seventh entry of the planes it keeps.
func sparseDelta(d *Tensor, seed uint64, zeroImg int) {
	roughFill(d.Data, seed)
	negZero := float32(math.Copysign(0, -1))
	n, cout := d.Dim(0), d.Dim(1)
	plane := len(d.Data) / (n * cout)
	s := seed
	for img := 0; img < n; img++ {
		for co := 0; co < cout; co++ {
			s = s*6364136223846793005 + 1442695040888963407
			zero := zeroImg == -2 || img == zeroImg || (s>>33)%5 < 2
			p := d.Data[(img*cout+co)*plane : (img*cout+co+1)*plane]
			for i := range p {
				switch {
				case zero && i%3 == 0:
					p[i] = negZero
				case zero:
					p[i] = 0
				case i%7 == 0:
					p[i] = negZero
				}
			}
		}
	}
}

// deltaWeight fills the grad-input check's weight [Cout,Cin,KH,KW] with
// rough values and exact zeros (about one in five), then zeroes one im2col
// column for every output channel and all but the first output channel of
// another, so rows with no term and with a single term both occur.
func deltaWeight(w *Tensor, seed uint64) {
	roughFill(w.Data, seed)
	cout := w.Dim(0)
	k := len(w.Data) / cout
	for co := 0; co < cout; co++ {
		w.Data[co*k+k/2] = 0
		if co > 0 {
			w.Data[co*k+k-1] = 0
		}
	}
	if w.Data[k-1] == 0 {
		w.Data[k-1] = roughScale
	}
}

// A scratch shared by one layer's sequential calls must still give each lane
// a stable private buffer when the pool shrinks and grows between calls.
func TestScratchReuseAcrossPoolWidths(t *testing.T) {
	sh := convShapes[1]
	spec := ConvSpec{InChannels: sh.c, OutChannels: sh.out, KernelH: sh.kh, KernelW: sh.kh, Stride: sh.s, Pad: sh.pd}
	oh, ow := spec.OutSize(sh.h, sh.w)
	x := New(sh.n, sh.c, sh.h, sh.w)
	weight := New(sh.out, sh.c, sh.kh, sh.kh)
	equivFill(x.Data, 23)
	equivFill(weight.Data, 29)
	ref := New(sh.n, sh.out, oh, ow)
	Conv2D(nil, ref, x, weight, nil, spec, NewScratch())

	sc := NewScratch()
	for _, lanes := range []int{4, 1, 3, 2, 4} {
		pool := parallel.NewPool(lanes)
		out := New(sh.n, sh.out, oh, ow)
		Conv2D(pool, out, x, weight, nil, spec, sc)
		pool.Close()
		requireBitEqual(t, fmt.Sprintf("Conv2D shared scratch @%d lanes", lanes), ref, out)
	}
}

// TestPoolAndBiasBitIdenticalAcrossPoolSizes covers the kernels that split
// channel planes or add a bias inside their image lanes: AvgPool2D and
// AvgPool2DGrad against the serial kernel, and a biased Conv2D against an
// unbiased one plus the bias added plane by plane afterwards, as the
// convolution did before it added the bias in its lanes. The plane counts
// span one lane's floor to several lanes' worth.
func TestPoolAndBiasBitIdenticalAcrossPoolSizes(t *testing.T) {
	pools := []*parallel.Pool{nil}
	for _, lanes := range []int{1, 2, 4} {
		pool := parallel.NewPool(lanes)
		defer pool.Close()
		pools = append(pools, pool)
	}
	for _, sh := range []struct{ n, c, h, w, k int }{
		{1, 1, 4, 4, 2},
		{4, 8, 16, 16, 2},
		{40, 8, 16, 16, 2},
		{6, 5, 9, 9, 3},
		{300, 4, 8, 8, 2},
		{480, 3, 4, 4, 4},
	} {
		x := New(sh.n, sh.c, sh.h, sh.w)
		roughFill(x.Data, 3)
		dout := New(sh.n, sh.c, sh.h/sh.k, sh.w/sh.k)
		roughFill(dout.Data, 5)
		outS, dxS := New(dout.Shape()...), New(x.Shape()...)
		AvgPool2D(nil, outS, x, sh.k)
		AvgPool2DGrad(nil, dxS, dout, sh.k)
		for pi, p := range pools {
			label := fmt.Sprintf("[N%d C%d %dx%d k%d]@pool#%d", sh.n, sh.c, sh.h, sh.w, sh.k, pi)
			out, dx := New(dout.Shape()...), New(x.Shape()...)
			equivFill(dx.Data, 7) // fully overwritten
			AvgPool2D(p, out, x, sh.k)
			AvgPool2DGrad(p, dx, dout, sh.k)
			requireBitEqual(t, "AvgPool2D"+label, outS, out)
			requireBitEqual(t, "AvgPool2DGrad"+label, dxS, dx)
		}
	}
	for _, sh := range convShapes {
		spec := ConvSpec{InChannels: sh.c, OutChannels: sh.out, KernelH: sh.kh, KernelW: sh.kh, Stride: sh.s, Pad: sh.pd}
		oh, ow := spec.OutSize(sh.h, sh.w)
		for _, fill := range convFills() {
			x := New(sh.n, sh.c, sh.h, sh.w)
			weight, bias := New(sh.out, sh.c, sh.kh, sh.kh), New(sh.out)
			fill.fill(x, 3)
			fill.operand(weight.Data, 5)
			roughFill(bias.Data, 7)
			ref := New(sh.n, sh.out, oh, ow)
			Conv2D(nil, ref, x, weight, nil, spec, NewScratch())
			for i := range ref.Data {
				ref.Data[i] += bias.Data[i/(oh*ow)%sh.out]
			}
			for pi, p := range pools {
				out := New(sh.n, sh.out, oh, ow)
				Conv2D(p, out, x, weight, bias, spec, NewScratch())
				requireBitEqual(t, fmt.Sprintf("biased Conv2D[N%d C%d->%d %dx%d %s]@pool#%d", sh.n, sh.c, sh.out, sh.h, sh.w, fill.name, pi), ref, out)
			}
		}
	}
}
