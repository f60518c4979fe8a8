package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewShapeAndLen(t *testing.T) {
	x := New(2, 3, 4)
	if x.Len() != 24 {
		t.Fatalf("Len = %d, want 24", x.Len())
	}
	if x.Rank() != 3 || x.Dim(0) != 2 || x.Dim(1) != 3 || x.Dim(2) != 4 {
		t.Fatalf("bad shape %v", x.Shape())
	}
	if x.Bytes() != 96 {
		t.Fatalf("Bytes = %d, want 96", x.Bytes())
	}
}

func TestNewNegativeDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative dimension")
		}
	}()
	New(2, -1)
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(2, 3)
	x.Set(7.5, 1, 2)
	if got := x.At(1, 2); got != 7.5 {
		t.Fatalf("At = %v, want 7.5", got)
	}
	if got := x.Data[1*3+2]; got != 7.5 {
		t.Fatalf("flat index = %v, want 7.5", got)
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	x := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range index")
		}
	}()
	x.At(2, 0)
}

func TestCloneIndependence(t *testing.T) {
	x := New(3)
	x.Fill(1)
	y := x.Clone()
	y.Data[0] = 9
	if x.Data[0] != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestReshapeSharesData(t *testing.T) {
	x := New(2, 6)
	x.Data[5] = 3
	y := x.Reshape(3, 4)
	if y.Data[5] != 3 {
		t.Fatal("Reshape must share data")
	}
	y.Data[0] = 1
	if x.Data[0] != 1 {
		t.Fatal("Reshape view write not visible in original")
	}
}

func TestReshapeWrongVolumePanics(t *testing.T) {
	x := New(2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	x.Reshape(4, 2)
}

func TestFromSlice(t *testing.T) {
	d := []float32{1, 2, 3, 4}
	x := FromSlice(d, 2, 2)
	if x.At(1, 0) != 3 {
		t.Fatalf("At(1,0) = %v, want 3", x.At(1, 0))
	}
	x.Data[0] = 9
	if d[0] != 9 {
		t.Fatal("FromSlice must wrap, not copy")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3}, 3)
	b := FromSlice([]float32{4, 5, 6}, 3)
	dst := New(3)
	Add(dst, a, b)
	if dst.Data[2] != 9 {
		t.Fatalf("Add = %v", dst.Data)
	}
	Sub(dst, b, a)
	if dst.Data[0] != 3 {
		t.Fatalf("Sub = %v", dst.Data)
	}
	Mul(dst, a, b)
	if dst.Data[1] != 10 {
		t.Fatalf("Mul = %v", dst.Data)
	}
	Scale(dst, a, 2)
	if dst.Data[2] != 6 {
		t.Fatalf("Scale = %v", dst.Data)
	}
	AXPY(dst, 10, a) // dst = 2a + 10a = 12a
	if dst.Data[0] != 12 {
		t.Fatalf("AXPY = %v", dst.Data)
	}
	if got := Sum(a); got != 6 {
		t.Fatalf("Sum = %v", got)
	}
	if got := Dot(a, b); got != 32 {
		t.Fatalf("Dot = %v", got)
	}
	if got := Mean(a); got != 2 {
		t.Fatalf("Mean = %v", got)
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	a, b := New(3), New(4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	Add(a, a, b)
}

func TestNorm2AndMaxAbs(t *testing.T) {
	x := FromSlice([]float32{3, -4}, 2)
	if got := Norm2(x); math.Abs(float64(got)-5) > 1e-6 {
		t.Fatalf("Norm2 = %v, want 5", got)
	}
	if got := MaxAbs(x); got != 4 {
		t.Fatalf("MaxAbs = %v, want 4", got)
	}
}

func TestCountNonZero(t *testing.T) {
	x := FromSlice([]float32{0, 1, 0, 2, 0}, 5)
	if got := CountNonZero(x); got != 2 {
		t.Fatalf("CountNonZero = %d, want 2", got)
	}
}

func TestClampApply(t *testing.T) {
	x := FromSlice([]float32{-2, 0.5, 3}, 3)
	Clamp(x, 0, 1)
	if x.Data[0] != 0 || x.Data[1] != 0.5 || x.Data[2] != 1 {
		t.Fatalf("Clamp = %v", x.Data)
	}
	Apply(x, func(v float32) float32 { return v * 2 })
	if x.Data[2] != 2 {
		t.Fatalf("Apply = %v", x.Data)
	}
}

func TestIsFinite(t *testing.T) {
	x := New(2)
	if !x.IsFinite() {
		t.Fatal("zero tensor should be finite")
	}
	x.Data[1] = float32(math.NaN())
	if x.IsFinite() {
		t.Fatal("NaN tensor reported finite")
	}
}

// TestConv2DBiasAndSumPerChannel checks Conv2D's per-channel bias on both of
// its paths: an all-zero image takes the empty gather, an all-one image the
// dense one. The 1×1 identity kernel makes the output x + bias.
func TestConv2DBiasAndSumPerChannel(t *testing.T) {
	spec := ConvSpec{InChannels: 3, OutChannels: 3, KernelH: 1, KernelW: 1, Stride: 1}
	weight := New(3, 3, 1, 1)
	for c := 0; c < 3; c++ {
		weight.Set(1, c, c, 0, 0)
	}
	bias := FromSlice([]float32{1, 2, 3}, 3)
	for _, v := range []float32{0, 1} {
		x := New(2, 3, 2, 2)
		x.Fill(v)
		out := New(2, 3, 2, 2)
		Conv2D(nil, out, x, weight, bias, spec, nil)
		if out.At(0, 1, 0, 0) != v+2 || out.At(1, 2, 1, 1) != v+3 {
			t.Fatalf("x=%v: Conv2D bias wrong: %v", v, out.Data)
		}
		db := New(3)
		SumPerChannel(db, out)
		// each channel c has value v+c+1 at 2 images × 4 positions
		for c := 0; c < 3; c++ {
			if want := 8 * (v + float32(c+1)); db.Data[c] != want {
				t.Fatalf("x=%v: SumPerChannel[%d] = %v, want %v", v, c, db.Data[c], want)
			}
		}
	}
}

func TestAddRowBiasAndSumPerColumn(t *testing.T) {
	x := New(3, 2)
	bias := FromSlice([]float32{10, 20}, 2)
	AddRowBias(x, bias)
	if x.At(2, 1) != 20 {
		t.Fatalf("AddRowBias = %v", x.Data)
	}
	dc := New(2)
	SumPerColumn(dc, x)
	if dc.Data[0] != 30 || dc.Data[1] != 60 {
		t.Fatalf("SumPerColumn = %v", dc.Data)
	}
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	dst := New(2, 2)
	MatMul(nil, dst, a, b)
	want := []float32{58, 64, 139, 154}
	for i := range want {
		if dst.Data[i] != want[i] {
			t.Fatalf("MatMul = %v, want %v", dst.Data, want)
		}
	}
}

// matmulNaive is an independent reference implementation for cross-checking.
func matmulNaive(a, b *Tensor) *Tensor {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for kk := 0; kk < k; kk++ {
				s += a.At(i, kk) * b.At(kk, j)
			}
			out.Set(s, i, j)
		}
	}
	return out
}

func TestMatMulMatchesNaive(t *testing.T) {
	r := NewRNG(42)
	for trial := 0; trial < 5; trial++ {
		m, k, n := 1+r.Intn(9), 1+r.Intn(9), 1+r.Intn(9)
		a, b := New(m, k), New(k, n)
		r.FillNorm(a, 0, 1)
		r.FillNorm(b, 0, 1)
		got := New(m, n)
		MatMul(nil, got, a, b)
		want := matmulNaive(a, b)
		for i := range got.Data {
			if math.Abs(float64(got.Data[i]-want.Data[i])) > 1e-4 {
				t.Fatalf("trial %d: MatMul[%d] = %v, want %v", trial, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestMatMulTransA(t *testing.T) {
	r := NewRNG(7)
	k, m, n := 4, 3, 5
	a, b := New(k, m), New(k, n)
	r.FillNorm(a, 0, 1)
	r.FillNorm(b, 0, 1)
	got := New(m, n)
	MatMulTransA(nil, got, a, b)
	// reference: transpose a then naive
	at := New(m, k)
	for i := 0; i < k; i++ {
		for j := 0; j < m; j++ {
			at.Set(a.At(i, j), j, i)
		}
	}
	want := matmulNaive(at, b)
	for i := range got.Data {
		if math.Abs(float64(got.Data[i]-want.Data[i])) > 1e-4 {
			t.Fatalf("MatMulTransA mismatch at %d", i)
		}
	}
}

func TestMatMulTransB(t *testing.T) {
	r := NewRNG(8)
	m, k, n := 3, 4, 5
	a, b := New(m, k), New(n, k)
	r.FillNorm(a, 0, 1)
	r.FillNorm(b, 0, 1)
	got := New(m, n)
	MatMulTransB(nil, got, a, b)
	bt := New(k, n)
	for i := 0; i < n; i++ {
		for j := 0; j < k; j++ {
			bt.Set(b.At(i, j), j, i)
		}
	}
	want := matmulNaive(a, bt)
	for i := range got.Data {
		if math.Abs(float64(got.Data[i]-want.Data[i])) > 1e-4 {
			t.Fatalf("MatMulTransB mismatch at %d", i)
		}
	}
}

func TestMatMulAccAccumulates(t *testing.T) {
	a := FromSlice([]float32{1}, 1, 1)
	b := FromSlice([]float32{2}, 1, 1)
	dst := FromSlice([]float32{10}, 1, 1)
	MatMulAcc(nil, dst, a, b)
	if dst.Data[0] != 12 {
		t.Fatalf("MatMulAcc = %v, want 12", dst.Data[0])
	}
}

// Property: matmul distributes over addition, (a1+a2)b = a1 b + a2 b.
func TestMatMulDistributiveProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		m, k, n := 1+r.Intn(6), 1+r.Intn(6), 1+r.Intn(6)
		a1, a2, b := New(m, k), New(m, k), New(k, n)
		r.FillNorm(a1, 0, 1)
		r.FillNorm(a2, 0, 1)
		r.FillNorm(b, 0, 1)
		sum := New(m, k)
		Add(sum, a1, a2)
		lhs := New(m, n)
		MatMul(nil, lhs, sum, b)
		r1, r2 := New(m, n), New(m, n)
		MatMul(nil, r1, a1, b)
		MatMul(nil, r2, a2, b)
		rhs := New(m, n)
		Add(rhs, r1, r2)
		for i := range lhs.Data {
			if math.Abs(float64(lhs.Data[i]-rhs.Data[i])) > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(123), NewRNG(123)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	c := NewRNG(124)
	if NewRNG(123).Uint64() == c.Uint64() {
		t.Fatal("different seeds produced identical first draw")
	}
}

func TestRNGDeriveIndependent(t *testing.T) {
	r := NewRNG(5)
	d1 := r.Derive(1)
	d2 := r.Derive(2)
	if d1.Uint64() == d2.Uint64() {
		t.Fatal("derived streams should differ")
	}
	// Deriving must not perturb the parent sequence.
	r2 := NewRNG(5)
	if r.Uint64() != r2.Uint64() {
		t.Fatal("Derive perturbed parent stream")
	}
}

func TestRNGUniformRange(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 1000; i++ {
		v := r.Float32()
		if v < 0 || v >= 1 {
			t.Fatalf("Float32 out of range: %v", v)
		}
	}
}

func TestRNGNormMoments(t *testing.T) {
	r := NewRNG(11)
	n := 20000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := float64(r.Norm())
		sum += v
		sumsq += v * v
	}
	mean := sum / float64(n)
	variance := sumsq/float64(n) - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.1 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestRNGBernoulliRate(t *testing.T) {
	r := NewRNG(13)
	n, hits := 10000, 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) == 1 {
			hits++
		}
	}
	rate := float64(hits) / float64(n)
	if math.Abs(rate-0.3) > 0.03 {
		t.Fatalf("Bernoulli(0.3) rate = %v", rate)
	}
}

func TestKaimingInitBounds(t *testing.T) {
	r := NewRNG(17)
	w := New(8, 4, 3, 3)
	r.KaimingConv(w)
	bound := float32(math.Sqrt(6.0 / float64(4*3*3)))
	for _, v := range w.Data {
		if v < -bound || v > bound {
			t.Fatalf("KaimingConv value %v outside ±%v", v, bound)
		}
	}
	lw := New(10, 20)
	r.KaimingLinear(lw)
	lb := float32(math.Sqrt(6.0 / 20.0))
	for _, v := range lw.Data {
		if v < -lb || v > lb {
			t.Fatalf("KaimingLinear value %v outside ±%v", v, lb)
		}
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	r := NewRNG(19)
	x := New(4, 7)
	r.FillNorm(x, 0, 3)
	p := New(4, 7)
	Softmax(p, x)
	for i := 0; i < 4; i++ {
		var s float32
		for j := 0; j < 7; j++ {
			v := p.At(i, j)
			if v < 0 || v > 1 {
				t.Fatalf("softmax out of [0,1]: %v", v)
			}
			s += v
		}
		if math.Abs(float64(s)-1) > 1e-4 {
			t.Fatalf("softmax row %d sums to %v", i, s)
		}
	}
}

func TestSoftmaxShiftInvariance(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3}, 1, 3)
	y := FromSlice([]float32{101, 102, 103}, 1, 3)
	px, py := New(1, 3), New(1, 3)
	Softmax(px, x)
	Softmax(py, y)
	for i := range px.Data {
		if math.Abs(float64(px.Data[i]-py.Data[i])) > 1e-5 {
			t.Fatal("softmax not shift invariant")
		}
	}
}

func TestCrossEntropyGradient(t *testing.T) {
	// Finite-difference check of dlogits.
	r := NewRNG(23)
	n, k := 3, 5
	logits := New(n, k)
	r.FillNorm(logits, 0, 1)
	labels := []int{1, 4, 0}
	grad := New(n, k)
	loss0, _ := CrossEntropy(logits, labels, grad)
	eps := float32(1e-3)
	for i := 0; i < n*k; i++ {
		old := logits.Data[i]
		logits.Data[i] = old + eps
		lp, _ := CrossEntropy(logits, labels, nil)
		logits.Data[i] = old - eps
		lm, _ := CrossEntropy(logits, labels, nil)
		logits.Data[i] = old
		fd := (lp - lm) / (2 * float64(eps))
		if math.Abs(fd-float64(grad.Data[i])) > 1e-3 {
			t.Fatalf("CE grad[%d] = %v, finite-diff %v (loss %v)", i, grad.Data[i], fd, loss0)
		}
	}
}

func TestCrossEntropyAccuracyCount(t *testing.T) {
	logits := FromSlice([]float32{
		10, 0, 0,
		0, 10, 0,
		0, 10, 0,
	}, 3, 3)
	_, correct := CrossEntropy(logits, []int{0, 1, 2}, nil)
	if correct != 2 {
		t.Fatalf("correct = %d, want 2", correct)
	}
}

func TestArgmax(t *testing.T) {
	x := FromSlice([]float32{1, 5, 2, 9, 0, 3}, 2, 3)
	got := Argmax(x)
	if got[0] != 1 || got[1] != 0 {
		t.Fatalf("Argmax = %v", got)
	}
}

func TestVolume(t *testing.T) {
	if Volume([]int{2, 3, 4}) != 24 {
		t.Fatal("Volume wrong")
	}
	if Volume(nil) != 1 {
		t.Fatal("Volume(nil) should be 1")
	}
}

// fillSpikes fills d with a deterministic 0/1 pattern at roughly the given
// spike density (xorshift, no time or math/rand dependency).
func fillSpikes(d []float32, seed uint64, density float64) {
	s := seed*0x9E3779B97F4A7C15 + 1
	thr := uint64(density * float64(1<<32))
	for i := range d {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		if s&0xFFFFFFFF < thr {
			d[i] = 1
		} else {
			d[i] = 0
		}
	}
}
