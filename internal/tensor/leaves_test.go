package tensor

import (
	"math"
	"testing"
)

// leafSpecials are the values whose arithmetic a vector routine most easily
// gets wrong: signed zeros, subnormals, infinities, NaN, extremes.
var leafSpecials = []float32{
	0, float32(math.Copysign(0, -1)),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
	math.Float32frombits(0x007fffff), -math.Float32frombits(0x00400001),
	float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
	math.MaxFloat32, -math.MaxFloat32, 1, -1,
}

// leafFill writes specials at pseudo-random places among full-mantissa
// values, whose products and sums round.
func leafFill(d []float32, seed uint64) {
	s := seed*0x9E3779B97F4A7C15 + 1
	for i := range d {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		if s%4 == 0 {
			d[i] = leafSpecials[(s>>8)%uint64(len(leafSpecials))]
			continue
		}
		d[i] = float32(int64(s>>11%4001)-2000) / 999 * roughScale
	}
}

// sameLeafBits reports whether a and b carry the same bits, or are both NaN:
// which NaN an invalid operation returns is not part of the contract.
func sameLeafBits(a, b float32) bool {
	if a != a || b != b {
		return a != a && b != b
	}
	return math.Float32bits(a) == math.Float32bits(b)
}

// leafCase runs one leaf and its Go twin on copies of the same operands.
type leafCase struct {
	name      string
	asm, twin func(y []float32, a0, a1 float32, xs [3][]float32)
}

var leafCases = []leafCase{
	{"axpy",
		func(y []float32, a, _ float32, xs [3][]float32) { axpy(y, a, xs[0]) },
		func(y []float32, a, _ float32, xs [3][]float32) { axpyGo(y, a, xs[0]) }},
	{"axpy2",
		func(y []float32, a0, a1 float32, xs [3][]float32) { axpy2(y, a0, xs[0], a1, xs[1]) },
		func(y []float32, a0, a1 float32, xs [3][]float32) { axpy2Go(y, a0, xs[0], a1, xs[1]) }},
	{"scale",
		func(y []float32, a, _ float32, xs [3][]float32) { scale(y, a, xs[0]) },
		func(y []float32, a, _ float32, xs [3][]float32) { scaleGo(y, a, xs[0]) }},
	{"axpyAdd",
		func(y []float32, a, _ float32, xs [3][]float32) { axpyAdd(y, xs[1], a, xs[0]) },
		func(y []float32, a, _ float32, xs [3][]float32) { axpyAddGo(y, xs[1], a, xs[0]) }},
}

// Each leaf ≡ its Go twin, bit for bit, at every length up to past two full
// eight-element passes and a four-element pass and a tail, at every
// alignment of its operands, with every special value as an operand and as
// the scalar; and writes nothing past len(y).
func TestLeavesMatchGoTwins(t *testing.T) {
	scalars := append([]float32{roughScale, -3 * roughScale, 1e-30}, leafSpecials...)
	const canary = 7.25
	for _, lc := range leafCases {
		for n := 0; n <= 67; n++ {
			for off := 0; off <= 3; off++ {
				for si, a0 := range scalars {
					a1 := scalars[(si+5)%len(scalars)]
					var xs [3][]float32
					for i := range xs {
						o := (off + i + 1) % 4
						buf := make([]float32, o+n)
						leafFill(buf, uint64(1000*n+10*off+i))
						xs[i] = buf[o:]
					}
					got := make([]float32, off+n+4)
					leafFill(got[off:off+n], uint64(7*n+off))
					for i := off + n; i < len(got); i++ {
						got[i] = canary
					}
					want := append([]float32(nil), got...)
					lc.asm(got[off:off+n], a0, a1, xs)
					lc.twin(want[off:off+n], a0, a1, xs)
					for i := range got {
						if !sameLeafBits(got[i], want[i]) {
							t.Fatalf("%s n=%d off=%d a=%v,%v: element %d = %v (%#x), Go twin %v (%#x)",
								lc.name, n, off, a0, a1, i-off, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
						}
					}
					for i := off + n; i < len(got); i++ {
						if got[i] != canary {
							t.Fatalf("%s n=%d off=%d wrote past y at %d", lc.name, n, off, i-off)
						}
					}
				}
			}
		}
	}
}

// mulAccT ≡ its Go twin, bit for bit, for every inner length m up to 67 at
// every alignment, with row counts that leave a tail past the four-row
// blocks and column counts that the leaf takes and that it leaves to Go.
func TestMulAccTMatchesGoTwin(t *testing.T) {
	for _, n := range []int{4, 8, 12, 5} {
		for _, rows := range []int{0, 1, 3, 4, 5, 8, 9} {
			for m := 0; m <= 67; m++ {
				for off := 0; off <= 3; off++ {
					col := make([]float32, off+rows*m)[off:]
					dT := make([]float32, (off+1)%4+m*n)[(off+1)%4:]
					leafFill(col, uint64(100*m+off))
					leafFill(dT, uint64(100*m+off+50))
					got := make([]float32, off+rows*n)[off:]
					leafFill(got, uint64(rows*n+m))
					want := append([]float32(nil), got...)
					mulAccT(got, col, dT, rows, m, n)
					mulAccTGo(want, col, dT, rows, m, n)
					for i := range got {
						if !sameLeafBits(got[i], want[i]) {
							t.Fatalf("mulAccT rows=%d m=%d n=%d off=%d: element %d = %v, Go twin %v", rows, m, n, off, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
	acc, col, dT := make([]float32, 8*4), make([]float32, 8*9), make([]float32, 9*4)
	if a := testing.AllocsPerRun(20, func() { mulAccT(acc, col, dT, 8, 9, 4) }); a != 0 {
		t.Errorf("mulAccT: %v allocations per call, want 0", a)
	}
}

// A wrapper reslices its operands to len(y) before the leaf runs: a short
// operand panics in Go, and a call allocates nothing.
func TestLeafWrappersCheckLengthsAndDoNotAllocate(t *testing.T) {
	y, x, r := make([]float32, 33), make([]float32, 33), make([]float32, 33)
	leafFill(x, 1)
	leafFill(r, 2)
	for _, lc := range leafCases {
		xs := [3][]float32{x, r, x}
		if n := testing.AllocsPerRun(20, func() { lc.asm(y, 1.5, -2, xs) }); n != 0 {
			t.Errorf("%s: %v allocations per call, want 0", lc.name, n)
		}
		for i := 0; i < 2; i++ {
			short := xs
			short[i] = short[i][:32:32]
			if lc.name != "axpy2" && lc.name != "axpyAdd" && i == 1 {
				continue // the second operand is unused
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: operand %d shorter than y did not panic", lc.name, i)
					}
				}()
				lc.asm(y, 1, 1, short)
			}()
		}
	}
}
