package dist

import (
	"math"
	"math/rand"
	"testing"

	"skipper/internal/tensor"
)

func namedSet(t *testing.T, sizes ...int) []tensor.Named {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	var out []tensor.Named
	for i, n := range sizes {
		tt := tensor.New(n)
		for j := range tt.Data {
			tt.Data[j] = float32(rng.NormFloat64())
		}
		out = append(out, tensor.Named{Name: string(rune('a' + i)), T: tt})
	}
	return out
}

// snapshot→copyIn/addIn must be exact inverses over tensor boundaries.
func TestFlatGradsBucketsTileAndRoundTrip(t *testing.T) {
	grads := namedSet(t, 7, 1, 16, 3)
	f := newFlatGrads(grads)
	if f.size() != 27 {
		t.Fatalf("size = %d, want 27", f.size())
	}

	// Round trip through a snapshot: snapshot, zero, copyIn restores bits.
	want := f.snapshot()
	f.copyIn(make([]float32, f.size()))
	f.copyIn(want)
	got := f.snapshot()
	for i := range want {
		if math.Float32bits(want[i]) != math.Float32bits(got[i]) {
			t.Fatalf("flat[%d] changed: % x -> % x", i, want[i], got[i])
		}
	}

	// addIn performs data[i] += src[i].
	ones := make([]float32, f.size())
	for i := range ones {
		ones[i] = 1
	}
	f.addIn(ones)
	for i, v := range f.snapshot() {
		if v != want[i]+1 {
			t.Fatalf("addIn flat[%d] = %v, want %v", i, v, want[i]+1)
		}
	}
}

func TestParamSigDetectsShapeAndOrder(t *testing.T) {
	a := namedSet(t, 4, 6)
	b := namedSet(t, 4, 6)
	if paramSig(a) != paramSig(b) {
		t.Fatal("identical layouts produced different signatures")
	}
	c := namedSet(t, 6, 4)
	if paramSig(a) == paramSig(c) {
		t.Fatal("different shapes produced the same signature")
	}
	swapped := []tensor.Named{a[1], a[0]}
	if paramSig(a) == paramSig(swapped) {
		t.Fatal("reordered params produced the same signature")
	}
}

// The codec must round-trip every bit pattern exactly — including −0.0,
// denormals, and NaN — for all-zero, near-zero, and dense inputs.
func TestFloatCodecExactRoundTrip(t *testing.T) {
	nan := math.Float32frombits(0x7fc00001)
	cases := []struct {
		name string
		vals []float32
	}{
		{"all_zero_dense", make([]float32, 1000)},
		{"dense_random", nil}, // filled below
		{"mostly_zero", func() []float32 {
			v := make([]float32, 997)
			v[3] = 1.5
			v[40] = math.Float32frombits(1)        // smallest denormal
			v[500] = float32(math.Copysign(0, -1)) // −0.0 is a nonzero bit pattern
			v[996] = nan
			return v
		}()},
		{"empty", nil},
		{"single", []float32{3.25}},
	}
	rng := rand.New(rand.NewSource(7))
	dense := make([]float32, 512)
	for i := range dense {
		dense[i] = float32(rng.NormFloat64())
	}
	cases[1].vals = dense

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			buf := encodeFloats(tc.vals)
			if buf[0] != wireDense || len(buf) != floatsWireLen(len(tc.vals)) {
				t.Fatalf("mode %d, %d bytes; want mode %d, %d bytes", buf[0], len(buf), wireDense, floatsWireLen(len(tc.vals)))
			}
			out := make([]float32, len(tc.vals))
			for i := range out {
				out[i] = 99 // decode must overwrite every slot
			}
			if err := decodeFloats(buf, out); err != nil {
				t.Fatal(err)
			}
			for i := range tc.vals {
				if math.Float32bits(out[i]) != math.Float32bits(tc.vals[i]) {
					t.Fatalf("bit %d: %08x != %08x", i, math.Float32bits(out[i]), math.Float32bits(tc.vals[i]))
				}
			}
		})
	}
}

// Truncated or corrupted payloads must fail loudly, never mis-decode.
func TestFloatCodecRejectsMalformed(t *testing.T) {
	vals := make([]float32, 64)
	vals[7] = 2.5
	buf := encodeFloats(vals)
	for cut := 0; cut < len(buf); cut++ {
		if err := decodeFloats(buf[:cut], make([]float32, 64)); err == nil {
			t.Fatalf("accepted truncation to %d of %d bytes", cut, len(buf))
		}
	}
	if err := decodeFloats(buf, make([]float32, 63)); err == nil {
		t.Fatal("accepted wrong destination length")
	}
	if err := decodeFloats([]byte{9, 0, 0, 0, 0}, nil); err == nil {
		t.Fatal("accepted unknown mode byte")
	}
}
