package frame

import (
	"bytes"
	"runtime"
	"testing"
)

// seedFrames are frame_test.go's frames, written as Write writes them.
func seedFrames(tb testing.TB) [][]byte {
	tb.Helper()
	var out [][]byte
	for _, f := range []struct {
		typ     byte
		payload []byte
	}{{7, []byte(`{"round":3,"reason":"x"}`)}, {7, []byte(`{"round":1}`)}, {1, nil}} {
		var buf bytes.Buffer
		if err := Write(&buf, f.typ, f.payload); err != nil {
			tb.Fatal(err)
		}
		out = append(out, buf.Bytes())
	}
	return out
}

// Read never panics, allocates within a bound proportional to the bytes it
// was given whatever the length header claims, and an accepted frame
// re-encodes through Write to the very bytes it consumed.
func FuzzFrameRead(f *testing.F) {
	for _, raw := range seedFrames(f) {
		f.Add(raw)
		f.Add(raw[:len(raw)-1])
	}
	// A bare header that claims the largest payload Read accepts.
	f.Add([]byte{'S', 'K', 'P', 'F', 7, 0, 0, 0, 0x10})
	f.Fuzz(func(t *testing.T, raw []byte) {
		r := bytes.NewReader(raw)
		var typ byte
		var payload []byte
		var err error
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		typ, payload, err = Read(r)
		runtime.ReadMemStats(&after)
		if n, bound := after.TotalAlloc-before.TotalAlloc, 16*uint64(len(raw))+64<<10; n > bound {
			t.Fatalf("reading %d bytes allocated %d", len(raw), n)
		}
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := Write(&out, typ, payload); err != nil {
			t.Fatal(err)
		}
		if consumed := raw[:len(raw)-r.Len()]; !bytes.Equal(out.Bytes(), consumed) {
			t.Fatalf("read→write changed the frame: %d bytes in, %d out", len(consumed), out.Len())
		}
	})
}

// DecodeCorr never panics, and an accepted envelope re-encodes through
// EncodeCorr to the same bytes.
func FuzzDecodeCorr(f *testing.F) {
	for i, raw := range seedFrames(f) {
		f.Add(EncodeCorr(uint64(i)<<40|uint64(i), raw[4], raw[9:len(raw)-4]))
	}
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, buf []byte) {
		corr, typ, payload, err := DecodeCorr(buf)
		if err != nil {
			return
		}
		if out := EncodeCorr(corr, typ, payload); !bytes.Equal(out, buf) {
			t.Fatalf("decode→encode changed the envelope: %x → %x", buf, out)
		}
	})
}
