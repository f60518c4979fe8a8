package runstate

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"runtime"
	"strings"
	"testing"
	"time"

	"skipper/internal/core"
	"skipper/internal/models"
	"skipper/internal/tensor"
)

// lenetSession is the encoded record of a lenet stream three steps in, as a
// serving session snapshots it.
func lenetSession(tb testing.TB) []byte {
	tb.Helper()
	net, err := models.Build("lenet", models.Options{Width: 0.5})
	if err != nil {
		tb.Fatal(err)
	}
	s := core.NewStreamState(net, 2)
	rng := tensor.NewRNG(5)
	for i := 0; i < 3; i++ {
		x := tensor.New(append([]int{2}, net.InShape...)...)
		for j := range x.Data {
			x.Data[j] = rng.Bernoulli(0.3)
		}
		s.StepInput(x)
	}
	rec, err := NewSessionRecord(SessionMeta{
		SavedAt: time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC), ID: "lenet-1", Window: 3, Steps: s.Steps(), Batch: 2, Seed: 9,
	}, s.Capture())
	if err != nil {
		tb.Fatal(err)
	}
	raw, err := rec.Encode()
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// A version 2 snapshot holds each stateful layer's membrane and nothing
// else; a version 1 record, which also held the spikes, is refused by its
// version before anything is restored from it.
func TestSessionRecordV1Refused(t *testing.T) {
	raw := lenetSession(t)
	rec, err := DecodeSession(raw)
	if err != nil {
		t.Fatal(err)
	}
	states, err := rec.States()
	if err != nil {
		t.Fatal(err)
	}
	var v1 []tensor.Named
	for _, n := range states {
		if !strings.HasSuffix(n.Name, ".u") {
			t.Fatalf("snapshot holds %s: a record is its membranes", n.Name)
		}
		o := n.T.Clone()
		v1 = append(v1, n, tensor.Named{Name: strings.TrimSuffix(n.Name, ".u") + ".o", T: o})
	}
	old, err := NewSessionRecord(rec.Meta, v1)
	if err != nil {
		t.Fatal(err)
	}
	raw1, err := old.Encode()
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(raw1[len(sessionMagic):], 1)
	binary.LittleEndian.PutUint32(raw1[len(raw1)-4:], crc32.ChecksumIEEE(raw1[:len(raw1)-4]))
	if _, err := DecodeSession(raw1); err == nil || !strings.Contains(err.Error(), "unsupported session record version 1") {
		t.Fatalf("v1 record: got %v, want the version error", err)
	}
}

// allocBound is what decoding n bytes may allocate: a small multiple of the
// input plus a constant, never a size an input field merely claims.
func allocBound(n int) uint64 { return 16*uint64(n) + 64<<10 }

// allocated returns the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// DecodeSession never panics, allocates within a bound proportional to its
// input, and re-encodes whatever it accepts to the very bytes it read; the
// membrane tensors inside load the same way (FuzzLoadTensors).
func FuzzDecodeSession(f *testing.F) {
	raw := lenetSession(f)
	f.Add(raw)
	f.Add(raw[:len(raw)/2])
	f.Fuzz(func(t *testing.T, raw []byte) {
		var rec *SessionRecord
		var err error
		if n := allocated(func() { rec, err = DecodeSession(raw) }); n > allocBound(len(raw)) {
			t.Fatalf("decoding %d bytes allocated %d", len(raw), n)
		}
		if err != nil {
			return
		}
		enc, err := rec.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, raw) {
			t.Fatalf("decode→encode changed the record: %d bytes in, %d out", len(raw), len(enc))
		}
	})
}
