package frame

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"

	"skipper/internal/faults"
)

// TestTruncationEveryBoundary cuts a valid frame at every byte offset and
// flips every byte: Read must reject all of them and accept only the intact
// frame.
func TestTruncationEveryBoundary(t *testing.T) {
	payload := []byte(`{"round":3,"reason":"x"}`)
	var buf bytes.Buffer
	if err := Write(&buf, 7, payload); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut++ {
		if _, _, err := Read(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("accepted frame truncated to %d of %d bytes", cut, len(full))
		}
	}
	for i := range full {
		corrupt := append([]byte(nil), full...)
		corrupt[i] ^= 0x01
		if _, _, err := Read(bytes.NewReader(corrupt)); err == nil {
			t.Fatalf("accepted frame with byte %d flipped", i)
		}
	}
	typ, p, err := Read(bytes.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	if typ != 7 || !bytes.Equal(p, payload) {
		t.Fatalf("round-trip mismatch: type %d payload %q", typ, p)
	}
}

// TestFaultConnCutEveryBoundary repeats the truncation sweep over a live
// pipe with the faults.Conn write-budget seam — the reader end must see a
// clean error for every possible cut point, exactly as it would if the peer
// process died mid-write.
func TestFaultConnCutEveryBoundary(t *testing.T) {
	payload := []byte(`{"round":1}`)
	var ref bytes.Buffer
	if err := Write(&ref, 7, payload); err != nil {
		t.Fatal(err)
	}
	n := ref.Len()
	for cut := 0; cut < n; cut++ {
		a, b := net.Pipe()
		fc := faults.NewConn(a)
		fc.FailWritesAfter(int64(cut))
		fc.CloseOnFault(true)
		werr := make(chan error, 1)
		go func() { werr <- Write(fc, 7, payload) }()
		if _, _, err := Read(b); err == nil {
			t.Fatalf("reader accepted frame cut at byte %d of %d", cut, n)
		}
		if err := <-werr; err == nil {
			t.Fatalf("writer did not observe the injected fault at cut %d", cut)
		}
		a.Close()
		b.Close()
	}
}

// TestEmptyPayload round-trips a zero-length payload (ping-style frames).
func TestEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, 1, nil); err != nil {
		t.Fatal(err)
	}
	typ, p, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != 1 || len(p) != 0 {
		t.Fatalf("round-trip mismatch: type %d payload %q", typ, p)
	}
}

// TestLargePayloadReadsInGrowingBuffer round-trips a payload several times
// larger than Read sizes from the header alone, and cuts it at points on
// either side of each buffer growth: every cut is an unexpected EOF.
func TestLargePayloadReadsInGrowingBuffer(t *testing.T) {
	payload := make([]byte, 5*exactRead+123)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	var buf bytes.Buffer
	if err := Write(&buf, 3, payload); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	typ, p, err := Read(bytes.NewReader(full))
	if err != nil || typ != 3 || !bytes.Equal(p, payload) {
		t.Fatalf("round-trip: type %d, %d bytes, err %v", typ, len(p), err)
	}
	for _, cut := range []int{10, 9 + exactRead, 10 + exactRead, 9 + 2*exactRead, 10 + 4*exactRead, len(full) - 1} {
		if _, _, err := Read(bytes.NewReader(full[:cut])); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d of %d: err %v, want unexpected EOF", cut, len(full), err)
		}
	}
}
