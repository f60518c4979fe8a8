// Package frame is the CRC-framed wire envelope shared by every skipper
// subsystem that speaks a framed byte stream: the distributed-training
// protocol (internal/dist), the serving fleet's router↔replica data path
// (internal/serve), and the router peer-gossip channel (internal/router).
// Callers own their type-byte namespace; the envelope never interprets typ.
//
// The layout is
//
//	magic "SKPF" | type u8 | payload len u32 | payload | crc32 (IEEE)
//
// with the checksum covering everything before it.
package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

const (
	magic = "SKPF"
	// MaxPayload caps any length header read off the wire before it sizes an
	// allocation — the same hostile-header rule serialize enforces.
	MaxPayload = 1 << 28
)

// ErrBad reports a malformed envelope: wrong magic, an implausible length,
// or a checksum mismatch. It is permanent — the stream cannot be
// re-synchronized after it.
var ErrBad = errors.New("frame: bad frame")

// Write sends one message as a single envelope. The frame is assembled in
// one buffer and written with a single Write so byte-budget fault injection
// cuts it at deterministic offsets.
func Write(w io.Writer, typ byte, payload []byte) error {
	if len(payload) > MaxPayload {
		return fmt.Errorf("%w: payload %d exceeds %d", ErrBad, len(payload), MaxPayload)
	}
	buf := make([]byte, 0, len(magic)+5+len(payload)+4)
	buf = append(buf, magic...)
	buf = append(buf, typ)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("frame: writing: %w", err)
	}
	return nil
}

// Read reads and verifies one message envelope.
func Read(r io.Reader) (byte, []byte, error) {
	head := make([]byte, len(magic)+5)
	if _, err := io.ReadFull(r, head); err != nil {
		return 0, nil, fmt.Errorf("frame: reading header: %w", err)
	}
	if string(head[:len(magic)]) != magic {
		return 0, nil, fmt.Errorf("%w: magic %q", ErrBad, head[:len(magic)])
	}
	typ := head[len(magic)]
	n := binary.LittleEndian.Uint32(head[len(magic)+1:])
	if n > MaxPayload {
		return 0, nil, fmt.Errorf("%w: payload length %d", ErrBad, n)
	}
	rest, err := readN(r, int(n)+4)
	if err != nil {
		return 0, nil, fmt.Errorf("frame: reading payload: %w", err)
	}
	payload, tail := rest[:n], rest[n:]
	sum := crc32.ChecksumIEEE(head)
	sum = crc32.Update(sum, crc32.IEEETable, payload)
	if sum != binary.LittleEndian.Uint32(tail) {
		return 0, nil, fmt.Errorf("%w: checksum mismatch", ErrBad)
	}
	return typ, payload, nil
}

// exactRead is the largest read readN sizes from the length header alone:
// it covers the serving fleet's request frames, and leaves a lying header's
// cost, with Read's own header and error allocations, well inside 64 KiB.
const exactRead = 32 << 10

// readN reads exactly size bytes, with io.ReadFull's errors. Up to exactRead
// it allocates them at once; beyond that the buffer doubles as the bytes
// arrive, so a header that claims more than the stream holds costs what
// was sent, not what was claimed.
func readN(r io.Reader, size int) ([]byte, error) {
	buf := make([]byte, min(size, exactRead))
	for got := 0; ; {
		n, err := io.ReadFull(r, buf[got:])
		got += n
		if err == io.EOF && got > 0 {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return nil, err
		}
		if got == size {
			return buf, nil
		}
		next := make([]byte, got+min(got, size-got))
		copy(next, buf)
		buf = next
	}
}
