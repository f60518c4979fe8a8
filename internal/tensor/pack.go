package tensor

import (
	"fmt"
	"math/bits"
)

// PackedSpikes is a bit-packed binary tensor: exactly-0/1 float32 data
// stored one bit per element. Spike tensors dominate a stored SNN timestep
// record, and packing them shrinks that share 32× (a storage format beyond
// the paper; see core.Config.CompressSpikes). A PackedSpikes is immutable
// after construction.
type PackedSpikes struct {
	shape []int
	n     int
	bits  []uint64
}

// PackSpikes bit-packs t when every element is exactly 0 or 1; ok reports
// whether packing applied (non-binary tensors — membranes, pooled rates —
// are left to their float representation). The binarity scan runs before
// any allocation, so rejected tensors cost no garbage: every checkpoint
// record probes its membrane tensors through here, and those probes must
// stay allocation-free.
func PackSpikes(t *Tensor) (*PackedSpikes, bool) {
	for _, v := range t.Data {
		if v != 0 && v != 1 {
			return nil, false
		}
	}
	n := t.Len()
	bits := make([]uint64, (n+63)/64)
	// Word-at-a-time build: each output word gathers its 64 source floats,
	// so the per-element work is one compare and one shift-or.
	for wi := range bits {
		base := wi * 64
		end := base + 64
		if end > n {
			end = n
		}
		var w uint64
		for i, v := range t.Data[base:end] {
			if v != 0 {
				w |= 1 << uint(i)
			}
		}
		bits[wi] = w
	}
	return &PackedSpikes{shape: append([]int(nil), t.Shape()...), n: n, bits: bits}, true
}

// Unpack reconstructs the original float32 tensor.
func (p *PackedSpikes) Unpack() *Tensor {
	t := New(p.shape...)
	p.UnpackInto(t)
	return t
}

// UnpackInto expands the packed bits into dst, which must have p.Len()
// elements (its shape is not checked). dst is fully overwritten. The
// expansion walks whole words and skips empty ones — in the sparse
// late-timestep regime most words are zero, so the common cost is one
// word-compare per 64 elements on an already-zeroed tensor.
func (p *PackedSpikes) UnpackInto(dst *Tensor) {
	if dst.Len() != p.n {
		panic(fmt.Sprintf("tensor: UnpackInto length %d, packed holds %d", dst.Len(), p.n))
	}
	d := dst.Data
	for i := range d {
		d[i] = 0
	}
	for wi, w := range p.bits {
		if w == 0 {
			continue
		}
		base := wi * 64
		for w != 0 {
			d[base+bits.TrailingZeros64(w)] = 1
			w &= w - 1
		}
	}
}

// Bytes returns the packed payload size.
func (p *PackedSpikes) Bytes() int64 { return int64(len(p.bits)) * 8 }

// Len returns the element count of the original tensor.
func (p *PackedSpikes) Len() int { return p.n }

// Shape returns the original shape. The returned slice must not be mutated.
func (p *PackedSpikes) Shape() []int { return p.shape }

// Bit reports whether element i of the original tensor was 1.
func (p *PackedSpikes) Bit(i int) bool {
	return p.bits[i>>6]&(1<<uint(i&63)) != 0
}

// Count returns the number of set bits (spikes). For a binary tensor this
// equals the float spike-sum exactly (integer counts are exact in float64
// far beyond any tensor size we hold).
func (p *PackedSpikes) Count() int {
	c := 0
	for _, w := range p.bits {
		c += bits.OnesCount64(w)
	}
	return c
}

// String renders a compact description.
func (p *PackedSpikes) String() string {
	return fmt.Sprintf("PackedSpikes%v[%d spikes]", p.shape, p.Count())
}
