// Package tensor implements the dense float32 tensor substrate used by the
// SNN training framework. Tensors are contiguous, row-major, and carry an
// explicit shape; the package provides the elementwise, matrix, convolution,
// and pooling kernels that the spiking layers build their forward and
// backward passes from.
//
// The package is deliberately free of any dependency on the device memory
// model: accounting happens at the layer/engine level, where the lifecycle of
// each tensor (weight, activation record, workspace) is known.
package tensor

import (
	"fmt"
	"math"
	"strings"
)

// Tensor is a dense, contiguous, row-major float32 array with a shape.
// The zero value is an empty tensor.
type Tensor struct {
	shape []int
	Data  []float32
	// dims holds the shape of ranks up to 4 (every layer's), so a tensor
	// header is one allocation.
	dims [4]int
}

// header returns a tensor over data with a copy of shape.
func header(shape []int, data []float32) *Tensor {
	t := &Tensor{Data: data}
	t.shape = append(t.dims[:0], shape...)
	return t
}

// New returns a zero-filled tensor with the given shape. It panics on
// negative dimensions (a programming error, not a runtime condition).
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			// A copy, so that shape itself does not escape and a caller's
			// stack array can carry it.
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, append([]int(nil), shape...)))
		}
		n *= d
	}
	return header(shape, make([]float32, n))
}

// FromSlice wraps data in a tensor of the given shape, without copying.
// It panics if len(data) does not match the shape volume.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (volume %d)", len(data), shape, n))
	}
	return header(shape, data)
}

// Shape returns the tensor's shape. The returned slice must not be mutated.
func (t *Tensor) Shape() []int { return t.shape }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Bytes returns the payload size in bytes (4 bytes per element).
func (t *Tensor) Bytes() int64 { return int64(len(t.Data)) * 4 }

// Clone returns a deep copy of the tensor.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a view of the tensor with a new shape of the same volume.
// The underlying data is shared.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape volume %d to %v", len(t.Data), shape))
	}
	return header(shape, t.Data)
}

// Slots splits t along its first dimension into k equal views that share its
// data: slot i holds rows [i·r, (i+1)·r) with r = Dim(0)/k. Consecutive
// slots are Adjacent, so Span joins any run of them back into one operand.
func (t *Tensor) Slots(k int) []*Tensor {
	if k < 1 || len(t.shape) == 0 || t.shape[0]%k != 0 {
		panic(fmt.Sprintf("tensor: cannot split %v into %d slots", t.shape, k))
	}
	if k == 1 {
		return []*Tensor{t}
	}
	shape := append([]int{t.shape[0] / k}, t.shape[1:]...)
	n := len(t.Data) / k
	views := make([]Tensor, k)
	out := make([]*Tensor, k)
	for i := range views {
		views[i] = Tensor{shape: shape, Data: t.Data[i*n : (i+1)*n]}
		out[i] = &views[i]
	}
	return out
}

// Adjacent reports whether b's data starts exactly where a's ends in one
// backing array — as consecutive Slots of one tensor do.
func Adjacent(a, b *Tensor) bool {
	na := len(a.Data)
	return na > 0 && len(b.Data) > 0 && cap(a.Data) > na && &a.Data[:na+1][na] == &b.Data[0]
}

// Span returns one tensor over ts, which must be pairwise Adjacent in order:
// a view of their data shaped [Σ Dim(0), ts[0]'s other dims...]. A single
// tensor spans itself.
func Span(ts []*Tensor) *Tensor {
	if len(ts) == 1 {
		return ts[0]
	}
	rows, n := 0, 0
	for i, t := range ts {
		if i > 0 && !Adjacent(ts[i-1], t) {
			panic("tensor: Span over tensors that do not lie end to end")
		}
		rows += t.shape[0]
		n += len(t.Data)
	}
	s := header(ts[0].shape, ts[0].Data[:n])
	s.shape[0] = rows
	return s
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != o.shape[i] {
			return false
		}
	}
	return true
}

// Zero sets all elements to 0.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets all elements to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float32 {
	return t.Data[t.offset(idx)]
}

// Set assigns the element at the given multi-index.
func (t *Tensor) Set(v float32, idx ...int) {
	t.Data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match shape %v", len(idx), t.shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// String renders a compact description (shape plus a few leading values),
// suitable for debugging.
func (t *Tensor) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v[", t.shape)
	n := len(t.Data)
	if n > 8 {
		n = 8
	}
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%.4g", t.Data[i])
	}
	if n < len(t.Data) {
		b.WriteString(" ...")
	}
	b.WriteString("]")
	return b.String()
}

// Volume returns the product of the dimensions in shape.
func Volume(shape []int) int {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n
}

// IsFinite reports whether every element is a finite number. Useful as a
// training-loop invariant check.
func (t *Tensor) IsFinite() bool {
	for _, v := range t.Data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return false
		}
	}
	return true
}
