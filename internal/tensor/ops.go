package tensor

import (
	"fmt"
	"math"
)

func assertSameShape(op string, a, b *Tensor) {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, a.Shape(), b.Shape()))
	}
}

// Add computes dst = a + b elementwise. dst may alias a or b.
func Add(dst, a, b *Tensor) {
	assertSameShape("Add", a, b)
	assertSameShape("Add", a, dst)
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] + b.Data[i]
	}
}

// Sub computes dst = a - b elementwise. dst may alias a or b.
func Sub(dst, a, b *Tensor) {
	assertSameShape("Sub", a, b)
	assertSameShape("Sub", a, dst)
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] - b.Data[i]
	}
}

// Mul computes dst = a * b elementwise (Hadamard product).
func Mul(dst, a, b *Tensor) {
	assertSameShape("Mul", a, b)
	assertSameShape("Mul", a, dst)
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] * b.Data[i]
	}
}

// Scale computes dst = s * a elementwise. dst may alias a.
func Scale(dst, a *Tensor, s float32) {
	assertSameShape("Scale", a, dst)
	for i := range dst.Data {
		dst.Data[i] = s * a.Data[i]
	}
}

// AXPY computes dst += alpha * x elementwise.
func AXPY(dst *Tensor, alpha float32, x *Tensor) {
	assertSameShape("AXPY", x, dst)
	for i := range dst.Data {
		dst.Data[i] += alpha * x.Data[i]
	}
}

// Sum returns the sum of all elements.
func Sum(t *Tensor) float32 {
	var s float32
	for _, v := range t.Data {
		s += v
	}
	return s
}

// Dot returns the inner product of a and b viewed as flat vectors.
func Dot(a, b *Tensor) float32 {
	assertSameShape("Dot", a, b)
	var s float32
	for i := range a.Data {
		s += a.Data[i] * b.Data[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of the tensor viewed as a flat vector.
func Norm2(t *Tensor) float32 {
	var s float64
	for _, v := range t.Data {
		s += float64(v) * float64(v)
	}
	return float32(math.Sqrt(s))
}

// MaxAbs returns the largest absolute element value.
func MaxAbs(t *Tensor) float32 {
	var m float32
	for _, v := range t.Data {
		a := v
		if a < 0 {
			a = -a
		}
		if a > m {
			m = a
		}
	}
	return m
}

// CountNonZero returns the number of elements that are not exactly zero.
// For spike tensors this is the spike count.
func CountNonZero(t *Tensor) int {
	n := 0
	for _, v := range t.Data {
		if v != 0 {
			n++
		}
	}
	return n
}

// Clamp limits every element of t to the range [lo, hi] in place.
func Clamp(t *Tensor, lo, hi float32) {
	for i, v := range t.Data {
		if v < lo {
			t.Data[i] = lo
		} else if v > hi {
			t.Data[i] = hi
		}
	}
}

// Apply replaces every element with f(element), in place.
func Apply(t *Tensor, f func(float32) float32) {
	for i, v := range t.Data {
		t.Data[i] = f(v)
	}
}

// Copy copies src into dst elementwise.
func Copy(dst, src *Tensor) {
	assertSameShape("Copy", src, dst)
	copy(dst.Data, src.Data)
}

// Mean returns the arithmetic mean of all elements, or 0 for an empty tensor.
func Mean(t *Tensor) float32 {
	if len(t.Data) == 0 {
		return 0
	}
	return Sum(t) / float32(len(t.Data))
}

// AddRowBias adds bias[j] to every row of a [N,M] matrix: dst[i,j] += bias[j].
func AddRowBias(dst *Tensor, bias *Tensor) {
	sh := dst.Shape()
	if len(sh) != 2 {
		panic(fmt.Sprintf("tensor: AddRowBias expects rank-2, got %v", sh))
	}
	n, m := sh[0], sh[1]
	if bias.Len() != m {
		panic(fmt.Sprintf("tensor: AddRowBias bias length %d != cols %d", bias.Len(), m))
	}
	for i := 0; i < n; i++ {
		base := i * m
		for j := 0; j < m; j++ {
			dst.Data[base+j] += bias.Data[j]
		}
	}
}

// SumPerChannel accumulates an NCHW tensor over N, H, W into dst[c] += sums.
// Used for conv bias gradients.
func SumPerChannel(dst *Tensor, src *Tensor) {
	sh := src.Shape()
	if len(sh) != 4 {
		panic(fmt.Sprintf("tensor: SumPerChannel expects rank-4 NCHW, got %v", sh))
	}
	n, c, h, w := sh[0], sh[1], sh[2], sh[3]
	if dst.Len() != c {
		panic(fmt.Sprintf("tensor: SumPerChannel dst length %d != channels %d", dst.Len(), c))
	}
	hw := h * w
	for i := 0; i < n; i++ {
		for j := 0; j < c; j++ {
			base := (i*c + j) * hw
			var s float32
			for k := 0; k < hw; k++ {
				s += src.Data[base+k]
			}
			dst.Data[j] += s
		}
	}
}

// SumPerColumn accumulates a [N,M] matrix over rows into dst[j] += sums.
// Used for linear bias gradients.
func SumPerColumn(dst *Tensor, src *Tensor) {
	sh := src.Shape()
	if len(sh) != 2 {
		panic(fmt.Sprintf("tensor: SumPerColumn expects rank-2, got %v", sh))
	}
	n, m := sh[0], sh[1]
	if dst.Len() != m {
		panic(fmt.Sprintf("tensor: SumPerColumn dst length %d != cols %d", dst.Len(), m))
	}
	for i := 0; i < n; i++ {
		base := i * m
		for j := 0; j < m; j++ {
			dst.Data[j] += src.Data[base+j]
		}
	}
}
