package tensor

import (
	"fmt"
	"strings"
	"testing"

	"skipper/internal/parallel"
)

// Slots of one tensor are Adjacent in order and Span joins any run of them
// back into a view of the same data; separately allocated tensors never join.
func TestSlotsSpanAdjacent(t *testing.T) {
	block := New(6, 2, 3)
	equivFill(block.Data, 3)
	s := block.Slots(3)
	for i, v := range s {
		if fmt.Sprint(v.Shape()) != "[2 2 3]" || &v.Data[0] != &block.Data[i*12] {
			t.Fatalf("slot %d: shape %v, not a view of rows %d..", i, v.Shape(), 2*i)
		}
	}
	if !Adjacent(s[0], s[1]) || !Adjacent(s[1], s[2]) || Adjacent(s[1], s[0]) || Adjacent(s[0], s[2]) {
		t.Fatal("slot adjacency wrong")
	}
	span := Span(s[1:])
	if fmt.Sprint(span.Shape()) != "[4 2 3]" || &span.Data[0] != &s[1].Data[0] || span.Len() != 24 {
		t.Fatalf("span shape %v len %d", span.Shape(), span.Len())
	}
	if fmt.Sprint(s[1].Shape()) != "[2 2 3]" {
		t.Fatal("Span changed a slot's shape")
	}
	if Span(s[:1]) != s[0] {
		t.Fatal("a single tensor must span itself")
	}
	a, b := New(2, 3), New(2, 3)
	if Adjacent(a, b) || Adjacent(b, a) {
		t.Fatal("separate allocations reported adjacent")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Span over non-adjacent tensors must panic")
		}
	}()
	Span([]*Tensor{a, b})
}

// The forward kernels skip an all-zero image (a sample with no input spike):
// a batched Conv2D on [x0, 0, x2] gives the bits of Conv2D on [x0], on a zero
// image and on [x2], the zero image's output is the bias alone, and
// MatMulTransB's all-zero row is zero — at every pool width.
func TestForwardKernelsSkipZeroImages(t *testing.T) {
	s := ConvSpec{InChannels: 3, OutChannels: 4, KernelH: 3, KernelW: 3, Stride: 1, Pad: 1}
	const h, w = 6, 5
	x := New(3, 3, h, w)
	equivFill(x.Data, 7)
	chw := 3 * h * w
	clear(x.Data[chw : 2*chw])
	weight, bias := New(4, 3, 3, 3), New(4)
	equivFill(weight.Data, 5)
	equivFill(bias.Data, 9)
	oh, ow := s.OutSize(h, w)
	xs, wants := x.Slots(3), New(3, 4, oh, ow).Slots(3)
	for i := range xs {
		Conv2D(nil, wants[i], xs[i], weight, bias, s, nil)
	}
	for i, v := range wants[1].Data {
		if v != bias.Data[i/(oh*ow)] {
			t.Fatalf("zero image output[%d] = %v, want the bias %v", i, v, bias.Data[i/(oh*ow)])
		}
	}

	a, b := New(3, 4), New(5, 4)
	equivFill(a.Data, 11)
	equivFill(b.Data, 13)
	clear(a.Data[4:8])
	for _, lanes := range []int{1, 2, 4} {
		pool := parallel.NewPool(lanes)
		out := New(3, 4, oh, ow)
		Conv2D(pool, out, x, weight, bias, s, NewScratch())
		requireBitEqual(t, fmt.Sprintf("Conv2D@%d lanes", lanes), Span(wants), out)

		prod := New(3, 5)
		MatMulTransB(pool, prod, a, b)
		pool.Close()
		for j := 5; j < 10; j++ {
			if prod.Data[j] != 0 {
				t.Fatalf("MatMulTransB zero row: [1,%d] = %v", j-5, prod.Data[j])
			}
		}
		ref := New(1, 5)
		MatMulTransB(nil, ref, FromSlice(a.Data[8:12], 1, 4), b)
		requireBitEqual(t, "MatMulTransB row 2", ref, FromSlice(prod.Data[10:15], 1, 5))
	}
}

// Mis-shaped operands panic with the kernel's shape message, never with an
// index error from reading a dimension that is not there.
func TestMatMulFamilyRejectsBadShapes(t *testing.T) {
	kernels := []struct {
		name string
		run  func(p *parallel.Pool, dst, a, b *Tensor)
	}{
		{"MatMul", MatMul}, {"MatMulAcc", MatMulAcc}, {"MatMulTransA", MatMulTransA},
		{"MatMulTransAAcc", MatMulTransAAcc}, {"MatMulTransB", MatMulTransB},
	}
	cases := []struct {
		name      string
		dst, a, b []int
	}{
		{"rank-1 a", []int{2, 3}, []int{4}, []int{4, 3}},
		{"rank-1 b", []int{2, 3}, []int{2, 4}, []int{4}},
		{"rank-1 dst", []int{6}, []int{2, 4}, []int{4, 3}},
		{"rank-3 a", []int{2, 3}, []int{2, 2, 2}, []int{4, 3}},
		{"inner mismatch", []int{2, 3}, []int{2, 5}, []int{4, 3}},
		{"rows mismatch", []int{3, 3}, []int{2, 4}, []int{4, 3}},
		{"cols mismatch", []int{2, 2}, []int{2, 4}, []int{4, 3}},
	}
	for _, kr := range kernels {
		for _, tc := range cases {
			t.Run(kr.name+"/"+tc.name, func(t *testing.T) {
				defer func() {
					r := recover()
					msg, ok := r.(string)
					if !ok || !strings.HasPrefix(msg, "tensor: "+kr.name+" ") {
						t.Fatalf("panic %v (%T), want the %s shape message", r, r, kr.name)
					}
				}()
				kr.run(nil, New(tc.dst...), New(tc.a...), New(tc.b...))
			})
		}
	}
}
