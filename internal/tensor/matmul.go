package tensor

import (
	"fmt"

	"skipper/internal/parallel"
)

// minLaneWork is the floor on per-lane inner-loop operations before a kernel
// fans out: below it the goroutine handoff costs more than the arithmetic.
// It only gates how many lanes run, never what each output element computes,
// so results are independent of its value.
const minLaneWork = 1 << 14

// grainFor converts per-row work into a RunGrain row floor.
func grainFor(perRow int) int {
	if perRow <= 0 {
		return 1
	}
	if g := minLaneWork / perRow; g > 1 {
		return g
	}
	return 1
}

// MatMul computes dst = a × b for 2-D tensors a [M,K] and b [K,N].
// dst must have shape [M,N] and must not alias a or b. The kernel is a
// cache-blocked ikj loop parallelised over rows of dst; it is the hot path
// under im2col convolution. A nil pool runs serially; results are
// bit-identical for every pool size because each output row is produced by
// exactly the serial per-row code.
func MatMul(p *parallel.Pool, dst, a, b *Tensor) {
	as, bs, ds := a.Shape(), b.Shape(), dst.Shape()
	if len(as) != 2 || len(bs) != 2 || len(ds) != 2 {
		panic(fmt.Sprintf("tensor: MatMul expects rank-2 operands, got %v x %v -> %v", as, bs, ds))
	}
	m, k, n := as[0], as[1], bs[1]
	if bs[0] != k || ds[0] != m || ds[1] != n {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch %v x %v -> %v", as, bs, ds))
	}
	dst.Zero()
	matmulAccPar(p, dst.Data, a.Data, b.Data, m, k, n)
}

// MatMulAcc computes dst += a × b without zeroing dst first.
func MatMulAcc(p *parallel.Pool, dst, a, b *Tensor) {
	as, bs, ds := a.Shape(), b.Shape(), dst.Shape()
	if len(as) != 2 || len(bs) != 2 || len(ds) != 2 {
		panic(fmt.Sprintf("tensor: MatMulAcc expects rank-2 operands, got %v x %v -> %v", as, bs, ds))
	}
	m, k, n := as[0], as[1], bs[1]
	if bs[0] != k || ds[0] != m || ds[1] != n {
		panic(fmt.Sprintf("tensor: MatMulAcc shape mismatch %v x %v -> %v", as, bs, ds))
	}
	matmulAccPar(p, dst.Data, a.Data, b.Data, m, k, n)
}

// matmulAccPar partitions the M rows of dst across pool lanes; each lane
// runs the serial matmulAcc on its contiguous row block, so no float ever
// crosses a lane boundary.
func matmulAccPar(p *parallel.Pool, dst, a, b []float32, m, k, n int) {
	p.RunGrain(m, grainFor(k*n), func(_, lo, hi int) {
		matmulAcc(dst[lo*n:hi*n], a[lo*k:hi*k], b, hi-lo, k, n)
	})
}

// matmulAcc performs dst += a*b on flat row-major buffers with loop order
// i-k-j, which streams b and dst rows sequentially.
func matmulAcc(dst, a, b []float32, m, k, n int) {
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		drow := dst[i*n : (i+1)*n]
		for kk := 0; kk < k; kk++ {
			av := arow[kk]
			if av == 0 {
				// Spike matrices are mostly zeros; skipping zero rows of the
				// accumulation is a large win for SNN workloads.
				continue
			}
			if kk+1 < k && arow[kk+1] != 0 {
				axpy2(drow, av, b[kk*n:(kk+1)*n], arow[kk+1], b[(kk+1)*n:(kk+2)*n])
				kk++
				continue
			}
			axpy(drow, av, b[kk*n:(kk+1)*n])
		}
	}
}

// MatMulTransA computes dst = aᵀ × b for a [K,M], b [K,N] -> dst [M,N].
// Used for weight gradients: dW = deltaᵀ · input.
func MatMulTransA(p *parallel.Pool, dst, a, b *Tensor) {
	as, bs, ds := a.Shape(), b.Shape(), dst.Shape()
	if len(as) != 2 || len(bs) != 2 || len(ds) != 2 {
		panic(fmt.Sprintf("tensor: MatMulTransA expects rank-2 operands, got %v x %v -> %v", as, bs, ds))
	}
	k, m, n := as[0], as[1], bs[1]
	if bs[0] != k || ds[0] != m || ds[1] != n {
		panic(fmt.Sprintf("tensor: MatMulTransA shape mismatch %v^T x %v -> %v", as, bs, ds))
	}
	dst.Zero()
	MatMulTransAAcc(p, dst, a, b)
}

// MatMulTransAAcc computes dst += aᵀ × b without zeroing dst. The loop is
// i-outer so the M output rows partition across lanes; each element (i,j)
// still accumulates its kk terms in ascending order, the same per-element
// sequence the kk-outer serial kernel produced, so sums are bit-identical
// for every pool size.
func MatMulTransAAcc(p *parallel.Pool, dst, a, b *Tensor) {
	as, bs, ds := a.Shape(), b.Shape(), dst.Shape()
	if len(as) != 2 || len(bs) != 2 || len(ds) != 2 {
		panic(fmt.Sprintf("tensor: MatMulTransAAcc expects rank-2 operands, got %v^T x %v -> %v", as, bs, ds))
	}
	k, m, n := as[0], as[1], bs[1]
	if bs[0] != k || ds[0] != m || ds[1] != n {
		panic(fmt.Sprintf("tensor: MatMulTransAAcc shape mismatch %v^T x %v -> %v", as, bs, ds))
	}
	ad, bd, dd := a.Data, b.Data, dst.Data
	p.RunGrain(m, grainFor(k*n), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			drow := dd[i*n : (i+1)*n]
			for kk := 0; kk < k; kk++ {
				if av := ad[kk*m+i]; av != 0 {
					axpy(drow, av, bd[kk*n:(kk+1)*n])
				}
			}
		}
	})
}

// MatMulTransB computes dst = a × bᵀ for a [M,K], b [N,K] -> dst [M,N].
// It is the linear layers' synaptic current x·Wᵀ. An all-zero row of a (a
// sample with no input spike this timestep) is written as zeros without a
// product, which is what the product gives for finite b — the zero-image
// skip of Conv2D.
func MatMulTransB(p *parallel.Pool, dst, a, b *Tensor) {
	as, bs, ds := a.Shape(), b.Shape(), dst.Shape()
	if len(as) != 2 || len(bs) != 2 || len(ds) != 2 {
		panic(fmt.Sprintf("tensor: MatMulTransB expects rank-2 operands, got %v x %v^T -> %v", as, bs, ds))
	}
	m, k, n := as[0], as[1], bs[0]
	if bs[1] != k || ds[0] != m || ds[1] != n {
		panic(fmt.Sprintf("tensor: MatMulTransB shape mismatch %v x %v^T -> %v", as, bs, ds))
	}
	ad, bd, dd := a.Data, b.Data, dst.Data
	p.RunGrain(m, grainFor(n*k), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := ad[i*k : (i+1)*k]
			drow := dd[i*n : (i+1)*n]
			if allZero(arow) {
				for j := range drow {
					drow[j] = 0
				}
				continue
			}
			for j := 0; j < n; j++ {
				brow := bd[j*k : (j+1)*k]
				var s float32
				for kk := range arow {
					s += arow[kk] * brow[kk]
				}
				drow[j] = s
			}
		}
	})
}

func allZero(xs []float32) bool {
	for _, v := range xs {
		if v != 0 {
			return false
		}
	}
	return true
}
