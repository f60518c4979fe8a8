package tensor

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"skipper/internal/parallel"
)

// Packed spike-side matmul kernels. Spike operands are exactly 0/1, so a
// float product a·s degenerates: s = 1 contributes the float unchanged and
// s = 0 contributes a signed zero, which IEEE-754 addition absorbs without
// changing the accumulator (the accumulators here start at +0, and
// +0 + ±0 = +0). The kernels therefore visit only the SET bits, in the same
// ascending index order the dense loops use, which makes every output
// element the bit-identical float sequence of the float kernel — exact, not
// approximate. That is also what makes the event-driven part free: an
// all-zero 64-spike word contributes nothing, so it is skipped after a
// single integer compare, and the skip can never change a result.
//
// All kernels partition OUTPUT rows across pool lanes exactly like their
// float counterparts (see internal/parallel's determinism contract); the
// packed words are read-only and safe to share between lanes.

// Word-occupancy counters for the event-driven skip: how many packed words
// the kernels inspected and how many they skipped as all-zero. They
// accumulate process-wide (one atomic add per kernel lane, not per word)
// and feed the words_skipped trace counter.
var packWordsScanned, packWordsSkipped atomic.Int64

// PackedKernelStats returns the cumulative packed-kernel word-occupancy
// counters: words inspected and words skipped as all-zero (the event-driven
// fast path). The ratio is the fraction of spike-side inner-loop work the
// sparsity eliminated.
func PackedKernelStats() (scanned, skipped int64) {
	return packWordsScanned.Load(), packWordsSkipped.Load()
}

// ResetPackedKernelStats zeroes the word-occupancy counters.
func ResetPackedKernelStats() {
	packWordsScanned.Store(0)
	packWordsSkipped.Store(0)
}

// addPackStats folds one lane's occupancy tally into the global counters.
func addPackStats(scanned, skipped int) {
	if scanned != 0 {
		packWordsScanned.Add(int64(scanned))
	}
	if skipped != 0 {
		packWordsSkipped.Add(int64(skipped))
	}
}

// appendSetBits appends to buf the positions — relative to bit offset lo —
// of every set bit in the packed range [lo, lo+n), walking whole 64-bit
// words and skipping empty ones. It returns the extended buffer and the
// number of words inspected/skipped. Rows of a packed matrix are bit ranges
// of the flat packed tensor, so lo is not word-aligned in general.
func appendSetBits(buf []int32, words []uint64, lo, n int) ([]int32, int, int) {
	if n <= 0 {
		return buf, 0, 0
	}
	hi := lo + n
	scanned, skipped := 0, 0
	for wi, we := lo>>6, (hi-1)>>6; wi <= we; wi++ {
		w := words[wi]
		base := wi << 6
		if s := lo - base; s > 0 {
			w &= ^uint64(0) << uint(s) // clip the row's leading partial word
		}
		if e := base + 64 - hi; e > 0 {
			w &= ^uint64(0) >> uint(e) // clip the trailing partial word
		}
		scanned++
		if w == 0 {
			skipped++
			continue
		}
		for w != 0 {
			buf = append(buf, int32(base+bits.TrailingZeros64(w)-lo))
			w &= w - 1
		}
	}
	return buf, scanned, skipped
}

// packedDims validates that p holds m×k elements (any original shape).
func packedDims(op string, p *PackedSpikes, m, k int) {
	if p.Len() != m*k {
		panic(fmt.Sprintf("tensor: %s packed operand holds %d elements, want %d×%d", op, p.Len(), m, k))
	}
}

// MatMulPacked computes dst = a × b for a packed spike matrix a [M,K] and a
// float b [K,N]. It is the packed twin of MatMul with a on the spike side:
// per output row, the set bits of a's row select which rows of b are
// gather-accumulated (spike value 1 ⇒ the product is b's row unchanged).
// Bit-identical to MatMul on the unpacked operand at every pool width.
func MatMulPacked(p *parallel.Pool, dst *Tensor, a *PackedSpikes, b *Tensor) {
	bs, ds := b.Shape(), dst.Shape()
	if len(bs) != 2 || len(ds) != 2 {
		panic(fmt.Sprintf("tensor: MatMulPacked expects rank-2 operands, got %v -> %v", bs, ds))
	}
	m, n := ds[0], ds[1]
	k := bs[0]
	if bs[1] != n {
		panic(fmt.Sprintf("tensor: MatMulPacked shape mismatch %v -> %v", bs, ds))
	}
	packedDims("MatMulPacked", a, m, k)
	bd, dd := b.Data, dst.Data
	p.RunGrain(m, grainFor(k*n), func(_, lo, hi int) {
		idx := make([]int32, 0, k)
		scanned, skipped := 0, 0
		for i := lo; i < hi; i++ {
			drow := dd[i*n : (i+1)*n]
			for j := range drow {
				drow[j] = 0
			}
			var ws, wk int
			idx, ws, wk = appendSetBits(idx[:0], a.bits, i*k, k)
			scanned += ws
			skipped += wk
			for _, kk := range idx {
				brow := bd[int(kk)*n : (int(kk)+1)*n]
				for j := range brow {
					drow[j] += brow[j]
				}
			}
		}
		addPackStats(scanned, skipped)
	})
}

// MatMulTransBPacked computes dst = a × bᵀ for a packed spike matrix
// a [M,K] and float b [N,K] — the forward fully-connected path
// u = spikes · Wᵀ with W stored [Out,In]. Each output element (i,j) is the
// gather-accumulate of weight row j at the set-bit positions of spike row i,
// in ascending k order: the bit-identical nonzero subsequence of
// MatMulTransB's dense dot product.
func MatMulTransBPacked(p *parallel.Pool, dst *Tensor, a *PackedSpikes, b *Tensor) {
	bs, ds := b.Shape(), dst.Shape()
	if len(bs) != 2 || len(ds) != 2 {
		panic(fmt.Sprintf("tensor: MatMulTransBPacked expects rank-2 operands, got %v^T -> %v", bs, ds))
	}
	m, n := ds[0], ds[1]
	k := bs[1]
	if bs[0] != n {
		panic(fmt.Sprintf("tensor: MatMulTransBPacked shape mismatch %v^T -> %v", bs, ds))
	}
	packedDims("MatMulTransBPacked", a, m, k)
	bd, dd := b.Data, dst.Data
	p.RunGrain(m, grainFor(n*k), func(_, lo, hi int) {
		idx := make([]int32, 0, k)
		scanned, skipped := 0, 0
		for i := lo; i < hi; i++ {
			var ws, wk int
			idx, ws, wk = appendSetBits(idx[:0], a.bits, i*k, k)
			scanned += ws
			skipped += wk
			drow := dd[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				brow := bd[j*k : (j+1)*k]
				var s float32
				for _, kk := range idx {
					s += brow[kk]
				}
				drow[j] = s
			}
		}
		addPackStats(scanned, skipped)
	})
}

// MatMulTransAPackedAcc computes dst += aᵀ × b for a float a [K,M] and a
// packed spike matrix b [K,N] — the weight-gradient path dW += δᵀ · spikes.
// The loop is i-outer like MatMulTransAAcc, so the M output rows partition
// across lanes; per (i,kk) the set bits of spike row kk receive δ's scalar,
// in ascending j order, reproducing the dense kernel's float sequence
// exactly (its zero-spike terms add signed zeros, which never change an
// accumulator that holds +0 or any nonzero).
func MatMulTransAPackedAcc(p *parallel.Pool, dst, a *Tensor, b *PackedSpikes) {
	as, ds := a.Shape(), dst.Shape()
	if len(as) != 2 || len(ds) != 2 {
		panic(fmt.Sprintf("tensor: MatMulTransAPackedAcc expects rank-2 operands, got %v^T -> %v", as, ds))
	}
	k, m := as[0], as[1]
	n := ds[1]
	if ds[0] != m {
		panic(fmt.Sprintf("tensor: MatMulTransAPackedAcc shape mismatch %v^T -> %v", as, ds))
	}
	packedDims("MatMulTransAPackedAcc", b, k, n)
	// The set-bit positions of each spike row are reused by every output
	// row, so gather them once up front instead of M times: offs[kk] ..
	// offs[kk+1] indexes row kk's columns inside idx. Pure integer work —
	// deterministic regardless of how it is scheduled.
	offs := make([]int32, k+1)
	idx := make([]int32, 0, b.Count())
	scanned, skipped := 0, 0
	for kk := 0; kk < k; kk++ {
		var ws, wk int
		idx, ws, wk = appendSetBits(idx, b.bits, kk*n, n)
		scanned += ws
		skipped += wk
		offs[kk+1] = int32(len(idx))
	}
	addPackStats(scanned, skipped)
	ad, dd := a.Data, dst.Data
	p.RunGrain(m, grainFor(k*n), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			drow := dd[i*n : (i+1)*n]
			for kk := 0; kk < k; kk++ {
				av := ad[kk*m+i]
				if av == 0 {
					continue
				}
				for _, j := range idx[offs[kk]:offs[kk+1]] {
					drow[j] += av
				}
			}
		}
	})
}

// MatMulTransAPacked is MatMulTransAPackedAcc into a zeroed dst.
func MatMulTransAPacked(p *parallel.Pool, dst, a *Tensor, b *PackedSpikes) {
	dst.Zero()
	MatMulTransAPackedAcc(p, dst, a, b)
}
