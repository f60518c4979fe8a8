package tensor

// The SSE2 leaves of leaves_amd64.s. Each reads len(y) elements of every
// operand and trusts the caller for the lengths: call them only through the
// wrappers in leaves.go.

//go:noescape
func axpyLeaf(y []float32, a float32, x []float32)

//go:noescape
func axpy2Leaf(y []float32, a0 float32, x0 []float32, a1 float32, x1 []float32)

//go:noescape
func scaleLeaf(y []float32, a float32, x []float32)

//go:noescape
func axpyAddLeaf(y, r []float32, a float32, x []float32)

// mulAccTLeaf runs mulAccT on rows a multiple of four and n a multiple of
// four.
//
//go:noescape
func mulAccTLeaf(acc, col, dT []float32, rows, m, n int)
