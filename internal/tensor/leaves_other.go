//go:build !amd64

package tensor

func axpyLeaf(y []float32, a float32, x []float32) { axpyGo(y, a, x) }

func axpy2Leaf(y []float32, a0 float32, x0 []float32, a1 float32, x1 []float32) {
	axpy2Go(y, a0, x0, a1, x1)
}

func scaleLeaf(y []float32, a float32, x []float32) { scaleGo(y, a, x) }

func axpyAddLeaf(y, r []float32, a float32, x []float32) { axpyAddGo(y, r, a, x) }

func mulAccTLeaf(acc, col, dT []float32, rows, m, n int) { mulAccTGo(acc, col, dT, rows, m, n) }
