package tensor

// Elementwise leaves under the matmul and convolution kernels. Each wrapper
// reslices every operand to len(y), so a short operand panics here, before
// the per-architecture leaf runs: on amd64 an SSE2 routine
// (leaves_amd64.s), elsewhere the Go body beside the wrapper. SSE2 is the
// amd64 baseline, so nothing is detected at run time. The routines multiply
// and add in separate instructions (MULPS, ADDPS; never a fused
// multiply-add), so every element takes the same roundings in the same
// order as the Go body, which is also the tests' reference. Elementwise
// means no element's result depends on where a lane's span starts, so the
// leaves leave every kernel bit-identical across pool sizes.
//
// The Go bodies round each product explicitly (float32(a*x)): the Go spec
// lets a compiler fuse a*x + y into one rounding, and the conversion
// forbids it on the architectures that would.

// axpy performs y[j] += a·x[j] for every j < len(y).
func axpy(y []float32, a float32, x []float32) {
	axpyLeaf(y, a, x[:len(y)])
}

// axpy2 is axpy(y, a0, x0) then axpy(y, a1, x1) in one pass: each element
// takes the same roundings in the same order, (y + a0·x0) + a1·x1, with a
// third less memory traffic.
func axpy2(y []float32, a0 float32, x0 []float32, a1 float32, x1 []float32) {
	axpy2Leaf(y, a0, x0[:len(y)], a1, x1[:len(y)])
}

// scale writes y[j] = a·x[j] for every j < len(y).
func scale(y []float32, a float32, x []float32) {
	scaleLeaf(y, a, x[:len(y)])
}

// axpyAdd performs y[j] += r[j] + a·x[j] for every j < len(y): the product
// is added to r first, and that sum to y.
func axpyAdd(y, r []float32, a float32, x []float32) {
	axpyAddLeaf(y, r[:len(y)], a, x[:len(y)])
}

// axpyGo is axpy's portable body; x is at least as long as y.
func axpyGo(y []float32, a float32, x []float32) {
	x = x[:len(y)]
	for j := range y {
		y[j] += float32(a * x[j])
	}
}

// axpy2Go is axpy2's portable body.
func axpy2Go(y []float32, a0 float32, x0 []float32, a1 float32, x1 []float32) {
	x0, x1 = x0[:len(y)], x1[:len(y)]
	for j := range y {
		v := y[j] + float32(a0*x0[j])
		y[j] = v + float32(a1*x1[j])
	}
}

// scaleGo is scale's portable body.
func scaleGo(y []float32, a float32, x []float32) {
	x = x[:len(y)]
	for j := range y {
		y[j] = a * x[j]
	}
}

// axpyAddGo is axpyAdd's portable body.
func axpyAddGo(y, r []float32, a float32, x []float32) {
	r, x = r[:len(y)], x[:len(y)]
	for j := range y {
		y[j] += r[j] + float32(a*x[j])
	}
}

// mulAccT performs acc[r][j] += Σ_p col[r][p]·dT[p][j] for acc [rows][n],
// col [rows][m] and dT [m][n], each element summing its terms over
// ascending p. Whole blocks of four rows by four columns run in the leaf,
// four independent vector sums side by side; the rest in the Go body.
// Every element takes the same terms in the same order either way.
func mulAccT(acc, col, dT []float32, rows, m, n int) {
	acc, col, dT = acc[:rows*n], col[:rows*m], dT[:m*n]
	r4 := 0
	if n%4 == 0 {
		r4 = rows &^ 3
		mulAccTLeaf(acc, col, dT, r4, m, n)
	}
	mulAccTGo(acc[r4*n:], col[r4*m:], dT, rows-r4, m, n)
}

// mulAccTGo is mulAccT's portable body.
func mulAccTGo(acc, col, dT []float32, rows, m, n int) {
	for r := 0; r < rows; r++ {
		a, c := acc[r*n:(r+1)*n], col[r*m:(r+1)*m]
		for p, v := range c {
			d := dT[p*n : (p+1)*n]
			for j := range a {
				a[j] += float32(v * d[j])
			}
		}
	}
}
