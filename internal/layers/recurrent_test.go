package layers

import (
	"math"
	"testing"

	"skipper/internal/snn"
	"skipper/internal/tensor"
)

func buildRecurrent(t *testing.T) *RecurrentSpikingLinear {
	t.Helper()
	l := NewRecurrentSpikingLinear("rec", 5, snn.Params{Leak: 0.9, Threshold: 0.8}, snn.FastSigmoid{})
	if _, err := l.Build([]int{7}, tensor.NewRNG(11)); err != nil {
		t.Fatal(err)
	}
	return l
}

func TestRecurrentBuildAndParams(t *testing.T) {
	l := buildRecurrent(t)
	ps := l.Params()
	if len(ps) != 3 {
		t.Fatalf("params = %d, want 3 (W, W_rec, b)", len(ps))
	}
	if ps[1].W.Dim(0) != 5 || ps[1].W.Dim(1) != 5 {
		t.Fatalf("recurrent weight shape %v", ps[1].W.Shape())
	}
	bad := NewRecurrentSpikingLinear("r", 4, snn.Params{Leak: 0.9, Threshold: 1}, nil)
	if _, err := bad.Build([]int{4}, tensor.NewRNG(1)); err == nil {
		t.Fatal("missing surrogate must fail Build")
	}
}

func TestRecurrentForwardUsesLateralInput(t *testing.T) {
	l := buildRecurrent(t)
	r := tensor.NewRNG(12)
	x := tensor.New(2, 7)
	r.FillUniform(x, 0, 2)
	st1 := l.Forward(x, nil)
	// Force a distinctive previous spike pattern (every membrane above θ)
	// and confirm the membrane responds to it through W_rec.
	st1.U.Fill(2)
	withRec := l.Forward(x, st1)
	st1.U.Zero()
	withoutRec := l.Forward(x, st1)
	same := true
	for i := range withRec.U.Data {
		if withRec.U.Data[i] != withoutRec.U.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("lateral recurrence had no effect on the membrane")
	}
}

// The lateral credit path: with a non-nil deltaIn, the recurrent weight
// gradient must accumulate δ_{t+1} ⊗ o_t exactly.
func TestRecurrentLateralGradient(t *testing.T) {
	l := buildRecurrent(t)
	r := tensor.NewRNG(13)
	x := tensor.New(2, 7)
	r.FillUniform(x, 0, 2)
	st := l.Forward(x, nil)
	st.U.Fill(2) // every neuron fired: makes the outer product easy to verify

	din := &Delta{D: tensor.New(2, 5)}
	r.FillNorm(din.D, 0, 1)
	g := tensor.New(2, 5)

	for _, p := range l.Params() {
		p.G.Zero()
	}
	l.Backward(x, st, g, din)
	// ∂W_rec[i][j] = Σ_batch δ_{t+1}[b][i] · o_t[b][j]; with o ≡ 1 every
	// column equals the per-unit batch sum of δ.
	for i := 0; i < 5; i++ {
		var want float32
		for b := 0; b < 2; b++ {
			want += din.D.At(b, i)
		}
		for j := 0; j < 5; j++ {
			if math.Abs(float64(l.gradRec.At(i, j)-want)) > 1e-5 {
				t.Fatalf("gradRec[%d][%d] = %v, want %v", i, j, l.gradRec.At(i, j), want)
			}
		}
	}
	// Without deltaIn, the lateral gradient must stay zero.
	for _, p := range l.Params() {
		p.G.Zero()
	}
	l.Backward(x, st, g, nil)
	if tensor.Norm2(l.gradRec) != 0 {
		t.Fatal("gradRec accumulated without a future delta")
	}
}

// End-to-end: checkpointing must remain gradient-exact through explicit
// recurrence (the lateral path crosses segment boundaries via the carried
// deltas).
func TestRecurrentNetworkBPTT(t *testing.T) {
	nrn := snn.Params{Leak: 0.9, Threshold: 0.8}
	net := NewNetwork("recnet", []int{6},
		NewRecurrentSpikingLinear("rec1", 8, nrn, snn.FastSigmoid{}),
		NewReadout("out", 3, nrn),
	)
	if err := net.Build(tensor.NewRNG(21)); err != nil {
		t.Fatal(err)
	}
	const T = 6
	r := tensor.NewRNG(22)
	xs := make([]*tensor.Tensor, T)
	for i := range xs {
		xs[i] = tensor.New(2, 6)
		r.FillUniform(xs[i], 0, 2)
	}
	labels := []int{0, 2}

	// Full BPTT by hand.
	all := make([][]*LayerState, T)
	var states []*LayerState
	for tt := 0; tt < T; tt++ {
		states = net.ForwardStep(xs[tt], states)
		all[tt] = states
	}
	dlogits := tensor.New(2, 3)
	tensor.CrossEntropy(net.Logits(all[T-1]), labels, dlogits)
	net.ZeroGrads()
	var deltas []*Delta
	for tt := T - 1; tt >= 0; tt-- {
		inject := map[int]*tensor.Tensor{}
		if tt == T-1 {
			inject[1] = dlogits
		}
		deltas = net.BackwardStep(xs[tt], all[tt], inject, deltas)
	}
	var recNorm float32
	for _, p := range net.Params() {
		if p.Name == "rec1.recurrent" {
			recNorm = tensor.Norm2(p.G)
		}
	}
	if recNorm == 0 {
		t.Fatal("recurrent weights received no gradient through BPTT")
	}
}
