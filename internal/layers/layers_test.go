package layers

import (
	"math"
	"testing"

	"skipper/internal/snn"
	"skipper/internal/tensor"
)

func testNeuron() snn.Params { return snn.Params{Leak: 0.9, Threshold: 1} }

func buildLayer(t *testing.T, l Layer, inShape []int) []int {
	t.Helper()
	out, err := l.Build(inShape, tensor.NewRNG(1))
	if err != nil {
		t.Fatalf("Build(%s): %v", l.Name(), err)
	}
	return out
}

func TestSpikingConvBuildShapes(t *testing.T) {
	l := NewSpikingConv2D("c1", 8, 3, 1, 1, testNeuron(), snn.Triangle{})
	out := buildLayer(t, l, []int{3, 16, 16})
	if out[0] != 8 || out[1] != 16 || out[2] != 16 {
		t.Fatalf("out shape = %v", out)
	}
	l2 := NewSpikingConv2D("c2", 4, 3, 2, 1, testNeuron(), snn.Triangle{})
	out = buildLayer(t, l2, []int{8, 16, 16})
	if out[1] != 8 || out[2] != 8 {
		t.Fatalf("strided out shape = %v", out)
	}
	if len(l.Params()) != 2 {
		t.Fatalf("conv params = %d, want 2", len(l.Params()))
	}
}

func TestSpikingConvRejectsBadInput(t *testing.T) {
	l := NewSpikingConv2D("c", 4, 3, 1, 1, testNeuron(), snn.Triangle{})
	if _, err := l.Build([]int{10}, tensor.NewRNG(1)); err == nil {
		t.Fatal("conv should reject rank-1 input")
	}
	bad := NewSpikingConv2D("c", 4, 3, 1, 1, snn.Params{Leak: -1, Threshold: 1}, snn.Triangle{})
	if _, err := bad.Build([]int{1, 8, 8}, tensor.NewRNG(1)); err == nil {
		t.Fatal("conv should reject invalid neuron params")
	}
}

func TestSpikingConvForwardSpikesBinary(t *testing.T) {
	l := NewSpikingConv2D("c", 4, 3, 1, 1, testNeuron(), snn.Triangle{})
	buildLayer(t, l, []int{2, 8, 8})
	r := tensor.NewRNG(3)
	x := tensor.New(2, 2, 8, 8)
	r.FillUniform(x, 0, 1)
	st := l.Forward(x, nil)
	if st.U == nil || st.O != nil {
		t.Fatal("a LIF record holds U alone")
	}
	for _, v := range output(nil, l, st, nil).Data {
		if v != 0 && v != 1 {
			t.Fatalf("spike value %v not binary", v)
		}
	}
	// Second step with state: must not panic and obey shapes.
	st2 := l.Forward(x, st)
	if !st2.U.SameShape(st.U) {
		t.Fatal("state shape changed between steps")
	}
}

func TestSpikingConvForwardDeterministic(t *testing.T) {
	l := NewSpikingConv2D("c", 4, 3, 1, 1, testNeuron(), snn.Triangle{})
	buildLayer(t, l, []int{2, 8, 8})
	r := tensor.NewRNG(5)
	x := tensor.New(1, 2, 8, 8)
	r.FillUniform(x, 0, 2)
	a := l.Forward(x, nil)
	b := l.Forward(x, nil)
	for i := range a.U.Data {
		if a.U.Data[i] != b.U.Data[i] {
			t.Fatal("Forward is not a pure function of (x, prev)")
		}
	}
}

// adjointCheckConv verifies that Backward's gradIn is the exact adjoint of
// the surrogate-linearised forward map dx -> σ'(U) ⊙ conv(dx, W):
// ⟨σ'(U)⊙conv(dx), g⟩ == ⟨dx, Backward(g)⟩.
func TestSpikingConvBackwardAdjoint(t *testing.T) {
	l := NewSpikingConv2D("c", 3, 3, 1, 1, testNeuron(), snn.FastSigmoid{})
	buildLayer(t, l, []int{2, 6, 6})
	r := tensor.NewRNG(7)
	x := tensor.New(2, 2, 6, 6)
	r.FillUniform(x, 0, 1.5)
	st := l.Forward(x, nil)

	g := tensor.New(outShape(st)...)
	r.FillNorm(g, 0, 1)
	dx := tensor.New(x.Shape()...)
	r.FillNorm(dx, 0, 1)

	l.gradW.Zero()
	l.gradB.Zero()
	gradIn, delta := l.Backward(x, st, g, nil)
	if delta == nil || delta.D == nil {
		t.Fatal("spiking conv must return a delta")
	}

	// Linearised forward applied to dx.
	lin := tensor.New(outShape(st)...)
	tensor.Conv2D(nil, lin, dx, l.weight, nil, l.Spec, nil)
	for i := range lin.Data {
		lin.Data[i] *= l.Surrogate.Grad(st.U.Data[i], l.Neuron.Threshold)
	}
	lhs := float64(tensor.Dot(lin, g))
	rhs := float64(tensor.Dot(dx, gradIn))
	if math.Abs(lhs-rhs) > 1e-2*math.Max(1, math.Abs(lhs)) {
		t.Fatalf("adjoint identity violated: %v vs %v", lhs, rhs)
	}
}

// The weight gradient must satisfy ⟨σ'(U)⊙conv(x; dW), g⟩ == ⟨dW, gradW⟩.
func TestSpikingConvWeightGradAdjoint(t *testing.T) {
	l := NewSpikingConv2D("c", 3, 3, 1, 1, testNeuron(), snn.FastSigmoid{})
	buildLayer(t, l, []int{2, 5, 5})
	r := tensor.NewRNG(11)
	x := tensor.New(2, 2, 5, 5)
	r.FillUniform(x, 0, 1.5)
	st := l.Forward(x, nil)
	g := tensor.New(outShape(st)...)
	r.FillNorm(g, 0, 1)
	l.gradW.Zero()
	l.gradB.Zero()
	l.Backward(x, st, g, nil)

	dW := tensor.New(l.weight.Shape()...)
	r.FillNorm(dW, 0, 1)
	lin := tensor.New(outShape(st)...)
	tensor.Conv2D(nil, lin, x, dW, nil, l.Spec, nil)
	for i := range lin.Data {
		lin.Data[i] *= l.Surrogate.Grad(st.U.Data[i], l.Neuron.Threshold)
	}
	lhs := float64(tensor.Dot(lin, g))
	rhs := float64(tensor.Dot(dW, l.gradW))
	if math.Abs(lhs-rhs) > 1e-2*math.Max(1, math.Abs(lhs)) {
		t.Fatalf("weight-grad adjoint violated: %v vs %v", lhs, rhs)
	}
}

// δ recursion: with deltaIn, delta must gain λ·deltaIn exactly.
func TestSpikingConvDeltaRecursion(t *testing.T) {
	l := NewSpikingConv2D("c", 2, 3, 1, 1, testNeuron(), snn.Triangle{})
	buildLayer(t, l, []int{1, 4, 4})
	r := tensor.NewRNG(13)
	x := tensor.New(1, 1, 4, 4)
	r.FillUniform(x, 0, 1.5)
	st := l.Forward(x, nil)
	g := tensor.New(outShape(st)...)
	r.FillNorm(g, 0, 1)

	l.gradW.Zero()
	l.gradB.Zero()
	_, d0 := l.Backward(x, st, g, nil)

	din := &Delta{D: tensor.New(st.U.Shape()...)}
	din.D.Fill(2)
	l.gradW.Zero()
	l.gradB.Zero()
	_, d1 := l.Backward(x, st, g, din)
	for i := range d0.D.Data {
		want := d0.D.Data[i] + l.Neuron.Leak*2
		if math.Abs(float64(d1.D.Data[i]-want)) > 1e-5 {
			t.Fatalf("delta recursion wrong at %d: %v want %v", i, d1.D.Data[i], want)
		}
	}
}

func TestSpikingLinearShapes(t *testing.T) {
	l := NewSpikingLinear("fc", 10, testNeuron(), snn.Triangle{})
	out := buildLayer(t, l, []int{4, 2, 2})
	if out[0] != 10 {
		t.Fatalf("out = %v", out)
	}
	x := tensor.New(3, 4, 2, 2)
	st := l.Forward(x, nil)
	if o := outShape(st); o[0] != 3 || o[1] != 10 {
		t.Fatalf("forward shape %v", o)
	}
	g := tensor.New(3, 10)
	gradIn, _ := l.Backward(x, st, g, nil)
	if !gradIn.SameShape(x) {
		t.Fatalf("gradIn shape %v, want %v", gradIn.Shape(), x.Shape())
	}
}

func TestSpikingLinearRequiresSurrogate(t *testing.T) {
	l := &SpikingLinear{Out: 4, Neuron: testNeuron(), Label: "fc"}
	if _, err := l.Build([]int{8}, tensor.NewRNG(1)); err == nil {
		t.Fatal("non-readout linear without surrogate must fail Build")
	}
}

func TestReadoutIntegratesWithoutSpiking(t *testing.T) {
	l := NewReadout("out", 3, snn.Params{Leak: 0.5, Threshold: 1})
	buildLayer(t, l, []int{2})
	x := tensor.FromSlice([]float32{1, 0}, 1, 2)
	st1 := l.Forward(x, nil)
	st2 := l.Forward(x, st1)
	// U2 = 0.5*U1 + I where I is identical each step -> U2 = 1.5*I
	for i := range st1.U.Data {
		want := 1.5 * st1.U.Data[i]
		if math.Abs(float64(st2.U.Data[i]-want)) > 1e-5 {
			t.Fatalf("readout integration wrong: %v want %v", st2.U.Data[i], want)
		}
	}
	// The output is the membrane, not spikes, and the record keeps it once.
	if output(nil, l, st2, nil) != st2.U || st2.O != nil {
		t.Fatal("a readout's output must be its record's U")
	}
}

// Full-temporal finite-difference check through the exactly-differentiable
// readout path: a single readout layer unrolled T steps with loss at the
// final step. This validates the λ-recursion of BackwardStep end to end.
func TestReadoutBPTTFiniteDifference(t *testing.T) {
	const T = 5
	nrn := snn.Params{Leak: 0.8, Threshold: 1}
	net := NewNetwork("ro", []int{3}, NewReadout("out", 2, nrn))
	if err := net.Build(tensor.NewRNG(2)); err != nil {
		t.Fatal(err)
	}
	r := tensor.NewRNG(3)
	xs := make([]*tensor.Tensor, T)
	for i := range xs {
		xs[i] = tensor.New(2, 3)
		r.FillNorm(xs[i], 0, 1)
	}
	labels := []int{0, 1}

	run := func() float64 {
		var states []*LayerState
		for tt := 0; tt < T; tt++ {
			states = net.ForwardStep(xs[tt], states)
		}
		loss, _ := tensor.CrossEntropy(net.Logits(states), labels, nil)
		return loss
	}

	// Analytic gradient via full BPTT.
	net.ZeroGrads()
	all := make([][]*LayerState, T)
	var states []*LayerState
	for tt := 0; tt < T; tt++ {
		states = net.ForwardStep(xs[tt], states)
		all[tt] = states
	}
	dlogits := tensor.New(2, 2)
	tensor.CrossEntropy(net.Logits(all[T-1]), labels, dlogits)
	var deltas []*Delta
	for tt := T - 1; tt >= 0; tt-- {
		gr := map[int]*tensor.Tensor{}
		if tt == T-1 {
			gr[0] = dlogits
		}
		deltas = net.BackwardStep(xs[tt], all[tt], gr, deltas)
	}

	p := net.Params()[0] // weight
	eps := float32(1e-3)
	for i := 0; i < p.W.Len(); i++ {
		old := p.W.Data[i]
		p.W.Data[i] = old + eps
		lp := run()
		p.W.Data[i] = old - eps
		lm := run()
		p.W.Data[i] = old
		fd := (lp - lm) / (2 * float64(eps))
		if math.Abs(fd-float64(p.G.Data[i])) > 5e-3 {
			t.Fatalf("weight grad[%d] = %v, finite-diff %v", i, p.G.Data[i], fd)
		}
	}
}

func TestAvgPoolLayer(t *testing.T) {
	l := NewAvgPool2D("p", 2)
	out := buildLayer(t, l, []int{3, 8, 8})
	if out[0] != 3 || out[1] != 4 || out[2] != 4 {
		t.Fatalf("pool out = %v", out)
	}
	if l.Stateful() {
		t.Fatal("pool must be stateless")
	}
	x := tensor.New(2, 3, 8, 8)
	x.Fill(1)
	st := l.Forward(x, nil)
	for _, v := range st.O.Data {
		if v != 1 {
			t.Fatalf("avg of ones = %v", v)
		}
	}
	g := tensor.New(2, 3, 4, 4)
	g.Fill(4)
	gradIn, d := l.Backward(x, st, g, nil)
	if d != nil {
		t.Fatal("stateless layer must return nil delta")
	}
	for _, v := range gradIn.Data {
		if v != 1 {
			t.Fatalf("pool grad = %v, want 1", v)
		}
	}
}

func TestAvgPoolRejectsIndivisible(t *testing.T) {
	l := NewAvgPool2D("p", 3)
	if _, err := l.Build([]int{1, 8, 8}, tensor.NewRNG(1)); err == nil {
		t.Fatal("pool should reject non-dividing window")
	}
}

func TestGlobalAvgPoolLayer(t *testing.T) {
	l := NewGlobalAvgPool("gap")
	out := buildLayer(t, l, []int{5, 4, 4})
	if len(out) != 1 || out[0] != 5 {
		t.Fatalf("gap out = %v", out)
	}
	x := tensor.New(2, 5, 4, 4)
	x.Fill(3)
	st := l.Forward(x, nil)
	for _, v := range st.O.Data {
		if v != 3 {
			t.Fatalf("gap = %v", v)
		}
	}
	g := tensor.New(2, 5)
	g.Fill(16)
	gradIn, _ := l.Backward(x, st, g, nil)
	for _, v := range gradIn.Data {
		if v != 1 {
			t.Fatalf("gap grad = %v", v)
		}
	}
}

func TestDropoutMaskFrozenAndDeterministic(t *testing.T) {
	l := NewDropout("d", 0.5)
	buildLayer(t, l, []int{4, 2, 2})
	l.BeginIteration(tensor.NewRNG(7))
	x := tensor.New(1, 4, 2, 2)
	x.Fill(1)
	a := l.Forward(x, nil)
	b := l.Forward(x, nil)
	for i := range a.O.Data {
		if a.O.Data[i] != b.O.Data[i] {
			t.Fatal("dropout mask changed within an iteration")
		}
	}
	// Same seed -> same mask.
	l2 := NewDropout("d", 0.5)
	buildLayer(t, l2, []int{4, 2, 2})
	l2.BeginIteration(tensor.NewRNG(7))
	c := l2.Forward(x, nil)
	for i := range a.O.Data {
		if a.O.Data[i] != c.O.Data[i] {
			t.Fatal("dropout mask not reproducible from seed")
		}
	}
}

func TestDropoutEvalIsIdentity(t *testing.T) {
	l := NewDropout("d", 0.5)
	buildLayer(t, l, []int{10})
	x := tensor.New(2, 10)
	tensor.NewRNG(1).FillNorm(x, 0, 1)
	st := l.Forward(x, nil) // no BeginIteration: eval mode
	for i := range x.Data {
		if st.O.Data[i] != x.Data[i] {
			t.Fatal("eval dropout must be identity")
		}
	}
	l.BeginIteration(tensor.NewRNG(2))
	l.EndIteration()
	st = l.Forward(x, nil)
	for i := range x.Data {
		if st.O.Data[i] != x.Data[i] {
			t.Fatal("EndIteration must restore identity")
		}
	}
}

func TestDropoutScalesSurvivors(t *testing.T) {
	l := NewDropout("d", 0.5)
	buildLayer(t, l, []int{1000})
	l.BeginIteration(tensor.NewRNG(9))
	x := tensor.New(1, 1000)
	x.Fill(1)
	st := l.Forward(x, nil)
	var kept int
	for _, v := range st.O.Data {
		if v != 0 {
			if math.Abs(float64(v)-2) > 1e-6 {
				t.Fatalf("survivor scaled to %v, want 2", v)
			}
			kept++
		}
	}
	if kept < 400 || kept > 600 {
		t.Fatalf("kept %d of 1000 at p=0.5", kept)
	}
}

func TestDropoutRejectsBadP(t *testing.T) {
	l := NewDropout("d", 1.0)
	if _, err := l.Build([]int{4}, tensor.NewRNG(1)); err == nil {
		t.Fatal("p=1 must be rejected")
	}
}

func TestResidualBlockIdentity(t *testing.T) {
	l := NewResidualBlock("rb", 4, 1, testNeuron(), snn.Triangle{})
	out := buildLayer(t, l, []int{4, 8, 8})
	if out[0] != 4 || out[1] != 8 || out[2] != 8 {
		t.Fatalf("identity block out = %v", out)
	}
	if !l.identity {
		t.Fatal("same-shape block should use identity shortcut")
	}
	if l.ConvCount() != 2 || len(l.Params()) != 4 {
		t.Fatalf("identity block params = %d", len(l.Params()))
	}
}

func TestResidualBlockProjection(t *testing.T) {
	l := NewResidualBlock("rb", 8, 2, testNeuron(), snn.Triangle{})
	out := buildLayer(t, l, []int{4, 8, 8})
	if out[0] != 8 || out[1] != 4 || out[2] != 4 {
		t.Fatalf("projection block out = %v", out)
	}
	if l.identity || l.ConvCount() != 3 || len(l.Params()) != 5 {
		t.Fatal("downsampling block should have a projection shortcut")
	}
}

func TestResidualBlockForwardBackwardShapes(t *testing.T) {
	for _, stride := range []int{1, 2} {
		l := NewResidualBlock("rb", 6, stride, testNeuron(), snn.Triangle{})
		buildLayer(t, l, []int{3, 8, 8})
		r := tensor.NewRNG(21)
		x := tensor.New(2, 3, 8, 8)
		r.FillUniform(x, 0, 1.5)
		st := l.Forward(x, nil)
		if len(st.Sub) != 1 || st.Sub[0].U == nil {
			t.Fatal("block state must carry the first stage")
		}
		st2 := l.Forward(x, st)
		g := tensor.New(outShape(st2)...)
		r.FillNorm(g, 0, 1)
		gradIn, d := l.Backward(x, st2, g, nil)
		if !gradIn.SameShape(x) {
			t.Fatalf("gradIn shape %v", gradIn.Shape())
		}
		if d == nil || len(d.Sub) != 1 {
			t.Fatal("block delta must mirror state structure")
		}
		// Delta recursion with sub-deltas must not panic and must add λ·din.
		_, d2 := l.Backward(x, st2, g, d)
		if d2.D == nil || d2.Sub[0].D == nil {
			t.Fatal("recursed delta incomplete")
		}
	}
}

func TestNetworkBuildAndSummary(t *testing.T) {
	nrn := testNeuron()
	net := NewNetwork("tiny", []int{2, 8, 8},
		NewSpikingConv2D("conv1", 4, 3, 1, 1, nrn, snn.Triangle{}),
		NewAvgPool2D("pool1", 2),
		NewSpikingConv2D("conv2", 8, 3, 1, 1, nrn, snn.Triangle{}),
		NewAvgPool2D("pool2", 2),
		NewReadout("out", 5, nrn),
	)
	if err := net.Build(tensor.NewRNG(1)); err != nil {
		t.Fatal(err)
	}
	if got := net.OutShape(); len(got) != 1 || got[0] != 5 {
		t.Fatalf("OutShape = %v", got)
	}
	if got := net.StatefulCount(); got != 3 {
		t.Fatalf("StatefulCount = %d, want 3", got)
	}
	if net.ParamCount() == 0 || net.ParamBytes() == 0 {
		t.Fatal("network should have parameters")
	}
	if s := net.Summary(); len(s) == 0 {
		t.Fatal("Summary empty")
	}
	if net.RecordBytes(4) <= 0 {
		t.Fatal("RecordBytes must be positive")
	}
	if net.WorkspaceBytes(4) <= 0 {
		t.Fatal("WorkspaceBytes must be positive")
	}
}

func TestNetworkStatefulCountResidual(t *testing.T) {
	nrn := testNeuron()
	net := NewNetwork("res", []int{2, 8, 8},
		NewSpikingConv2D("stem", 4, 3, 1, 1, nrn, snn.Triangle{}),
		NewResidualBlock("rb1", 4, 1, nrn, snn.Triangle{}),
		NewGlobalAvgPool("gap"),
		NewReadout("out", 3, nrn),
	)
	if err := net.Build(tensor.NewRNG(1)); err != nil {
		t.Fatal(err)
	}
	// stem(1) + block(2 LIF stages) + readout(1) = 4
	if got := net.StatefulCount(); got != 4 {
		t.Fatalf("StatefulCount = %d, want 4", got)
	}
}

func TestNetworkForwardBackwardRoundTrip(t *testing.T) {
	nrn := testNeuron()
	net := NewNetwork("tiny", []int{2, 8, 8},
		NewSpikingConv2D("conv1", 4, 3, 1, 1, nrn, snn.Triangle{}),
		NewAvgPool2D("pool1", 2),
		NewReadout("out", 3, nrn),
	)
	if err := net.Build(tensor.NewRNG(1)); err != nil {
		t.Fatal(err)
	}
	r := tensor.NewRNG(2)
	x := tensor.New(2, 2, 8, 8)
	r.FillUniform(x, 0, 1.5)

	var states []*LayerState
	for tt := 0; tt < 4; tt++ {
		states = net.ForwardStep(x, states)
	}
	logits := net.Logits(states)
	if logits.Dim(0) != 2 || logits.Dim(1) != 3 {
		t.Fatalf("logits shape %v", logits.Shape())
	}
	if s := net.SpikeSum(states); s < 0 {
		t.Fatalf("SpikeSum = %v", s)
	}
	dl := tensor.New(2, 3)
	dl.Fill(0.1)
	net.ZeroGrads()
	deltas := net.BackwardStep(x, states, map[int]*tensor.Tensor{2: dl}, nil)
	if len(deltas) != 3 {
		t.Fatalf("deltas = %d", len(deltas))
	}
	if deltas[1] != nil {
		t.Fatal("pool layer delta must be nil")
	}
	var gradNorm float32
	for _, p := range net.Params() {
		gradNorm += tensor.Norm2(p.G)
	}
	if gradNorm == 0 {
		t.Fatal("backward produced no gradients")
	}
	net.ZeroGrads()
	for _, p := range net.Params() {
		if tensor.Norm2(p.G) != 0 {
			t.Fatal("ZeroGrads left residue")
		}
	}
}

func TestNetworkSpikeSumExcludesReadout(t *testing.T) {
	nrn := testNeuron()
	net := NewNetwork("ro-only", []int{4}, NewReadout("out", 2, nrn))
	if err := net.Build(tensor.NewRNG(1)); err != nil {
		t.Fatal(err)
	}
	x := tensor.New(1, 4)
	x.Fill(5) // large membrane values in readout
	states := net.ForwardStep(x, nil)
	if s := net.SpikeSum(states); s != 0 {
		t.Fatalf("SpikeSum must exclude the readout membrane, got %v", s)
	}
}

func TestNetworkUnbuiltPanics(t *testing.T) {
	net := NewNetwork("x", []int{1}, NewReadout("out", 2, testNeuron()))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on unbuilt use")
		}
	}()
	net.ForwardStep(tensor.New(1, 1), nil)
}

func TestMaxPoolLayer(t *testing.T) {
	l := NewMaxPool2D("mp", 2)
	out := buildLayer(t, l, []int{2, 4, 4})
	if out[1] != 2 || out[2] != 2 {
		t.Fatalf("maxpool out = %v", out)
	}
	x := tensor.New(1, 2, 4, 4)
	tensor.NewRNG(3).FillNorm(x, 0, 1)
	st := l.Forward(x, nil)
	if st.U == nil {
		t.Fatal("maxpool must record indices in U")
	}
	g := tensor.New(1, 2, 2, 2)
	g.Fill(1)
	gradIn, d := l.Backward(x, st, g, nil)
	if d != nil {
		t.Fatal("maxpool must be stateless")
	}
	// The gradient mass routes to exactly one element per window.
	if got := tensor.Sum(gradIn); got != 8 {
		t.Fatalf("gradient mass %v, want 8", got)
	}
	if tensor.CountNonZero(gradIn) != 8 {
		t.Fatalf("gradient spread over %d positions, want 8", tensor.CountNonZero(gradIn))
	}
}

// Max pooling participates in checkpointed training: its recomputed indices
// must be identical, so the full forward/backward round trip through a
// network containing it stays deterministic.
func TestMaxPoolInNetwork(t *testing.T) {
	nrn := testNeuron()
	net := NewNetwork("mp-net", []int{2, 8, 8},
		NewSpikingConv2D("c1", 4, 3, 1, 1, nrn, snn.Triangle{}),
		NewMaxPool2D("mp", 2),
		NewReadout("out", 3, nrn),
	)
	if err := net.Build(tensor.NewRNG(5)); err != nil {
		t.Fatal(err)
	}
	x := tensor.New(2, 2, 8, 8)
	tensor.NewRNG(6).FillUniform(x, 0, 1.5)
	a := net.ForwardStep(x, nil)
	b := net.ForwardStep(x, nil)
	for i := range a[1].U.Data {
		if a[1].U.Data[i] != b[1].U.Data[i] {
			t.Fatal("maxpool indices not reproducible")
		}
	}
	dl := tensor.New(2, 3)
	dl.Fill(0.2)
	net.ZeroGrads()
	net.BackwardStep(x, a, map[int]*tensor.Tensor{2: dl}, nil)
	var norm float32
	for _, p := range net.Params() {
		norm += tensor.Norm2(p.G)
	}
	if norm == 0 {
		t.Fatal("no gradients through maxpool")
	}
}
