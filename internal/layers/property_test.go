package layers

import (
	"testing"
	"testing/quick"

	"skipper/internal/snn"
	"skipper/internal/tensor"
)

// Property: for any input magnitude and any number of steps, every spiking
// layer's output stays binary and its membrane stays finite.
func TestNetworkSpikesBinaryProperty(t *testing.T) {
	f := func(seed uint64, stepsRaw, ampRaw uint8) bool {
		steps := int(stepsRaw%6) + 1
		amp := float32(ampRaw%8) + 0.5
		nrn := snn.Params{Leak: 0.9, Threshold: 1}
		net := NewNetwork("prop", []int{2, 8, 8},
			NewSpikingConv2D("c1", 4, 3, 1, 1, nrn, snn.Triangle{}),
			NewAvgPool2D("p1", 2),
			NewSpikingConv2D("c2", 4, 3, 1, 1, nrn, snn.Triangle{}),
			NewReadout("out", 3, nrn),
		)
		if err := net.Build(tensor.NewRNG(seed)); err != nil {
			return false
		}
		r := tensor.NewRNG(seed ^ 0xABCD)
		x := tensor.New(1, 2, 8, 8)
		r.FillUniform(x, 0, amp)
		var states []*LayerState
		for s := 0; s < steps; s++ {
			states = net.ForwardStep(x, states)
			for i, st := range states {
				if _, isReadout := net.Layers[i].(*SpikingLinear); isReadout {
					continue
				}
				if st.U != nil && !st.U.IsFinite() {
					return false
				}
				if _, pool := net.Layers[i].(*AvgPool2D); pool {
					continue // pooled spikes are fractional averages
				}
				for _, v := range st.O.Data {
					if v != 0 && v != 1 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: SpikeSum equals the sum over layers of individual spike counts
// and is invariant under state cloning.
func TestSpikeSumConsistencyProperty(t *testing.T) {
	f := func(seed uint64) bool {
		nrn := snn.Params{Leak: 0.9, Threshold: 0.8}
		net := NewNetwork("prop", []int{1, 6, 6},
			NewSpikingConv2D("c1", 3, 3, 1, 1, nrn, snn.Triangle{}),
			NewReadout("out", 2, nrn),
		)
		if err := net.Build(tensor.NewRNG(seed)); err != nil {
			return false
		}
		x := tensor.New(2, 1, 6, 6)
		tensor.NewRNG(seed+1).FillUniform(x, 0, 2)
		states := net.ForwardStep(x, nil)
		total := net.SpikeSum(states)
		manual := float64(tensor.CountNonZero(states[0].O))
		return total == manual
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: Backward is linear in the output gradient — doubling gradOut
// doubles gradIn (the δ recursion is linear once the forward is fixed).
func TestBackwardLinearityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		nrn := snn.Params{Leak: 0.9, Threshold: 0.8}
		l := NewSpikingConv2D("c", 3, 3, 1, 1, nrn, snn.FastSigmoid{})
		if _, err := l.Build([]int{2, 6, 6}, tensor.NewRNG(seed)); err != nil {
			return false
		}
		r := tensor.NewRNG(seed + 7)
		x := tensor.New(1, 2, 6, 6)
		r.FillUniform(x, 0, 1.5)
		st := l.Forward(x, nil)
		g := tensor.New(outShape(st)...)
		r.FillNorm(g, 0, 1)

		l.gradW.Zero()
		l.gradB.Zero()
		gi1, _ := l.Backward(x, st, g, nil)
		g2 := g.Clone()
		tensor.Scale(g2, g2, 2)
		l.gradW.Zero()
		l.gradB.Zero()
		gi2, _ := l.Backward(x, st, g2, nil)
		for i := range gi1.Data {
			d := gi2.Data[i] - 2*gi1.Data[i]
			if d > 1e-4 || d < -1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: state records report a positive, additive byte footprint.
func TestStateBytesAdditiveProperty(t *testing.T) {
	f := func(a, b uint8) bool {
		u := tensor.New(int(a%16) + 1)
		o := tensor.New(int(b%16) + 1)
		st := &LayerState{U: u, O: o, Sub: []*LayerState{{O: o.Clone()}}}
		return st.Bytes() == u.Bytes()+2*o.Bytes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
