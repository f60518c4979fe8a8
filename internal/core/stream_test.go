package core

import (
	"strings"
	"testing"

	"skipper/internal/layers"
	"skipper/internal/snn"
	"skipper/internal/tensor"
)

// residualStreamNet is a stem conv, a residual block and a readout: the
// smallest stack whose stream record carries a sub-state (the block's first
// LIF stage, "layer01.sub0.*").
func residualStreamNet(t *testing.T) *layers.Network {
	t.Helper()
	nrn := snn.Params{Leak: 0.9, Threshold: 1}
	net := layers.NewNetwork("streamres", []int{2, 8, 8},
		layers.NewSpikingConv2D("stem", 4, 3, 1, 1, nrn, snn.Triangle{}),
		layers.NewResidualBlock("rb", 4, 1, nrn, snn.Triangle{}),
		layers.NewGlobalAvgPool("gap"),
		layers.NewReadout("out", 3, nrn),
	)
	if err := net.Build(tensor.NewRNG(5)); err != nil {
		t.Fatalf("build: %v", err)
	}
	return net
}

// TestStreamRestoreValidatesSubStates checks that Restore compares the whole
// state tree, sub-states included, with the one the network steps: a record
// that drops a residual block's inner stage, or gives it a wrong shape, is
// refused with an error instead of panicking on the next step.
func TestStreamRestoreValidatesSubStates(t *testing.T) {
	const batch = 2
	net := residualStreamNet(t)
	x := tensor.New(append([]int{batch}, net.InShape...)...)
	for i := range x.Data {
		if i%3 == 0 {
			x.Data[i] = 1
		}
	}
	src := NewStreamState(net, batch)
	src.StepInput(x)
	src.StepQuiet()
	rec := src.Capture()

	dst := NewStreamState(net, batch)
	if err := dst.Restore(rec, src.Steps()); err != nil {
		t.Fatalf("restoring its own record: %v", err)
	}
	src.StepInput(x)
	dst.StepInput(x)
	for i, v := range src.Logits().Data {
		if dst.Logits().Data[i] != v {
			t.Fatalf("restored stream logit %d = %v, want %v", i, dst.Logits().Data[i], v)
		}
	}

	var noSub, badSub []tensor.Named
	for _, n := range rec {
		switch {
		case strings.Contains(n.Name, ".sub0."):
			if strings.HasSuffix(n.Name, ".u") {
				badSub = append(badSub, tensor.Named{Name: n.Name, T: tensor.New(batch, 4, 8, 7)})
				continue
			}
		default:
			noSub = append(noSub, n)
		}
		badSub = append(badSub, n)
	}
	if len(noSub) == len(rec) {
		t.Fatal("record has no sub-state entries: the case would not exercise them")
	}
	for name, named := range map[string][]tensor.Named{"missing sub0": noSub, "wrong sub0.u shape": badSub} {
		s := NewStreamState(net, batch)
		if err := s.Restore(named, 2); err == nil {
			t.Errorf("%s: Restore accepted the record", name)
			continue
		}
		if s.Steps() != 0 || s.Logits() != nil {
			t.Errorf("%s: refused Restore changed the stream (steps %d)", name, s.Steps())
		}
		s.StepInput(x)
	}
}
