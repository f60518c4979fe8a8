package skipper

import (
	"testing"

	"skipper/internal/core"
	"skipper/internal/dataset"
	"skipper/internal/mem"
	"skipper/internal/models"
)

// TestBPTTStepDispatchesScaleWithLayers pins the walk's pool dispatches: a
// BPTT step of the events workload's network makes as many Pool runs at
// T = 8 as at T = 32. Every kernel of a layer, the LIF and δ scans
// included, takes the whole walk in one call, so the count grows with the
// layers and not with the steps.
func TestBPTTStepDispatchesScaleWithLayers(t *testing.T) {
	data, err := dataset.Open("dvsgesture", 1)
	if err != nil {
		t.Fatal(err)
	}
	runs := func(T int) int64 {
		rt := core.NewRuntime(core.WithThreads(2))
		defer rt.Close()
		net, err := rt.BuildModel("lenet", models.Options{Width: 0.5, InShape: data.InShape(), Classes: data.Classes()})
		if err != nil {
			t.Fatal(err)
		}
		tr, err := rt.NewTrainer(net, data, core.BPTT{}, core.Config{T: T, Batch: 4, Device: mem.Unlimited()})
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		before := rt.Pool().Stats().Runs
		if _, err := tr.TrainBatchIndices(dataset.Train, []int{3, 17, 42, 101}); err != nil {
			t.Fatal(err)
		}
		return rt.Pool().Stats().Runs - before
	}
	short, long := runs(8), runs(32)
	t.Logf("pool runs per BPTT step: %d at T=8, %d at T=32", short, long)
	if short != long {
		t.Fatalf("a BPTT step made %d pool runs at T=8 and %d at T=32: some kernel dispatches per step", short, long)
	}
}
