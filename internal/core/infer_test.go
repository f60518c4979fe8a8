package core

import (
	"testing"

	"skipper/internal/dataset"
	"skipper/internal/layers"
	"skipper/internal/models"
	"skipper/internal/tensor"
)

// TestInferMatchesEvaluatePath checks the inference path against a manual
// rolling-state forward: full-horizon predictions are the argmax of the
// time-accumulated readout output.
func TestInferMatchesEvaluatePath(t *testing.T) {
	src, err := dataset.Open("nmnist", 7)
	if err != nil {
		t.Fatal(err)
	}
	net, err := models.Build("customnet", models.Options{Width: 0.5, Classes: src.Classes(), InShape: src.InShape()})
	if err != nil {
		t.Fatal(err)
	}
	const T, B = 12, 4
	input, _ := src.SpikeBatch(dataset.Test, []int{0, 1, 2, 3}, T)

	res := InferStream(net, len(input), func(tt int) *tensor.Tensor { return input[tt] }, InferOptions{})
	if res.StepsRun != T || res.StepsSaved() != 0 || res.EarlyExits() != 0 {
		t.Fatalf("full run must execute all steps: %+v", res)
	}

	// Reference: step manually, argmax at the last step.
	net2, err := models.Build("customnet", models.Options{Width: 0.5, Classes: src.Classes(), InShape: src.InShape()})
	if err != nil {
		t.Fatal(err)
	}
	var st []*layers.LayerState
	var acc *tensor.Tensor
	for tt := 0; tt < T; tt++ {
		st = net2.ForwardStep(input[tt], st)
		if acc == nil {
			acc = tensor.New(net2.Logits(st).Shape()...)
		}
		tensor.AXPY(acc, 1, net2.Logits(st))
	}
	want := tensor.Argmax(acc)
	for i := range want {
		if res.Preds[i] != want[i] {
			t.Fatalf("sample %d: Infer pred %d, reference %d", i, res.Preds[i], want[i])
		}
		if res.ExitSteps[i] != T-1 {
			t.Fatalf("sample %d: exit step %d without early exit", i, res.ExitSteps[i])
		}
	}
}

// trainedInferNet builds a model and trains it for a few BPTT batches on the
// synthetic dataset, the regime the early-exit rule targets (an untrained
// readout drifts over the whole horizon, so "stable for K steps" carries no
// information there).
func trainedInferNet(t *testing.T, model, data string, T int) (*layers.Network, dataset.Source) {
	t.Helper()
	src, err := dataset.Open(data, 7)
	if err != nil {
		t.Fatal(err)
	}
	net, err := models.Build(model, models.Options{Width: 0.5, Classes: src.Classes(), InShape: src.InShape()})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTrainer(net, src, BPTT{}, Config{T: T, Batch: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	idx := dataset.Indices(src, dataset.Train, 7, 1, true)
	for _, b := range dataset.Batches(idx, 8)[:12] {
		if _, err := tr.TrainBatchIndices(dataset.Train, b); err != nil {
			t.Fatal(err)
		}
	}
	return net, src
}

// TestEarlyExitMatchesFullHorizon is the property test for the exit rule:
// whenever a sample exits early with a stability window K >= 3, its frozen
// prediction must equal the full-horizon prediction. The whole pipeline is
// deterministic (synthetic datasets, seeded init, seeded training), so this
// is reproducible.
func TestEarlyExitMatchesFullHorizon(t *testing.T) {
	cases := []struct {
		model, data string
		T           int
	}{
		{"customnet", "nmnist", 28},
		{"lenet", "dvsgesture", 36},
	}
	triggered := 0
	for _, tc := range cases {
		net, src := trainedInferNet(t, tc.model, tc.data, 16)
		for _, K := range []int{3, 4, 6} {
			idx := []int{0, 1, 2, 3, 4, 5}
			input, _ := src.SpikeBatch(dataset.Test, idx, tc.T)
			full := InferStream(net, len(input), func(tt int) *tensor.Tensor { return input[tt] }, InferOptions{})
			// A conservative confidence gate: event-stream inputs carry
			// time-varying evidence, so thin-margin leaders can still be
			// overturned late in the horizon. The gate keeps such samples
			// running; the property below is over the ones that do exit.
			early := InferStream(net, len(input), func(tt int) *tensor.Tensor { return input[tt] }, InferOptions{EarlyExit: true, K: K, MinMargin: 0.2})
			if early.StepsRun > full.StepsRun {
				t.Fatalf("%s K=%d: early exit ran %d > %d steps", tc.model, K, early.StepsRun, full.StepsRun)
			}
			for i := range early.Preds {
				if early.ExitSteps[i] >= tc.T-1 {
					continue // no exit for this sample: nothing to check
				}
				triggered++
				if early.Preds[i] != full.Preds[i] {
					t.Errorf("%s K=%d sample %d: early pred %d (exit t=%d) != full pred %d",
						tc.model, K, i, early.Preds[i], early.ExitSteps[i], full.Preds[i])
				}
			}
			if saved := early.StepsSaved(); saved != tc.T-early.StepsRun {
				t.Fatalf("StepsSaved %d inconsistent with StepsRun %d", saved, early.StepsRun)
			}
		}
	}
	if triggered == 0 {
		t.Fatal("early exit never triggered; property test is vacuous — lower K or raise T")
	}
	t.Logf("early exit triggered for %d (model,K,sample) combinations", triggered)
}

// TestInferStreamLazyEncoding checks that early exit stops pulling input
// timesteps (the generation saving the serving path relies on).
func TestInferStreamLazyEncoding(t *testing.T) {
	src, err := dataset.Open("nmnist", 7)
	if err != nil {
		t.Fatal(err)
	}
	net, err := models.Build("customnet", models.Options{Width: 0.5, Classes: src.Classes(), InShape: src.InShape()})
	if err != nil {
		t.Fatal(err)
	}
	const T = 24
	input, _ := src.SpikeBatch(dataset.Test, []int{0, 1}, T)
	pulled := 0
	res := InferStream(net, T, func(tt int) *tensor.Tensor {
		if tt != pulled {
			t.Fatalf("out-of-order pull: got t=%d, want %d", tt, pulled)
		}
		pulled++
		return input[tt]
	}, InferOptions{EarlyExit: true, K: 3})
	if pulled != res.StepsRun {
		t.Fatalf("pulled %d steps, StepsRun %d", pulled, res.StepsRun)
	}
	// The batch steps until its slowest sample freezes.
	maxExit := 0
	for _, e := range res.ExitSteps {
		if e > maxExit {
			maxExit = e
		}
	}
	if res.StepsRun != maxExit+1 {
		t.Fatalf("StepsRun %d, max exit step %d: %+v", res.StepsRun, maxExit, res)
	}
}
