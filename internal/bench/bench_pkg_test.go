package bench

import (
	"bytes"
	"strings"
	"testing"

	"skipper/internal/core"
)

func TestParseScale(t *testing.T) {
	for s, want := range map[string]Scale{"tiny": Tiny, "small": Small, "": Small, "full": Full} {
		got, err := ParseScale(s)
		if err != nil || got != want {
			t.Fatalf("ParseScale(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Fatal("bad scale must error")
	}
	if Tiny.String() != "tiny" || Small.String() != "small" || Full.String() != "full" {
		t.Fatal("Scale.String wrong")
	}
}

func TestRegistryComplete(t *testing.T) {
	// Every table and figure in the paper's evaluation must have a runner.
	want := []string{
		"fig3ab", "fig3cd", "fig3ef", "fig4a", "fig4b", "fig7",
		"table1", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
		"fig14", "fig15", "table2", "fig16",
		"ablate-sam", "ablate-p", "ablate-surrogate", "ablate-placement",
	}
	for _, id := range want {
		if _, err := Get(id); err != nil {
			t.Fatalf("missing experiment %q: %v", id, err)
		}
	}
	if len(IDs()) != len(want) {
		t.Fatalf("registry has %d experiments, manifest lists %d: %v", len(IDs()), len(want), IDs())
	}
	if _, err := Get("nope"); err == nil {
		t.Fatal("unknown id must error")
	}
}

func TestWorkloadConstraints(t *testing.T) {
	for model := range paperWorkloads {
		for _, sc := range []Scale{Tiny, Small, Full} {
			w, err := WorkloadFor(model, sc)
			if err != nil {
				t.Fatalf("%s/%v: %v", model, sc, err)
			}
			net, err := w.buildNet()
			if err != nil {
				t.Fatal(err)
			}
			ln := net.StatefulCount()
			if err := core.ValidateCheckpoints(w.T, w.C, ln); err != nil {
				t.Fatalf("%s/%v: %v", model, sc, err)
			}
			if err := core.ValidateSkip(w.T, w.C, ln, w.P); err != nil {
				t.Fatalf("%s/%v: %v", model, sc, err)
			}
			if w.TrW <= ln || w.TrW > w.T {
				t.Fatalf("%s/%v: trW %d invalid for L_n %d, T %d", model, sc, w.TrW, ln, w.T)
			}
			if len(w.Batches) == 0 {
				t.Fatalf("%s/%v: empty batch sweep", model, sc)
			}
		}
	}
}

func TestWorkloadForUnknownModel(t *testing.T) {
	if _, err := WorkloadFor("nope", Tiny); err == nil {
		t.Fatal("unknown model must error")
	}
}

func TestMeasureProducesSaneNumbers(t *testing.T) {
	w, err := WorkloadFor("vgg5", Tiny)
	if err != nil {
		t.Fatal(err)
	}
	m, err := w.measure(core.Checkpoint{C: w.C}, 2, measureOpts{batches: 1, seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.TimePerBatch <= 0 || m.PeakReserved <= 0 || m.PeakTensors <= 0 {
		t.Fatalf("measurement degenerate: %+v", m)
	}
	if m.PeakTensors > m.PeakReserved {
		t.Fatal("tensors cannot exceed reserved")
	}
	if m.Stats.N == 0 {
		t.Fatal("no samples measured")
	}
}

// Every registered experiment must run to completion at Tiny scale and
// produce non-empty output. This is the harness's end-to-end smoke test.
func TestAllExperimentsRunAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("tiny-scale experiment sweep skipped in -short mode")
	}
	cfg := RunConfig{Scale: Tiny, Seed: 1}
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			e, err := Get(id)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := e.Run(cfg, &buf); err != nil {
				t.Fatalf("%s failed: %v\noutput so far:\n%s", id, err, buf.String())
			}
			if buf.Len() == 0 {
				t.Fatalf("%s produced no output", id)
			}
			if !strings.Contains(buf.String(), id) {
				t.Fatalf("%s output missing its banner:\n%s", id, buf.String())
			}
		})
	}
}
