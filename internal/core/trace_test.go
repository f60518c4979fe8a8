package core

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"skipper/internal/models"
	"skipper/internal/trace"
)

// traceRun trains a capped epoch of the strategy on a runtime carrying the
// given tracer and returns the epoch aggregate plus the trained weights'
// checksum.
func traceRun(t *testing.T, strat Strategy, tr *trace.Tracer) (EpochStats, float64) {
	t.Helper()
	opts := []RuntimeOption{WithThreads(2), WithSeed(9)}
	if tr != nil {
		opts = append(opts, WithTracer(tr))
	}
	rt := NewRuntime(opts...)
	t.Cleanup(rt.Close)
	net, err := rt.BuildModel("customnet", models.Options{
		Width: 0.5, InShape: []int{3, 16, 16}, Classes: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := rt.OpenDataset("cifar10")
	if err != nil {
		t.Fatal(err)
	}
	trn, err := rt.NewTrainer(net, data, strat, Config{
		T: 12, Batch: 2, MaxBatchesPerEpoch: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(trn.Close)
	ep, err := trn.TrainEpoch()
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, p := range net.Params() {
		for _, v := range p.W.Data {
			sum += float64(v)
		}
	}
	return ep, sum
}

// The acceptance check for the tracing tentpole: the per-segment recompute
// and backward spans the tracer records must sum to the same wall-clock time
// EpochStats reports. phaseDone measures each phase once and feeds both
// consumers the same duration, so the agreement should be essentially exact;
// 5% covers only the float64 µs rounding in the span store.
func TestTraceSpansMatchEpochStats(t *testing.T) {
	for _, strat := range []Strategy{Skipper{C: 2, P: 15}, &AdaptiveSkipper{C: 2, P: 15}} {
		t.Run(strat.Name(), func(t *testing.T) {
			tc := trace.New(0)
			ep, _ := traceRun(t, strat, tc)

			within := func(name string, got, want float64) {
				t.Helper()
				if want == 0 {
					t.Fatalf("%s: epoch stats recorded zero seconds, cannot compare", name)
				}
				if rel := math.Abs(got-want) / want; rel > 0.05 {
					t.Errorf("%s spans sum to %.6fs, epoch stats say %.6fs (%.1f%% apart)",
						name, got, want, 100*rel)
				}
			}
			within("forward", tc.SpanSeconds("forward"), ep.ForwardTime.Seconds())
			within("recompute", tc.SpanSeconds("recompute"), ep.RecomputeTime.Seconds())
			within("backward", tc.SpanSeconds("backward"), ep.BackwardTime.Seconds())

			// The per-batch phases must be present too: every batch encodes
			// input and steps the optimizer, every segment selects survivors.
			for _, name := range []string{"encode", "opt_step", "sam_select"} {
				if tc.SpanSeconds(name) <= 0 {
					t.Errorf("no %q spans recorded", name)
				}
			}
			var buf bytes.Buffer
			if err := tc.WriteChromeTrace(&buf); err != nil {
				t.Fatal(err)
			}
			var dump struct {
				TraceEvents []struct {
					Name string           `json:"name"`
					Args map[string]int64 `json:"args"`
				} `json:"traceEvents"`
			}
			if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
				t.Fatal(err)
			}
			for _, ev := range dump.TraceEvents {
				if ev.Name != "sam_select" {
					continue
				}
				for _, key := range []string{"seg", "survivors"} {
					if _, ok := ev.Args[key]; !ok {
						t.Errorf("sam_select span lacks the %q attr: %+v", key, ev)
					}
				}
			}
			if tc.Dropped() != 0 {
				t.Errorf("tracer dropped %d events with the default cap", tc.Dropped())
			}
		})
	}
}

// Attaching a tracer observes training; it must never perturb it. The same
// seeded run with and without a tracer produces identical losses, step
// counts, and weights.
func TestTracingDoesNotChangeResults(t *testing.T) {
	plain, wPlain := traceRun(t, Skipper{C: 2, P: 15}, nil)
	traced, wTraced := traceRun(t, Skipper{C: 2, P: 15}, trace.New(0))

	plain.Duration, traced.Duration = 0, 0
	plain.ForwardTime, traced.ForwardTime = 0, 0
	plain.RecomputeTime, traced.RecomputeTime = 0, 0
	plain.BackwardTime, traced.BackwardTime = 0, 0
	if plain != traced {
		t.Errorf("epoch stats diverge with tracing on:\nplain:  %+v\ntraced: %+v", plain, traced)
	}
	if wPlain != wTraced {
		t.Errorf("weight checksum diverges with tracing on: %g vs %g", wPlain, wTraced)
	}
}
