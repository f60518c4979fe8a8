package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"skipper"
)

// lastLines decodes the result lines the run printed last, one per workload.
func lastLines(t *testing.T, out string, n int) []resultLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < n {
		t.Fatalf("output has %d lines:\n%s", len(lines), out)
	}
	var res []resultLine
	for _, l := range lines[len(lines)-n:] {
		var r resultLine
		if err := json.Unmarshal([]byte(l), &r); err != nil {
			t.Fatalf("last line is not the result object: %v\n%s", err, l)
		}
		res = append(res, r)
	}
	return res
}

func checkLine(t *testing.T, r resultLine, specs []metricSpec) {
	t.Helper()
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
	}
	if len(r.Metrics) != len(specs) {
		t.Errorf("%d metrics printed, want %d", len(r.Metrics), len(specs))
	}
	for _, s := range specs {
		m, ok := r.Metrics[s.Name]
		if !ok || m.Unit != s.Unit {
			t.Errorf("metric %s: present=%v unit=%q want %q", s.Name, ok, m.Unit, s.Unit)
		}
	}
}

// The smoke configuration (two rounds of small blocks) drives three
// workloads untraced and the fourth traced — whose first pass is an untraced
// run of it — with every correctness check on.
func TestSmokeRunsEveryWorkloadAndCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("the smoke runs take about 15 s")
	}
	var buf bytes.Buffer
	for _, wl := range workloads[:3] {
		buf.Reset()
		if err := run(&buf, wl.Name, 1, 0, false, 0, true, false); err != nil {
			t.Fatalf("untraced smoke: %v\n%s", err, buf.String())
		}
		r := lastLines(t, buf.String(), 1)[0]
		checkLine(t, r, endToEnd)
		for _, s := range endToEnd {
			if r.Metrics[s.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %g, want > 0", wl.Name, s.Name, r.Metrics[s.Name].Value)
			}
		}
	}

	buf.Reset()
	if err := run(&buf, "stream_sessions", 1, 0, true, 0, true, false); err != nil {
		t.Fatalf("traced smoke: %v\n%s", err, buf.String())
	}
	checkLine(t, lastLines(t, buf.String(), 1)[0], perLayer)
	for _, want := range []string{"layer table", "trace-stream_sessions.json", "stream.quiet_window", "skipper.train_step", "router.request"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("traced output lacks %q", want)
		}
	}
}

func TestUnknownWorkloadIsAnError(t *testing.T) {
	if err := run(&bytes.Buffer{}, "no_such_workload", 1, 1, false, 0, true, false); err == nil {
		t.Error("an unknown workload must fail the run")
	}
}

// fakeRuns is a training result that passes every rule.
func fakeRuns() []*strategyRun {
	steps := func(loss float64, skipped int) []stepSample {
		return []stepSample{{Stats: skipper.StepStats{Loss: loss, SkippedSteps: skipped}}, {Stats: skipper.StepStats{Loss: loss, SkippedSteps: skipped}}}
	}
	return []*strategyRun{
		{Key: "bptt", Hash: 0xdef, Final: 0xabc, steps: steps(2.0, 0)},
		{Key: "ckpt", Hash: 0xdef, Final: 0xabc, steps: steps(2.0, 0)},
		{Key: "skipper", Hash: 0x456, Final: 0x789, steps: steps(2.1, 20)},
	}
}

// Flipping one expected hash, or breaking any other rule, must be reported:
// a reported problem makes the run incorrect and its exit code non-zero.
func TestTrainingChecksCatchEachViolation(t *testing.T) {
	if bad := checkTraining(fakeRuns()); len(bad) != 0 {
		t.Fatalf("a clean result was flagged: %v", bad)
	}
	flipped := fakeRuns()
	flipped[1].Hash ^= 1
	flippedLast := fakeRuns()
	flippedLast[1].Final ^= 1
	noSkip := fakeRuns()
	noSkip[2].steps = fakeRuns()[0].steps
	drift := fakeRuns()
	for i := range drift[2].steps {
		drift[2].steps[i].Stats.Loss = 2.4
	}
	for name, runs := range map[string][]*strategyRun{"flipped hash": flipped, "flipped final hash": flippedLast, "no skipped steps": noSkip, "loss drift": drift} {
		if bad := checkTraining(runs); len(bad) == 0 {
			t.Errorf("%s was not caught", name)
		}
	}

	out := &runOutput{Metrics: map[string]float64{}, Problems: checkTraining(flipped)}
	if out.line(false).Correct {
		t.Error("a run with a flipped hash printed correct=true")
	}
}

func TestServingAndStreamingChecks(t *testing.T) {
	sv := &serveResult{}
	for k := 0; k < probeFrames; k++ {
		sv.Probes.note(k, true)
	}
	if bad := checkServing(sv); len(bad) != 0 {
		t.Fatalf("a clean serving result was flagged: %v", bad)
	}
	sv.Probes.note(3, false)
	sv.Failed = 1
	if bad := checkServing(sv); len(bad) != 2 {
		t.Errorf("want a failure and a probe mismatch, got %v", bad)
	}
	st := &streamResult{Replayed: 40}
	if bad := checkStreaming(st, 12); len(bad) != 0 {
		t.Fatalf("a clean streaming result was flagged: %v", bad)
	}
	st.ReplayDiff, st.ClosedBad = 1, 2
	if bad := checkStreaming(st, 0); len(bad) != 3 {
		t.Errorf("want failed windows, no skipped window and a replay difference, got %v", bad)
	}
}
