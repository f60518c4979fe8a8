package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// BENCHMARK.json at the repository root must name exactly the workloads and
// metrics this program prints, with the same units and directions.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q", i, doc.Workloads[i].Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	check := func(kind string, i int, got, want metricSpec) {
		if got != want {
			t.Errorf("%s %d: BENCHMARK.json has %+v, spec.go has %+v", kind, i, got, want)
		}
		if !name.MatchString(want.Name) || !unit.MatchString(want.Unit) {
			t.Errorf("%s %s: name or unit %q breaks the contract's character rules", kind, want.Name, want.Unit)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d + %d metrics, spec.go %d + %d", len(doc.EndToEnd), len(doc.PerLayer), len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	var setup float64
	for i, m := range doc.EndToEnd {
		check("end_to_end", i, metricSpec{Name: m.Name, Unit: m.Unit, Better: m.Better}, endToEnd[i])
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Bound
		}
		seen[m.Name] = true
	}
	for _, m := range doc.EndToEnd {
		if m.Bound > setup {
			t.Errorf("%s has a larger bound than setup_s", m.Name)
		}
	}
	for i, m := range doc.PerLayer {
		check("per_layer", i, metricSpec{Name: m.Name, Unit: m.Unit, Better: m.Better}, perLayer[i])
		if seen[m.Name] {
			t.Errorf("metric name %s is used twice", m.Name)
		}
		seen[m.Name] = true
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 || len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d, paths %v", doc.RunSeconds, doc.Paths)
	}
}

// A traced run splits its time between its two passes; the smoke plan is a
// fixed two rounds whatever the time.
func TestPlanFor(t *testing.T) {
	if p := planFor(28, false, false); p.Seconds != 28 || p.MaxRounds != 0 || p.SetUps != 3 || p.Requests != fullPlan.Requests {
		t.Errorf("untraced plan %+v", p)
	}
	if p := planFor(28, true, false); p.Seconds != 14 || p.SetUps != 1 || p.MinRounds != fullPlan.MinRounds {
		t.Errorf("traced plan %+v", p)
	}
	if p := planFor(28, false, true); p.MaxRounds != 2 || p.MinRounds != 2 || p.Warm != 0 {
		t.Errorf("smoke plan %+v", p)
	}
	if len(workloads) != 4 {
		t.Errorf("%d workloads, the issue names four", len(workloads))
	}
}
