package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// A hand-built tree: a 100 ms step with two overlapping children covering
// 10..40 and 30..60, a grandchild inside the first, and a child that sticks
// out past the parent's end.
func TestSelfTimeSubtractsChildCover(t *testing.T) {
	msd := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{Name: "step", Parent: -1, Start: msd(0), End: msd(100)},
		{Name: "forward", Parent: 0, Start: msd(10), End: msd(40)},
		{Name: "backward", Parent: 0, Start: msd(30), End: msd(60)},
		{Name: "kernel", Parent: 1, Start: msd(15), End: msd(25)},
		{Name: "backward", Parent: 0, Start: msd(90), End: msd(120)},
		{Name: "step", Parent: -1, Start: msd(200), End: msd(250)},
	}
	rows := map[string]layerRow{}
	for _, r := range selfTimes(spans) {
		rows[r.Name] = r
	}
	// step: 100 − |[10,60] ∪ [90,100]| = 40, plus the childless 50 ms step.
	if got := rows["step"]; got.Count != 2 || got.Total != msd(150) || got.Self != msd(90) {
		t.Errorf("step row = %+v, want count 2 total 150ms self 90ms", got)
	}
	if got := rows["forward"]; got.Self != msd(20) {
		t.Errorf("forward self = %v, want 20ms (30 − the 10 ms kernel)", got.Self)
	}
	if got := rows["backward"]; got.Count != 2 || got.Self != msd(60) {
		t.Errorf("backward row = %+v, want count 2 self 60ms", got)
	}
	if got := rows["kernel"]; got.Self != msd(10) {
		t.Errorf("kernel self = %v, want 10ms", got.Self)
	}
}

func TestRecorderNilIsOffAndTraceIsJSON(t *testing.T) {
	var off *recorder
	if id := off.add("x", 1, -1, time.Now(), time.Millisecond); id != -1 || off.snapshot() != nil {
		t.Error("a nil recorder must record nothing")
	}
	rec := newRecorder()
	parent := rec.add("step", 7, -1, time.Now(), 2*time.Millisecond)
	rec.add("forward", 7, parent, time.Now(), time.Millisecond)
	var buf bytes.Buffer
	if err := writeChromeTrace(&buf, rec.snapshot()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Args struct{ Op, Parent int }
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not JSON: %v\n%s", err, buf.Bytes())
	}
	if len(doc.TraceEvents) != 2 || doc.TraceEvents[1].Args.Parent != parent || doc.TraceEvents[1].Args.Op != 7 {
		t.Errorf("trace events = %+v", doc.TraceEvents)
	}
}
