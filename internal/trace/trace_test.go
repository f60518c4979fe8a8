package trace

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilTracerZeroCost pins the nil convention: every recording call on a
// nil tracer is a no-op and allocates nothing, so instrumented hot paths are
// free when tracing is off.
func TestNilTracerZeroCost(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		s := tr.Begin(TrackTrain, "phase")
		s.End(Attr{Key: "n", Val: 1})
		tr.Event(TrackTrain, "evt")
		tr.Counter(TrackPool, "lanes", 4)
		tr.SpanAt(TrackTrain, "wait", time.Time{}, time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("nil tracer allocates %.1f per run, want 0", allocs)
	}
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Totals() != nil || tr.SpanSeconds("phase") != 0 {
		t.Fatal("nil tracer accessors not zero")
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil || len(out.TraceEvents) != 0 {
		t.Fatalf("nil tracer chrome dump: %v (%d events)", err, len(out.TraceEvents))
	}
}

// BenchmarkNilTracerSpan reads the tracing-off floor: one Begin/End pair on
// a nil tracer (go test -bench NilTracer ./internal/trace).
func BenchmarkNilTracerSpan(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Begin(TrackTrain, "phase").End(Attr{Key: "n", Val: 1})
	}
}

func TestSpanRecordingAndTotals(t *testing.T) {
	tr := New(0)
	for i := 0; i < 3; i++ {
		s := tr.Begin(TrackTrain, "recompute")
		time.Sleep(time.Millisecond)
		s.End(Attr{Key: "seg", Val: int64(i)})
	}
	s := tr.Begin(TrackTrain, "backward")
	time.Sleep(2 * time.Millisecond)
	s.End()
	tr.Event(TrackTrain, "divergence", Attr{Key: "batch", Val: 7})
	tr.Counter(TrackPool, "lanes", 4)

	if tr.Len() != 6 {
		t.Fatalf("Len = %d, want 6", tr.Len())
	}
	totals := tr.Totals()
	if len(totals) != 2 {
		t.Fatalf("Totals has %d names, want 2 (spans only)", len(totals))
	}
	byName := map[string]SpanTotal{}
	for _, st := range totals {
		byName[st.Name] = st
	}
	rc := byName["recompute"]
	if rc.Count != 3 || rc.Total < 3*time.Millisecond || rc.Min <= 0 || rc.Max < rc.Min {
		t.Fatalf("recompute total wrong: %+v", rc)
	}
	if rc.Mean() < time.Millisecond {
		t.Fatalf("recompute mean %v", rc.Mean())
	}
	if got := tr.SpanSeconds("backward"); got < 0.002 {
		t.Fatalf("SpanSeconds(backward) = %v", got)
	}
	if got := tr.SpanSeconds("nosuch"); got != 0 {
		t.Fatalf("SpanSeconds(nosuch) = %v", got)
	}
}

// TestChromeTraceFormat checks the dump is valid JSON with the phases,
// tracks, timestamps, and args Perfetto expects.
func TestChromeTraceFormat(t *testing.T) {
	tr := New(0)
	s := tr.Begin(TrackWorker0+1, "batch_execute")
	time.Sleep(time.Millisecond)
	s.End(Attr{Key: "batch", Val: 8}, Attr{Key: "exit_step", Val: 5})
	tr.Event(TrackTrain, `divergence "guard"`) // name escaping
	tr.Counter(TrackDevice, "reserved_bytes", 1<<20)
	tr.SpanAt(TrackRequest0, "queue_wait", time.Now().Add(-3*time.Millisecond), 3*time.Millisecond)

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string           `json:"name"`
			Ph   string           `json:"ph"`
			Pid  int              `json:"pid"`
			Tid  int              `json:"tid"`
			Ts   int64            `json:"ts"`
			Dur  int64            `json:"dur"`
			Args map[string]int64 `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("chrome dump is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(out.TraceEvents) != 4 {
		t.Fatalf("%d events, want 4", len(out.TraceEvents))
	}
	span := out.TraceEvents[0]
	if span.Ph != "X" || span.Tid != TrackWorker0+1 || span.Dur < 900 ||
		span.Args["batch"] != 8 || span.Args["exit_step"] != 5 {
		t.Fatalf("span event wrong: %+v", span)
	}
	if out.TraceEvents[1].Ph != "i" || out.TraceEvents[1].Name != `divergence "guard"` {
		t.Fatalf("instant event wrong: %+v", out.TraceEvents[1])
	}
	ctr := out.TraceEvents[2]
	if ctr.Ph != "C" || ctr.Args["value"] != 1<<20 {
		t.Fatalf("counter event wrong: %+v", ctr)
	}
	qw := out.TraceEvents[3]
	if qw.Ph != "X" || qw.Dur < 2900 || qw.Dur > 4000 {
		t.Fatalf("retroactive span wrong: %+v", qw)
	}
}

// TestMaxEventsDrops checks the buffer bound degrades to counting, not
// growing.
func TestMaxEventsDrops(t *testing.T) {
	tr := New(4)
	for i := 0; i < 10; i++ {
		tr.Event(0, "e")
	}
	if tr.Len() != 4 || tr.Dropped() != 6 {
		t.Fatalf("len %d dropped %d, want 4/6", tr.Len(), tr.Dropped())
	}
}

// TestConcurrentRecording exercises the mutex under -race: trainer, serve
// workers, and the pool all record into one tracer.
func TestConcurrentRecording(t *testing.T) {
	tr := New(0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s := tr.Begin(TrackWorker0+g, "work")
				s.End(Attr{Key: "i", Val: int64(i)})
				tr.Counter(TrackPool, "lanes", int64(g))
			}
		}(g)
	}
	wg.Wait()
	if tr.Len() != 8*200*2 {
		t.Fatalf("Len = %d, want %d", tr.Len(), 8*200*2)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("concurrent dump is not valid JSON")
	}
}

func TestSummaryHandler(t *testing.T) {
	tr := New(0)
	s := tr.Begin(TrackTrain, "encode")
	s.End()
	rec := httptest.NewRecorder()
	SummaryHandler(tr).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/spans", nil))
	body := rec.Body.String()
	if !strings.Contains(body, "encode") || !strings.Contains(body, "events recorded 1") {
		t.Fatalf("summary missing content:\n%s", body)
	}
	rec = httptest.NewRecorder()
	SummaryHandler(nil).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/spans", nil))
	if !strings.Contains(rec.Body.String(), "tracing disabled") {
		t.Fatalf("nil summary: %s", rec.Body.String())
	}
}
