package main

import (
	"math/rand"
	"testing"
	"time"
)

// Latency counts from the due instant: one 50 ms stall on a single caller
// delays every operation scheduled behind it, and the lateness report shows
// how far behind the generator ran.
func TestOpenLoopCountsFromDueTime(t *testing.T) {
	const interval = 5 * time.Millisecond
	due := pacedSchedule(interval, 20)
	samples := runOpenLoop(time.Now(), due, 1, func(_, i int) error {
		if i == 4 {
			time.Sleep(50 * time.Millisecond)
		}
		return nil
	})
	if got := samples[2].Latency; got > 10*time.Millisecond {
		t.Errorf("operation before the stall took %v", got)
	}
	if got := samples[4].Latency; got < 50*time.Millisecond {
		t.Errorf("stalled operation latency %v, want at least 50ms", got)
	}
	// Operation 6 was due 10 ms after operation 4, whose stall ended 50 ms
	// after it was due: it goes out about 40 ms late and that wait is its
	// latency, although the call itself returns at once.
	if got := samples[6].Latency; got < 30*time.Millisecond {
		t.Errorf("operation behind the stall has latency %v, want the queueing delay (>= 30ms)", got)
	}
	if got := samples[6].Lateness; got < 30*time.Millisecond {
		t.Errorf("operation behind the stall reports lateness %v, want >= 30ms", got)
	}
	st := summarise(samples)
	if st.Failed != 0 || len(st.LatencyMS) != len(due) || len(st.LatenessMS) != len(due) {
		t.Errorf("summary: %d failed, %d latencies", st.Failed, len(st.LatencyMS))
	}
	if worst := sorted(st.LatenessMS)[len(due)-1]; worst < 30 {
		t.Errorf("lateness report peaks at %.1f ms, want >= 30", worst)
	}
	// The backlog drains: the last operations are on time again.
	if got := samples[19].Latency; got > 10*time.Millisecond {
		t.Errorf("last operation still late by %v", got)
	}
}

func TestPoissonScheduleIsSeededAndAtRate(t *testing.T) {
	a := poissonSchedule(rand.New(rand.NewSource(7)), 100, 1000)
	b := poissonSchedule(rand.New(rand.NewSource(7)), 100, 1000)
	if len(a) != 1000 || len(b) != 1000 || a[999] != b[999] {
		t.Fatal("the same seed gave different schedules")
	}
	if last := a[999]; last < 8500*time.Millisecond || last > 11500*time.Millisecond {
		t.Errorf("1000 arrivals at 100/s end at %v", last)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatal("schedule is not ascending")
		}
	}
}

func TestClosedLoopCountsFailures(t *testing.T) {
	ok, failed, wall := runClosedLoop(50*time.Millisecond, 2, func(w, k int) error {
		time.Sleep(time.Millisecond)
		if w == 0 && k == 0 {
			return errTest
		}
		return nil
	})
	if failed != 1 || ok == 0 || ok > 100 || wall < 50*time.Millisecond {
		t.Errorf("ok=%d failed=%d wall=%v", ok, failed, wall)
	}
}

// A failed operation has no latency: it is counted, and only its lateness
// stays in the series.
func TestSummariseKeepsFailuresOutOfTheLatencies(t *testing.T) {
	st := summarise([]opSample{{Latency: time.Millisecond}, {Latency: time.Hour, Err: errTest}, {Latency: 3 * time.Millisecond}})
	if st.Failed != 1 || st.FirstErr != errTest || len(st.LatencyMS) != 2 || len(st.LatenessMS) != 3 || st.LatencyMS[1] != 3 {
		t.Errorf("summary %+v", st)
	}
}

type testErr struct{}

func (testErr) Error() string { return "test error" }

var errTest = testErr{}
