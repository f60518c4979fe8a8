package serve

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"skipper/internal/layers"
	"skipper/internal/serialize"
)

// fakeLoader scripts loadCheckpoint: each call pops the next error; a nil
// entry (or running out of entries) builds a fresh network successfully.
type fakeLoader struct {
	mu     sync.Mutex
	errs   []error
	calls  int
	build  func() (*layers.Network, error)
	sleeps []time.Duration
}

func installFakeLoader(t *testing.T, errs ...error) *fakeLoader {
	t.Helper()
	fl := &fakeLoader{errs: errs, build: testBuild}
	prevLoad, prevSleep := loadCheckpoint, reloadSleep
	loadCheckpoint = func(path string, build func() (*layers.Network, error)) (*layers.Network, error) {
		fl.mu.Lock()
		defer fl.mu.Unlock()
		fl.calls++
		if fl.calls <= len(fl.errs) && fl.errs[fl.calls-1] != nil {
			return nil, fl.errs[fl.calls-1]
		}
		return build()
	}
	reloadSleep = func(d time.Duration) {
		fl.mu.Lock()
		defer fl.mu.Unlock()
		fl.sleeps = append(fl.sleeps, d)
	}
	t.Cleanup(func() {
		loadCheckpoint, reloadSleep = prevLoad, prevSleep
	})
	return fl
}

func pathErr(op string) error {
	return &fs.PathError{Op: op, Path: "weights.skpw", Err: errors.New("interrupted system call")}
}

func TestReloadRetriesTransientThenSucceeds(t *testing.T) {
	fl := installFakeLoader(t, pathErr("open"), fmt.Errorf("reading: %w", serialize.ErrTruncated), nil)
	m, err := NewModel(testBuild, "")
	if err != nil {
		t.Fatal(err)
	}
	var retries int
	m.OnRetry = func(attempt int, err error) { retries++ }

	snap, err := m.Reload("weights.skpw")
	if err != nil {
		t.Fatalf("reload should succeed on the third attempt: %v", err)
	}
	if snap.Version != 2 {
		t.Fatalf("version = %d, want 2", snap.Version)
	}
	if fl.calls != 3 || retries != 2 {
		t.Fatalf("calls = %d retries = %d, want 3 and 2", fl.calls, retries)
	}
	// Backoff grows and is capped: 50ms then 200ms between the attempts.
	want := []time.Duration{50 * time.Millisecond, 200 * time.Millisecond}
	if len(fl.sleeps) != len(want) || fl.sleeps[0] != want[0] || fl.sleeps[1] != want[1] {
		t.Fatalf("backoffs = %v, want %v", fl.sleeps, want)
	}
}

func TestReloadPermanentFailureDoesNotRetry(t *testing.T) {
	fl := installFakeLoader(t, errors.New("serialize: checksum mismatch (file corrupt)"))
	m, err := NewModel(testBuild, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Reload("weights.skpw"); err == nil {
		t.Fatal("corrupt checkpoint must reject the reload")
	}
	if fl.calls != 1 || len(fl.sleeps) != 0 {
		t.Fatalf("permanent failure retried: %d calls, %v sleeps", fl.calls, fl.sleeps)
	}
	if got := m.Current().Version; got != 1 {
		t.Fatalf("failed reload must keep generation 1, got %d", got)
	}
}

func TestReloadRetriesExhausted(t *testing.T) {
	fl := installFakeLoader(t, pathErr("open"), pathErr("open"), pathErr("open"), pathErr("open"))
	m, err := NewModel(testBuild, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Reload("weights.skpw"); err == nil {
		t.Fatal("want failure after exhausting retries")
	}
	if fl.calls != reloadAttempts {
		t.Fatalf("made %d attempts, want %d", fl.calls, reloadAttempts)
	}
	if got := m.Current().Version; got != 1 {
		t.Fatalf("failed reload must keep generation 1, got %d", got)
	}
}

func TestReloadBackoffCap(t *testing.T) {
	if d := reloadBackoff(1); d != 50*time.Millisecond {
		t.Fatalf("backoff(1) = %v", d)
	}
	if d := reloadBackoff(2); d != 200*time.Millisecond {
		t.Fatalf("backoff(2) = %v", d)
	}
	for n := 3; n < 8; n++ {
		if d := reloadBackoff(n); d != 500*time.Millisecond {
			t.Fatalf("backoff(%d) = %v, want the 500ms cap", n, d)
		}
	}
}

// End-to-end: a transiently failing reload over HTTP still answers 422 after
// the retries, and the retry counter lands in /metrics.
func TestReloadRetryMetricOverHTTP(t *testing.T) {
	fl := installFakeLoader(t, pathErr("open"), pathErr("read"), pathErr("read"))
	s, hs := newTestServer(t, Config{})
	body := strings.NewReader(`{"path": "weights.skpw"}`)
	resp, err := http.Post(hs.URL+"/v1/reload", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422 after exhausted retries", resp.StatusCode)
	}
	if fl.calls != reloadAttempts {
		t.Fatalf("made %d attempts, want %d", fl.calls, reloadAttempts)
	}
	var buf bytes.Buffer
	s.metrics.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "skipper_serve_reload_retries_total 2") {
		t.Fatalf("metrics missing retry counter:\n%s", out)
	}
	if !strings.Contains(out, `skipper_serve_reloads_total{result="error"} 1`) {
		t.Fatalf("metrics missing failed reload:\n%s", out)
	}
}
