package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"skipper/internal/layers"
	"skipper/internal/models"
	"skipper/internal/serialize"
	"skipper/internal/tensor"
)

// testBuild is the serving topology used throughout: a small customnet so
// the race-enabled test stays fast.
func testBuild() (*layers.Network, error) {
	return models.Build("customnet", models.Options{
		InShape: []int{2, 8, 8},
		Classes: 4,
		Width:   0.25,
	})
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Build == nil {
		cfg.Build = testBuild
	}
	if cfg.T == 0 {
		cfg.T = 6
	}
	s, err := NewServer(cfg, "")
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return s, hs
}

func inferOnce(t *testing.T, client *http.Client, url string, req InferRequest) (int, InferResponse) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := client.Post(url+"/v1/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/infer: %v", err)
	}
	defer resp.Body.Close()
	var out InferResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
	}
	return resp.StatusCode, out
}

// TestServeConcurrentWithReloadAndBackpressure is the subsystem acceptance
// test: ≥100 concurrent requests through the batching path, a hot reload
// mid-traffic, a deterministic 429 from a full queue, and /metrics counters
// consistent with the responses received.
func TestServeConcurrentWithReloadAndBackpressure(t *testing.T) {
	const total = 120
	var batched int64
	var batchMu sync.Mutex
	maxBatch := 0
	backlog := make(chan struct{}) // closed once requests have queued behind the workers
	s, hs := newTestServer(t, Config{
		T:          6,
		EarlyExit:  true,
		MaxBatch:   8,
		QueueDepth: 256,
		Workers:    3,
		OnBatch: func(size int) {
			<-backlog
			batchMu.Lock()
			batched += int64(size)
			if size > maxBatch {
				maxBatch = size
			}
			batchMu.Unlock()
		},
	})
	client := hs.Client()

	// A checkpoint with perturbed weights of the same topology, for the
	// mid-traffic reload.
	ckpt := filepath.Join(t.TempDir(), "next.skpw")
	{
		net, err := testBuild()
		if err != nil {
			t.Fatal(err)
		}
		rng := tensor.NewRNG(99)
		for _, p := range net.Params() {
			for i := range p.W.Data {
				p.W.Data[i] += 0.05 * (rng.Float32() - 0.5)
			}
		}
		if err := serialize.SaveFile(ckpt, net); err != nil {
			t.Fatal(err)
		}
	}

	type result struct {
		code int
		resp InferResponse
	}
	results := make([]result, total)
	var done int64
	var wg sync.WaitGroup
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			input := syntheticInput(7, uint64(i), 2*8*8)
			code, resp := inferOnce(t, client, hs.URL, InferRequest{Input: input})
			results[i] = result{code, resp}
			atomic.AddInt64(&done, 1)
		}(i)
		// Hot reload mid-traffic, from a separate goroutine's perspective:
		// the swap must not disturb in-flight batches.
		if i == total/2 {
			// The workers hold at most 3x8 of the requests so far and are
			// parked in OnBatch, so the rest pile up: released, each worker's
			// next batch is whatever queued meanwhile.
			for len(s.queue) < 8 {
				time.Sleep(time.Millisecond)
			}
			close(backlog)
			// Let some requests finish on generation 1 first, so both
			// generations see traffic regardless of goroutine scheduling.
			for atomic.LoadInt64(&done) < 8 {
				time.Sleep(time.Millisecond)
			}
			body, _ := json.Marshal(ReloadRequest{Path: ckpt})
			resp, err := client.Post(hs.URL+"/v1/reload", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatalf("reload: %v", err)
			}
			var rr ReloadResponse
			if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
				t.Fatalf("decoding reload response: %v", err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || rr.Version != 2 {
				t.Fatalf("reload: status %d version %d", resp.StatusCode, rr.Version)
			}
		}
	}
	wg.Wait()

	ok := 0
	sawV1, sawV2 := false, false
	for i, r := range results {
		if r.code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, r.code)
		}
		ok++
		if r.resp.T != 6 || r.resp.StepsRun < 1 || r.resp.StepsRun > 6 {
			t.Fatalf("request %d: T=%d StepsRun=%d", i, r.resp.T, r.resp.StepsRun)
		}
		if len(r.resp.Logits) != 4 {
			t.Fatalf("request %d: %d logits", i, len(r.resp.Logits))
		}
		switch r.resp.ModelVersion {
		case 1:
			sawV1 = true
		case 2:
			sawV2 = true
		default:
			t.Fatalf("request %d: model version %d", i, r.resp.ModelVersion)
		}
	}
	if !sawV1 || !sawV2 {
		t.Fatalf("expected traffic on both generations: v1=%v v2=%v", sawV1, sawV2)
	}
	batchMu.Lock()
	if batched != int64(total) {
		t.Fatalf("OnBatch saw %d samples, want %d", batched, total)
	}
	if maxBatch < 2 {
		t.Fatalf("no coalescing observed (max batch %d)", maxBatch)
	}
	batchMu.Unlock()

	// Deterministic 429: park the only worker inside OnBatch, fill the
	// 1-deep queue, and watch the next request bounce.
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	s2, hs2 := newTestServer(t, Config{
		T:          4,
		MaxBatch:   1,
		QueueDepth: 1,
		Workers:    1,
		OnBatch: func(int) {
			entered <- struct{}{}
			<-release
		},
	})
	client2 := hs2.Client()
	input := syntheticInput(3, 0, 2*8*8)
	blockedDone := make(chan int, 1)
	go func() {
		code, _ := inferOnce(t, client2, hs2.URL, InferRequest{Input: input})
		blockedDone <- code
	}()
	<-entered // worker is parked; the queue is now empty
	queuedDone := make(chan int, 1)
	go func() {
		code, _ := inferOnce(t, client2, hs2.URL, InferRequest{Input: input})
		queuedDone <- code
	}()
	// Wait until the second request occupies the queue slot.
	deadline := time.Now().Add(2 * time.Second)
	for len(s2.queue) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	// Raw POST so the 429's headers are visible: a shed response must carry
	// a positive integer Retry-After derived from the queue state.
	body429, _ := json.Marshal(InferRequest{Input: input})
	resp429, err := client2.Post(hs2.URL+"/v1/infer", "application/json", bytes.NewReader(body429))
	if err != nil {
		t.Fatalf("POST /v1/infer: %v", err)
	}
	resp429.Body.Close()
	if resp429.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue answered %d, want 429", resp429.StatusCode)
	}
	if ra, err := strconv.Atoi(resp429.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("429 Retry-After = %q, want a positive integer", resp429.Header.Get("Retry-After"))
	}
	close(release)
	if code := <-blockedDone; code != http.StatusOK {
		t.Fatalf("parked request answered %d", code)
	}
	if code := <-queuedDone; code != http.StatusOK {
		t.Fatalf("queued request answered %d", code)
	}

	// Metrics consistency, main server: counters must match the responses
	// this test received.
	metrics := fetchMetrics(t, client, hs.URL)
	assertMetric(t, metrics, `skipper_serve_requests_total{code="200"}`, float64(ok))
	assertMetric(t, metrics, "skipper_serve_samples_total", float64(total))
	earlyExits := 0.0
	for _, r := range results {
		if r.resp.ExitStep < r.resp.T-1 {
			earlyExits++
		}
	}
	assertMetric(t, metrics, "skipper_serve_early_exits_total", earlyExits)
	assertMetric(t, metrics, `skipper_serve_reloads_total{result="ok"}`, 1)
	assertMetric(t, metrics, `skipper_serve_reloads_total{result="error"}`, 0)
	assertMetric(t, metrics, "skipper_serve_model_version", 2)
	assertMetric(t, metrics, "skipper_serve_request_latency_seconds_count", float64(ok))
	if v, ok := metricValue(metrics, "skipper_serve_batch_timesteps_saved_total"); !ok || v < 0 {
		t.Fatalf("batch_timesteps_saved_total = %v (present %v)", v, ok)
	}

	// Metrics consistency, backpressure server: exactly one 429.
	m2 := fetchMetrics(t, client2, hs2.URL)
	assertMetric(t, m2, `skipper_serve_requests_total{code="429"}`, 1)
	assertMetric(t, m2, `skipper_serve_queue_rejected_total{reason="queue_full"}`, 1)
	assertMetric(t, m2, `skipper_serve_queue_rejected_total{reason="draining"}`, 0)
	assertMetric(t, m2, `skipper_serve_requests_total{code="200"}`, 2)
}

func fetchMetrics(t *testing.T, client *http.Client, url string) string {
	t.Helper()
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return buf.String()
}

func metricValue(text, name string) (float64, bool) {
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, name+" ") {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(strings.TrimPrefix(line, name+" "), "%g", &v); err == nil {
			return v, true
		}
	}
	return 0, false
}

func assertMetric(t *testing.T, text, name string, want float64) {
	t.Helper()
	got, ok := metricValue(text, name)
	if !ok {
		t.Fatalf("metric %s missing", name)
	}
	if got != want {
		t.Fatalf("metric %s = %v, want %v", name, got, want)
	}
}

// TestReloadRejectsCorruptCheckpoint drives the rollback path over HTTP: a
// corrupt file must leave the serving generation untouched and count as a
// failed reload.
func TestReloadRejectsCorruptCheckpoint(t *testing.T) {
	s, hs := newTestServer(t, Config{})
	client := hs.Client()

	ckpt := filepath.Join(t.TempDir(), "bad.skpw")
	net, err := testBuild()
	if err != nil {
		t.Fatal(err)
	}
	if err := serialize.SaveFile(ckpt, net); err != nil {
		t.Fatal(err)
	}
	corruptFile(t, ckpt)

	body, _ := json.Marshal(ReloadRequest{Path: ckpt})
	resp, err := client.Post(hs.URL+"/v1/reload", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("corrupt reload answered %d, want 422", resp.StatusCode)
	}
	if v := s.Model().Current().Version; v != 1 {
		t.Fatalf("serving generation moved to %d after failed reload", v)
	}
	m := fetchMetrics(t, client, hs.URL)
	assertMetric(t, m, `skipper_serve_reloads_total{result="error"}`, 1)
	assertMetric(t, m, "skipper_serve_model_version", 1)

	// The server must still answer inference after the failed reload.
	code, _ := inferOnce(t, client, hs.URL, InferRequest{Input: syntheticInput(1, 1, 2*8*8)})
	if code != http.StatusOK {
		t.Fatalf("inference after failed reload: %d", code)
	}
}

// TestInferValidation covers the request 400 paths.
func TestInferValidation(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	client := hs.Client()

	if code, _ := inferOnce(t, client, hs.URL, InferRequest{Input: []float32{1, 2}}); code != http.StatusBadRequest {
		t.Fatalf("short input answered %d", code)
	}
	bad := syntheticInput(1, 1, 2*8*8)
	bad[3] = 1.5
	if code, _ := inferOnce(t, client, hs.URL, InferRequest{Input: bad}); code != http.StatusBadRequest {
		t.Fatalf("out-of-range input answered %d", code)
	}
	resp, err := client.Post(hs.URL+"/v1/infer", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON answered %d", resp.StatusCode)
	}
	resp, err = client.Get(hs.URL + "/v1/infer")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET answered %d", resp.StatusCode)
	}
}

// TestDrainRefusesNewWork verifies graceful shutdown: draining answers 503
// on /v1/infer and /readyz while /healthz stays 200.
func TestDrainRefusesNewWork(t *testing.T) {
	s, hs := newTestServer(t, Config{})
	client := hs.Client()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if code, _ := inferOnce(t, client, hs.URL, InferRequest{Input: syntheticInput(1, 1, 2*8*8)}); code != http.StatusServiceUnavailable {
		t.Fatalf("draining server answered %d, want 503", code)
	}
	resp, err := client.Get(hs.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while draining: %d", resp.StatusCode)
	}
	resp, err = client.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz while draining: %d", resp.StatusCode)
	}
}

// behindParkedWorker runs inputs through a one-worker server so that batch
// formation is decided, not timed: inputs[0] parks the worker inside OnBatch,
// the rest are all queued behind it, then the worker is released. It returns
// each input's response and the batch sizes in execution order.
func behindParkedWorker(t *testing.T, maxBatch int, inputs [][]float32) ([]InferResponse, []int) {
	t.Helper()
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	var mu sync.Mutex
	var sizes []int
	s, hs := newTestServer(t, Config{MaxBatch: maxBatch, Workers: 1, OnBatch: func(size int) {
		mu.Lock()
		sizes = append(sizes, size)
		first := len(sizes) == 1
		mu.Unlock()
		if first {
			entered <- struct{}{}
			<-release
		}
	}})
	out := make([]InferResponse, len(inputs))
	var wg sync.WaitGroup
	for i, input := range inputs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, out[i] = mustOK(t, hs, input)
		}()
		if i == 0 {
			<-entered // the only worker is parked inside its batch of one
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for len(s.queue) < len(inputs)-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d requests queued", len(s.queue), len(inputs)-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	return out, sizes
}

// TestDeterministicAcrossBatchComposition checks the content-hash sample id:
// the same input must produce the same prediction and logits whether it
// rides alone or inside a coalesced batch.
func TestDeterministicAcrossBatchComposition(t *testing.T) {
	input := syntheticInput(42, 7, 2*8*8)
	inputs := [][]float32{input, input} // alone in the parking batch, then queued with seven others
	for i := 0; i < 7; i++ {
		inputs = append(inputs, syntheticInput(42, uint64(100+i), 2*8*8))
	}
	out, _ := behindParkedWorker(t, 8, inputs)
	solo, probe := out[0], out[1]
	if solo.BatchSize != 1 || probe.BatchSize <= 1 {
		t.Fatalf("batch sizes solo %d, batched %d: want 1 and > 1", solo.BatchSize, probe.BatchSize)
	}
	if solo.Pred != probe.Pred {
		t.Fatalf("prediction depends on batch composition: solo %d vs batched %d", solo.Pred, probe.Pred)
	}
	for c := range solo.Logits {
		if solo.Logits[c] != probe.Logits[c] {
			t.Fatalf("logit %d differs: solo %v vs batched %v", c, solo.Logits[c], probe.Logits[c])
		}
	}
}

// TestBatchTakesWhatIsQueued pins the batching rule: an idle worker runs a
// lone request as a batch of one at once, and a worker that finds k requests
// queued takes min(k, MaxBatch) of them as its next batch and leaves the rest
// to the one after.
func TestBatchTakesWhatIsQueued(t *testing.T) {
	inputs := make([][]float32, 1+11)
	for i := range inputs {
		inputs[i] = syntheticInput(43, uint64(i), 2*8*8)
	}
	out, sizes := behindParkedWorker(t, 8, inputs)
	if !slices.Equal(sizes, []int{1, 8, 3}) {
		t.Fatalf("batch sizes %v, want [1 8 3]", sizes)
	}
	members := map[int]int{}
	for _, r := range out {
		members[r.BatchSize]++
	}
	if members[1] != 1 || members[8] != 8 || members[3] != 3 {
		t.Fatalf("responses by batch size %v, want map[1:1 3:3 8:8]", members)
	}
}

func mustOK(t *testing.T, hs *httptest.Server, input []float32) (int, InferResponse) {
	t.Helper()
	code, resp := inferOnce(t, hs.Client(), hs.URL, InferRequest{Input: input})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	return code, resp
}

// TestRequestBudgetTimeout verifies the per-request latency budget: a
// 1ms budget against a parked worker answers 504.
func TestRequestBudgetTimeout(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	_, hs := newTestServer(t, Config{
		MaxBatch:   1,
		Workers:    1,
		QueueDepth: 4,
		OnBatch: func(int) {
			entered <- struct{}{}
			<-release
		},
	})
	defer close(release)
	client := hs.Client()
	input := syntheticInput(5, 1, 2*8*8)
	go func() { // parks the worker; outcome checked via the entered channel
		body, _ := json.Marshal(InferRequest{Input: input})
		resp, err := client.Post(hs.URL+"/v1/infer", "application/json", bytes.NewReader(body))
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-entered
	code, _ := inferOnce(t, client, hs.URL, InferRequest{Input: input, BudgetMS: 1})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("budget-exceeded request answered %d, want 504", code)
	}
}

// TestDrainDropsResidualQueue is the regression test for the shutdown leak:
// when the drain budget expires with jobs still queued, those jobs used to be
// abandoned with their jobWG counts never released and their handlers hanging
// until their own request timeouts. Post-fix, Drain answers the residual
// queue promptly (503) and counts the drops in /metrics.
func TestDrainDropsResidualQueue(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	s, hs := newTestServer(t, Config{
		T:              4,
		MaxBatch:       1,
		QueueDepth:     4,
		Workers:        1,
		RequestTimeout: 30 * time.Second, // pre-fix, dropped handlers hung this long
		OnBatch: func(int) {
			entered <- struct{}{}
			<-release
		},
	})
	client := hs.Client()
	input := syntheticInput(11, 3, 2*8*8)

	post := func(ch chan<- int) {
		body, _ := json.Marshal(InferRequest{Input: input})
		resp, err := client.Post(hs.URL+"/v1/infer", "application/json", bytes.NewReader(body))
		if err != nil {
			ch <- -1
			return
		}
		resp.Body.Close()
		ch <- resp.StatusCode
	}

	parked := make(chan int, 1)
	go post(parked)
	<-entered // the only worker is parked inside its batch

	const queued = 3
	queuedCodes := make(chan int, queued)
	for i := 0; i < queued; i++ {
		go post(queuedCodes)
	}
	deadline := time.Now().Add(2 * time.Second)
	for len(s.queue) < queued {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d requests queued", len(s.queue), queued)
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := s.Drain(ctx); err == nil {
		t.Fatal("Drain with a parked worker must report the interrupted drain")
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("Drain took %v, want ~the 100ms budget", took)
	}

	// The dropped jobs must be answered promptly — not at RequestTimeout.
	for i := 0; i < queued; i++ {
		select {
		case code := <-queuedCodes:
			if code != http.StatusServiceUnavailable {
				t.Fatalf("dropped job answered %d, want 503", code)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("dropped job's handler still hanging after drain")
		}
	}

	// The parked batch finishes once released; its job was never dropped.
	close(release)
	if code := <-parked; code != http.StatusOK {
		t.Fatalf("parked request answered %d, want 200", code)
	}

	// With every job accounted for, the wait group must reach zero — the
	// pre-fix leak left it short forever.
	waited := make(chan struct{})
	go func() { s.jobWG.Wait(); close(waited) }()
	select {
	case <-waited:
	case <-time.After(2 * time.Second):
		t.Fatal("jobWG never drained: dropped jobs leaked wait-group counts")
	}

	m := fetchMetrics(t, client, hs.URL)
	assertMetric(t, m, "skipper_serve_drain_dropped_total", queued)
}

// TestDrainUnderLoad races Drain against a burst of concurrent requests:
// every request must receive a definitive answer, and the job wait group must
// reach zero no matter where shutdown slices the stream. Run under -race this
// also exercises the enqueue/drain mutual exclusion.
func TestDrainUnderLoad(t *testing.T) {
	s, hs := newTestServer(t, Config{
		T:              4,
		MaxBatch:       4,
		QueueDepth:     16,
		Workers:        2,
		RequestTimeout: 10 * time.Second,
	})
	client := hs.Client()

	const total = 40
	codes := make(chan int, total)
	var started int64
	for i := 0; i < total; i++ {
		go func(i int) {
			atomic.AddInt64(&started, 1)
			body, _ := json.Marshal(InferRequest{Input: syntheticInput(31, uint64(i), 2*8*8)})
			resp, err := client.Post(hs.URL+"/v1/infer", "application/json", bytes.NewReader(body))
			if err != nil {
				codes <- -1
				return
			}
			resp.Body.Close()
			codes <- resp.StatusCode
		}(i)
	}
	for atomic.LoadInt64(&started) < total/2 {
		time.Sleep(100 * time.Microsecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	s.Drain(ctx)

	for i := 0; i < total; i++ {
		select {
		case code := <-codes:
			switch code {
			case http.StatusOK, http.StatusServiceUnavailable,
				http.StatusTooManyRequests, http.StatusGatewayTimeout:
			default:
				t.Fatalf("request answered %d", code)
			}
		case <-time.After(15 * time.Second):
			t.Fatalf("request %d of %d never answered", i+1, total)
		}
	}
	waited := make(chan struct{})
	go func() { s.jobWG.Wait(); close(waited) }()
	select {
	case <-waited:
	case <-time.After(5 * time.Second):
		t.Fatal("jobWG leaked under racing drain")
	}
}

func corruptFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}
