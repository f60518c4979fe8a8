package main

import (
	"math"
	"testing"
)

const promPage = `# HELP skipper_serve_requests_total Requests answered, by HTTP status code.
# TYPE skipper_serve_requests_total counter
skipper_serve_requests_total{code="200"} 40
skipper_serve_requests_total{code="429"} 2
# TYPE skipper_serve_queue_wait_seconds histogram
skipper_serve_queue_wait_seconds_bucket{le="0.001"} 10
skipper_serve_queue_wait_seconds_bucket{le="0.002"} 30
skipper_serve_queue_wait_seconds_bucket{le="0.004"} 40
skipper_serve_queue_wait_seconds_bucket{le="+Inf"} 40
skipper_serve_queue_wait_seconds_sum 0.072
skipper_serve_queue_wait_seconds_count 40
skipper_serve_queue_depth 3
skipper_pool_mean_lanes 1.5e+00
`

func TestParsePromAndDeltas(t *testing.T) {
	s := parseProm(promPage)
	if s[`skipper_serve_requests_total{code="200"}`] != 40 || s["skipper_serve_queue_depth"] != 3 || s["skipper_pool_mean_lanes"] != 1.5 {
		t.Fatalf("parsed %v", s)
	}
	if got := s.sumPrefix("skipper_serve_requests_total"); got != 42 {
		t.Errorf("sumPrefix = %g, want 42", got)
	}
	before := promSample{`skipper_serve_requests_total{code="200"}`: 15}
	d := s.sub(before)
	if d[`skipper_serve_requests_total{code="200"}`] != 25 || d[`skipper_serve_requests_total{code="429"}`] != 2 {
		t.Errorf("delta = %v", d)
	}
	if got := s.plus(s)["skipper_serve_queue_wait_seconds_count"]; got != 80 {
		t.Errorf("plus = %g, want 80", got)
	}
}

func TestHistogramQuantileAndMean(t *testing.T) {
	s := parseProm(promPage)
	// Rank 20 of 40 falls in the (0.001, 0.002] bucket, half way through
	// its 20 samples.
	if got := s.histQuantile("skipper_serve_queue_wait_seconds", 0.5); math.Abs(got-0.0015) > 1e-12 {
		t.Errorf("p50 = %g, want 0.0015", got)
	}
	if got := s.histQuantile("skipper_serve_queue_wait_seconds", 1); math.Abs(got-0.004) > 1e-12 {
		t.Errorf("p100 = %g, want 0.004", got)
	}
	if got := s.histMean("skipper_serve_queue_wait_seconds"); math.Abs(got-0.0018) > 1e-12 {
		t.Errorf("mean = %g, want 0.0018", got)
	}
	if !math.IsNaN(s.histQuantile("no_such_histogram", 0.5)) || !math.IsNaN(s.histMean("no_such_histogram")) {
		t.Error("an absent histogram must read NaN")
	}
}
