package serve

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"skipper/internal/frame"
	"testing"
	"time"
)

// dialFleet connects to a fleet listener and returns the conn plus helpers.
func dialFleet(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dialing fleet listener: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

func fleetPing(t *testing.T, conn net.Conn) FleetStatus {
	t.Helper()
	if err := frame.Write(conn, FleetPing, nil); err != nil {
		t.Fatalf("writing ping: %v", err)
	}
	typ, payload, err := frame.Read(conn)
	if err != nil || typ != FleetPong {
		t.Fatalf("pong: typ=%d err=%v", typ, err)
	}
	var st FleetStatus
	if err := json.Unmarshal(payload, &st); err != nil {
		t.Fatalf("decoding pong: %v", err)
	}
	return st
}

func fleetInfer(t *testing.T, conn net.Conn, req InferRequest) FleetResponse {
	t.Helper()
	body, _ := json.Marshal(req)
	if err := frame.Write(conn, FleetInfer, body); err != nil {
		t.Fatalf("writing infer frame: %v", err)
	}
	typ, payload, err := frame.Read(conn)
	if err != nil || typ != FleetResult {
		t.Fatalf("result: typ=%d err=%v", typ, err)
	}
	var out FleetResponse
	if err := json.Unmarshal(payload, &out); err != nil {
		t.Fatalf("decoding result: %v", err)
	}
	return out
}

// TestFleetTransport drives the framed data path end to end: ping reports
// the serving state, infer over frames matches infer over HTTP bit for bit,
// per-request exit overrides reach the batcher, and a draining server both
// says so in its pong and sheds framed requests with a Retry-After hint.
func TestFleetTransport(t *testing.T) {
	s, hs := newTestServer(t, Config{T: 6, EarlyExit: true, QueueDepth: 16, Workers: 1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go s.ServeFleet(ln)

	conn := dialFleet(t, ln.Addr().String())
	st := fleetPing(t, conn)
	if st.Draining || st.ModelVersion != 1 || st.QueueCap != 16 || st.Workers != 1 {
		t.Fatalf("unexpected fleet status: %+v", st)
	}

	input := syntheticInput(7, 0, 2*8*8)

	// Framed infer == HTTP infer, same request, same model, same bytes.
	httpCode, httpResp := inferOnce(t, hs.Client(), hs.URL, InferRequest{Input: input})
	if httpCode != http.StatusOK {
		t.Fatalf("HTTP infer: %d", httpCode)
	}
	out := fleetInfer(t, conn, InferRequest{Input: input})
	if out.Code != http.StatusOK {
		t.Fatalf("framed infer: %+v", out)
	}
	var fresp InferResponse
	if err := json.Unmarshal(out.Body, &fresp); err != nil {
		t.Fatal(err)
	}
	if fresp.Pred != httpResp.Pred || fresp.ExitStep != httpResp.ExitStep {
		t.Fatalf("framed infer diverged from HTTP: %+v vs %+v", fresp, httpResp)
	}
	for i, l := range fresp.Logits {
		if l != httpResp.Logits[i] {
			t.Fatalf("logit %d: framed %v != http %v", i, l, httpResp.Logits[i])
		}
	}

	// Per-request override: forcing the full horizon runs every timestep.
	off := false
	out = fleetInfer(t, conn, InferRequest{Input: input, EarlyExit: &off})
	if err := json.Unmarshal(out.Body, &fresp); err != nil {
		t.Fatal(err)
	}
	if fresp.StepsRun != fresp.T {
		t.Fatalf("full-horizon override ran %d of %d steps", fresp.StepsRun, fresp.T)
	}

	// Validation errors surface as non-200 codes over the frames too.
	if out := fleetInfer(t, conn, InferRequest{Input: input[:3]}); out.Code != http.StatusBadRequest {
		t.Fatalf("short input answered %d, want 400", out.Code)
	}

	// Drain: the pong flips to draining and framed infers are shed with a
	// retry hint. Draining with no in-flight jobs completes immediately.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	conn2 := dialFleet(t, ln.Addr().String())
	if st := fleetPing(t, conn2); !st.Draining {
		t.Fatalf("pong after drain: %+v, want draining", st)
	}
	if out := fleetInfer(t, conn2, InferRequest{Input: input}); out.Code != http.StatusServiceUnavailable || out.RetryAfter < 1 {
		t.Fatalf("drained server answered %+v, want 503 with retry hint", out)
	}
	if got := s.metrics.shed.With(shedDraining).Value(); got != 1 {
		t.Fatalf("draining shed count = %d, want 1", got)
	}
}
