package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"skipper"
	"skipper/internal/router"
	"skipper/internal/serve"
)

// replica is one in-process serve.Server behind real loopback listeners: an
// HTTP one (control plane, /metrics, direct requests) and the framed fleet
// one the router and the streaming clients use.
type replica struct {
	server  *serve.Server
	hs      *http.Server
	fleetLN net.Listener
	url     string
	addr    string // framed fleet address
}

func startReplica(m modelSpec, rt *skipper.Runtime, sessionDir string) (*replica, error) {
	s, err := serve.NewServer(serve.Config{
		Build:                func() (*skipper.Network, error) { return rt.BuildModel(m.Model, modelOptions(m)) },
		Runtime:              rt,
		T:                    serveT,
		EarlyExit:            true,
		MaxBatch:             8,
		Workers:              1,
		EncodeSeed:           programSeed,
		SessionDir:           sessionDir,
		SessionSnapshotEvery: snapshotEach,
	}, "")
	if err != nil {
		return nil, err
	}
	httpLN, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	fleetLN, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		httpLN.Close()
		return nil, err
	}
	r := &replica{
		server:  s,
		hs:      &http.Server{Handler: s.Handler()},
		fleetLN: fleetLN,
		url:     "http://" + httpLN.Addr().String(),
		addr:    fleetLN.Addr().String(),
	}
	go r.hs.Serve(httpLN)
	go s.ServeFleet(fleetLN)
	return r, nil
}

func (r *replica) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	r.fleetLN.Close()
	r.server.Drain(ctx)
	r.hs.Shutdown(ctx)
}

// fleetRig is the serving segment: a router fronting two replicas over the
// framed fleet listeners, and the HTTP client that plays the fleet's users.
type fleetRig struct {
	replicas []*replica
	router   *router.Router
	hs       *http.Server
	url      string
	client   *http.Client
	conns    int

	prefix   [][]byte            // per frame: `{"input":[...],"session":"`
	alone    [][]float32         // logits of the probe frames sent with no other load
	sessions map[string][]string // session ids by the backend that serves them
	backends []string

	// The arrival instants come from a fixed generator, not from -seed, so
	// every run meets the same bursts, block for block, and the tail measures
	// the system, not the draw; -seed picks the frame and session each
	// arrival carries.
	arrivals *rand.Rand
	picks    *rand.Rand
	issued   int       // open-loop requests generated so far
	closed   []request // the closed loops' requests
	turns    int       // closed-loop blocks run so far
}

// newFleetRig starts the fleet, builds the request frames and warms it up;
// all of it is set-up time.
func newFleetRig(rt *skipper.Runtime, seed int64, conns int) (*fleetRig, error) {
	f := &fleetRig{
		conns: conns, sessions: map[string][]string{},
		arrivals: rand.New(rand.NewSource(programSeed)),
		picks:    rand.New(rand.NewSource(seed ^ 0x737276)), // "srv"
	}
	data, err := rt.OpenDataset(vgg5.Dataset)
	if err != nil {
		return nil, err
	}
	var specs []router.BackendSpec
	for i := 0; i < 2; i++ {
		r, err := startReplica(vgg5, rt, "")
		if err != nil {
			f.stop()
			return nil, err
		}
		f.replicas = append(f.replicas, r)
		specs = append(specs, router.BackendSpec{URL: r.url, FleetAddr: r.addr})
	}
	// One class with no latency budget: the router's SLO controller then
	// leaves the early-exit margin alone, so a frame's logits do not depend
	// on the load around it.
	rtr, err := router.New(router.Config{
		Backends:     specs,
		Classes:      []router.ClassConfig{{Name: "bench", Tier: 0}},
		DefaultClass: "bench",
		Tracer:       rt.Tracer(),
	})
	if err != nil {
		f.stop()
		return nil, err
	}
	f.router = rtr
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.stop()
		return nil, err
	}
	f.hs = &http.Server{Handler: rtr.Handler()}
	go f.hs.Serve(ln)
	f.url = "http://" + ln.Addr().String()
	f.client = &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		},
	}
	f.makeFrames(data, seed)
	if err := f.warm(); err != nil {
		f.stop()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	f.closed = f.requests(1024)
	return f, nil
}

func (f *fleetRig) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if f.hs != nil {
		f.hs.Shutdown(ctx)
	}
	if f.router != nil {
		f.router.Close()
	}
	for _, r := range f.replicas {
		r.stop()
	}
	if f.client != nil {
		f.client.CloseIdleConnections()
	}
}

// makeFrames derives the request frames from the model's dataset: each frame
// is the per-pixel firing rate of one seed-chosen test sample.
func (f *fleetRig) makeFrames(data skipper.Dataset, seed int64) {
	rng := rand.New(rand.NewSource(seed ^ 0x66726d)) // "frm"
	idx := make([]int, framePool)
	for i := range idx {
		idx[i] = rng.Intn(data.Len(skipper.TestSplit))
	}
	const steps = 32
	train, _ := data.SpikeBatch(skipper.TestSplit, idx, steps)
	per := len(train[0].Data) / framePool
	for k := 0; k < framePool; k++ {
		frame := make([]float32, per)
		for _, x := range train {
			for i, v := range x.Data[k*per : (k+1)*per] {
				frame[i] += v / steps
			}
		}
		for i, v := range frame {
			frame[i] = float32(math.Min(1, math.Max(0, float64(v))))
		}
		body, _ := json.Marshal(frame)
		f.prefix = append(f.prefix, append(append([]byte(`{"input":`), body...), `,"session":"`...))
	}
}

// infer posts frame k under a session id to base (the router or a replica)
// and checks the reply: 200, one logit per class, steps_run within T. It
// returns the logits and the backend that answered.
func (f *fleetRig) infer(base string, k int, session string) ([]float32, string, error) {
	body := append(append([]byte(nil), f.prefix[k]...), session...)
	body = append(body, `"}`...)
	resp, err := f.client.Post(base+"/v1/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, "", err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	var rep serve.InferResponse
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, "", err
	}
	if len(rep.Logits) != vgg5.Classes {
		return nil, "", fmt.Errorf("%d logits, want %d", len(rep.Logits), vgg5.Classes)
	}
	if rep.StepsRun < 1 || rep.StepsRun > serveT {
		return nil, "", fmt.Errorf("steps_run %d outside 1..%d", rep.StepsRun, serveT)
	}
	return rep.Logits, resp.Header.Get("X-Skipper-Backend"), nil
}

// warm sends each probe frame alone (recording its logits) and, from the
// backend named in each reply, learns session ids that route to each replica
// so the load can be split evenly whatever ports the replicas got.
func (f *fleetRig) warm() error {
	const perBackend = 8
	for i := 0; i < 512; i++ {
		k := i % probeFrames
		session := fmt.Sprintf("u%03d", i)
		logits, backend, err := f.infer(f.url, k, session)
		if err != nil {
			return fmt.Errorf("probe frame %d alone: %w", k, err)
		}
		if i < probeFrames {
			f.alone = append(f.alone, logits)
		}
		if len(f.sessions[backend]) == 0 {
			f.backends = append(f.backends, backend)
		}
		f.sessions[backend] = append(f.sessions[backend], session)
		if i+1 >= probeFrames && len(f.backends) == len(f.replicas) &&
			len(f.sessions[f.backends[0]]) >= perBackend && len(f.sessions[f.backends[1]]) >= perBackend {
			return nil
		}
	}
	return fmt.Errorf("after 512 sessions the router used %d of %d replicas", len(f.backends), len(f.replicas))
}

// request is one generated request: a frame and the session it rides under.
type request struct {
	Frame   int
	Session string
}

// requests draws the next n requests from the seed: a uniformly chosen
// frame, and a session that routes to a uniformly chosen replica. The first
// probeFrames open-loop requests of a run carry the probe frames in order, so
// every probe is seen under load.
func (f *fleetRig) requests(n int) []request {
	out := make([]request, n)
	for i := range out {
		pool := f.sessions[f.backends[f.picks.Intn(len(f.backends))]]
		out[i] = request{Frame: f.picks.Intn(framePool), Session: pool[f.picks.Intn(len(pool))]}
	}
	return out
}

// sameBits reports whether two logit rows are byte-identical.
func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// do issues one request against base and, for a probe frame, compares the
// logits with the ones the frame got alone.
func (f *fleetRig) do(base string, rq request, mismatches *probeTally) error {
	logits, _, err := f.infer(base, rq.Frame, rq.Session)
	if err != nil {
		return err
	}
	if rq.Frame < len(f.alone) {
		mismatches.note(rq.Frame, sameBits(logits, f.alone[rq.Frame]))
	}
	return nil
}

// probeTally counts probe replies seen under load and how many differed.
type probeTally struct {
	mu       sync.Mutex
	seen     map[int]bool
	Mismatch int
}

func (p *probeTally) note(frame int, same bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.seen == nil {
		p.seen = map[int]bool{}
	}
	p.seen[frame] = true
	if !same {
		p.Mismatch++
	}
}

// serveResult is what the serving segment measured, block by block.
type serveResult struct {
	P50        []float64 // per open block: the median of its latencies, each from its due instant
	LatencyMS  []float64 // every open-loop request that succeeded
	LatenessMS []float64 // generator lateness of every open-loop request
	Requests   int       // open-loop requests attempted
	Failed     int       // open-loop requests failed
	FirstErr   error
	Rates      []float64 // per closed block: completions ÷ wall
	ClosedOK   int
	ClosedBad  int
	Probes     probeTally

	// Traced run only.
	Direct  openStats  // every second arrival of each block again, straight at one replica
	Replica promSample // replicas' /metrics over the open blocks, summed
	Router  promSample // router's /metrics over the open blocks
}

func (f *fleetRig) scrapeAll() (replicas, rtr promSample, err error) {
	replicas = promSample{}
	for _, r := range f.replicas {
		s, err := scrape(f.client, r.url)
		if err != nil {
			return nil, nil, err
		}
		replicas = replicas.plus(s)
	}
	rtr, err = scrape(f.client, f.url)
	return replicas, rtr, err
}

// block is one serve block: n Poisson arrivals at the fixed rate through the
// router over at most f.conns keep-alive connections, each timed from its due
// instant, then one caller per connection back to back for closed. With rec
// non-nil it records a span per request, keeps the /metrics activity of the
// open loop, and repeats every second arrival straight at replica 0, which
// keeps that replica as busy as the router kept it.
func (f *fleetRig) block(res *serveResult, n int, closed time.Duration, rec *recorder) error {
	due := poissonSchedule(f.arrivals, serveRate, n)
	reqs := f.requests(n)
	for i := 0; i < n && f.issued < probeFrames; i++ {
		reqs[i].Frame = f.issued
		f.issued++
	}
	var repBefore, rtrBefore promSample
	var err error
	if rec != nil {
		if repBefore, rtrBefore, err = f.scrapeAll(); err != nil {
			return err
		}
	}
	st := summarise(runOpenLoop(time.Now(), due, f.conns, func(_, i int) error {
		t0 := time.Now()
		err := f.do(f.url, reqs[i], &res.Probes)
		rec.add("router.request", int64(res.Requests+i), -1, t0, time.Since(t0))
		return err
	}))
	if rec != nil {
		repAfter, rtrAfter, err := f.scrapeAll()
		if err != nil {
			return err
		}
		res.Replica, res.Router = res.Replica.plus(repAfter.sub(repBefore)), res.Router.plus(rtrAfter.sub(rtrBefore))
	}
	res.Requests += n
	res.Failed += st.Failed
	if res.FirstErr == nil {
		res.FirstErr = st.FirstErr
	}
	res.LatencyMS, res.LatenessMS = append(res.LatencyMS, st.LatencyMS...), append(res.LatenessMS, st.LatenessMS...)
	if asc := sorted(st.LatencyMS); len(asc) > 0 {
		res.P50 = append(res.P50, percentile(asc, 50))
	}

	f.turns++
	ok, bad, wall := runClosedLoop(closed, f.conns, func(w, k int) error {
		return f.do(f.url, f.closed[(f.turns*127+w*509+k)%len(f.closed)], &res.Probes)
	})
	res.ClosedOK, res.ClosedBad = res.ClosedOK+ok, res.ClosedBad+bad
	res.Rates = append(res.Rates, float64(ok)/wall.Seconds())

	if rec != nil {
		var half []time.Duration
		for i := 0; i < n; i += 2 {
			half = append(half, due[i])
		}
		direct := summarise(runOpenLoop(time.Now(), half, f.conns, func(_, i int) error {
			t0 := time.Now()
			err := f.do(f.replicas[0].url, reqs[2*i], &res.Probes)
			rec.add("serve.request", int64(res.Requests+i), -1, t0, time.Since(t0))
			return err
		}))
		res.Direct.LatencyMS = append(res.Direct.LatencyMS, direct.LatencyMS...)
		res.Direct.LatenessMS = append(res.Direct.LatenessMS, direct.LatenessMS...)
		res.Direct.Failed += direct.Failed
	}
	return nil
}

// checkServing applies the serving correctness rules.
func checkServing(res *serveResult) []string {
	var bad []string
	if res.Failed > 0 || res.ClosedBad > 0 || res.Direct.Failed > 0 {
		bad = append(bad, fmt.Sprintf("%d open-loop, %d closed-loop and %d direct requests failed (first: %v)",
			res.Failed, res.ClosedBad, res.Direct.Failed, res.FirstErr))
	}
	if res.Probes.Mismatch > 0 {
		bad = append(bad, fmt.Sprintf("%d probe replies under load differ from the same frame sent alone", res.Probes.Mismatch))
	}
	if len(res.Probes.seen) < probeFrames {
		bad = append(bad, fmt.Sprintf("only %d of %d probe frames were seen under load", len(res.Probes.seen), probeFrames))
	}
	return bad
}
