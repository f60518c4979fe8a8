package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"skipper/internal/layers"
	"skipper/internal/parallel"
	"skipper/internal/runstate"
	"skipper/internal/stream"
	"skipper/internal/tensor"
	"skipper/internal/trace"
)

// Server is the inference serving subsystem: a hot-reloadable model, a
// bounded batching queue, a worker pool, and the HTTP surface over them.
// Construct with NewServer, attach Handler to an http.Server, and call
// Drain on shutdown.
type Server struct {
	cfg     Config
	model   *Model
	metrics *Metrics
	tracer  *trace.Tracer

	queue chan *job
	stop  chan struct{}

	mu       sync.RWMutex // guards draining against enqueues
	draining bool

	jobWG    sync.WaitGroup // in-flight jobs (enqueued, not yet answered)
	workerWG sync.WaitGroup

	// fleet tracks framed-transport connections (ServeFleet) so Drain can
	// unblock their reads once the drain completes.
	fleet fleetConns

	// streams is the streaming-session registry; stream frames on the
	// fleet listener dispatch into it.
	streams *stream.Manager

	// reqSeq round-robins traced requests across the request track lanes so
	// overlapping request spans land on different trace rows instead of
	// falsely nesting.
	reqSeq atomic.Uint64

	inVolume int
	classes  int
	started  time.Time
}

// errDraining answers jobs the shutdown path drops before a worker could run
// them; handlers translate it to a prompt 503.
var errDraining = errors.New("server shut down before the request was executed")

// InferRequest is the body of POST /v1/infer.
type InferRequest struct {
	// Input is the flattened per-sample frame, values in [0,1], length
	// C·H·W of the serving topology's input shape.
	Input []float32 `json:"input"`
	// BudgetMS optionally tightens the server's request timeout for this
	// request. It can never extend it.
	BudgetMS int `json:"budget_ms,omitempty"`
	// EarlyExit, when present, overrides the server's early-exit setting
	// for this request. The router's admission tiers use it to force the
	// full horizon on bulk traffic while interactive classes keep exiting
	// early.
	EarlyExit *bool `json:"early_exit,omitempty"`
	// ExitMargin, when non-zero, overrides the early-exit confidence gate
	// for this request (>0 overrides, <0 disables the gate). The router's
	// SLO controller tunes this per request class against a latency budget
	// instead of the server's fixed constant.
	ExitMargin float64 `json:"exit_margin,omitempty"`
}

// InferResponse is the body of a 200 from POST /v1/infer.
type InferResponse struct {
	Pred         int       `json:"pred"`
	Logits       []float32 `json:"logits"`
	ExitStep     int       `json:"exit_step"`
	StepsRun     int       `json:"steps_run"`
	T            int       `json:"t"`
	BatchSize    int       `json:"batch_size"`
	ModelVersion uint64    `json:"model_version"`
}

// ReloadRequest is the body of POST /v1/reload. An empty path re-reads the
// checkpoint the server is currently serving.
type ReloadRequest struct {
	Path string `json:"path,omitempty"`
}

// ReloadResponse reports the generation now serving.
type ReloadResponse struct {
	Version  uint64 `json:"version"`
	Path     string `json:"path"`
	LoadedAt string `json:"loaded_at"`
}

// ConfigResponse is the body of GET /v1/config, enough for a client to size
// its inputs.
type ConfigResponse struct {
	Model        string `json:"model"`
	InShape      []int  `json:"in_shape"`
	InputLen     int    `json:"input_len"`
	Classes      int    `json:"classes"`
	T            int    `json:"t"`
	EarlyExit    bool   `json:"early_exit"`
	MaxBatch     int    `json:"max_batch"`
	ModelVersion uint64 `json:"model_version"`
	ModelPath    string `json:"model_path,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// NewServer builds the server, loads the initial model generation (from
// cfg's checkpoint path if modelPath is non-empty, else the builder's fresh
// initialisation), and starts the worker pool.
func NewServer(cfg Config, modelPath string) (*Server, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	model, err := NewModel(cfg.Build, modelPath)
	if err != nil {
		return nil, err
	}
	snap := model.Current()
	out := snap.Net.OutShape()
	s := &Server{
		cfg:      cfg,
		model:    model,
		tracer:   cfg.Runtime.Tracer(),
		queue:    make(chan *job, cfg.QueueDepth),
		stop:     make(chan struct{}),
		inVolume: tensor.Volume(snap.Net.InShape),
		classes:  tensor.Volume(out),
		started:  time.Now(),
	}
	s.metrics = newMetrics(cfg.MaxBatch, cfg.Runtime.Threads(),
		func() int { return len(s.queue) },
		func() uint64 { return s.model.Current().Version },
		func() parallel.PoolStats { return cfg.Runtime.Pool().Stats() })
	model.OnRetry = func(int, error) { s.metrics.reloadRetries.Inc() }
	var store *runstate.SessionStore
	if cfg.SessionDir != "" {
		store, err = runstate.OpenSessions(cfg.SessionDir, nil, nil)
		if err != nil {
			close(s.stop)
			return nil, err
		}
	}
	s.streams, err = stream.NewManager(stream.Config{
		Build: cfg.Build,
		Source: func() (*layers.Network, uint64) {
			snap := s.model.Current()
			return snap.Net, snap.Version
		},
		Pool:          cfg.Runtime.Pool(),
		Store:         store,
		TTL:           cfg.SessionTTL,
		SnapshotEvery: cfg.SessionSnapshotEvery,
		SkipThreshold: cfg.StreamSkipThreshold,
		Tracer:        s.tracer,
	})
	if err != nil {
		close(s.stop)
		return nil, err
	}
	s.streams.Register(s.metrics.Registry)
	for i := 0; i < cfg.Workers; i++ {
		r, err := newReplica(cfg.Build, cfg.Runtime.Pool())
		if err != nil {
			close(s.stop)
			return nil, err
		}
		s.workerWG.Add(1)
		go s.runWorker(i, r)
	}
	return s, nil
}

// Model returns the hot-reload handle (for SIGHUP wiring and tests).
func (s *Server) Model() *Model { return s.model }

// Streams returns the streaming-session registry.
func (s *Server) Streams() *stream.Manager { return s.streams }

// Reload validates and swaps in the checkpoint at path (empty = re-read the
// current file), recording the attempt in the metrics.
func (s *Server) Reload(path string) (*Snapshot, error) {
	snap, err := s.model.Reload(path)
	result := "ok"
	if err != nil {
		result = "error"
	}
	s.metrics.reloads.With(result).Inc()
	return snap, err
}

// Drain stops accepting new requests, waits for every enqueued job to be
// answered (bounded by ctx), and shuts the workers down. If the budget
// expires first, the residual queue is drained here: each dropped job is
// answered with errDraining (its handler returns a prompt 503) and its
// wait-group count released. Without that, jobs still queued at expiry
// leaked a jobWG count forever and their handlers hung until their own
// request timeouts.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	if already {
		return nil
	}
	done := make(chan struct{})
	go func() {
		s.jobWG.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = fmt.Errorf("serve: drain interrupted: %w", ctx.Err())
	}
	close(s.stop)
	if err != nil {
		// Workers are exiting (runWorker watches s.stop), so nothing else is
		// guaranteed to empty the queue. The draining flag stops new
		// enqueues, and workers only remove, so once the queue reads empty
		// here it stays empty. A worker racing us for a job is fine: whoever
		// receives it answers it, exactly once.
		dropped := 0
		for {
			select {
			case j := <-s.queue:
				j.resp <- jobResult{Err: errDraining}
				s.jobWG.Done()
				dropped++
			default:
				s.metrics.drainDropped.Add(int64(dropped))
				s.tracer.Event(trace.TrackTrain, "drain_dropped",
					trace.Attr{Key: "jobs", Val: int64(dropped)})
				s.streams.Shutdown()
				s.fleet.closeAll()
				return err
			}
		}
	}
	s.workerWG.Wait()
	// Snapshot any streaming sessions that did not migrate before the
	// drain, then unblock the fleet conns they were served on.
	s.streams.Shutdown()
	s.fleet.closeAll()
	return err
}

// Handler returns the HTTP surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/infer", s.handleInfer)
	mux.HandleFunc("/v1/reload", s.handleReload)
	mux.HandleFunc("/v1/config", s.handleConfig)
	mux.Handle("/metrics", s.metrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	return mux
}

func (s *Server) handleInfer(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if r.Method != http.MethodPost {
		s.metrics.observeRequest(http.StatusMethodNotAllowed, time.Since(start).Seconds())
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{"POST only"})
		return
	}
	var req InferRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.metrics.observeRequest(http.StatusBadRequest, time.Since(start).Seconds())
		writeJSON(w, http.StatusBadRequest, errorResponse{fmt.Sprintf("decoding request: %v", err)})
		return
	}
	code, body, retryAfter := s.execute(r.Context(), req)
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	}
	s.metrics.observeRequest(code, time.Since(start).Seconds())
	writeJSON(w, code, body)
}

// execute runs one parsed request through validate → enqueue → await. It is
// the shared core of the HTTP handler and the fleet transport. The third
// return is a Retry-After hint in seconds, non-zero only on shed responses
// (429/503) so clients and the router know when the replica is worth another
// attempt.
func (s *Server) execute(parent context.Context, req InferRequest) (int, any, int) {
	if len(req.Input) != s.inVolume {
		return http.StatusBadRequest, errorResponse{fmt.Sprintf(
			"input length %d, want %d (flattened %v)", len(req.Input), s.inVolume, s.model.Current().Net.InShape)}, 0
	}
	for i, v := range req.Input {
		if v != v || v < 0 || v > 1 {
			return http.StatusBadRequest, errorResponse{fmt.Sprintf("input[%d] = %v outside [0,1]", i, v)}, 0
		}
	}

	timeout := s.cfg.RequestTimeout
	if req.BudgetMS > 0 {
		if b := time.Duration(req.BudgetMS) * time.Millisecond; b < timeout {
			timeout = b
		}
	}
	ctx, cancel := context.WithTimeout(parent, timeout)
	defer cancel()

	exit := exitParams{early: s.cfg.EarlyExit, margin: s.cfg.ExitMargin}
	if req.EarlyExit != nil {
		exit.early = *req.EarlyExit
	}
	if req.ExitMargin != 0 {
		exit.margin = req.ExitMargin
	}
	j := &job{
		frames: req.Input,
		id:     sampleID(req.Input),
		exit:   exit,
		enq:    time.Now(),
		ctx:    ctx,
		resp:   make(chan jobResult, 1),
	}
	if s.tracer.Enabled() {
		j.track = trace.TrackRequest0 + int(s.reqSeq.Add(1)-1)%trace.RequestTracks
	}

	// The read lock pairs with Drain's write lock so that once draining
	// flips, no new job can slip into the wait group.
	s.mu.RLock()
	if s.draining {
		s.mu.RUnlock()
		s.metrics.shed.With(shedDraining).Inc()
		return http.StatusServiceUnavailable, errorResponse{"server is draining"}, s.retryAfterSeconds(true)
	}
	s.jobWG.Add(1)
	select {
	case s.queue <- j:
		s.mu.RUnlock()
	default:
		s.jobWG.Done()
		s.mu.RUnlock()
		s.metrics.shed.With(shedQueueFull).Inc()
		return http.StatusTooManyRequests, errorResponse{"queue full"}, s.retryAfterSeconds(false)
	}

	select {
	case out := <-j.resp:
		if out.Err != nil {
			return http.StatusServiceUnavailable, errorResponse{out.Err.Error()}, s.retryAfterSeconds(true)
		}
		s.tracer.SpanAt(j.track, "request", j.enq, time.Since(j.enq),
			trace.Attr{Key: "batch", Val: int64(out.BatchSize)},
			trace.Attr{Key: "exit_step", Val: int64(out.ExitStep)})
		return http.StatusOK, InferResponse{
			Pred:         out.Pred,
			Logits:       out.Logits,
			ExitStep:     out.ExitStep,
			StepsRun:     out.StepsRun,
			T:            out.T,
			BatchSize:    out.BatchSize,
			ModelVersion: out.Version,
		}, 0
	case <-ctx.Done():
		s.tracer.Event(j.track, "deadline_missed")
		return http.StatusGatewayTimeout, errorResponse{"latency budget exceeded"}, 0
	}
}

// retryAfterSeconds derives the Retry-After hint for a shed response. While
// draining the answer is a flat second: this process is leaving the fleet, so
// the client's next attempt should go elsewhere (through the router) almost
// immediately. On a full queue the estimate is the time to work off the
// backlog ahead of the retry — queued batches times the recent mean batch
// execute time, spread over the workers — floored at one second so the header
// is always a positive integer.
func (s *Server) retryAfterSeconds(draining bool) int {
	if draining {
		return 1
	}
	exec := s.metrics.execute.Mean()
	if exec <= 0 {
		exec = 0.05 // no batches measured yet; assume a cheap one
	}
	batches := float64(len(s.queue))/float64(s.cfg.MaxBatch) + 1
	sec := int(math.Ceil(batches * exec / float64(s.cfg.Workers)))
	if sec < 1 {
		sec = 1
	}
	return sec
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{"POST only"})
		return
	}
	var req ReloadRequest
	if r.ContentLength != 0 {
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{fmt.Sprintf("decoding request: %v", err)})
			return
		}
	}
	snap, err := s.Reload(req.Path)
	if err != nil {
		writeJSON(w, http.StatusUnprocessableEntity, errorResponse{err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, ReloadResponse{
		Version:  snap.Version,
		Path:     snap.Path,
		LoadedAt: snap.LoadedAt.UTC().Format(time.RFC3339Nano),
	})
}

func (s *Server) handleConfig(w http.ResponseWriter, r *http.Request) {
	snap := s.model.Current()
	writeJSON(w, http.StatusOK, ConfigResponse{
		Model:        snap.Net.Name,
		InShape:      snap.Net.InShape,
		InputLen:     s.inVolume,
		Classes:      s.classes,
		T:            s.cfg.T,
		EarlyExit:    s.cfg.EarlyExit,
		MaxBatch:     s.cfg.MaxBatch,
		ModelVersion: snap.Version,
		ModelPath:    snap.Path,
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	draining := s.draining
	s.mu.RUnlock()
	if draining {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ready")
}

func writeJSON(w http.ResponseWriter, code int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(body)
}
