package serve

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"time"

	"skipper/internal/core"
	"skipper/internal/encode"
	"skipper/internal/tensor"
	"skipper/internal/trace"
)

// exitParams is a job's resolved early-exit configuration: the server
// defaults overlaid with any per-request override. Jobs in one micro-batch
// must share it, because core.InferOptions applies to the whole batch —
// runBatch groups a coalesced batch by this key and runs one inference per
// group.
type exitParams struct {
	early  bool
	margin float64
}

// job is one enqueued inference request.
type job struct {
	frames []float32  // flattened [C,H,W] input, values in [0,1]
	id     uint64     // content hash; the deterministic encoding sample id
	exit   exitParams // resolved early-exit configuration
	enq    time.Time
	track  int // trace track for this request's spans (0 when tracing is off)
	ctx    context.Context
	resp   chan jobResult // buffered 1; the worker's send never blocks
}

// jobResult is what the worker hands back for one sample. A non-nil Err
// means the job was dropped (e.g. the server shut down before a worker could
// run it) and the other fields are zero.
type jobResult struct {
	Pred      int
	Logits    []float32
	ExitStep  int
	StepsRun  int
	T         int
	BatchSize int
	Version   uint64
	Err       error
}

// sampleID hashes the request content so the Poisson encoding of a frame is
// a pure function of (EncodeSeed, content, t) — identical inputs produce
// identical spike trains regardless of batch composition or arrival order.
func sampleID(frames []float32) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	for _, v := range frames {
		binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// runWorker is one batch worker: it owns a private network replica and loops
// pulling micro-batches off the queue until the stop channel closes. idx
// names the worker's trace track.
func (s *Server) runWorker(idx int, r *replica) {
	defer s.workerWG.Done()
	track := trace.TrackWorker0 + idx
	for {
		select {
		case <-s.stop:
			return
		case first := <-s.queue:
			cs := s.tracer.Begin(track, "coalesce")
			jobs := s.coalesce(first)
			cs.End(trace.Attr{Key: "batch", Val: int64(len(jobs))})
			s.runBatch(track, r, jobs)
		}
	}
}

// coalesce takes the first job plus whatever is already queued, up to
// MaxBatch.
func (s *Server) coalesce(first *job) []*job {
	jobs := []*job{first}
	for len(jobs) < s.cfg.MaxBatch {
		select {
		case j := <-s.queue:
			jobs = append(jobs, j)
		default:
			return jobs
		}
	}
	return jobs
}

// runBatch executes one coalesced micro-batch on the worker's replica.
// Because core.InferOptions binds the exit rule to the whole batch, jobs
// whose requests overrode the rule (the router's per-class plumbing) are
// partitioned into per-exitParams groups, preserving arrival order, and each
// group runs as its own inference. In the common case — no overrides — this
// is one group and one pass, exactly the old behaviour.
func (s *Server) runBatch(track int, r *replica, jobs []*job) {
	// Requests whose deadline already passed are dropped here: their handler
	// has answered 504 and gone, so computing them would be pure waste.
	live := jobs[:0]
	for _, j := range jobs {
		if j.ctx.Err() != nil {
			s.jobWG.Done()
			continue
		}
		live = append(live, j)
	}
	jobs = live
	if len(jobs) == 0 {
		return
	}

	var order []exitParams
	groups := map[exitParams][]*job{}
	for _, j := range jobs {
		if _, seen := groups[j.exit]; !seen {
			order = append(order, j.exit)
		}
		groups[j.exit] = append(groups[j.exit], j)
	}
	for _, key := range order {
		s.runGroup(track, r, groups[key], key)
	}
}

// runGroup executes one exit-homogeneous group of jobs as a single batch.
func (s *Server) runGroup(track int, r *replica, jobs []*job, exit exitParams) {
	if s.cfg.OnBatch != nil {
		s.cfg.OnBatch(len(jobs))
	}
	snap := r.sync(s.model)

	b := len(jobs)
	shape := append([]int{b}, r.net.InShape...)
	frames := tensor.New(shape...)
	// The ids stay full-width uint64: j.id is a 64-bit content hash, and
	// narrowing it through int silently truncated the top 32 bits on 32-bit
	// platforms, so the same request encoded differently across architectures.
	ids := make([]uint64, b)
	waits := make([]float64, b)
	now := time.Now()
	per := frames.Len() / b
	for i, j := range jobs {
		copy(frames.Data[i*per:(i+1)*per], j.frames)
		ids[i] = j.id
		waits[i] = now.Sub(j.enq).Seconds()
		// The queue wait is over by the time the batch assembles, so it is
		// recorded retroactively on the request's own track.
		s.tracer.SpanAt(j.track, "queue_wait", j.enq, now.Sub(j.enq))
	}

	enc := encode.Poisson{MaxRate: s.cfg.MaxRate, Seed: s.cfg.EncodeSeed}
	spikes := tensor.New(shape...)
	exec := s.tracer.Begin(track, "batch_execute")
	res := core.InferStream(r.net, s.cfg.T, func(t int) *tensor.Tensor {
		enc.EncodeStep(spikes, frames, ids, t)
		return spikes
	}, core.InferOptions{
		EarlyExit: exit.early,
		K:         s.cfg.ExitK,
		MinMargin: exit.margin,
		MinSteps:  s.cfg.ExitMinSteps,
	})
	exec.End(trace.Attr{Key: "batch", Val: int64(b)},
		trace.Attr{Key: "steps_run", Val: int64(res.StepsRun)})

	s.metrics.observeBatch(b, res.StepsRun, res.T, res.EarlyExits(), time.Since(now).Seconds(), waits)

	classes := res.Logits.Dim(1)
	for i, j := range jobs {
		logits := make([]float32, classes)
		copy(logits, res.Logits.Data[i*classes:(i+1)*classes])
		j.resp <- jobResult{
			Pred:      res.Preds[i],
			Logits:    logits,
			ExitStep:  res.ExitSteps[i],
			StepsRun:  res.StepsRun,
			T:         res.T,
			BatchSize: b,
			Version:   snap.Version,
		}
		s.jobWG.Done()
	}
}
