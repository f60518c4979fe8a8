package dist

import (
	"fmt"
	"sync"
	"time"

	"skipper/internal/core"
	"skipper/internal/dataset"
	"skipper/internal/frame"
	"skipper/internal/trace"
)

// Collective is one topology's gradient-combination engine. The coordinator
// drives it once per round attempt: Shard partitions the global batch,
// Exchange runs rank 0's local compute while combining every rank's
// gradients (on return the coordinator's gradient tensors hold the global
// sum), and Commit releases the round so every rank steps. Abort discards
// in-flight state after a rank fault; Close releases listeners.
type Collective interface {
	// Name is the topology name recorded in manifests and tooling.
	Name() string
	// Shard partitions the global batch indices across ranks.
	Shard(indices []int) [][]int
	// Exchange computes rank 0's shard and combines all ranks' gradients
	// into the coordinator's gradient tensors. A *rankFaultError return is
	// recoverable by vacate+replay; anything else is fatal.
	Exchange(r *round) error
	// Commit releases the round to the workers. Unreachable ranks are
	// vacated, not failed: the reduced gradient already exists, so the
	// survivors must step.
	Commit(r *round) error
	// Abort discards in-flight collective state after a round fault.
	Abort()
	// Close releases any listeners or persistent connections.
	Close()
}

// round carries one attempt's state through Shard/Exchange/Commit.
type round struct {
	num     int // committed-round index (c.round)
	attempt int
	split   dataset.Split
	indices []int
	shards  [][]int
	iter    int

	out       core.DPStepStats
	wireBytes int64

	// computeDone is when rank 0's local backward finished; a rank whose
	// contribution lands much later than that is a straggler.
	computeDone time.Time
}

// starCollective combines gradients through the coordinator: every worker
// uploads its contribution, rank 0 folds them in ascending rank order, and
// Commit broadcasts the reduced flat gradient. Uploads are read by per-rank
// goroutines concurrently with rank 0's own compute, so wire time hides
// under compute — only the fold (cheap) waits for everything.
type starCollective struct {
	c *Coordinator
}

func (s *starCollective) Name() string { return TopologyStar }

func (s *starCollective) Shard(indices []int) [][]int {
	return core.Shard(indices, s.c.cfg.World)
}

func (s *starCollective) Abort() {}
func (s *starCollective) Close() {}

// starUpload is one rank's collected round contribution.
type starUpload struct {
	vals      []float32 // nil when the rank sat the round out
	meta      gradsMeta
	arrivedAt time.Time
	err       error
}

func (s *starCollective) Exchange(r *round) error {
	c := s.c
	W := c.cfg.World

	ups := make([]*starUpload, W)
	var wg sync.WaitGroup
	for rank := 1; rank < W; rank++ {
		ups[rank] = &starUpload{}
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			s.readUpload(r, rank, ups[rank])
		}(rank)
	}

	st0, elapsed0, err := c.tr.ShardGrads(r.split, r.shards[0], r.iter, len(r.indices))
	r.computeDone = time.Now()
	wg.Wait()
	if err != nil {
		return err
	}
	r.out.StepStats.Add(st0)
	r.out.SlowestReplica = elapsed0

	for rank := 1; rank < W; rank++ {
		if ups[rank].err != nil {
			return ups[rank].err
		}
	}
	s.fold(r, ups)
	return nil
}

// readUpload collects rank's round contribution: one frame, meta-only if
// its shard is empty. Stale frames from an aborted prior attempt of the same
// round are drained — the worker computed bit-identical gradients for them,
// but the bookkeeping must not conflate attempts.
func (s *starCollective) readUpload(r *round, rank int, up *starUpload) {
	c := s.c
	conn := c.conns[rank]
	want := len(r.shards[rank])
	fault := func(err error) {
		up.err = &rankFaultError{rank: rank, phase: "gather", err: err}
	}
	for {
		conn.SetReadDeadline(time.Now().Add(c.cfg.RoundTimeout))
		typ, payload, err := frame.Read(conn)
		now := time.Now()
		if err != nil {
			fault(err)
			return
		}
		switch typ {
		case msgGrads:
		case msgError:
			fault(decodeWorkerError(payload))
			return
		default:
			fault(fmt.Errorf("expected gradients, got message type %d", typ))
			return
		}
		var meta gradsMeta
		fb, err := decodeFlat(payload, &meta)
		if err != nil {
			fault(err)
			return
		}
		if meta.Round == r.num && meta.Attempt < r.attempt {
			continue // stale upload from an aborted attempt
		}
		if meta.Round != r.num || meta.Attempt != r.attempt || meta.Rank != rank {
			fault(fmt.Errorf("upload for round %d attempt %d rank %d, want %d/%d/%d",
				meta.Round, meta.Attempt, meta.Rank, r.num, r.attempt, rank))
			return
		}
		if meta.Count != want {
			fault(fmt.Errorf("upload covers %d samples, want %d", meta.Count, want))
			return
		}
		if want > 0 {
			vals := make([]float32, c.flat.size())
			if err := decodeFloats(fb, vals); err != nil {
				fault(err)
				return
			}
			up.vals = vals
		}
		up.meta = meta
		up.arrivedAt = now
		return
	}
}

// fold combines all contributions into the coordinator's gradient tensors,
// in place: rank 0's gradients are already the running sum, and the other
// ranks accumulate in ascending order with empty shards skipped entirely —
// exactly core.ReduceGrads' walk, so the result is bit-identical to the
// in-process reduction. It also folds the stats and straggler accounting.
func (s *starCollective) fold(r *round, ups []*starUpload) {
	c := s.c
	have := len(r.shards[0]) > 0
	for rank := 1; rank < c.cfg.World; rank++ {
		up := ups[rank]
		if up.vals != nil {
			if have {
				c.flat.addIn(up.vals)
			} else {
				c.flat.copyIn(up.vals)
				have = true
			}
			r.wireBytes += int64(floatsWireLen(len(up.vals)))
		}
		r.out.StepStats.Add(core.StepStats{Loss: up.meta.Loss, Correct: up.meta.Correct, N: up.meta.N})
		if d := time.Duration(up.meta.ComputeSeconds * float64(time.Second)); d > r.out.SlowestReplica {
			r.out.SlowestReplica = d
		}
		if c.cfg.Straggler > 0 && up.arrivedAt.After(r.computeDone.Add(c.cfg.Straggler)) {
			c.cfg.Metrics.stragglers.Inc()
			c.cfg.Tracer.Event(trace.TrackDist, "straggler",
				trace.Attr{Key: "rank", Val: int64(rank)},
				trace.Attr{Key: "round", Val: int64(r.num)})
		}
	}
}

// Commit broadcasts the reduced flat gradient. A rank we cannot reach here
// is vacated (it will resync from a manifest on rejoin); the survivors and
// the coordinator step regardless — the round is already decided.
func (s *starCollective) Commit(r *round) error {
	c := s.c
	pb, err := encodeFlat(reducedMeta{Round: r.num}, c.flat.snapshot())
	if err != nil {
		return err
	}
	for rank := 1; rank < c.cfg.World; rank++ {
		conn := c.conns[rank]
		if conn == nil {
			continue
		}
		conn.SetWriteDeadline(time.Now().Add(c.cfg.RoundTimeout))
		if err := frame.Write(conn, msgReduced, pb); err != nil {
			c.vacate(rank, "broadcast")
			continue
		}
		r.wireBytes += int64(floatsWireLen(c.flat.size()))
	}
	return nil
}
