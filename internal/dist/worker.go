package dist

import (
	"errors"
	"fmt"
	"net"
	"time"

	"skipper/internal/core"
	"skipper/internal/dataset"
	"skipper/internal/frame"
	"skipper/internal/runstate"
	"skipper/internal/trace"
)

// WorkerConfig parameterizes RunWorker.
type WorkerConfig struct {
	// Dial opens a connection to the coordinator. Seam for tests (net.Pipe)
	// and fault injection (faults.Conn); production passes net.Dial.
	Dial func() (net.Conn, error)
	// Options must name the coordinator's topology; the handshake rejects a
	// mismatch permanently.
	Options Options
	// RingDial opens a ring-data connection to a successor's listener
	// (TopologyRing only). Seam for fault injection; default is a plain
	// net.Dial with IOTimeout.
	RingDial func(addr string) (net.Conn, error)
	// MaxReconnects bounds consecutive failed connection attempts/sessions
	// before the worker gives up with a CoordinatorLostError. Any completed
	// handshake resets the count. Default 5.
	MaxReconnects int
	// ReconnectWait is the backoff base between attempts, doubled per
	// consecutive failure and capped at 5s. Default 200ms.
	ReconnectWait time.Duration
	// IOTimeout bounds each read/write while a round is in flight.
	// Default 60s.
	IOTimeout time.Duration
	// IdleTimeout bounds the wait for the next assignment between rounds
	// (the coordinator may legitimately pause while refilling ranks).
	// Default 10min.
	IdleTimeout time.Duration

	Tracer *trace.Tracer
}

func (c WorkerConfig) withDefaults() WorkerConfig {
	if c.MaxReconnects <= 0 {
		c.MaxReconnects = 5
	}
	if c.ReconnectWait <= 0 {
		c.ReconnectWait = 200 * time.Millisecond
	}
	if c.IOTimeout <= 0 {
		c.IOTimeout = 60 * time.Second
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 10 * time.Minute
	}
	c.Options = c.Options.withDefaults()
	if c.RingDial == nil {
		timeout := c.IOTimeout
		c.RingDial = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	return c
}

// CoordinatorLostError reports that the worker exhausted its reconnect
// budget. The worker's trainer state is whatever the last committed round
// left it with; restarting the worker against the same coordinator resyncs
// it from the coordinator's manifest automatically.
type CoordinatorLostError struct {
	// Round is the first round this worker did not commit.
	Round int
	Err   error
}

func (e *CoordinatorLostError) Error() string {
	return fmt.Sprintf("dist: coordinator unreachable at round %d: %v (restart this worker with the same join address once the coordinator is back; it resyncs from the coordinator's manifest)",
		e.Round, e.Err)
}

func (e *CoordinatorLostError) Unwrap() error { return e.Err }

// permanentError marks failures reconnecting cannot fix (handshake
// rejection, local compute failure, corrupted trainer state).
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// workerState is the per-process state shared across a worker's sessions:
// the flat gradient view and, for ring topology, the ring-data endpoint and
// the latest announced membership.
type workerState struct {
	flat      *flatGrads
	sig       string
	neuronSig string
	ring      *ringEnd
	// Latest ring membership announcement.
	ringAddrs   []string
	ringVersion int
}

// RunWorker joins tr to a coordinator and participates in rounds until the
// coordinator sends done (returns nil), a permanent error occurs, or the
// reconnect budget runs out (returns *CoordinatorLostError).
//
// Every (re)join resyncs tr bitwise from the coordinator's manifest, so a
// worker that missed rounds — or is joining fresh — starts from the exact
// committed state.
func RunWorker(tr *core.Trainer, cfg WorkerConfig) error {
	if cfg.Dial == nil {
		return fmt.Errorf("dist: worker needs a Dial function")
	}
	if err := cfg.Options.Validate(); err != nil {
		return err
	}
	cfg = cfg.withDefaults()
	grads := tr.GradTensors()
	ws := &workerState{flat: newFlatGrads(grads), sig: paramSig(grads), neuronSig: neuronSig(tr.Net)}
	if cfg.Options.Topology == TopologyRing {
		end, err := newRingEnd(cfg.Options.RingListen, cfg.RingDial, cfg.IOTimeout)
		if err != nil {
			return err
		}
		ws.ring = end
		defer end.close()
	}
	fails := 0
	round := 0
	for {
		conn, err := cfg.Dial()
		if err == nil {
			var r int
			var progressed bool
			r, progressed, err = workerSession(tr, conn, ws, cfg)
			conn.Close()
			if r > round {
				round = r
			}
			if err == nil {
				return nil
			}
			var pe *permanentError
			if errors.As(err, &pe) {
				return pe.err
			}
			if progressed {
				fails = 0
			}
		}
		fails++
		if fails > cfg.MaxReconnects {
			return &CoordinatorLostError{Round: round, Err: err}
		}
		wait := cfg.ReconnectWait << (fails - 1)
		if wait > 5*time.Second || wait <= 0 {
			wait = 5 * time.Second
		}
		time.Sleep(wait)
	}
}

// workerSession runs one connection's lifetime: handshake, resync, then the
// assign/upload/commit loop. It reports the first uncommitted round and
// whether the session made progress (completed the handshake), which resets
// the caller's reconnect budget.
func workerSession(tr *core.Trainer, conn net.Conn, ws *workerState, cfg WorkerConfig) (round int, progressed bool, err error) {
	conn.SetDeadline(time.Now().Add(cfg.IOTimeout))
	hello := helloMsg{
		Proto:     protoVersion,
		Strategy:  tr.Strat.Name(),
		Optimizer: tr.Opt.Name(),
		Seed:      tr.Cfg.Seed,
		T:         tr.Cfg.T,
		LR:        float64(tr.Cfg.LR),
		GradClip:  float64(tr.Cfg.GradClip),
		ParamSig:  ws.sig,
		NeuronSig: ws.neuronSig,
		Topology:  cfg.Options.Topology,
	}
	if ws.ring != nil {
		hello.RingAddr = ws.ring.addr()
	}
	hb, err := encodeJSON(hello)
	if err != nil {
		return 0, false, &permanentError{err}
	}
	if err := frame.Write(conn, msgHello, hb); err != nil {
		return 0, false, err
	}
	typ, payload, err := frame.Read(conn)
	if err != nil {
		return 0, false, err
	}
	if typ == msgError {
		return 0, false, decodeWorkerError(payload)
	}
	if typ != msgWelcome {
		return 0, false, fmt.Errorf("dist: expected welcome, got message type %d", typ)
	}
	var welcome welcomeMsg
	if err := decodeJSON(payload, &welcome); err != nil {
		return 0, false, err
	}
	typ, payload, err = frame.Read(conn)
	if err != nil {
		return welcome.Round, false, err
	}
	if typ != msgState {
		return welcome.Round, false, fmt.Errorf("dist: expected state manifest, got message type %d", typ)
	}
	m, err := runstate.Decode(payload)
	if err != nil {
		return welcome.Round, false, &permanentError{fmt.Errorf("dist: decoding resync manifest: %w", err)}
	}
	if err := m.Restore(tr); err != nil {
		return welcome.Round, false, &permanentError{fmt.Errorf("dist: restoring resync manifest: %w", err)}
	}
	cfg.Tracer.Event(trace.TrackDist, "joined",
		trace.Attr{Key: "rank", Val: int64(welcome.Rank)},
		trace.Attr{Key: "round", Val: int64(welcome.Round)})

	round = welcome.Round
	rank := welcome.Rank
	lastEpoch := -1
	for {
		conn.SetDeadline(time.Now().Add(cfg.IdleTimeout))
		typ, payload, err := frame.Read(conn)
		if err != nil {
			return round, true, err
		}
		conn.SetDeadline(time.Now().Add(cfg.IOTimeout))
		switch typ {
		case msgRing:
			var rm ringMsg
			if err := decodeJSON(payload, &rm); err != nil {
				return round, true, err
			}
			ws.ringAddrs = rm.Addrs
			ws.ringVersion = rm.Version
		case msgAssign:
			var a assignMsg
			if err := decodeJSON(payload, &a); err != nil {
				return round, true, err
			}
			if a.Epoch != lastEpoch {
				if err := tr.BeginEpoch(a.Epoch); err != nil {
					return round, true, &permanentError{err}
				}
				lastEpoch = a.Epoch
			}
			if cfg.Options.Topology == TopologyRing {
				err = workerRingRound(tr, conn, a, rank, welcome.World, ws, cfg)
			} else {
				err = workerStarRound(tr, conn, a, rank, ws, cfg)
			}
			if err != nil {
				return round, true, err
			}
			round = a.Round
		case msgReduced:
			var meta reducedMeta
			fb, err := decodeFlat(payload, &meta)
			if err != nil {
				return round, true, err
			}
			if meta.Round != round {
				return round, true, fmt.Errorf("dist: reduced gradients for round %d, expected %d", meta.Round, round)
			}
			vals := make([]float32, ws.flat.size())
			if err := decodeFloats(fb, vals); err != nil {
				return round, true, err
			}
			ws.flat.copyIn(vals)
			tr.ApplyReduced()
			round = meta.Round + 1
			cfg.Tracer.Event(trace.TrackDist, "round_committed", trace.Attr{Key: "round", Val: int64(meta.Round)})
		case msgCommit:
			// Ring topology: the distribution trip already installed the
			// reduced gradient locally, so commit is the go-ahead to step.
			var cm commitMsg
			if err := decodeJSON(payload, &cm); err != nil {
				return round, true, err
			}
			if cm.Round != round {
				return round, true, fmt.Errorf("dist: commit for round %d, expected %d", cm.Round, round)
			}
			tr.ApplyReduced()
			round = cm.Round + 1
			cfg.Tracer.Event(trace.TrackDist, "round_committed", trace.Attr{Key: "round", Val: int64(cm.Round)})
		case msgAbort:
			var ab abortMsg
			if err := decodeJSON(payload, &ab); err != nil {
				return round, true, err
			}
			cfg.Tracer.Event(trace.TrackDist, "round_aborted", trace.Attr{Key: "round", Val: int64(ab.Round)})
			// Nothing to undo: the round's gradients were never applied.
		case msgDone:
			return round, true, nil
		case msgError:
			return round, true, decodeWorkerError(payload)
		default:
			return round, true, fmt.Errorf("dist: unexpected message type %d", typ)
		}
	}
}

// workerStarRound computes the assigned shard and uploads its gradient to
// the coordinator in one frame, the round stats riding on its meta. A rank
// that sat the round out sends the meta alone, so the coordinator's gather
// still completes.
func workerStarRound(tr *core.Trainer, conn net.Conn, a assignMsg, rank int, ws *workerState, cfg WorkerConfig) error {
	st, elapsed, err := tr.ShardGrads(dataset.Split(a.Split), a.Indices, a.Iteration, a.GlobalN)
	if err != nil {
		// Local compute failure: tell the coordinator (so the round aborts
		// promptly instead of timing out) and stop.
		if eb, encErr := encodeJSON(errorMsg{Message: err.Error()}); encErr == nil {
			conn.SetWriteDeadline(time.Now().Add(cfg.IOTimeout))
			frame.Write(conn, msgError, eb)
		}
		return &permanentError{err}
	}
	meta := gradsMeta{
		Round: a.Round, Attempt: a.Attempt, Rank: rank, Count: len(a.Indices),
		Loss: st.Loss, Correct: st.Correct, N: st.N, ComputeSeconds: elapsed.Seconds(),
	}
	var vals []float32
	if len(a.Indices) > 0 {
		vals = ws.flat.snapshot()
	}
	pb, err := encodeFlat(meta, vals)
	if err != nil {
		return &permanentError{err}
	}
	conn.SetWriteDeadline(time.Now().Add(cfg.IOTimeout))
	return frame.Write(conn, msgGrads, pb)
}

// decodeWorkerError turns a coordinator errorMsg into a worker-side error,
// permanent when the coordinator marked it so.
func decodeWorkerError(payload []byte) error {
	var em errorMsg
	if err := decodeJSON(payload, &em); err != nil {
		return err
	}
	err := fmt.Errorf("dist: coordinator: %s", em.Message)
	if em.Permanent {
		return &permanentError{err}
	}
	return err
}
