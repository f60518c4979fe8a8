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

// Config parameterizes a Coordinator.
type Config struct {
	// World is the total rank count including the coordinator (rank 0), so
	// World-1 workers must join. Must be at least 2.
	World int
	// Options selects the exchange topology; every worker must present the
	// same one at handshake.
	Options Options
	// RoundTimeout bounds each per-connection I/O phase inside a round
	// (dispatch write, gather read, broadcast write). Default 30s.
	RoundTimeout time.Duration
	// JoinTimeout bounds how long a round waits for vacant ranks to (re)fill
	// before giving up. Default 60s.
	JoinTimeout time.Duration
	// Straggler, when > 0, flags any rank whose upload completed later than
	// this after rank 0's own compute finished (the worker was still
	// computing or its link is slow); flagged ranks bump
	// skipper_dist_stragglers_total and emit a trace event but do not fail
	// the round.
	Straggler time.Duration
	// MaxReplays bounds how many times a round is replayed after rank
	// faults before the coordinator gives up. Default 3.
	MaxReplays int

	Tracer *trace.Tracer
	// Metrics is the page the coordinator counts into; nil counts into a
	// private one that nothing renders.
	Metrics *Metrics
}

func (c Config) withDefaults() Config {
	if c.RoundTimeout <= 0 {
		c.RoundTimeout = 30 * time.Second
	}
	if c.JoinTimeout <= 0 {
		c.JoinTimeout = 60 * time.Second
	}
	if c.MaxReplays <= 0 {
		c.MaxReplays = 3
	}
	if c.Metrics == nil {
		c.Metrics = NewMetrics(c.World)
	}
	c.Options = c.Options.withDefaults()
	return c
}

// Coordinator drives synchronous data-parallel training as rank 0 of a
// World-rank run. It is not safe for concurrent use except for Admit/Serve,
// which only feed the join queue.
type Coordinator struct {
	tr  *core.Trainer
	cfg Config

	joinCh chan net.Conn
	conns  []net.Conn // index = rank; [0] stays nil (the coordinator itself)

	flat      *flatGrads
	sig       string
	neuronSig string
	coll      Collective

	// Ring membership (TopologyRing): ringAddrs[r] is rank r's ring-data
	// listener, ringVersion names the membership epoch, and ringDirty
	// forces a re-announce (and version bump) before the next round —
	// set on any join, vacancy, or abort so poisoned ring connections are
	// always rebuilt.
	ringAddrs   []string
	ringVersion int
	ringDirty   bool

	round    int
	lastIter int
	epoch    int
}

// NewCoordinator wraps tr (which becomes rank 0) in a coordinator for
// cfg.World ranks.
//
// The divergence guard's rollback is a single-process mechanism, so a
// scheduled-LR run relies on every rank applying BeginEpoch identically;
// guard-driven mid-epoch LR rescaling is not replicated and must stay off
// (Guard disabled) in distributed runs.
func NewCoordinator(tr *core.Trainer, cfg Config) (*Coordinator, error) {
	if cfg.World < 2 {
		return nil, fmt.Errorf("dist: world size %d needs at least 2 ranks", cfg.World)
	}
	if err := cfg.Options.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	grads := tr.GradTensors()
	c := &Coordinator{
		tr:        tr,
		cfg:       cfg,
		joinCh:    make(chan net.Conn, cfg.World*2),
		conns:     make([]net.Conn, cfg.World),
		flat:      newFlatGrads(grads),
		sig:       paramSig(grads),
		neuronSig: neuronSig(tr.Net),
		ringAddrs: make([]string, cfg.World),
		lastIter:  tr.Iteration0(),
	}
	switch cfg.Options.Topology {
	case TopologyRing:
		rc, err := newRingCollective(c)
		if err != nil {
			return nil, err
		}
		c.coll = rc
	default:
		c.coll = &starCollective{c: c}
	}
	return c, nil
}

// Collective exposes the round engine the coordinator runs — its Name is
// what manifests and tooling record as the topology.
func (c *Coordinator) Collective() Collective { return c.coll }

// Admit queues a connection for the next rank-filling pause. Tests feed
// net.Pipe ends here directly; Serve feeds accepted TCP connections.
func (c *Coordinator) Admit(conn net.Conn) {
	c.joinCh <- conn
}

// Serve accepts connections from ln and admits them until ln closes.
func (c *Coordinator) Serve(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		c.Admit(conn)
	}
}

func (c *Coordinator) connected() int {
	n := 0
	for r := 1; r < c.cfg.World; r++ {
		if c.conns[r] != nil {
			n++
		}
	}
	return n
}

func (c *Coordinator) vacancies() int {
	return c.cfg.World - 1 - c.connected()
}

// vacate drops rank r's connection. Rank -1 marks an unattributable fault
// (e.g. a ring link dropping between two workers) and vacates nobody — the
// replay's dispatch or gather will attribute the dead rank.
func (c *Coordinator) vacate(r int, why string) {
	if r < 1 || r >= c.cfg.World || c.conns[r] == nil {
		return
	}
	c.conns[r].Close()
	c.conns[r] = nil
	c.ringDirty = true
	c.cfg.Metrics.connected.Store(int64(c.connected()))
	c.cfg.Tracer.Event(trace.TrackDist, "rank_vacated:"+why,
		trace.Attr{Key: "rank", Val: int64(r)})
}

// handshake validates a joining worker and seats it at the lowest vacant
// rank, sending welcome + a runstate manifest so the worker resyncs to the
// coordinator's exact current weights, optimizer state, and buffers.
func (c *Coordinator) handshake(conn net.Conn) error {
	deadline := time.Now().Add(c.cfg.RoundTimeout)
	if err := conn.SetDeadline(deadline); err != nil {
		return err
	}
	typ, payload, err := frame.Read(conn)
	if err != nil {
		return err
	}
	if typ != msgHello {
		return fmt.Errorf("dist: expected hello, got message type %d", typ)
	}
	var hello helloMsg
	if err := decodeJSON(payload, &hello); err != nil {
		return err
	}
	if err := c.validateHello(hello); err != nil {
		// Tell the worker not to retry: its configuration can never match.
		if eb, encErr := encodeJSON(errorMsg{Message: err.Error(), Permanent: true}); encErr == nil {
			frame.Write(conn, msgError, eb)
		}
		return err
	}
	rank := -1
	for r := 1; r < c.cfg.World; r++ {
		if c.conns[r] == nil {
			rank = r
			break
		}
	}
	if rank == -1 {
		if eb, encErr := encodeJSON(errorMsg{Message: "world is full", Permanent: true}); encErr == nil {
			frame.Write(conn, msgError, eb)
		}
		return fmt.Errorf("dist: world is full")
	}
	wb, err := encodeJSON(welcomeMsg{Rank: rank, World: c.cfg.World, Round: c.round})
	if err != nil {
		return err
	}
	if err := frame.Write(conn, msgWelcome, wb); err != nil {
		return err
	}
	// NextEpoch in the cursor is the epoch the next assign will name;
	// Restore rewinds the worker to just before it, and BeginEpoch on the
	// first assign advances it with the scheduled LR applied.
	m, err := runstate.Capture(c.tr, core.Cursor{NextEpoch: c.epoch, Iteration: c.lastIter}, core.EpochStats{})
	if err != nil {
		return fmt.Errorf("dist: capturing resync manifest: %w", err)
	}
	m.Meta.Dist = &runstate.DistMeta{
		World: c.cfg.World, Rank: rank, Round: c.round,
		Topology: c.cfg.Options.Topology,
	}
	mb, err := m.Encode()
	if err != nil {
		return fmt.Errorf("dist: encoding resync manifest: %w", err)
	}
	if err := frame.Write(conn, msgState, mb); err != nil {
		return err
	}
	if err := conn.SetDeadline(time.Time{}); err != nil {
		return err
	}
	c.conns[rank] = conn
	c.ringAddrs[rank] = hello.RingAddr
	c.ringDirty = true
	c.cfg.Tracer.Event(trace.TrackDist, "rank_joined",
		trace.Attr{Key: "rank", Val: int64(rank)}, trace.Attr{Key: "round", Val: int64(c.round)})
	return nil
}

// validateHello rejects any worker whose configuration would break the
// lock-step invariant: same strategy, optimizer, seed, horizon, LR/clip,
// parameter layout, surrogate and neuron constants, and topology, or the
// ranks compute diverging steps.
func (c *Coordinator) validateHello(h helloMsg) error {
	opts := c.cfg.Options
	switch {
	case h.Proto != protoVersion:
		return fmt.Errorf("dist: protocol %d != %d", h.Proto, protoVersion)
	case h.Strategy != c.tr.Strat.Name():
		return fmt.Errorf("dist: strategy %q != %q", h.Strategy, c.tr.Strat.Name())
	case h.Optimizer != c.tr.Opt.Name():
		return fmt.Errorf("dist: optimizer %q != %q", h.Optimizer, c.tr.Opt.Name())
	case h.Seed != c.tr.Cfg.Seed:
		return fmt.Errorf("dist: seed %d != %d", h.Seed, c.tr.Cfg.Seed)
	case h.T != c.tr.Cfg.T:
		return fmt.Errorf("dist: horizon T %d != %d", h.T, c.tr.Cfg.T)
	case h.LR != float64(c.tr.Cfg.LR):
		return fmt.Errorf("dist: learning rate %g != %g", h.LR, c.tr.Cfg.LR)
	case h.GradClip != float64(c.tr.Cfg.GradClip):
		return fmt.Errorf("dist: grad clip %g != %g", h.GradClip, c.tr.Cfg.GradClip)
	case h.ParamSig != c.sig:
		return fmt.Errorf("dist: parameter signature %s != %s", h.ParamSig, c.sig)
	case h.NeuronSig != c.neuronSig:
		return fmt.Errorf("dist: neuron signature %s != %s (a layer's surrogate, leak, threshold or reset mode differs)", h.NeuronSig, c.neuronSig)
	case h.Topology != opts.Topology:
		return fmt.Errorf("dist: topology %q != %q", h.Topology, opts.Topology)
	case opts.Topology == TopologyRing && h.RingAddr == "":
		return fmt.Errorf("dist: ring topology needs a worker ring listener address")
	}
	return nil
}

// fillRanks blocks until every rank is seated, admitting queued and newly
// arriving connections, or fails after JoinTimeout.
func (c *Coordinator) fillRanks() error {
	deadline := time.Now().Add(c.cfg.JoinTimeout)
	for c.vacancies() > 0 {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return fmt.Errorf("dist: timed out waiting for %d worker(s) to join", c.vacancies())
		}
		select {
		case conn := <-c.joinCh:
			if err := c.handshake(conn); err != nil {
				conn.Close()
				c.cfg.Tracer.Event(trace.TrackDist, "join_rejected:"+err.Error())
				continue
			}
			c.cfg.Metrics.connected.Store(int64(c.connected()))
		case <-time.After(remaining):
			return fmt.Errorf("dist: timed out waiting for %d worker(s) to join", c.vacancies())
		}
	}
	return nil
}

// rankFaultError marks a failure attributable to one worker rank (or -1
// when the faulting rank cannot be named, e.g. a ring link between two
// workers), which the round-replay loop recovers from by vacating that rank
// and replaying.
type rankFaultError struct {
	rank  int
	phase string
	err   error
}

func (e *rankFaultError) Error() string {
	return fmt.Sprintf("dist: rank %d failed during %s: %v", e.rank, e.phase, e.err)
}

func (e *rankFaultError) Unwrap() error { return e.err }

// TrainRound runs one synchronous data-parallel step over the global batch,
// replaying (with reconnected workers resynced from a manifest) after rank
// faults up to MaxReplays times. Replays are deterministic: the iteration
// number is fixed before the first attempt, so every attempt computes
// bit-identical gradients.
func (c *Coordinator) TrainRound(split dataset.Split, indices []int) (core.DPStepStats, error) {
	var lastErr error
	for attempt := 0; attempt <= c.cfg.MaxReplays; attempt++ {
		if err := c.fillRanks(); err != nil {
			return core.DPStepStats{}, err
		}
		st, err := c.tryRound(split, indices, attempt)
		if err == nil {
			c.round++
			c.lastIter++
			return st, nil
		}
		lastErr = err
		var rf *rankFaultError
		if !errors.As(err, &rf) {
			return core.DPStepStats{}, err
		}
		c.abortRound(rf)
		c.cfg.Metrics.aborts.Inc()
	}
	return core.DPStepStats{}, fmt.Errorf("dist: round %d failed after %d replays: %w", c.round, c.cfg.MaxReplays, lastErr)
}

// abortRound tells surviving ranks to discard the in-flight round, vacates
// the faulted rank, and discards any in-flight collective state (ring
// connections are poisoned by half-sent chunks, so the collective tears
// them down and the next attempt rebuilds under a bumped version).
func (c *Coordinator) abortRound(rf *rankFaultError) {
	c.vacate(rf.rank, rf.phase)
	c.coll.Abort()
	c.ringDirty = true
	ab, err := encodeJSON(abortMsg{Round: c.round, Reason: rf.Error()})
	if err != nil {
		return
	}
	for r := 1; r < c.cfg.World; r++ {
		conn := c.conns[r]
		if conn == nil {
			continue
		}
		conn.SetDeadline(time.Now().Add(c.cfg.RoundTimeout))
		if werr := frame.Write(conn, msgAbort, ab); werr != nil {
			c.vacate(r, "abort notify")
		}
	}
	c.cfg.Tracer.Event(trace.TrackDist, "round_aborted:"+rf.phase,
		trace.Attr{Key: "round", Val: int64(c.round)},
		trace.Attr{Key: "rank", Val: int64(rf.rank)})
}

// announceRing re-broadcasts the ring membership under a bumped version
// whenever it changed (join, vacancy, abort). Star topology never dirties
// the flag, so this is a no-op there.
func (c *Coordinator) announceRing() error {
	if !c.ringDirty {
		return nil
	}
	c.ringVersion++
	rb, err := encodeJSON(ringMsg{Version: c.ringVersion, Addrs: append([]string(nil), c.ringAddrs...)})
	if err != nil {
		return err
	}
	for r := 1; r < c.cfg.World; r++ {
		conn := c.conns[r]
		conn.SetDeadline(time.Now().Add(c.cfg.RoundTimeout))
		if err := frame.Write(conn, msgRing, rb); err != nil {
			return &rankFaultError{rank: r, phase: "ring announce", err: err}
		}
	}
	c.ringDirty = false
	return nil
}

// tryRound executes one attempt of the current round: dispatch shards, run
// the collective's exchange (which computes rank 0's shard locally while
// worker contributions stream in), commit, and step.
func (c *Coordinator) tryRound(split dataset.Split, indices []int, attempt int) (core.DPStepStats, error) {
	r := &round{
		num:     c.round,
		attempt: attempt,
		split:   split,
		indices: indices,
		iter:    c.lastIter + 1,
	}
	r.shards = c.coll.Shard(indices)
	roundStart := time.Now()

	if c.cfg.Options.Topology == TopologyRing {
		if err := c.announceRing(); err != nil {
			return r.out, err
		}
	}

	// Dispatch worker shards first so they compute in parallel with rank 0.
	dispatchStart := time.Now()
	for rank := 1; rank < c.cfg.World; rank++ {
		ab, err := encodeJSON(assignMsg{
			Round: c.round, Attempt: attempt, Epoch: c.epoch, Iteration: r.iter,
			GlobalN: len(indices), Split: int(split), Indices: r.shards[rank],
			RingVersion: c.ringVersion,
		})
		if err != nil {
			return r.out, err
		}
		conn := c.conns[rank]
		conn.SetDeadline(time.Now().Add(c.cfg.RoundTimeout))
		if err := frame.Write(conn, msgAssign, ab); err != nil {
			return r.out, &rankFaultError{rank: rank, phase: "dispatch", err: err}
		}
	}
	c.cfg.Tracer.SpanAt(trace.TrackDist, "shard_dispatch", dispatchStart, time.Since(dispatchStart),
		trace.Attr{Key: "round", Val: int64(c.round)})

	exchangeStart := time.Now()
	if err := c.coll.Exchange(r); err != nil {
		return r.out, err
	}
	c.cfg.Tracer.SpanAt(trace.TrackDist, "exchange", exchangeStart, time.Since(exchangeStart),
		trace.Attr{Key: "round", Val: int64(c.round)})

	// Commit: the reduced gradient exists on rank 0 (star) or on every rank
	// (ring), so a rank unreachable here is vacated (to resync via manifest
	// on rejoin) rather than failing the round — the survivors must not be
	// torn back.
	commitStart := time.Now()
	if err := c.coll.Commit(r); err != nil {
		return r.out, err
	}
	c.cfg.Tracer.SpanAt(trace.TrackDist, "commit", commitStart, time.Since(commitStart),
		trace.Attr{Key: "round", Val: int64(c.round)})

	norm := c.tr.ApplyReduced()
	if norm > r.out.GradNorm {
		r.out.GradNorm = norm
	}
	r.out.Wall = time.Since(roundStart)
	// Workers compute concurrently with rank 0 and with each other, so the
	// exchange cost is what the wall clock shows beyond the slowest compute.
	r.out.AllReduce = r.out.Wall - r.out.SlowestReplica
	if r.out.AllReduce < 0 {
		r.out.AllReduce = 0
	}
	c.cfg.Metrics.rounds.Inc()
	c.cfg.Metrics.reduceBytes.Add(r.wireBytes)
	c.cfg.Metrics.roundLatency.Observe(r.out.Wall.Seconds())
	return r.out, nil
}

// Fit trains for the given number of epochs, mirroring the serial trainer's
// epoch loop (same shuffle, same batching, same MaxBatchesPerEpoch cap) with
// TrainRound in place of TrainBatchIndices.
func (c *Coordinator) Fit(epochs int) ([]core.EpochStats, error) {
	var out []core.EpochStats
	for e := 0; e < epochs; e++ {
		c.epoch++
		if err := c.tr.BeginEpoch(c.epoch); err != nil {
			return out, err
		}
		idx := dataset.Indices(c.tr.Data, dataset.Train, c.tr.Cfg.Seed, c.epoch, true)
		batches := dataset.Batches(idx, c.tr.Cfg.Batch)
		if c.tr.Cfg.MaxBatchesPerEpoch > 0 && len(batches) > c.tr.Cfg.MaxBatchesPerEpoch {
			batches = batches[:c.tr.Cfg.MaxBatchesPerEpoch]
		}
		var ep core.EpochStats
		start := time.Now()
		for _, b := range batches {
			st, err := c.TrainRound(dataset.Train, b)
			if err != nil {
				return out, err
			}
			ep.StepStats.Add(st.StepStats)
			ep.Batches++
		}
		ep.Duration = time.Since(start)
		out = append(out, ep)
	}
	return out, nil
}

// Finish ends training cleanly: every connected worker gets a done message
// and its connection closed, and the collective releases its listeners. The
// coordinator remains usable for inspection but not for further rounds with
// the old workers.
func (c *Coordinator) Finish(reason string) {
	db, err := encodeJSON(doneMsg{Reason: reason})
	if err != nil {
		return
	}
	for r := 1; r < c.cfg.World; r++ {
		conn := c.conns[r]
		if conn == nil {
			continue
		}
		conn.SetDeadline(time.Now().Add(c.cfg.RoundTimeout))
		frame.Write(conn, msgDone, db)
		c.conns[r].Close()
		c.conns[r] = nil
	}
	c.coll.Close()
	c.cfg.Metrics.connected.Store(0)
}

// Round reports the number of committed rounds.
func (c *Coordinator) Round() int { return c.round }
