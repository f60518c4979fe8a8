package dist

import (
	"fmt"
	"net"
	"sync"
	"time"

	"skipper/internal/core"
	"skipper/internal/dataset"
	"skipper/internal/frame"
	"skipper/internal/trace"
)

// Ring topology: rank r dials rank (r+1) mod W's ring-data listener, so the
// ring carries two directed trips per round:
//
//	reduce trip   edges 0→1, 1→2, …, W−2→W−1: each rank adds its own
//	              contribution to the incoming partial sum. Accumulation
//	              happens in ascending rank order with empty shards skipped
//	              — exactly core.ReduceGrads' walk — so the result is
//	              bit-identical to the star topology and the serial baseline.
//	final trip    edges W−1→0, 0→1, …, W−3→W−2: the completed sum travels
//	              once more around, each rank installing it as it forwards.
//
// Chunks pipeline: the gradient is cut into fixed deterministic chunks so a
// rank forwards chunk k while chunk k+1 is still in flight behind it. Every
// rank's engine is a single sequential loop (all reduce chunks, then all
// final chunks), which makes the per-edge frame order deterministic and the
// ring deadlock-free: a rank's sends only wait on its successor's reads, and
// the successor's engine always reads the reduce trip before the final trip.

// ringChunks is the pipelining factor; tiny gradients stay whole.
func ringChunks(n int) int {
	if n >= 8192 {
		return 4
	}
	return 1
}

// acceptedRing is a ring-data connection whose opening hello has been read.
type acceptedRing struct {
	conn  net.Conn
	hello ringHelloMsg
}

// ringEnd is one rank's ring-data endpoint: a listener accepting the
// predecessor's connection and a dialed connection to the successor,
// rebuilt whenever the membership version changes (every join, vacancy, or
// abort bumps it, so chunks buffered in a poisoned connection can never
// leak into a new ring).
type ringEnd struct {
	ln        net.Listener
	dial      func(addr string) (net.Conn, error)
	ioTimeout time.Duration
	acceptCh  chan acceptedRing
	closeOnce sync.Once
	closed    chan struct{}

	version int // membership version the current conns serve; -1 = none
	succ    net.Conn
	pred    net.Conn
}

func newRingEnd(listen string, dial func(addr string) (net.Conn, error), ioTimeout time.Duration) (*ringEnd, error) {
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return nil, fmt.Errorf("dist: binding ring listener: %w", err)
	}
	e := &ringEnd{
		ln: ln, dial: dial, ioTimeout: ioTimeout,
		acceptCh: make(chan acceptedRing, 8),
		closed:   make(chan struct{}),
		version:  -1,
	}
	go e.acceptLoop()
	return e, nil
}

func (e *ringEnd) addr() string { return e.ln.Addr().String() }

func (e *ringEnd) acceptLoop() {
	for {
		conn, err := e.ln.Accept()
		if err != nil {
			return
		}
		go func(conn net.Conn) {
			conn.SetReadDeadline(time.Now().Add(e.ioTimeout))
			typ, payload, err := frame.Read(conn)
			if err != nil || typ != msgRingHello {
				conn.Close()
				return
			}
			var h ringHelloMsg
			if decodeJSON(payload, &h) != nil {
				conn.Close()
				return
			}
			conn.SetReadDeadline(time.Time{})
			select {
			case e.acceptCh <- acceptedRing{conn: conn, hello: h}:
			case <-e.closed:
				conn.Close()
			}
		}(conn)
	}
}

// ensure (re)builds the rank's ring connections for membership version v:
// dial the successor, announce ourselves, and wait for the predecessor's
// matching hello. Connections from other versions are discarded.
func (e *ringEnd) ensure(v int, addrs []string, rank, world int) error {
	if e.version == v && e.succ != nil && e.pred != nil {
		return nil
	}
	e.reset()
	succAddr := addrs[(rank+1)%world]
	if succAddr == "" {
		return fmt.Errorf("dist: no ring address for rank %d", (rank+1)%world)
	}
	conn, err := e.dial(succAddr)
	if err != nil {
		return fmt.Errorf("dist: dialing ring successor %s: %w", succAddr, err)
	}
	hb, err := encodeJSON(ringHelloMsg{Version: v, From: rank})
	if err != nil {
		conn.Close()
		return err
	}
	conn.SetWriteDeadline(time.Now().Add(e.ioTimeout))
	if err := frame.Write(conn, msgRingHello, hb); err != nil {
		conn.Close()
		return fmt.Errorf("dist: ring hello to successor: %w", err)
	}
	conn.SetWriteDeadline(time.Time{})
	e.succ = conn
	pred := (rank - 1 + world) % world
	timeout := time.After(e.ioTimeout)
	for {
		select {
		case ac := <-e.acceptCh:
			if ac.hello.Version == v && ac.hello.From == pred {
				e.pred = ac.conn
				e.version = v
				return nil
			}
			ac.conn.Close() // stale epoch or unexpected peer
		case <-timeout:
			e.reset()
			return fmt.Errorf("dist: timed out waiting for ring predecessor %d (version %d)", pred, v)
		}
	}
}

// reset drops the current ring connections (they may hold half-sent chunks
// after an abort; the next ensure rebuilds under a fresh version).
func (e *ringEnd) reset() {
	if e.succ != nil {
		e.succ.Close()
		e.succ = nil
	}
	if e.pred != nil {
		e.pred.Close()
		e.pred = nil
	}
	e.version = -1
}

func (e *ringEnd) close() {
	e.closeOnce.Do(func() {
		close(e.closed)
		e.ln.Close()
		e.reset()
	})
}

// ringEngine runs one rank's two trips for one round attempt, once the
// rank's local compute has finished. Receives land in staging, never in the
// live gradient tensors: the caller installs staging only after run returns
// nil, so a ring fault mid-trip leaves nothing half-applied.
type ringEngine struct {
	rank, world             int
	round, attempt, version int
	chunks, n               int
	pred, succ              net.Conn
	own                     []float32 // the rank's contribution; nil = empty shard
	ioTimeout               time.Duration

	staging []float32
	sent    int64
}

// read receives the expected chunk frame from the predecessor.
func (e *ringEngine) read(final bool, ci int) (ringChunkMeta, []byte, error) {
	e.pred.SetReadDeadline(time.Now().Add(e.ioTimeout))
	typ, payload, err := frame.Read(e.pred)
	if err != nil {
		return ringChunkMeta{}, nil, fmt.Errorf("dist: ring read from rank %d: %w", (e.rank-1+e.world)%e.world, err)
	}
	if typ != msgRingData {
		return ringChunkMeta{}, nil, fmt.Errorf("dist: ring expected chunk, got message type %d", typ)
	}
	var meta ringChunkMeta
	fb, err := decodeFlat(payload, &meta)
	if err != nil {
		return ringChunkMeta{}, nil, err
	}
	want := ringChunkMeta{Round: e.round, Attempt: e.attempt, Version: e.version, Chunk: ci, Final: final, Have: meta.Have}
	if meta != want {
		return ringChunkMeta{}, nil, fmt.Errorf("dist: ring chunk %+v, want %+v", meta, want)
	}
	return meta, fb, nil
}

// write sends one chunk frame to the successor; vals nil means a no-payload
// frame (Have=false).
func (e *ringEngine) write(final bool, ci int, vals []float32) error {
	meta := ringChunkMeta{
		Round: e.round, Attempt: e.attempt, Version: e.version,
		Chunk: ci, Final: final, Have: vals != nil,
	}
	pb, err := encodeFlat(meta, vals)
	if err != nil {
		return err
	}
	e.succ.SetWriteDeadline(time.Now().Add(e.ioTimeout))
	if err := frame.Write(e.succ, msgRingData, pb); err != nil {
		return fmt.Errorf("dist: ring write to rank %d: %w", (e.rank+1)%e.world, err)
	}
	if vals != nil {
		e.sent += int64(floatsWireLen(len(vals)))
	}
	return nil
}

func (e *ringEngine) run() error {
	last := e.world - 1
	e.staging = make([]float32, e.n)
	recv := make([]float32, e.n)
	have := false // rank W−1: the reduce trip delivered a sum into staging

	// Reduce trip. Rank 0 only sends, rank W−1 only receives (the completed
	// sum lands in its staging); everyone else adds-and-forwards.
	for ci := 0; ci < e.chunks; ci++ {
		lo, hi := chunkRange(e.n, e.chunks, ci)
		var vals []float32
		if e.rank > 0 {
			meta, fb, err := e.read(false, ci)
			if err != nil {
				return err
			}
			if meta.Have {
				vals = recv[:hi-lo]
				if err := decodeFloats(fb, vals); err != nil {
					return err
				}
			}
		}
		if e.own != nil {
			if vals != nil {
				// Incoming partial (ranks < r) + own contribution: the
				// same fadd core.ReduceGrads performs, in the same
				// ascending-rank association.
				o := e.own[lo:hi]
				for i := range vals {
					vals[i] += o[i]
				}
			} else {
				vals = e.own[lo:hi]
			}
		}
		if e.rank < last {
			if err := e.write(false, ci, vals); err != nil {
				return err
			}
		} else if vals != nil {
			copy(e.staging[lo:hi], vals)
			have = true
		}
	}

	// Final trip: the completed sum starts at rank W−1 and travels the
	// remaining edges; rank W−2 is the last stop and does not forward.
	for ci := 0; ci < e.chunks; ci++ {
		lo, hi := chunkRange(e.n, e.chunks, ci)
		var vals []float32
		if e.rank == last {
			if have {
				vals = e.staging[lo:hi]
			}
		} else {
			meta, fb, err := e.read(true, ci)
			if err != nil {
				return err
			}
			if meta.Have {
				vals = e.staging[lo:hi]
				if err := decodeFloats(fb, vals); err != nil {
					return err
				}
			}
		}
		if e.rank != last-1 {
			if err := e.write(true, ci, vals); err != nil {
				return err
			}
		}
	}
	return nil
}

// chunkRange returns chunk i of k over [0, n): a balanced contiguous split
// with the first n%k chunks one element longer, computed identically on
// every rank.
func chunkRange(n, k, i int) (int, int) {
	base, rem := n/k, n%k
	lo := i*base + min(i, rem)
	hi := lo + base
	if i < rem {
		hi++
	}
	return lo, hi
}

// ringCollective is the coordinator's ring driver: rank 0's engine runs in
// the shared ring while per-rank control-connection readers collect each
// worker's stats message (the signal that the rank holds the reduced
// gradient and is ready to commit).
type ringCollective struct {
	c   *Coordinator
	end *ringEnd
}

func newRingCollective(c *Coordinator) (*ringCollective, error) {
	end, err := newRingEnd(c.cfg.Options.RingListen, func(addr string) (net.Conn, error) {
		return net.DialTimeout("tcp", addr, c.cfg.RoundTimeout)
	}, c.cfg.RoundTimeout)
	if err != nil {
		return nil, err
	}
	c.ringAddrs[0] = end.addr()
	return &ringCollective{c: c, end: end}, nil
}

func (g *ringCollective) Name() string { return TopologyRing }

func (g *ringCollective) Shard(indices []int) [][]int {
	return core.Shard(indices, g.c.cfg.World)
}

func (g *ringCollective) Abort() { g.end.reset() }
func (g *ringCollective) Close() { g.end.close() }

func (g *ringCollective) Exchange(r *round) error {
	c := g.c
	W := c.cfg.World
	n := c.flat.size()
	if err := g.end.ensure(c.ringVersion, c.ringAddrs, 0, W); err != nil {
		return &rankFaultError{rank: -1, phase: "ring build", err: err}
	}

	stats := make([]statsMsg, W)
	arrive := make([]time.Time, W)
	errs := make([]error, W)
	var wg sync.WaitGroup
	for rank := 1; rank < W; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			stats[rank], arrive[rank], errs[rank] = g.readStats(r, rank)
		}(rank)
	}

	st0, elapsed0, err := c.tr.ShardGrads(r.split, r.shards[0], r.iter, len(r.indices))
	r.computeDone = time.Now()
	if err != nil {
		wg.Wait()
		return err
	}
	r.out.StepStats.Add(st0)
	r.out.SlowestReplica = elapsed0

	eng := &ringEngine{
		rank: 0, world: W,
		round: r.num, attempt: r.attempt, version: c.ringVersion,
		chunks: ringChunks(n), n: n,
		pred: g.end.pred, succ: g.end.succ,
		ioTimeout: c.cfg.RoundTimeout,
	}
	if len(r.shards[0]) > 0 {
		eng.own = c.flat.snapshot()
	}
	engErr := eng.run()
	wg.Wait() // on a ring fault the readers drain or time out; the round is aborting anyway
	if engErr != nil {
		return &rankFaultError{rank: -1, phase: "ring exchange", err: engErr}
	}
	for rank := 1; rank < W; rank++ {
		if errs[rank] != nil {
			return errs[rank]
		}
	}

	// Rank 0's distribution-trip result becomes the committed gradient.
	c.flat.copyIn(eng.staging)
	r.wireBytes += eng.sent
	for rank := 1; rank < W; rank++ {
		s := stats[rank]
		r.wireBytes += s.WireBytes
		r.out.StepStats.Add(core.StepStats{Loss: s.Loss, Correct: s.Correct, N: s.N})
		if d := time.Duration(s.ComputeSeconds * float64(time.Second)); d > r.out.SlowestReplica {
			r.out.SlowestReplica = d
		}
		if c.cfg.Straggler > 0 && arrive[rank].After(r.computeDone.Add(c.cfg.Straggler)) {
			c.cfg.Metrics.stragglers.Inc()
			c.cfg.Tracer.Event(trace.TrackDist, "straggler",
				trace.Attr{Key: "rank", Val: int64(rank)},
				trace.Attr{Key: "round", Val: int64(r.num)})
		}
	}
	return nil
}

// readStats collects rank's post-exchange stats message from the control
// connection, draining stale frames from aborted attempts of this round.
func (g *ringCollective) readStats(r *round, rank int) (statsMsg, time.Time, error) {
	c := g.c
	conn := c.conns[rank]
	fault := func(err error) (statsMsg, time.Time, error) {
		return statsMsg{}, time.Time{}, &rankFaultError{rank: rank, phase: "ring stats", err: err}
	}
	for {
		conn.SetReadDeadline(time.Now().Add(c.cfg.RoundTimeout))
		typ, payload, err := frame.Read(conn)
		now := time.Now()
		if err != nil {
			return fault(err)
		}
		switch typ {
		case msgStats:
		case msgError:
			return fault(decodeWorkerError(payload))
		default:
			return fault(fmt.Errorf("expected stats, got message type %d", typ))
		}
		var s statsMsg
		if err := decodeJSON(payload, &s); err != nil {
			return fault(err)
		}
		if s.Round == r.num && s.Attempt < r.attempt {
			continue // stale stats from an aborted attempt
		}
		if s.Round != r.num || s.Attempt != r.attempt || s.Rank != rank {
			return fault(fmt.Errorf("stats for round %d attempt %d rank %d, want %d/%d/%d",
				s.Round, s.Attempt, s.Rank, r.num, r.attempt, rank))
		}
		if s.Count != len(r.shards[rank]) {
			return fault(fmt.Errorf("stats cover %d samples, want %d", s.Count, len(r.shards[rank])))
		}
		return s, now, nil
	}
}

// Commit is metadata-only for the ring: every rank already installed the
// reduced gradient during the distribution trip. Unreachable ranks are
// vacated, not failed — the survivors must step.
func (g *ringCollective) Commit(r *round) error {
	c := g.c
	cb, err := encodeJSON(commitMsg{Round: r.num})
	if err != nil {
		return err
	}
	for rank := 1; rank < c.cfg.World; rank++ {
		conn := c.conns[rank]
		if conn == nil {
			continue
		}
		conn.SetWriteDeadline(time.Now().Add(c.cfg.RoundTimeout))
		if err := frame.Write(conn, msgCommit, cb); err != nil {
			c.vacate(rank, "commit")
		}
	}
	return nil
}

// workerRingRound runs one ring round on a worker: ensure the ring is built
// for the announced membership version, compute the local shard, run the
// engine, install the reduced gradient, and report stats on the control
// connection. Ring I/O failures poison the connections, so the worker
// reports the fault and restarts its session (resyncing from the
// coordinator's manifest on rejoin).
func workerRingRound(tr *core.Trainer, conn net.Conn, a assignMsg, rank, world int, ws *workerState, cfg WorkerConfig) error {
	reportErr := func(err error) {
		if eb, encErr := encodeJSON(errorMsg{Message: err.Error()}); encErr == nil {
			conn.SetWriteDeadline(time.Now().Add(cfg.IOTimeout))
			frame.Write(conn, msgError, eb)
		}
	}
	if ws.ringVersion != a.RingVersion || len(ws.ringAddrs) != world {
		err := fmt.Errorf("dist: round %d needs ring version %d, worker has %d", a.Round, a.RingVersion, ws.ringVersion)
		reportErr(err)
		return err
	}
	if err := ws.ring.ensure(a.RingVersion, ws.ringAddrs, rank, world); err != nil {
		reportErr(err)
		return err
	}

	st, elapsed, err := tr.ShardGrads(dataset.Split(a.Split), a.Indices, a.Iteration, a.GlobalN)
	if err != nil {
		ws.ring.reset()
		reportErr(err)
		return &permanentError{err}
	}
	n := ws.flat.size()
	eng := &ringEngine{
		rank: rank, world: world,
		round: a.Round, attempt: a.Attempt, version: a.RingVersion,
		chunks: ringChunks(n), n: n,
		pred: ws.ring.pred, succ: ws.ring.succ,
		ioTimeout: cfg.IOTimeout,
	}
	if len(a.Indices) > 0 {
		eng.own = ws.flat.snapshot()
	}
	if engErr := eng.run(); engErr != nil {
		ws.ring.reset()
		reportErr(engErr)
		return fmt.Errorf("dist: ring exchange: %w", engErr)
	}
	ws.flat.copyIn(eng.staging)

	sb, err := encodeJSON(statsMsg{
		Round: a.Round, Attempt: a.Attempt, Rank: rank, Count: len(a.Indices),
		Loss: st.Loss, Correct: st.Correct, N: st.N,
		ComputeSeconds: elapsed.Seconds(), WireBytes: eng.sent,
	})
	if err != nil {
		return &permanentError{err}
	}
	conn.SetWriteDeadline(time.Now().Add(cfg.IOTimeout))
	return frame.Write(conn, msgStats, sb)
}
