// Package parallel is the shared execution runtime the hot tensor kernels
// run on: a pool of long-lived worker goroutines that fan statically
// partitioned index ranges out across CPU cores.
//
// # Determinism contract
//
// Every kernel built on the pool partitions its OUTPUT elements, never a
// shared accumulator: a range [0,n) is split into contiguous lanes, each
// output element is computed entirely inside the lane that owns it, and the
// per-element arithmetic is byte-for-byte the code the serial path runs.
// Because no float is ever combined across lanes, the result is bit-identical
// to the serial kernel for every pool size — the lane boundaries only decide
// WHO computes an element, not HOW it is computed. This is what keeps
// kill/resume replays and the divergence-guard equality checks exact when
// threads > 1, and it is stronger than an ordered reduction: there is no
// reduction at all.
//
// # Scheduling
//
// Run splits [0,n) into at most Lanes() near-equal contiguous chunks. The
// submitting goroutine always executes lane 0 itself (so a pool is never
// idle-blocked on its own submitter) and hands lanes 1..L-1 to the worker
// goroutines. Multiple goroutines may submit to one pool concurrently — the
// serving worker replicas share a single pool this way — because lane
// scratch is owned by the caller (see tensor.Scratch), not the pool.
//
// A training step submits its kernels back to back, a few microseconds
// apart, so the hand-off is built to cost no sleep between them. The
// submitter waits for its lanes on an atomic done-counter, yielding
// (runtime.Gosched) between reads rather than parking. A worker that
// finishes a lane polls the task queue for up to spinFor, yielding between
// polls, and parks on the queue only when nothing arrived in that window.
// So the next kernel of a step finds its workers awake, and an idle pool
// still costs nothing once its workers have parked.
//
// Kernels are leaves: fn must not call back into Run on the same pool, or a
// busy pool can deadlock waiting on itself.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"skipper/internal/trace"
)

// Pool fans contiguous index ranges out to worker goroutines. The zero of
// the type is not useful; construct with NewPool. A nil *Pool is valid
// everywhere and runs everything inline on the calling goroutine — it is the
// canonical "serial" pool.
type Pool struct {
	lanes     int
	tasks     chan task
	closeOnce sync.Once

	// Lane-utilization counters: how many Run/RunGrain calls the pool served
	// and how many lanes they actually occupied (after the grain floor), the
	// numbers behind the skipper_pool_* metrics and the sampled "pool_lanes"
	// trace counter.
	runs      atomic.Int64
	lanesUsed atomic.Int64
	tracer    atomic.Pointer[trace.Tracer]

	// live counts the worker goroutines that have not returned, polling
	// those that are polling the task queue rather than running a lane or
	// parked on it.
	live, polling atomic.Int32
}

// spinFor bounds how long an idle worker polls the task queue before it
// parks: long enough to span the serial code between two kernels of a
// step, short enough that an idle pool stops using the CPU at once.
const spinFor = 50 * time.Microsecond

type task struct {
	fn           func(lane, lo, hi int)
	lane, lo, hi int
	done         *atomic.Int32 // the submitting Run's finished-lane count
}

// NewPool builds a pool with the given number of lanes. threads <= 0 means
// runtime.NumCPU(). A 1-lane pool spawns no goroutines and runs inline.
func NewPool(threads int) *Pool {
	if threads <= 0 {
		threads = runtime.NumCPU()
	}
	p := &Pool{lanes: threads}
	if threads > 1 {
		p.tasks = make(chan task, 4*threads)
		// Lane 0 of every Run executes on the submitting goroutine, so
		// threads-1 workers saturate the requested width.
		p.live.Add(int32(threads - 1))
		for i := 0; i < threads-1; i++ {
			go p.work()
		}
	}
	return p
}

func (p *Pool) work() {
	defer p.live.Add(-1)
	for {
		t, ok := p.next()
		if !ok {
			return
		}
		t.fn(t.lane, t.lo, t.hi)
		t.done.Add(1)
	}
}

// next takes the next task, polling the queue for up to spinFor before it
// parks on it. ok is false once the pool is closed.
func (p *Pool) next() (t task, ok bool) {
	p.polling.Add(1)
	for start := time.Now(); time.Since(start) < spinFor; runtime.Gosched() {
		select {
		case t, ok = <-p.tasks:
			p.polling.Add(-1)
			return t, ok
		default:
		}
	}
	p.polling.Add(-1)
	t, ok = <-p.tasks
	return t, ok
}

// Lanes returns the partition width Run uses. A nil pool has one lane.
func (p *Pool) Lanes() int {
	if p == nil || p.lanes < 1 {
		return 1
	}
	return p.lanes
}

// Run partitions [0, n) into Lanes() near-equal contiguous ranges and
// invokes fn once per non-empty range, concurrently. fn receives the lane
// index (0-based, dense — usable as a scratch-buffer key) and its [lo, hi)
// range. Run returns when every lane has finished. Lane writes must be
// disjoint; see the package comment for the determinism contract.
func (p *Pool) Run(n int, fn func(lane, lo, hi int)) {
	p.RunGrain(n, 1, fn)
}

// RunGrain is Run with a floor on per-lane work: the partition never puts
// fewer than grain indices in a lane (except the only lane of a small n), so
// tiny inputs stay on the calling goroutine instead of paying the handoff.
// The floor changes only how many lanes participate — per-element arithmetic
// is lane-independent, so results do not depend on grain.
func (p *Pool) RunGrain(n, grain int, fn func(lane, lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	// Lane count comes from the floor first: with lanes <= n/grain, the
	// balanced partition below gives every lane at least floor(n/lanes) >=
	// grain indices, so the documented work floor holds for every lane —
	// including the last one, which a naive ceil-chunked split can starve
	// (n=10, grain=3 used to produce lanes of 4/4/2).
	lanes := p.Lanes()
	if max := n / grain; lanes > max {
		lanes = max
	}
	if lanes <= 1 {
		p.observe(1)
		fn(0, 0, n)
		return
	}
	p.observe(lanes)
	// Balanced partition: base or base+1 indices per lane, remainder on the
	// leading lanes. Lane 0 runs on the submitting goroutine.
	base, rem := n/lanes, n%lanes
	lane0hi := base
	if rem > 0 {
		lane0hi++
	}
	done := new(atomic.Int32)
	lo := lane0hi
	for lane := 1; lane < lanes; lane++ {
		hi := lo + base
		if lane < rem {
			hi++
		}
		p.tasks <- task{fn: fn, lane: lane, lo: lo, hi: hi, done: done}
		lo = hi
	}
	fn(0, 0, lane0hi)
	for done.Load() < int32(lanes-1) {
		runtime.Gosched()
	}
}

// observe folds one Run's lane occupancy into the utilization counters and,
// when a tracer is attached, emits a sampled "pool_lanes" counter event
// (every 1024th call — kernels submit thousands of Runs per batch, and the
// sampled series is plenty to see utilization collapse in a trace).
func (p *Pool) observe(lanes int) {
	if p == nil {
		return
	}
	runs := p.runs.Add(1)
	p.lanesUsed.Add(int64(lanes))
	if runs&1023 != 0 {
		return
	}
	if t := p.tracer.Load(); t != nil {
		t.Counter(trace.TrackPool, "pool_lanes", int64(lanes))
	}
}

// SetTracer attaches a tracer for the sampled lane-utilization counter.
// Safe to call at any time; nil detaches.
func (p *Pool) SetTracer(t *trace.Tracer) {
	if p == nil {
		return
	}
	p.tracer.Store(t)
}

// Stats reports the pool's cumulative Run count and the lanes those runs
// occupied; MeanLanes is the utilization a dashboard plots against Lanes().
// Nil-safe.
func (p *Pool) Stats() PoolStats {
	if p == nil {
		return PoolStats{}
	}
	return PoolStats{Runs: p.runs.Load(), LanesUsed: p.lanesUsed.Load()}
}

// PoolStats is a snapshot of the lane-utilization counters.
type PoolStats struct {
	Runs      int64
	LanesUsed int64
}

// MeanLanes returns the average lanes occupied per Run (0 when idle).
func (s PoolStats) MeanLanes() float64 {
	if s.Runs == 0 {
		return 0
	}
	return float64(s.LanesUsed) / float64(s.Runs)
}

// Close terminates the worker goroutines. Safe to call more than once; Run
// must not be called after Close. Closing a nil or 1-lane pool is a no-op.
func (p *Pool) Close() {
	if p == nil || p.tasks == nil {
		return
	}
	p.closeOnce.Do(func() { close(p.tasks) })
}
