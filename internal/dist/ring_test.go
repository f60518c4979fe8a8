package dist

import (
	"fmt"
	"net"
	"testing"
	"time"

	"skipper/internal/core"
	"skipper/internal/dataset"
	"skipper/internal/faults"
)

// runDist trains the given batches over a real coordinator/worker fleet with
// the given exchange options (control plane over in-process pipes, ring data
// plane over localhost TCP) and returns the coordinator's trainer plus the
// per-round stats and the gradient bytes each round moved.
func runDist(t *testing.T, W, T int, opts Options, batches [][]int) (*core.Trainer, []core.DPStepStats, []int64) {
	t.Helper()
	ct := newTrainer(t, T)
	t.Cleanup(func() { ct.Close() })
	metrics := NewMetrics(W)
	coord, err := NewCoordinator(ct, Config{
		World: W, Options: opts,
		RoundTimeout: 10 * time.Second, JoinTimeout: 10 * time.Second, Metrics: metrics,
	})
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, W-1)
	for i := 0; i < W-1; i++ {
		wtr := newTrainer(t, T)
		t.Cleanup(func() { wtr.Close() })
		go func() {
			errs <- RunWorker(wtr, WorkerConfig{
				Dial: pipeDial(coord), Options: opts,
				ReconnectWait: 10 * time.Millisecond,
			})
		}()
	}
	var stats []core.DPStepStats
	var moved []int64
	for _, b := range batches {
		before := metrics.ReduceBytes()
		st, err := coord.TrainRound(dataset.Train, b)
		if err != nil {
			t.Fatal(err)
		}
		stats = append(stats, st)
		moved = append(moved, metrics.ReduceBytes()-before)
	}
	coord.Finish("test done")
	for i := 0; i < W-1; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("worker: %v", err)
		}
	}
	return ct, stats, moved
}

// requireByteLaw pins what a round moves, batches[0] being a full round: at
// world W a full round carries the flat gradient (n floats) over 2(W−1)
// links, framing included. A star round skips the upload of every rank whose
// shard is empty; a ring round does not shrink, because the empty shards sit
// at the high ranks, which still forward the partial sum over every edge.
func requireByteLaw(t *testing.T, topology string, W int, tr *core.Trainer, batches [][]int, moved []int64) {
	t.Helper()
	n := newFlatGrads(tr.GradTensors()).size()
	lo, hi := int64(2*(W-1)*4*n), int64(2*(W-1)*(4*n+256))
	for i, got := range moved {
		switch {
		case len(batches[i]) >= W || topology == TopologyRing:
			if got < lo || got > hi || got != moved[0] {
				t.Fatalf("%s world %d round %d moved %d bytes, want %d (a full round, within [%d, %d])", topology, W, i, got, moved[0], lo, hi)
			}
		case got <= 0 || got >= moved[0]:
			t.Fatalf("%s world %d round %d has an empty shard and moved %d bytes, want fewer than a full round's %d", topology, W, i, got, moved[0])
		}
	}
}

// requireSameBytes fails unless two runs of one configuration moved the same
// bytes in every round.
func requireSameBytes(t *testing.T, label string, a, b []int64) {
	t.Helper()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("%s: two runs moved %v and %v bytes per round", label, a, b)
	}
}

// dataParallelRef trains the same batches through the in-process
// DataParallel simulation — the established bit-exact reference.
func dataParallelRef(t *testing.T, W, T int, batches [][]int) *core.Trainer {
	t.Helper()
	dp, err := core.NewDataParallel(W, func(int) (*core.Trainer, error) { return buildTrainer(T, 0) })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dp.Close() })
	for _, b := range batches {
		if _, err := dp.TrainBatchIndices(dataset.Train, b); err != nil {
			t.Fatal(err)
		}
	}
	return dp.Replicas[0]
}

// TestRingBitIdenticalToStarAndSerial is the ring topology's equivalence
// gate: at world 2 and 4, ring must leave weights bit-identical to star and
// to the in-process DataParallel reference (itself proven bit-identical to
// serial training), and run to run it must move the same bytes. The final
// ragged batch leaves high ranks with empty shards at world 4, exercising
// the ring's pass-through of a partial sum it adds nothing to.
func TestRingBitIdenticalToStarAndSerial(t *testing.T) {
	const T = 10
	batches := [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}, {8, 9}}
	for _, W := range []int{2, 4} {
		W := W
		t.Run(fmt.Sprintf("world%d", W), func(t *testing.T) {
			ref := dataParallelRef(t, W, T, batches)
			star, _, starMoved := runDist(t, W, T, Options{Topology: TopologyStar}, batches)
			requireSameWeights(t, "star vs DataParallel", star, ref)
			requireByteLaw(t, TopologyStar, W, star, batches, starMoved)
			ring, rs, ringMoved := runDist(t, W, T, Options{Topology: TopologyRing}, batches)
			requireSameWeights(t, "ring vs DataParallel", ring, ref)
			requireByteLaw(t, TopologyRing, W, ring, batches, ringMoved)
			again, _, againMoved := runDist(t, W, T, Options{Topology: TopologyRing}, batches)
			requireSameWeights(t, "ring run 2 vs DataParallel", again, ref)
			requireSameBytes(t, "ring", ringMoved, againMoved)
			for i, st := range rs {
				if st.N != len(batches[i]) {
					t.Fatalf("ring round %d consumed %d samples, batch had %d", i, st.N, len(batches[i]))
				}
			}
		})
	}
}

// TestRingWorkerDiesMidRingReplaysAndResyncs cuts a worker's ring-data
// connection partway through its chunk writes. Gradient-phase fault
// semantics apply: the round aborts, the ring is rebuilt under a bumped
// membership version with the reconnected (manifest-resynced) worker, and
// the replayed run must still end bit-identical to the DataParallel
// reference.
func TestRingWorkerDiesMidRingReplaysAndResyncs(t *testing.T) {
	const T, W = 10, 3
	batches := [][]int{{0, 1, 2}, {3, 4, 5}}
	ref := dataParallelRef(t, W, T, batches)

	faulted := false
	ringDial := func(worker int, base func(string) (net.Conn, error)) func(string) (net.Conn, error) {
		if worker != 0 {
			return base
		}
		return func(addr string) (net.Conn, error) {
			conn, err := base(addr)
			if err != nil {
				return nil, err
			}
			if faulted {
				return conn, nil
			}
			faulted = true
			fc := faults.NewConn(conn)
			fc.FailWritesAfter(1024) // dies mid-chunk on the reduce trip
			fc.CloseOnFault(true)
			return fc, nil
		}
	}

	ct := newTrainer(t, T)
	defer ct.Close()
	metrics := NewMetrics(W)
	coord, err := NewCoordinator(ct, Config{
		World: W, Options: Options{Topology: TopologyRing},
		RoundTimeout: 3 * time.Second, JoinTimeout: 10 * time.Second,
		Metrics: metrics,
	})
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, W-1)
	for i := 0; i < W-1; i++ {
		wtr := newTrainer(t, T)
		defer wtr.Close()
		i := i
		go func() {
			errs <- RunWorker(wtr, WorkerConfig{
				Dial: pipeDial(coord), Options: Options{Topology: TopologyRing},
				RingDial:      ringDial(i, WorkerConfig{IOTimeout: 3 * time.Second}.withDefaults().RingDial),
				IOTimeout:     2 * time.Second,
				ReconnectWait: 10 * time.Millisecond,
			})
		}()
	}
	for _, b := range batches {
		if _, err := coord.TrainRound(dataset.Train, b); err != nil {
			t.Fatal(err)
		}
	}
	coord.Finish("test done")
	for i := 0; i < W-1; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("worker: %v", err)
		}
	}
	if !faulted {
		t.Fatal("fault was never injected")
	}
	requireSameWeights(t, "faulted ring vs DataParallel", ct, ref)
}
