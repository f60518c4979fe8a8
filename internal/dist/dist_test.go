package dist

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"skipper/internal/frame"
	"strings"
	"testing"
	"time"

	"skipper/internal/core"
	"skipper/internal/dataset"
	"skipper/internal/faults"
	"skipper/internal/mem"
	"skipper/internal/models"
	"skipper/internal/runstate"
	"skipper/internal/snn"
)

// buildTrainer constructs the shared test workload: every rank, replica, and
// serial reference in this file must be configured identically or the
// bitwise comparisons are meaningless.
func buildTrainer(T, micro int) (*core.Trainer, error) {
	data, err := dataset.Open("cifar10", 1)
	if err != nil {
		return nil, err
	}
	net, err := models.Build("customnet", models.Options{Width: 0.5, InShape: []int{3, 16, 16}})
	if err != nil {
		return nil, err
	}
	return core.NewTrainer(net, data, core.Checkpoint{C: 2}, core.Config{
		T: T, Batch: 3, Seed: 7, MicroBatch: micro, Device: mem.Unlimited(),
	})
}

func newTrainer(t *testing.T, T int) *core.Trainer {
	t.Helper()
	tr, err := buildTrainer(T, 0)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// requireSameWeights fails unless the two trainers hold bit-identical
// weights.
func requireSameWeights(t *testing.T, label string, a, b *core.Trainer) {
	t.Helper()
	ap, bp := a.Net.Params(), b.Net.Params()
	if len(ap) != len(bp) {
		t.Fatalf("%s: %d vs %d parameter tensors", label, len(ap), len(bp))
	}
	for j := range ap {
		for k := range ap[j].W.Data {
			if ap[j].W.Data[k] != bp[j].W.Data[k] {
				t.Fatalf("%s: weights diverge at tensor %q element %d: %g vs %g",
					label, ap[j].Name, k, ap[j].W.Data[k], bp[j].W.Data[k])
			}
		}
	}
}

// pipeDial returns a Dial that opens a fresh in-process pipe to the
// coordinator on every call, so reconnects work exactly like TCP redials.
func pipeDial(c *Coordinator) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		cs, ws := net.Pipe()
		c.Admit(cs)
		return ws, nil
	}
}

// TestDistBitIdenticalToDataParallelAndSerial is the tentpole equivalence
// property: a 3-rank coordinator/worker run over in-process pipes must leave
// every rank with weights bit-identical to the in-process DataParallel
// simulation AND to serial training with MicroBatch 1, across full rounds
// and a ragged final round where rank 2's shard is empty.
func TestDistBitIdenticalToDataParallelAndSerial(t *testing.T) {
	const T, W = 10, 3
	batches := [][]int{{0, 1, 2}, {3, 4, 5}, {6, 7}}

	ct := newTrainer(t, T)
	defer ct.Close()
	metrics := NewMetrics(W)
	coord, err := NewCoordinator(ct, Config{
		World: W, RoundTimeout: 10 * time.Second, JoinTimeout: 10 * time.Second, Metrics: metrics,
	})
	if err != nil {
		t.Fatal(err)
	}
	var workers []*core.Trainer
	errs := make(chan error, W-1)
	for i := 0; i < W-1; i++ {
		wtr := newTrainer(t, T)
		defer wtr.Close()
		workers = append(workers, wtr)
		go func() {
			errs <- RunWorker(wtr, WorkerConfig{Dial: pipeDial(coord), ReconnectWait: 10 * time.Millisecond})
		}()
	}

	var moved []int64
	for _, b := range batches {
		before := metrics.ReduceBytes()
		st, err := coord.TrainRound(dataset.Train, b)
		if err != nil {
			t.Fatal(err)
		}
		if st.N != len(b) {
			t.Fatalf("round consumed %d samples, batch had %d", st.N, len(b))
		}
		if st.Loss <= 0 {
			t.Fatalf("round reported loss %g", st.Loss)
		}
		moved = append(moved, metrics.ReduceBytes()-before)
	}
	coord.Finish("test done")
	for i := 0; i < W-1; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("worker: %v", err)
		}
	}
	// Two full rounds and a ragged one (rank 2 sits it out) obey the byte
	// law, and a second run of the same configuration moves the same bytes.
	requireByteLaw(t, TopologyStar, W, ct, batches, moved)
	_, _, again := runDist(t, W, T, Options{}, batches)
	requireSameBytes(t, "star", moved, again)

	// Every rank stepped identically.
	for i, wtr := range workers {
		requireSameWeights(t, fmt.Sprintf("coordinator vs worker %d", i+1), ct, wtr)
	}

	// The wire run matches the in-process DataParallel simulation bitwise.
	dp, err := core.NewDataParallel(W, func(int) (*core.Trainer, error) { return buildTrainer(T, 0) })
	if err != nil {
		t.Fatal(err)
	}
	defer dp.Close()
	for _, b := range batches {
		if _, err := dp.TrainBatchIndices(dataset.Train, b); err != nil {
			t.Fatal(err)
		}
	}
	requireSameWeights(t, "dist vs DataParallel", ct, dp.Replicas[0])

	// And — with one-sample shards — matches serial MicroBatch-1 training.
	serial, err := buildTrainer(T, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer serial.Close()
	for _, b := range batches {
		if _, err := serial.TrainBatchIndices(dataset.Train, b); err != nil {
			t.Fatal(err)
		}
	}
	requireSameWeights(t, "dist vs serial micro-batch 1", ct, serial)
}

// TestDistWorkerDiesMidUploadReplaysAndResyncs kills the only worker's
// connection partway through its gradient upload. The coordinator must abort
// the round, reseat the reconnecting worker (resynced from a manifest), and
// replay to the same bit-identical result DataParallel produces — the
// aborted attempt leaves no trace in the weights.
func TestDistWorkerDiesMidUploadReplaysAndResyncs(t *testing.T) {
	const T, W = 10, 2
	batches := [][]int{{0, 1}, {2, 3}}

	ct := newTrainer(t, T)
	defer ct.Close()
	metrics := NewMetrics(W)
	coord, err := NewCoordinator(ct, Config{
		World: W, RoundTimeout: 10 * time.Second, JoinTimeout: 10 * time.Second, Metrics: metrics,
	})
	if err != nil {
		t.Fatal(err)
	}
	wtr := newTrainer(t, T)
	defer wtr.Close()
	dials := 0
	dial := func() (net.Conn, error) {
		dials++
		cs, ws := net.Pipe()
		coord.Admit(cs)
		if dials == 1 {
			// Enough budget for the hello, nowhere near enough for the
			// gradient upload: the first session dies mid-grads-frame.
			fc := faults.NewConn(ws)
			fc.FailWritesAfter(4096)
			fc.CloseOnFault(true)
			return fc, nil
		}
		return ws, nil
	}
	errs := make(chan error, 1)
	go func() {
		errs <- RunWorker(wtr, WorkerConfig{Dial: dial, ReconnectWait: 10 * time.Millisecond})
	}()

	for _, b := range batches {
		if _, err := coord.TrainRound(dataset.Train, b); err != nil {
			t.Fatal(err)
		}
	}
	coord.Finish("test done")
	if err := <-errs; err != nil {
		t.Fatalf("worker: %v", err)
	}
	if dials < 2 {
		t.Fatalf("worker reconnected %d times, expected at least one redial", dials-1)
	}
	var rendered bytes.Buffer
	metrics.Render(&rendered)
	if !strings.Contains(rendered.String(), "skipper_dist_aborts_total 1") {
		t.Fatalf("expected exactly one abort in metrics:\n%s", rendered.String())
	}

	requireSameWeights(t, "coordinator vs resynced worker", ct, wtr)
	dp, err := core.NewDataParallel(W, func(int) (*core.Trainer, error) { return buildTrainer(T, 0) })
	if err != nil {
		t.Fatal(err)
	}
	defer dp.Close()
	for _, b := range batches {
		if _, err := dp.TrainBatchIndices(dataset.Train, b); err != nil {
			t.Fatal(err)
		}
	}
	requireSameWeights(t, "faulted dist vs DataParallel", ct, dp.Replicas[0])
}

// TestWorkerCoordinatorDiesMidBroadcast scripts a coordinator that truncates
// the reduced-gradient broadcast mid-frame and disappears. The worker must
// exhaust its reconnect budget and surface a CoordinatorLostError naming the
// uncommitted round, with a resume hint — never apply the half-received
// gradients.
func TestWorkerCoordinatorDiesMidBroadcast(t *testing.T) {
	const T = 10
	wtr := newTrainer(t, T)
	defer wtr.Close()
	str := newTrainer(t, T) // scripted coordinator's state source
	defer str.Close()

	cs, ws := net.Pipe()
	dials := 0
	dial := func() (net.Conn, error) {
		dials++
		if dials == 1 {
			return ws, nil
		}
		return nil, errors.New("connection refused")
	}
	go func() {
		defer cs.Close()
		if _, _, err := frame.Read(cs); err != nil { // hello
			return
		}
		wb, _ := encodeJSON(welcomeMsg{Rank: 1, World: 2, Round: 0})
		if err := frame.Write(cs, msgWelcome, wb); err != nil {
			return
		}
		m, err := runstate.Capture(str, core.Cursor{}, core.EpochStats{})
		if err != nil {
			return
		}
		m.Meta.Dist = &runstate.DistMeta{World: 2, Rank: 1, Round: 0}
		mb, err := m.Encode()
		if err != nil {
			return
		}
		if err := frame.Write(cs, msgState, mb); err != nil {
			return
		}
		ab, _ := encodeJSON(assignMsg{Round: 0, Iteration: 1, GlobalN: 2, Split: int(dataset.Train), Indices: []int{1}})
		if err := frame.Write(cs, msgAssign, ab); err != nil {
			return
		}
		if _, _, err := frame.Read(cs); err != nil { // grads
			return
		}
		rb, err := encodeFlat(reducedMeta{Round: 0}, newFlatGrads(str.GradTensors()).snapshot())
		if err != nil {
			return
		}
		var fb bytes.Buffer
		if err := frame.Write(&fb, msgReduced, rb); err != nil {
			return
		}
		cs.Write(fb.Bytes()[:fb.Len()/2]) // die mid-broadcast
	}()

	before := snapshotWeights(wtr)
	err := RunWorker(wtr, WorkerConfig{Dial: dial, MaxReconnects: 2, ReconnectWait: 5 * time.Millisecond})
	var lost *CoordinatorLostError
	if !errors.As(err, &lost) {
		t.Fatalf("expected CoordinatorLostError, got %v", err)
	}
	if lost.Round != 0 {
		t.Fatalf("lost at round %d, expected 0 (never committed)", lost.Round)
	}
	if !strings.Contains(lost.Error(), "resyncs from the coordinator's manifest") {
		t.Fatalf("error lacks resume hint: %v", lost)
	}
	// The half-broadcast round must not have stepped the weights past the
	// manifest state the scripted coordinator sent (str's initial weights).
	requireSameWeights(t, "worker vs scripted coordinator state", wtr, str)
	_ = before
}

func snapshotWeights(tr *core.Trainer) [][]float32 {
	var out [][]float32
	for _, p := range tr.Net.Params() {
		out = append(out, append([]float32(nil), p.W.Data...))
	}
	return out
}

// TestWorkerHandshakeMismatchIsPermanent gives the worker a different seed,
// then a different surrogate (same parameter layout, different gradient);
// the coordinator must reject it with a permanent error naming the mismatch
// and the worker must not burn its reconnect budget retrying a config that
// can never match. A hello from an older protocol gets the same treatment.
func TestWorkerHandshakeMismatchIsPermanent(t *testing.T) {
	const T = 10
	// start runs a world-2 coordinator whose first round waits for a worker.
	start := func(t *testing.T) (*Coordinator, chan error) {
		ct := newTrainer(t, T)
		t.Cleanup(func() { ct.Close() })
		coord, err := NewCoordinator(ct, Config{World: 2, RoundTimeout: 2 * time.Second, JoinTimeout: 500 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		roundErr := make(chan error, 1)
		go func() {
			_, err := coord.TrainRound(dataset.Train, []int{0, 1})
			roundErr <- err
		}()
		return coord, roundErr
	}
	for _, tc := range []struct {
		name string
		seed uint64
		surr snn.Surrogate
	}{
		{"seed", 8, nil},
		{"surrogate", 7, snn.ATan{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			coord, roundErr := start(t)
			data, err := dataset.Open("cifar10", 1)
			if err != nil {
				t.Fatal(err)
			}
			net, err := models.Build("customnet", models.Options{Width: 0.5, InShape: []int{3, 16, 16}, Surrogate: tc.surr})
			if err != nil {
				t.Fatal(err)
			}
			wtr, err := core.NewTrainer(net, data, core.Checkpoint{C: 2}, core.Config{
				T: T, Batch: 3, Seed: tc.seed, Device: mem.Unlimited(),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer wtr.Close()

			workerErr := make(chan error, 1)
			go func() {
				workerErr <- RunWorker(wtr, WorkerConfig{Dial: pipeDial(coord), ReconnectWait: 5 * time.Millisecond})
			}()
			if err := <-roundErr; err == nil {
				t.Fatal("coordinator trained a round with no valid worker")
			}
			werr := <-workerErr
			if werr == nil {
				t.Fatal("mismatched worker joined")
			}
			var lost *CoordinatorLostError
			if errors.As(werr, &lost) {
				t.Fatalf("mismatch burned the reconnect budget instead of failing fast: %v", werr)
			}
			if !strings.Contains(werr.Error(), tc.name) {
				t.Fatalf("error does not name the mismatch: %v", werr)
			}
		})
	}
	t.Run("proto2", func(t *testing.T) {
		coord, roundErr := start(t)
		conn, _ := pipeDial(coord)()
		defer conn.Close()
		if err := frame.Write(conn, msgHello, []byte(`{"proto":2,"overlap":true}`)); err != nil {
			t.Fatal(err)
		}
		typ, payload, err := frame.Read(conn)
		if err != nil {
			t.Fatal(err)
		}
		var em errorMsg
		if err := decodeJSON(payload, &em); err != nil {
			t.Fatal(err)
		}
		if typ != msgError || !em.Permanent || !strings.Contains(em.Message, "protocol") {
			t.Fatalf("v2 hello answered with type %d %+v, want a permanent protocol error", typ, em)
		}
		if err := <-roundErr; err == nil {
			t.Fatal("coordinator trained a round with no valid worker")
		}
	})
}
