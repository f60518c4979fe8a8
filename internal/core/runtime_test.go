package core

import (
	"bytes"
	goruntime "runtime"
	"testing"

	"skipper/internal/models"
)

func TestNewRuntimeDefaultsToNumCPU(t *testing.T) {
	rt := NewRuntime()
	defer rt.Close()
	if rt.Threads() != goruntime.NumCPU() {
		t.Fatalf("Threads() = %d, want NumCPU = %d", rt.Threads(), goruntime.NumCPU())
	}
	if rt.Threads() > 1 && rt.Pool() == nil {
		t.Fatal("multi-thread runtime has no pool")
	}
}

func TestNilRuntimeIsSerial(t *testing.T) {
	var rt *Runtime
	if rt.Threads() != 1 || rt.Pool() != nil || rt.Seed() != 0 || rt.Metrics() != nil {
		t.Fatal("nil runtime must read as serial with zero defaults")
	}
	rt.Close() // must not panic
}

func TestRuntimeOptions(t *testing.T) {
	var sink bytes.Buffer
	rt := NewRuntime(WithThreads(3), WithSeed(42), WithMetrics(&sink))
	defer rt.Close()
	if rt.Threads() != 3 {
		t.Fatalf("Threads() = %d, want 3", rt.Threads())
	}
	if rt.Pool() == nil || rt.Pool().Lanes() != 3 {
		t.Fatal("pool not sized to WithThreads")
	}
	if rt.Seed() != 42 {
		t.Fatalf("Seed() = %d, want 42", rt.Seed())
	}
	if rt.Metrics() != &sink {
		t.Fatal("Metrics() did not round-trip")
	}
}

func TestDefaultRuntimeIsSingleton(t *testing.T) {
	if DefaultRuntime() != DefaultRuntime() {
		t.Fatal("DefaultRuntime must return one shared instance")
	}
}

// The deprecated Config.Seed keeps working: an explicit Seed wins over the
// Runtime's, and a nil Runtime resolves to DefaultRuntime.
func TestConfigRuntimeDefaulting(t *testing.T) {
	rt := NewRuntime(WithThreads(1), WithSeed(7))

	cfg := (Config{T: 4, Batch: 1, Runtime: rt}).withDefaults()
	if cfg.Seed != 7 {
		t.Fatalf("Seed = %d, want the runtime's 7", cfg.Seed)
	}

	cfg = (Config{T: 4, Batch: 1, Runtime: rt, Seed: 99}).withDefaults()
	if cfg.Seed != 99 {
		t.Fatal("an explicit Config.Seed must win over the runtime's")
	}

	cfg = (Config{T: 4, Batch: 1}).withDefaults()
	if cfg.Runtime != DefaultRuntime() {
		t.Fatal("nil Runtime must resolve to DefaultRuntime")
	}
}

func TestRuntimeFacadeBuildsPinnedTrainer(t *testing.T) {
	rt := NewRuntime(WithThreads(2), WithSeed(5))
	defer rt.Close()
	net, err := rt.BuildModel("customnet", models.Options{Width: 0.5, InShape: []int{3, 16, 16}, Classes: 10})
	if err != nil {
		t.Fatal(err)
	}
	if net.Pool() != rt.Pool() {
		t.Fatal("BuildModel must attach the runtime's pool")
	}
	data, err := rt.OpenDataset("cifar10")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := rt.NewTrainer(net, data, BPTT{}, Config{T: 6, Batch: 1, MaxBatchesPerEpoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if tr.Cfg.Runtime != rt {
		t.Fatal("NewTrainer must pin the runtime into the config")
	}
	if tr.Cfg.Seed != 5 {
		t.Fatalf("trainer seed = %d, want the runtime's 5", tr.Cfg.Seed)
	}
	if _, err := tr.TrainEpoch(); err != nil {
		t.Fatal(err)
	}
}

// The headline determinism property: the same training run at threads=1 and
// threads=4 produces bit-identical weights, optimizer state, and epoch
// aggregates, so pool width can never perturb a result.
func TestTrainingBitIdenticalAcrossThreadCounts(t *testing.T) {
	train := func(threads int) (*Trainer, []EpochStats) {
		rt := NewRuntime(WithThreads(threads), WithSeed(9))
		t.Cleanup(rt.Close)
		net, err := rt.BuildModel("customnet", models.Options{
			Width: 0.5, InShape: []int{3, 16, 16}, Classes: 10, BatchNorm: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		data, err := rt.OpenDataset("cifar10")
		if err != nil {
			t.Fatal(err)
		}
		tr, err := rt.NewTrainer(net, data, Skipper{C: 2, P: 15}, Config{
			T: 12, Batch: 2, MaxBatchesPerEpoch: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(tr.Close)
		var eps []EpochStats
		for e := 0; e < 2; e++ {
			ep, err := tr.TrainEpoch()
			if err != nil {
				t.Fatal(err)
			}
			ep.Duration = 0
			ep.ForwardTime, ep.RecomputeTime, ep.BackwardTime = 0, 0, 0
			eps = append(eps, ep)
		}
		return tr, eps
	}

	serialTr, serialEps := train(1)
	pooledTr, pooledEps := train(4)

	for e := range serialEps {
		if serialEps[e] != pooledEps[e] {
			t.Fatalf("epoch %d aggregates differ:\n  threads=1: %+v\n  threads=4: %+v", e+1, serialEps[e], pooledEps[e])
		}
	}
	pa, pb := serialTr.Net.Params(), pooledTr.Net.Params()
	for i := range pa {
		for j := range pa[i].W.Data {
			if pa[i].W.Data[j] != pb[i].W.Data[j] {
				t.Fatalf("weight %s[%d]: threads=1 %v != threads=4 %v",
					pa[i].Name, j, pa[i].W.Data[j], pb[i].W.Data[j])
			}
		}
	}
	oa, ob := serialTr.Opt.StateTensors(), pooledTr.Opt.StateTensors()
	for i := range oa {
		for j := range oa[i].T.Data {
			if oa[i].T.Data[j] != ob[i].T.Data[j] {
				t.Fatalf("optimizer state %s[%d] differs across thread counts", oa[i].Name, j)
			}
		}
	}
}
