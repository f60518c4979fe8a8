package core

import (
	"fmt"
	"time"

	"skipper/internal/dataset"
	"skipper/internal/tensor"
)

// DataParallel reproduces the paper's multi-GPU regime (Fig. 4b): R replicas
// of the same network, each with its own device, each processing a shard of
// the global batch; gradients are averaged across replicas (all-reduce) and
// every replica applies the same optimizer step, keeping the replicas in
// lock-step exactly as synchronous data parallelism does.
//
// The replicas execute sequentially on this host, so the simulated wall
// time of a step is the slowest replica's compute time plus a bandwidth
// model of the all-reduce. All replicas run their kernels on one shared
// compute pool (each trainer's Config.Runtime, the process default unless
// overridden), so adding replicas parallelises each replica's kernels in
// turn rather than oversubscribing the host with R pools.
type DataParallel struct {
	Replicas []*Trainer
	// AllReduceGBps models interconnect bandwidth for the gradient
	// all-reduce (ring: 2·(R−1)/R of the parameter bytes per replica).
	// Zero means 50 GB/s (NVLink-class).
	AllReduceGBps float64
}

// NewDataParallel builds R lock-step replicas from a factory. The factory
// must produce identically initialised trainers (deterministic model build
// plus identical seeds).
func NewDataParallel(r int, factory func(replica int) (*Trainer, error)) (*DataParallel, error) {
	if r < 1 {
		return nil, fmt.Errorf("core: data parallel needs >= 1 replica, got %d", r)
	}
	dp := &DataParallel{}
	for i := 0; i < r; i++ {
		tr, err := factory(i)
		if err != nil {
			dp.Close()
			return nil, fmt.Errorf("core: building replica %d: %w", i, err)
		}
		dp.Replicas = append(dp.Replicas, tr)
	}
	return dp, nil
}

// Close releases all replicas.
func (dp *DataParallel) Close() {
	for _, tr := range dp.Replicas {
		tr.Close()
	}
}

// DPStepStats extends StepStats with the data-parallel timing model.
type DPStepStats struct {
	StepStats
	// SlowestReplica is the longest single-replica compute time.
	SlowestReplica time.Duration
	// AllReduce is the modelled gradient-exchange time.
	AllReduce time.Duration
	// Wall is SlowestReplica + AllReduce — the simulated step latency.
	Wall time.Duration
}

// TrainBatchIndices runs one synchronous data-parallel step over the given
// global batch, sharding it across replicas round-robin.
//
// Every replica — including one whose shard came up empty on a short final
// batch — zeroes its gradients and advances to the same iteration number, so
// no stale gradient from the previous step can leak into the reduction and
// all RNG streams stay aligned. Because each shard scales its loss by the
// global batch size (see Trainer.ShardGrads), the rank-ordered sum in
// ReduceGrads reproduces the exact global-batch mean for unequal shards too;
// no trailing 1/R rescale is applied.
func (dp *DataParallel) TrainBatchIndices(split dataset.Split, indices []int) (DPStepStats, error) {
	r := len(dp.Replicas)
	var out DPStepStats
	shards := Shard(indices, r)
	iter := dp.Replicas[0].iteration + 1

	// Each replica computes gradients on its shard.
	for i, tr := range dp.Replicas {
		st, elapsed, err := tr.ShardGrads(split, shards[i], iter, len(indices))
		if err != nil {
			return out, fmt.Errorf("core: replica %d: %w", i, err)
		}
		out.StepStats.Add(st)
		if elapsed > out.SlowestReplica {
			out.SlowestReplica = elapsed
		}
	}

	// All-reduce: deterministic rank-ordered sum, then every replica gets a
	// bitwise copy of the reduced gradient.
	sets := make([][]*tensor.Tensor, r)
	counts := make([]int, r)
	for i, tr := range dp.Replicas {
		ps := tr.Net.Params()
		sets[i] = make([]*tensor.Tensor, len(ps))
		for j, p := range ps {
			sets[i][j] = p.G
		}
		counts[i] = len(shards[i])
	}
	paramBytes, err := ReduceGrads(sets, counts)
	if err != nil {
		return out, err
	}
	for i := 1; i < r; i++ {
		for j := range sets[i] {
			tensor.Copy(sets[i][j], sets[0][j])
		}
	}
	out.AllReduce = dp.allReduceTime(paramBytes)

	// Identical update on every replica keeps them in lock-step.
	for _, tr := range dp.Replicas {
		norm := tr.ApplyReduced()
		if norm > out.GradNorm {
			out.GradNorm = norm
		}
	}
	out.Wall = out.SlowestReplica + out.AllReduce
	return out, nil
}

func (dp *DataParallel) allReduceTime(paramBytes int64) time.Duration {
	return AllReduceModel(paramBytes, len(dp.Replicas), dp.AllReduceGBps)
}

// AllReduceModel predicts the ring all-reduce time for paramBytes of
// gradients across r replicas at gbps GB/s of interconnect bandwidth
// (0 = 50, NVLink-class).
func AllReduceModel(paramBytes int64, r int, gbps float64) time.Duration {
	if gbps == 0 {
		gbps = 50
	}
	if r < 2 {
		return 0
	}
	// Ring all-reduce moves 2·(R−1)/R of the buffer per replica.
	bytes := 2 * float64(r-1) / float64(r) * float64(paramBytes)
	return time.Duration(bytes / (gbps * 1e9) * float64(time.Second))
}

// InSync reports whether all replica weights are bit-identical — the
// invariant synchronous data parallelism maintains.
func (dp *DataParallel) InSync() bool {
	if len(dp.Replicas) < 2 {
		return true
	}
	ref := dp.Replicas[0].Net.Params()
	for _, tr := range dp.Replicas[1:] {
		ps := tr.Net.Params()
		for j := range ref {
			for k := range ref[j].W.Data {
				if ps[j].W.Data[k] != ref[j].W.Data[k] {
					return false
				}
			}
		}
	}
	return true
}
