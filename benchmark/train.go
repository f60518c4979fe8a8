package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"time"

	"skipper"
)

// strategyRun is one training strategy with its own network, device and
// trainer; all three start from the same deterministic initial weights.
type strategyRun struct {
	Key   string // metric prefix: bptt, ckpt, skipper
	Net   *skipper.Network
	Dev   *skipper.Device
	Tr    *skipper.Trainer
	steps []stepSample
	// Hash is the weight hash after measured step hashSteps, which two runs
	// of one commit with the same seed must agree on; Final is the hash after
	// the last step, however many the run had time for.
	Hash, Final uint64
}

type stepSample struct {
	Wall  time.Duration
	Stats skipper.StepStats
}

// trainRig is the training segment: one dataset and the three strategies,
// stepped round-robin on the same benchmark-generated index lists, so that a
// slow minute of the machine slows all three alike.
type trainRig struct {
	spec trainSpec
	data skipper.Dataset
	runs []*strategyRun
	rng  *rand.Rand
	idx  [][]int // idx[k] is the index list of global step k
	done int     // global steps taken so far
	// probe is what the traced run learns by calling Data.SpikeBatch itself
	// on each step's indices (the trainer's own call is invisible from
	// outside): the call's time in ms and the density of what it returns.
	probeMS, probeDensity []float64
}

// strategies are the three regimes under test, keyed by metric prefix.
func strategies(spec trainSpec) map[string]skipper.Strategy {
	return map[string]skipper.Strategy{
		"bptt":    skipper.BPTT{},
		"ckpt":    skipper.Checkpoint{C: spec.C},
		"skipper": skipper.Skipper{C: spec.C, P: spec.P},
	}
}

// strategyOrder is the order the strategies are built, stepped and printed in.
var strategyOrder = []string{"bptt", "ckpt", "skipper"}

func modelOptions(m modelSpec) skipper.ModelOptions {
	return skipper.ModelOptions{Width: modelWidth, Classes: m.Classes, InShape: m.InShape}
}

// newTrainRig builds the dataset, networks and trainers and takes the warm-up
// steps of each strategy; all of it is set-up time.
func newTrainRig(spec trainSpec, rt *skipper.Runtime, seed int64, warm int) (*trainRig, error) {
	data, err := rt.OpenDataset(spec.Dataset)
	if err != nil {
		return nil, err
	}
	rig := &trainRig{spec: spec, data: data, rng: rand.New(rand.NewSource(seed))}
	strats := strategies(spec)
	for _, key := range strategyOrder {
		net, err := rt.BuildModel(spec.Model, modelOptions(spec.modelSpec))
		if err != nil {
			rig.close()
			return nil, err
		}
		dev := skipper.NewDevice(skipper.DeviceConfig{})
		tr, err := rt.NewTrainer(net, data, strats[key], skipper.Config{T: spec.T, Batch: spec.B, LR: 1e-3, Device: dev})
		if err != nil {
			rig.close()
			return nil, fmt.Errorf("%s trainer: %w", key, err)
		}
		rig.runs = append(rig.runs, &strategyRun{Key: key, Net: net, Dev: dev, Tr: tr})
	}
	if err := rig.warm(warm); err != nil {
		rig.close()
		return nil, err
	}
	return rig, nil
}

func (r *trainRig) close() {
	for _, s := range r.runs {
		s.Tr.Close()
	}
}

// indices returns the sample indices of global step k: B draws from the
// training split, the same list for every strategy.
func (r *trainRig) indices(k int) []int {
	for len(r.idx) <= k {
		list := make([]int, r.spec.B)
		for i := range list {
			list[i] = r.rng.Intn(r.data.Len(skipper.TrainSplit))
		}
		r.idx = append(r.idx, list)
	}
	return r.idx[k]
}

// warm takes n unmeasured steps of every strategy.
func (r *trainRig) warm(n int) error {
	for i := 0; i < n; i++ {
		idx := r.indices(r.done)
		for _, s := range r.runs {
			if _, err := s.Tr.TrainBatchIndices(skipper.TrainSplit, idx); err != nil {
				return fmt.Errorf("%s warm-up step: %w", s.Key, err)
			}
		}
		r.done++
	}
	return nil
}

// block is one train block: one measured step of every strategy on the same
// index list. With rec non-nil it also times its own SpikeBatch call and
// records spans: one train_step span per strategy step whose children are
// laid out from the StepStats phase times.
func (r *trainRig) block(rec *recorder) error {
	idx := r.indices(r.done)
	op := int64(r.done)
	if rec != nil {
		t0 := time.Now()
		input, _ := r.data.SpikeBatch(skipper.TrainSplit, idx, r.spec.T)
		d := time.Since(t0)
		rec.add("dataset.spike_batch", op, -1, t0, d)
		r.probeMS = append(r.probeMS, ms(d.Seconds()))
		var nz, total float64
		for _, x := range input {
			total += float64(len(x.Data))
			for _, v := range x.Data {
				if v != 0 {
					nz++
				}
			}
		}
		r.probeDensity = append(r.probeDensity, nz/total)
	}
	for _, s := range r.runs {
		t0 := time.Now()
		st, err := s.Tr.TrainBatchIndices(skipper.TrainSplit, idx)
		wall := time.Since(t0)
		if err != nil {
			return fmt.Errorf("%s step %d: %w", s.Key, len(s.steps), err)
		}
		s.steps = append(s.steps, stepSample{Wall: wall, Stats: st})
		if len(s.steps) == hashSteps {
			s.Hash = weightHash(s.Net)
		}
		if rec != nil {
			id := rec.add(s.Key+".train_step", op, -1, t0, wall)
			// The phases run inside the step in this order; only their
			// lengths are known from outside, so they are laid end to end.
			at := t0
			for _, ph := range []struct {
				name string
				d    time.Duration
			}{{"core.forward", st.ForwardTime}, {"core.recompute", st.RecomputeTime}, {"core.backward", st.BackwardTime}} {
				if ph.d > 0 {
					rec.add(s.Key+"."+ph.name, op, id, at, ph.d)
					at = at.Add(ph.d)
				}
			}
		}
	}
	r.done++
	return nil
}

// finish hashes the weights every strategy ended on.
func (r *trainRig) finish() {
	for _, s := range r.runs {
		s.Final = weightHash(s.Net)
		if len(s.steps) < hashSteps {
			s.Hash = s.Final
		}
	}
}

// weightHash is FNV-64a over the bits of every parameter, in order.
func weightHash(net *skipper.Network) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, p := range net.Params() {
		for _, v := range p.W.Data {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

func (s *strategyRun) wallMS() []float64 {
	out := make([]float64, len(s.steps))
	for i, st := range s.steps {
		out[i] = ms(st.Wall.Seconds())
	}
	return out
}

// meanLoss averages the loss of the last k measured steps.
func (s *strategyRun) meanLoss(k int) float64 {
	if k > len(s.steps) {
		k = len(s.steps)
	}
	var sum float64
	for _, st := range s.steps[len(s.steps)-k:] {
		sum += st.Stats.Loss
	}
	return sum / float64(k)
}

// checkTraining applies the training correctness rules and returns every
// violated one.
func checkTraining(runs []*strategyRun) []string {
	var bad []string
	by := map[string]*strategyRun{}
	for _, s := range runs {
		by[s.Key] = s
	}
	bptt, ckpt, skp := by["bptt"], by["ckpt"], by["skipper"]
	if ckpt.Hash != bptt.Hash || ckpt.Final != bptt.Final {
		bad = append(bad, fmt.Sprintf("checkpointed weights differ from BPTT's: %016x/%016x vs %016x/%016x", ckpt.Hash, ckpt.Final, bptt.Hash, bptt.Final))
	}
	skipped := 0
	for _, st := range skp.steps {
		skipped += st.Stats.SkippedSteps
		if math.IsNaN(st.Stats.Loss) || math.IsInf(st.Stats.Loss, 0) {
			bad = append(bad, "skipper loss is not finite")
			break
		}
	}
	if skipped == 0 {
		bad = append(bad, "skipper skipped no timesteps")
	}
	if b, s := bptt.meanLoss(10), skp.meanLoss(10); math.Abs(s-b) > 0.15*math.Abs(b) {
		bad = append(bad, fmt.Sprintf("skipper mean loss %.4f is not within 15%% of BPTT's %.4f", s, b))
	}
	return bad
}
