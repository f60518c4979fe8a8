package main

import (
	"os"
	"path/filepath"
	"time"

	"skipper"
	"skipper/internal/core"
	"skipper/internal/frame"
	"skipper/internal/runstate"
	"skipper/internal/snn"
	"skipper/internal/tensor"
)

// perCall times fn in batches long enough to read the clock reliably and
// returns the median seconds per call.
func perCall(fn func()) float64 {
	reps := 1
	for {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		if d := time.Since(t0); d >= 2*time.Millisecond || reps >= 1<<20 {
			break
		}
		reps *= 2
	}
	const batches = 15
	per := make([]float64, batches)
	for b := range per {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		per[b] = time.Since(t0).Seconds() / float64(reps)
	}
	return median(per)
}

// fillSpikes sets each element of t to 1 with probability density, else 0.
func fillSpikes(t *tensor.Tensor, rng *tensor.RNG, density float64) {
	for i := range t.Data {
		t.Data[i] = rng.Bernoulli(float32(density))
	}
}

// probeLayers times Net.ForwardStep and Net.BackwardStep at the training
// batch on real input steps, and reads the hidden spike density off the
// states. It returns the hidden output count per step for the snn probes.
func probeLayers(spec trainSpec, rt *skipper.Runtime, data skipper.Dataset, rec *recorder, m map[string]float64) (neurons int, density float64, err error) {
	net, err := rt.BuildModel(spec.Model, modelOptions(spec.modelSpec))
	if err != nil {
		return 0, 0, err
	}
	idx := make([]int, spec.B)
	for i := range idx {
		idx[i] = i
	}
	const steps, calls = 16, 200
	input, _ := data.SpikeBatch(skipper.TrainSplit, idx, steps)
	net.BeginIteration(tensor.NewRNG(programSeed))
	defer net.EndIteration()

	states := net.ForwardStep(input[0], nil)
	for t := 1; t < steps; t++ { // let activity reach every layer first
		states = net.ForwardStep(input[t], states)
	}
	fwd := make([]float64, calls)
	var spikes float64
	for i := range fwd {
		t0 := time.Now()
		states = net.ForwardStep(input[i%steps], states)
		d := time.Since(t0)
		rec.add("layers.forward_step", int64(i), -1, t0, d)
		fwd[i] = ms(d.Seconds())
		spikes += net.SpikeSum(states)
	}
	for _, st := range states[:len(states)-1] {
		neurons += len(st.O.Data)
	}
	density = spikes / float64(calls) / float64(neurons)

	grad := tensor.New(states[len(states)-1].O.Shape()...)
	for i := range grad.Data {
		grad.Data[i] = 1e-3
	}
	inject := map[int]*tensor.Tensor{len(states) - 1: grad}
	bwd := make([]float64, calls)
	deltas := net.BackwardStep(input[0], states, inject, nil)
	for i := range bwd {
		t0 := time.Now()
		deltas = net.BackwardStep(input[i%steps], states, inject, deltas)
		d := time.Since(t0)
		rec.add("layers.backward_step", int64(i), -1, t0, d)
		bwd[i] = ms(d.Seconds())
	}
	m["layers.forward_step_ms"] = median(fwd)
	m["layers.backward_step_ms"] = median(bwd)
	m["layers.hidden_spike_density"] = density
	return neurons, density, nil
}

// probeKernels times the dense tensor kernels at the model's probe shapes and
// batch b with inputs at the measured spike density, and the elementwise snn
// kernels at the model's hidden size. FLOP counts are computed from the
// shapes, not measured.
func probeKernels(model modelSpec, b int, rt *skipper.Runtime, neurons int, density float64, rec *recorder, m map[string]float64) {
	pool := rt.Pool()
	rng := tensor.NewRNG(programSeed)
	spec := tensor.ConvSpec{InChannels: model.ConvIn, OutChannels: model.ConvOut, KernelH: 3, KernelW: 3, Stride: 1, Pad: 1}
	hw := model.ConvHW
	x := tensor.New(b, model.ConvIn, hw, hw)
	fillSpikes(x, rng, density)
	w := tensor.New(model.ConvOut, model.ConvIn, 3, 3)
	rng.KaimingConv(w)
	out := tensor.New(b, model.ConvOut, hw, hw)
	dout := tensor.New(b, model.ConvOut, hw, hw)
	rng.FillNorm(dout, 0, 1)
	dx := tensor.New(b, model.ConvIn, hw, hw)
	dw := tensor.New(model.ConvOut, model.ConvIn, 3, 3)
	sc := tensor.NewScratch()
	convFlops := 2 * float64(b*hw*hw*model.ConvOut*model.ConvIn*9)

	timed := func(name string, fn func()) float64 {
		t0 := time.Now()
		s := perCall(fn)
		rec.add("probe."+name, 0, -1, t0, time.Since(t0))
		return s
	}
	fwd := timed("tensor.conv2d_fwd", func() { tensor.Conv2D(pool, out, x, w, nil, spec, sc) })
	m["tensor.conv2d_fwd_gflops"] = convFlops / fwd / 1e9
	m["tensor.conv2d_gradin_gflops"] = convFlops / timed("tensor.conv2d_gradin", func() { tensor.Conv2DGradInput(pool, dx, dout, w, spec, sc) }) / 1e9
	m["tensor.conv2d_gradw_gflops"] = convFlops / timed("tensor.conv2d_gradw", func() { tensor.Conv2DGradWeight(pool, dw, nil, dout, x, spec, sc) }) / 1e9
	serial := timed("tensor.conv2d_fwd_1", func() { tensor.Conv2D(nil, out, x, w, nil, spec, tensor.NewScratch()) })
	m["parallel.kernel_speedup_vs_1"] = serial / fwd

	a := tensor.New(b, model.MatK)
	fillSpikes(a, rng, density)
	bm := tensor.New(model.MatK, model.MatN)
	rng.KaimingLinear(bm)
	dst := tensor.New(b, model.MatN)
	m["tensor.matmul_gflops"] = 2 * float64(b*model.MatK*model.MatN) / timed("tensor.matmul", func() { tensor.MatMul(pool, dst, a, bm) }) / 1e9

	p := snn.DefaultParams()
	u, o, uPrev, oPrev, cur := tensor.New(neurons), tensor.New(neurons), tensor.New(neurons), tensor.New(neurons), tensor.New(neurons)
	rng.FillNorm(uPrev, 0, 1)
	fillSpikes(oPrev, rng, density)
	rng.FillNorm(cur, 0, 1)
	m["snn.lif_step_ns_per_neuron"] = 1e9 * timed("snn.lif_step", func() { snn.StepLIF(pool, u, o, uPrev, oPrev, cur, p) }) / float64(neurons)
	delta, gradOut, next := tensor.New(neurons), tensor.New(neurons), tensor.New(neurons)
	rng.FillNorm(gradOut, 0, 1)
	rng.FillNorm(next, 0, 1)
	m["snn.surrogate_delta_ns_per_neuron"] = 1e9 * timed("snn.surrogate_delta", func() {
		snn.SurrogateDelta(pool, delta, uPrev, gradOut, next, p.Threshold, p.Leak, snn.Triangle{})
	}) / float64(neurons)
}

// probeFrame times the correlation envelope the router and the streaming
// clients wrap every message in, on a request-sized payload.
func probeFrame(payload []byte, rec *recorder, m map[string]float64) {
	t0 := time.Now()
	s := perCall(func() {
		if _, _, _, err := frame.DecodeCorr(frame.EncodeCorr(7, 1, payload)); err != nil {
			panic(err)
		}
	})
	rec.add("probe.frame.corr_roundtrip", 0, -1, t0, time.Since(t0))
	m["frame.corr_roundtrip_us"] = 1e6 * s
}

// probeState times what saving a run costs on the trained BPTT trainer:
// runstate.Capture + Encode, and a weight file written and read back under
// dir.
func probeState(tr *skipper.Trainer, dir string, rec *recorder, m map[string]float64) error {
	const calls = 9
	enc := make([]float64, calls)
	var size int
	for i := range enc {
		t0 := time.Now()
		man, err := runstate.Capture(tr, core.Cursor{NextEpoch: 1}, skipper.EpochStats{})
		if err != nil {
			return err
		}
		raw, err := man.Encode()
		if err != nil {
			return err
		}
		d := time.Since(t0)
		rec.add("runstate.capture_encode", int64(i), -1, t0, d)
		enc[i], size = ms(d.Seconds()), len(raw)
	}
	m["runstate.capture_encode_ms"] = median(enc)
	m["runstate.manifest_bytes"] = float64(size)

	path := filepath.Join(dir, "probe.skpw")
	defer os.Remove(path)
	save, load := make([]float64, calls), make([]float64, calls)
	for i := range save {
		t0 := time.Now()
		if err := skipper.SaveWeights(path, tr.Net); err != nil {
			return err
		}
		d := time.Since(t0)
		rec.add("serialize.save", int64(i), -1, t0, d)
		save[i] = ms(d.Seconds())
		t0 = time.Now()
		if err := skipper.LoadWeights(path, tr.Net); err != nil {
			return err
		}
		d = time.Since(t0)
		rec.add("serialize.load", int64(i), -1, t0, d)
		load[i] = ms(d.Seconds())
	}
	m["serialize.save_ms"] = median(save)
	m["serialize.load_ms"] = median(load)
	return nil
}
