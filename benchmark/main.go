// Command benchmark is this repository's one repeatable benchmark: the four
// named workloads of the issue, twelve end-to-end metrics, and, in a traced
// run, per-layer attribution measured from outside the program. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"skipper"
)

// runConfig is one run of one workload.
type runConfig struct {
	WL      workload
	Seed    int64
	Plan    plan
	Threads int
}

// outDir, relative to the benchmark's directory, takes every file a run
// writes; it is git-ignored.
const outDir = "out"

// runOutput is everything one run measured.
type runOutput struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Rounds    int                `json:"rounds"`
	Metrics   map[string]float64 `json:"end_to_end"`
	Layers    map[string]float64 `json:"per_layer,omitempty"`
	Counts    map[string]int     `json:"sample_counts"`
	Extra     map[string]float64 `json:"extra"`
	Hashes    map[string]string  `json:"weight_hashes"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems"`

	spans []span
	raw   map[string][]float64 // -raw: every block's reading, for choosing estimators
}

// rigs is one set-up of the system: a runtime and the three segments' rigs.
type rigs struct {
	rt       *skipper.Runtime
	train    *trainRig
	fleet    *fleetRig
	sessions *streamRig
}

// setUp builds everything a run needs before its first measured operation and
// returns how long that took: the runtime, the dataset, the three networks,
// devices and trainers and their warm-up steps; the two replicas, the router,
// their listeners and the fleet's warm-up; the durable replica, its sessions
// and their warm-up windows. The durable sessions live under dir.
func setUp(cfg runConfig, tracer *skipper.Tracer, dir string) (*rigs, time.Duration, error) {
	start := time.Now()
	opts := []skipper.RuntimeOption{skipper.WithThreads(cfg.Threads), skipper.WithSeed(programSeed)}
	if tracer != nil {
		opts = append(opts, skipper.WithTracer(tracer))
	}
	g := &rigs{rt: skipper.NewRuntime(opts...)}
	var err error
	if g.train, err = newTrainRig(cfg.WL.Train, g.rt, cfg.Seed, cfg.Plan.Warm); err != nil {
		g.close()
		return nil, 0, fmt.Errorf("train set-up: %w", err)
	}
	if g.fleet, err = newFleetRig(g.rt, cfg.Seed, cfg.Threads); err != nil {
		g.close()
		return nil, 0, fmt.Errorf("serve set-up: %w", err)
	}
	if g.sessions, err = newStreamRig(g.rt, cfg.Seed, cfg.Threads, dir, cfg.Plan.Replay); err != nil {
		g.close()
		return nil, 0, fmt.Errorf("stream set-up: %w", err)
	}
	return g, time.Since(start), nil
}

func (g *rigs) close() {
	if g.sessions != nil {
		g.sessions.stop()
	}
	if g.fleet != nil {
		g.fleet.stop()
	}
	if g.train != nil {
		g.train.close()
	}
	g.rt.Close()
}

// runState is one run in progress.
type runState struct {
	cfg runConfig
	*rigs
	rec    *recorder // nil untraced
	traced bool
	tmp    string
	out    *runOutput

	setUps   []float64 // seconds each set-up of this run took
	served   serveResult
	streamed streamResult
}

// runOnce runs one workload once: all three segments are set up from a cold
// start, then measured in rounds of small blocks until the plan's time is up,
// so that every metric is read all along the run. Untraced, every tracer is
// nil and only the end-to-end metrics are filled. Traced, the program's own
// tracer is attached through skipper.WithTracer, the benchmark records its
// spans, and the per-layer probes run.
func runOnce(cfg runConfig, traced bool) (*runOutput, error) {
	out := &runOutput{
		Workload: cfg.WL.Name, Seed: cfg.Seed,
		Metrics: map[string]float64{}, Counts: map[string]int{}, Extra: map[string]float64{}, Hashes: map[string]string{},
		raw: map[string][]float64{},
	}
	r := &runState{cfg: cfg, traced: traced, out: out}
	var tracer *skipper.Tracer
	if traced {
		r.rec = newRecorder()
		tracer = skipper.NewTracer(0)
		out.Layers = map[string]float64{}
	}
	var err error
	if r.tmp, err = os.MkdirTemp(outDir, "tmp-"); err != nil {
		return nil, err
	}
	defer os.RemoveAll(r.tmp)

	var took time.Duration
	if r.rigs, took, err = setUp(cfg, tracer, filepath.Join(r.tmp, "sessions")); err != nil {
		return nil, err
	}
	defer r.rigs.close()
	r.setUps = append(r.setUps, took.Seconds())

	heap := r.heapAround()
	if err := r.rounds(); err != nil {
		return nil, err
	}
	heap(len(r.train.runs)*r.train.done + r.served.Requests + r.served.ClosedOK + r.streamed.Windows + r.streamed.ClosedOK)
	// The first set-up is the run's own, from a cold start; the later ones are
	// the same set-up made again beside it, half way and at the end. Like every
	// other time, the one reported is the least disturbed.
	out.Metrics["setup_s"] = sorted(r.setUps)[0]
	out.Counts["setup_s"] = len(r.setUps)
	out.Extra["setup_cold_s"] = r.setUps[0]
	out.raw["setup_s"] = r.setUps
	if err := r.trainDone(); err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	r.serveDone()
	if err := r.streamDone(); err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	if !traced {
		return out, nil
	}

	out.Layers["parallel.mean_lanes"] = r.rt.Pool().Stats().MeanLanes()
	// Phases only the program can see, from its own tracer's summary.
	for _, t := range tracer.Totals() {
		switch t.Name {
		case "sam_select":
			out.Layers["core.sam_select_ms"] = ms(t.Mean().Seconds())
		case "opt_step":
			out.Layers["core.opt_step_ms"] = ms(t.Mean().Seconds())
		case "coalesce":
			out.Layers["serve.coalesce_ms"] = ms(t.Mean().Seconds())
		}
	}
	out.spans = r.rec.snapshot()
	return out, nil
}

// setUpAgain makes the run's set-up once more, untraced, beside the live
// rigs, times it and tears it down.
func (r *runState) setUpAgain() error {
	g, took, err := setUp(r.cfg, nil, filepath.Join(r.tmp, fmt.Sprintf("sessions-%d", len(r.setUps))))
	if err != nil {
		return err
	}
	g.close()
	r.setUps = append(r.setUps, took.Seconds())
	return nil
}

// rounds runs the measured part: round after round, one block of each
// segment, until the next round would end past the plan's time; and the
// plan's further set-ups, spread evenly over that time.
func (r *runState) rounds() error {
	p, out := r.cfg.Plan, r.out
	gauge := newHostGauge(r.cfg.Threads)
	var readings []float64
	start := time.Now()
	for {
		spent := time.Since(start).Seconds()
		if len(r.setUps) < p.SetUps && spent >= p.Seconds*float64(len(r.setUps))/float64(p.SetUps-1) {
			if err := r.setUpAgain(); err != nil {
				return err
			}
			continue
		}
		enough := out.Rounds >= p.MinRounds && spent+spent/float64(max(out.Rounds, 1)) > p.Seconds
		if enough || (p.MaxRounds > 0 && out.Rounds >= p.MaxRounds) {
			break
		}
		g0 := gauge.read()
		if err := r.train.block(r.rec); err != nil {
			return fmt.Errorf("train: %w", err)
		}
		g1 := gauge.read()
		if err := r.fleet.block(&r.served, p.Requests, p.ServeClosed, r.rec); err != nil {
			return fmt.Errorf("serve: %w", err)
		}
		g2 := gauge.read()
		r.sessions.block(&r.streamed, p.Windows, p.StreamClosed, r.rec)
		g3 := gauge.read()
		out.raw["train_gauge_ms"] = append(out.raw["train_gauge_ms"], (g0+g1)/2)
		out.raw["serve_gauge_ms"] = append(out.raw["serve_gauge_ms"], (g1+g2)/2)
		out.raw["stream_gauge_ms"] = append(out.raw["stream_gauge_ms"], (g2+g3)/2)
		readings = append(readings, g0, g1, g2, g3)
		out.Rounds++
	}
	for len(r.setUps) < p.SetUps {
		if err := r.setUpAgain(); err != nil {
			return err
		}
	}
	out.Extra["measured_s"] = time.Since(start).Seconds()
	asc := sorted(readings)
	out.Extra["host_gauge_ms_min"], out.Extra["host_gauge_ms_p50"], out.Extra["host_gauge_ms_max"] = asc[0], percentile(asc, 50), asc[len(asc)-1]
	return nil
}

// heapAround reads the Go heap's counters before the rounds of a traced run;
// the function it returns reads them again after the rounds' `ops` operations
// (train steps, requests and windows together) and fills the mem.* per-layer
// metrics.
func (r *runState) heapAround() func(ops int) {
	if !r.traced {
		return func(int) {}
	}
	var before runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	return func(ops int) {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		// HeapSys only grows, so after the rounds it is the heap's peak.
		r.out.Layers["mem.go_heap_peak_bytes"] = float64(after.HeapSys)
		r.out.Layers["mem.mallocs_per_op"] = float64(after.Mallocs-before.Mallocs) / float64(ops)
		r.out.Layers["mem.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	}
}

// trainDone turns the train blocks into the training metrics.
func (r *runState) trainDone() error {
	rig, spec, out := r.train, r.cfg.WL.Train, r.out
	rig.finish()
	out.Problems = append(out.Problems, checkTraining(rig.runs)...)
	for _, s := range rig.runs {
		out.Attempted += len(s.steps)
		wall := s.wallMS()
		out.raw[s.Key+"_step_ms"] = wall
		out.Metrics[s.Key+"_samples_per_s"] = float64(spec.B) * 1e3 / quietTime(wall)
		out.Counts[s.Key+"_samples_per_s"] = len(wall)
		out.Extra[s.Key+"_step_ms_p50"] = median(wall)
		out.Extra[s.Key+"_mean_loss_last10"] = s.meanLoss(10)
		out.Hashes[s.Key] = fmt.Sprintf("%016x", s.Hash)
		if s.Key != "bptt" {
			out.Metrics[s.Key+"_peak_mem_bytes"] = float64(s.Dev.PeakReserved())
		}
	}
	if !r.traced {
		return nil
	}
	r.trainLayers(rig)
	neurons, density, err := probeLayers(spec, r.rt, rig.data, r.rec, out.Layers)
	if err != nil {
		return err
	}
	probeKernels(spec.modelSpec, spec.B, r.rt, neurons, density, r.rec, out.Layers)
	if err := probeState(rig.runs[0].Tr, r.tmp, r.rec, out.Layers); err != nil {
		return fmt.Errorf("state probe: %w", err)
	}
	return nil
}

// trainLayers fills the per-layer metrics that come from the step statistics
// and the devices' peaks.
func (r *runState) trainLayers(rig *trainRig) {
	m := r.out.Layers
	m["dataset.spike_batch_ms"] = median(rig.probeMS)
	m["encode.input_spike_density"] = mean(rig.probeDensity)
	stepMS := map[string]float64{}
	for _, s := range rig.runs {
		var fwd, recmp, bwd, over []float64
		var recomputed, skipped, forward int
		for _, step := range s.steps {
			f, rc, b := ms(step.Stats.ForwardTime.Seconds()), ms(step.Stats.RecomputeTime.Seconds()), ms(step.Stats.BackwardTime.Seconds())
			fwd, recmp, bwd = append(fwd, f), append(recmp, rc), append(bwd, b)
			over = append(over, ms(step.Wall.Seconds())-f-rc-b-m["dataset.spike_batch_ms"])
			recomputed, skipped, forward = recomputed+step.Stats.RecomputedSteps, skipped+step.Stats.SkippedSteps, forward+step.Stats.ForwardSteps
		}
		n := float64(len(s.steps))
		m[s.Key+".core.forward_ms_per_step"] = median(fwd)
		m[s.Key+".core.backward_ms_per_step"] = median(bwd)
		m[s.Key+".core.step_overhead_ms"] = median(over)
		stepMS[s.Key] = r.out.Extra[s.Key+"_step_ms_p50"]
		switch s.Key {
		case "bptt":
			m["mem.peak_activation_bytes"] = float64(s.Dev.PeakBy(skipper.MemActivations))
			m["mem.peak_input_bytes"] = float64(s.Dev.PeakBy(skipper.MemInput))
			m["mem.bptt_peak_reserved_bytes"] = float64(s.Dev.PeakReserved())
		case "ckpt":
			m["ckpt.core.recompute_ms_per_step"] = median(recmp)
			m["ckpt.core.recomputed_steps"] = float64(recomputed) / n
		case "skipper":
			m["skipper.core.recompute_ms_per_step"] = median(recmp)
			m["skipper.core.recomputed_steps"] = float64(recomputed) / n
			m["core.skipped_steps"] = float64(skipped) / n
			m["core.skipped_step_share"] = float64(skipped) / float64(forward)
		}
	}
	m["core.ckpt_overhead_ratio"] = stepMS["ckpt"] / stepMS["bptt"]
	m["core.skipper_speedup_vs_ckpt"] = stepMS["ckpt"] / stepMS["skipper"]
}

// serveDone turns the serve blocks into the serving metrics.
func (r *runState) serveDone() {
	res, out := &r.served, r.out
	out.Attempted += res.Requests + res.ClosedOK + res.ClosedBad + len(res.Direct.LatenessMS)
	out.Failed += res.Failed + res.ClosedBad + res.Direct.Failed
	out.Problems = append(out.Problems, checkServing(res)...)
	out.raw["infer_block_ms_p50"], out.raw["infer_block_rps"] = res.P50, res.Rates
	out.raw["infer_latency_ms"] = res.LatencyMS
	out.Metrics["infer_latency_ms_p50"] = quietTime(res.P50)
	out.Metrics["infer_saturation_rps"] = quietRate(res.Rates)
	out.Counts["infer_latency_ms_p50"] = len(res.LatencyMS)
	out.Counts["infer_saturation_rps"] = res.ClosedOK
	out.pooled("infer_latency", res.LatencyMS)
	late := sorted(res.LatenessMS)
	out.Extra["infer_generator_lateness_ms_p50"] = percentile(late, 50)
	out.Extra["infer_generator_lateness_ms_max"] = late[len(late)-1]
	if !r.traced {
		return
	}

	m := out.Layers
	m["serve.queue_wait_ms_p50"] = 1e3 * res.Replica.histQuantile("skipper_serve_queue_wait_seconds", 0.5)
	m["serve.batch_execute_ms_p50"] = 1e3 * res.Replica.histQuantile("skipper_serve_batch_execute_seconds", 0.5)
	m["serve.batch_size_mean"] = res.Replica.histMean("skipper_serve_batch_size")
	saved, ran := res.Replica["skipper_serve_batch_timesteps_saved_total"], res.Replica["skipper_serve_batch_timesteps_total"]
	m["serve.steps_saved_share"] = saved / (saved + ran)
	m["serve.rejected"] = res.Replica.sumPrefix("skipper_serve_queue_rejected_total")
	m["serve.direct_latency_ms_p50"] = median(res.Direct.LatencyMS)
	m["router.hop_ms_p50"] = median(res.LatencyMS) - m["serve.direct_latency_ms_p50"]
	m["router.mux_share"] = 1 - res.Router["skipper_router_http_fallback_total"]/res.Router.sumPrefix("skipper_router_requests_total")
	m["router.retries"] = res.Router["skipper_router_failover_total"]
	probeFrame(r.fleet.prefix[0], r.rec, m)
}

// streamDone migrates one session, replays one with skipping disabled and
// turns the stream blocks into the streaming metrics.
func (r *runState) streamDone() error {
	s, res, out := r.sessions, &r.streamed, r.out
	if err := s.finish(res); err != nil {
		return err
	}
	out.Attempted += res.Windows + res.ClosedOK + res.ClosedBad
	out.Failed += res.Failed + res.ClosedBad
	out.Problems = append(out.Problems, checkStreaming(res, s.skipped)...)
	out.raw["stream_block_ms_p50"], out.raw["stream_block_ms_p99"], out.raw["stream_block_wps"] = res.P50, res.P99, res.Rates
	out.raw["stream_window_ms"] = res.LatencyMS
	out.Metrics["stream_window_ms_p50"] = quietTime(res.P50)
	out.Metrics["stream_window_ms_p99"] = quietTime(res.P99)
	out.Metrics["stream_windows_per_s"] = quietRate(res.Rates)
	out.Counts["stream_window_ms_p50"], out.Counts["stream_window_ms_p99"] = len(res.LatencyMS), len(res.LatencyMS)
	out.Counts["stream_windows_per_s"] = res.ClosedOK
	out.pooled("stream_window", res.LatencyMS)
	late := sorted(res.LatenessMS)
	out.Extra["stream_generator_lateness_ms_p50"] = percentile(late, 50)
	out.Extra["stream_generator_lateness_ms_max"] = late[len(late)-1]
	out.Extra["stream_windows_replayed"] = float64(res.Replayed)
	if !r.traced {
		return nil
	}

	m := out.Layers
	var byKind [numKinds][]float64
	for i, kind := range res.Kinds {
		byKind[kind] = append(byKind[kind], res.LatencyMS[i])
	}
	m["stream.quiet_window_ms_p50"] = median(byKind[kindQuiet])
	m["stream.full_window_ms_p50"] = median(byKind[kindFull])
	m["stream.snapshot_window_ms_p50"] = median(byKind[kindSnapshot])
	m["stream.skipped_window_share"] = float64(s.skipped) / float64(s.sent)
	m["stream.export_import_ms"] = res.MigrateMS
	return nil
}

// pooled fills in what the issue's definitions give on all the open-loop
// samples of the run pooled, stalls and slow stretches included: the median,
// the p99 with the count of samples beyond it, and the highest percentile
// that has at least ten samples beyond it.
func (o *runOutput) pooled(series string, ms []float64) {
	asc := sorted(ms)
	o.Extra[series+"_pooled_ms_p50"] = percentile(asc, 50)
	o.Extra[series+"_pooled_ms_p99"] = percentile(asc, 99)
	o.Extra[series+"_pooled_p99_samples_beyond"] = float64(samplesBeyond(len(asc), 99))
	if p := supportedTail(len(asc)); p != 99 {
		o.Extra[fmt.Sprintf("%s_pooled_ms_p%g", series, p)] = percentile(asc, p)
	}
}

// runTraced runs the workload twice at the given sizes, untraced and then
// traced; the drop in the owned segment's throughput is the tracing overhead
// that bounds how far the per-layer table can be trusted.
func runTraced(cfg runConfig, w io.Writer) (*runOutput, error) {
	plain, err := runOnce(cfg, false)
	if err != nil {
		return nil, err
	}
	out, err := runOnce(cfg, true)
	if err != nil {
		return nil, err
	}
	primary := cfg.WL.primary()
	out.Layers["trace.overhead_share"] = (plain.Metrics[primary] - out.Metrics[primary]) / plain.Metrics[primary]
	out.Layers["infer_latency_ms_p99"] = plain.Extra["infer_latency_pooled_ms_p99"]
	out.Attempted += plain.Attempted
	out.Failed += plain.Failed
	out.Problems = append(out.Problems, plain.Problems...)

	fmt.Fprintf(w, "\nlayer table (%s, traced pass):\n", cfg.WL.Name)
	printLayerTable(w, selfTimes(out.spans))
	path := filepath.Join(outDir, "trace-"+cfg.WL.Name+".json")
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := writeChromeTrace(f, out.spans); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "spans written to %s\n", path)
	return out, nil
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (o *runOutput) line(traced bool) resultLine {
	specs, values := endToEnd, o.Metrics
	if traced {
		specs, values = perLayer, o.Layers
	}
	l := resultLine{Correct: len(o.Problems) == 0, Attempted: o.Attempted, Failed: o.Failed, Metrics: map[string]metricValue{}}
	for _, s := range specs {
		v, ok := values[s.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			l.Correct = false
			o.Problems = append(o.Problems, fmt.Sprintf("metric %s was not measured (%v)", s.Name, v))
			v = 0
		}
		l.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	return l
}

func printMetrics(w io.Writer, o *runOutput, traced bool) {
	specs, values := endToEnd, o.Metrics
	if traced {
		specs, values = perLayer, o.Layers
	}
	fmt.Fprintf(w, "\n%s (seed %d):\n", o.Workload, o.Seed)
	for _, s := range specs {
		note := ""
		if n, ok := o.Counts[s.Name]; ok {
			note = fmt.Sprintf("  n=%d", n)
		}
		fmt.Fprintf(w, "  %-36s %16.6g %-10s%s\n", s.Name, values[s.Name], s.Unit, note)
	}
	keys := make([]string, 0, len(o.Extra))
	for k := range o.Extra {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-36s %16.6g\n", k, o.Extra[k])
	}
	for _, k := range strategyOrder {
		fmt.Fprintf(w, "  weight hash, %-8s %s\n", k, o.Hashes[k])
	}
	fmt.Fprintf(w, "  rounds %d, attempted %d, failed %d\n", o.Rounds, o.Attempted, o.Failed)
	for _, p := range o.Problems {
		fmt.Fprintf(w, "  INCORRECT: %s\n", p)
	}
}

// stamp describes the machine and build a run came from.
type stamp struct {
	Cores      int          `json:"cores"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	GoVersion  string       `json:"go_version"`
	Commit     string       `json:"commit"`
	Seed       int64        `json:"seed"`
	Seconds    float64      `json:"seconds"`
	Traced     bool         `json:"traced"`
	Unix       int64        `json:"unix"`
	Runs       []*runOutput `json:"runs"`
}

func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// write stores the stamp and its runs as out/<kind>-<unix>.json.
func (st *stamp) write(w io.Writer, kind string) error {
	for _, o := range st.Runs {
		// JSON has no NaN; line() has already reported any as a problem.
		for _, m := range []map[string]float64{o.Metrics, o.Layers, o.Extra} {
			for k, v := range m {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					delete(m, k)
				}
			}
		}
	}
	raw, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, fmt.Sprintf("%s-%d.json", kind, st.Unix))
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nruns written to %s\n", path)
	return nil
}

// repeat is the calibration mode: the untraced set N times, a fresh seed each
// time; every run's values, then median, quartiles and spread per workload
// and metric.
func repeat(w io.Writer, st *stamp, cfgs []runConfig, n int) error {
	for _, cfg := range cfgs {
		series := map[string][]float64{}
		for i := 0; i < n; i++ {
			c := cfg
			c.Seed += int64(i)
			out, err := runOnce(c, false)
			if err != nil {
				return err
			}
			out.line(false)
			if len(out.Problems) > 0 {
				return fmt.Errorf("%s seed %d: %v", c.WL.Name, c.Seed, out.Problems)
			}
			st.Runs = append(st.Runs, out)
			fmt.Fprintf(w, "%s seed %d:", cfg.WL.Name, c.Seed)
			for _, s := range endToEnd {
				series[s.Name] = append(series[s.Name], out.Metrics[s.Name])
				fmt.Fprintf(w, " %s=%.6g", s.Name, out.Metrics[s.Name])
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "\n%s over %d runs:\n  %-28s %14s %14s %14s %10s %10s\n", cfg.WL.Name, n, "metric", "q1", "median", "q3", "iqr/med", "range/med")
		for _, s := range endToEnd {
			q1, q2, q3 := quartiles(series[s.Name])
			fmt.Fprintf(w, "  %-28s %14.6g %14.6g %14.6g %9.2f%% %9.2f%%\n", s.Name, q1, q2, q3, 100*iqrSpread(series[s.Name]), 100*maxRelSpread(series[s.Name]))
		}
		fmt.Fprintln(w)
	}
	return st.write(w, "repeat")
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all four)")
		seed    = flag.Int64("seed", 1, "workload seed: shapes the generated inputs only")
		seconds = flag.Float64("seconds", 25, "run length the counts are sized for: 40 gives the issue's counts, 25 or less its sample floors")
		trace   = flag.Int("trace", 0, "1: traced run, reports the per-layer metrics")
		reps    = flag.Int("repeat", 0, "calibration: run the untraced set N times and print the spread")
		raw     = flag.Bool("raw", false, "also write every timed sample to out/raw-<workload>-<seed>.json")
		smoke   = flag.Bool("smoke", false, "3 steps, 50 requests, 40 windows; exercises every workload and check")
	)
	flag.Parse()
	if err := run(os.Stdout, *name, *seed, *seconds, *trace == 1, *reps, *smoke, *raw); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, name string, seed int64, seconds float64, traced bool, reps int, smoke, raw bool) error {
	threads := runtime.NumCPU()
	runtime.GOMAXPROCS(threads)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	var cfgs []runConfig
	for _, wl := range workloads {
		if name != "" && name != wl.Name {
			continue
		}
		cfgs = append(cfgs, runConfig{WL: wl, Seed: seed, Plan: planFor(seconds, traced, smoke), Threads: threads})
	}
	if len(cfgs) == 0 {
		return fmt.Errorf("unknown workload %q", name)
	}
	st := &stamp{
		Cores: threads, GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: commit(),
		Seed: seed, Seconds: seconds, Traced: traced, Unix: time.Now().Unix(),
	}
	fmt.Fprintf(w, "cores %d  GOMAXPROCS %d  %s  commit %s  seed %d  seconds %g  traced %v\n",
		st.Cores, st.GOMAXPROCS, st.GoVersion, st.Commit, seed, seconds, traced)
	if reps > 0 {
		return repeat(w, st, cfgs, reps)
	}

	correct := true
	var lines []resultLine
	for _, cfg := range cfgs {
		var out *runOutput
		var err error
		if traced {
			out, err = runTraced(cfg, w)
		} else {
			out, err = runOnce(cfg, false)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", cfg.WL.Name, err)
		}
		if raw {
			b, _ := json.Marshal(out.raw)
			if err := os.WriteFile(filepath.Join(outDir, fmt.Sprintf("raw-%s-%d.json", cfg.WL.Name, cfg.Seed)), b, 0o644); err != nil {
				return err
			}
		}
		l := out.line(traced)
		printMetrics(w, out, traced)
		correct = correct && l.Correct
		lines = append(lines, l)
		st.Runs = append(st.Runs, out)
	}
	if err := st.write(w, "run"); err != nil {
		return err
	}
	for _, l := range lines {
		raw, err := json.Marshal(l)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\n", raw)
	}
	if !correct {
		return fmt.Errorf("a correctness check failed")
	}
	return nil
}
