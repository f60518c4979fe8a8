// Package bench regenerates every table and figure of the paper's
// evaluation section. Each experiment is registered under the paper's
// figure/table id and prints the same rows or series the paper plots, at a
// configurable scale (the Go substrate runs the full grid at reduced
// network width and horizon; the shapes — who wins, by what factor, where
// the crossovers fall — are the reproduction target). EXPERIMENTS.md records
// paper-vs-measured for each id.
package bench

import (
	"fmt"
	"io"
	"sort"
	"time"

	"skipper/internal/core"
	"skipper/internal/dataset"
	"skipper/internal/layers"
	"skipper/internal/mem"
	"skipper/internal/models"
)

// Scale selects how big the reproduction runs are.
type Scale int

const (
	// Tiny finishes each experiment in roughly a second — used by the
	// bench_test.go targets and CI.
	Tiny Scale = iota
	// Small is the CLI default: minutes for the full suite.
	Small
	// Full uses the paper's T and C values (width still scaled); budget
	// hours for the full suite on one core.
	Full
)

// ParseScale converts a flag string.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "tiny":
		return Tiny, nil
	case "", "small":
		return Small, nil
	case "full":
		return Full, nil
	default:
		return Tiny, fmt.Errorf("bench: unknown scale %q (tiny|small|full)", s)
	}
}

// String renders the scale name.
func (s Scale) String() string {
	switch s {
	case Tiny:
		return "tiny"
	case Small:
		return "small"
	default:
		return "full"
	}
}

// RunConfig parameterises an experiment run.
type RunConfig struct {
	Scale Scale
	Seed  uint64
}

func (c RunConfig) seed() uint64 {
	if c.Seed == 0 {
		return 1
	}
	return c.Seed
}

// Experiment is one reproducible paper artifact.
type Experiment struct {
	// ID is the paper's identifier, e.g. "fig7" or "table1".
	ID string
	// Title summarises what the paper shows there.
	Title string
	// Run executes the experiment, writing its rows to w.
	Run func(cfg RunConfig, w io.Writer) error
}

var registry = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("bench: duplicate experiment id " + e.ID)
	}
	registry[e.ID] = e
}

// Get returns a registered experiment.
func Get(id string) (Experiment, error) {
	e, ok := registry[id]
	if !ok {
		return Experiment{}, fmt.Errorf("bench: unknown experiment %q (have %v)", id, IDs())
	}
	return e, nil
}

// IDs lists the registered experiments in order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Workload is one of the paper's network+dataset pairs with
// scale-appropriate hyper-parameters satisfying the Sec. V-A and Eq. 7
// constraints.
type Workload struct {
	Model   string
	Data    string
	Width   float64
	Classes int
	T       int
	C       int
	P       float64 // skip percentile
	TrW     int     // TBPTT truncation window
	Batches []int   // batch-size sweep
}

// paperWorkloads mirrors Table I's configuration rows. T at Full scale is
// the paper's; smaller scales shrink T and re-derive C, p, trW from the
// constraints.
var paperWorkloads = map[string]struct {
	data         string
	fullT, fullC int
	fullP        float64
	fullTrW      int
	classes      int
}{
	"vgg5":      {data: "cifar10", fullT: 100, fullC: 4, fullP: 70, fullTrW: 25, classes: 10},
	"vgg11":     {data: "cifar100", fullT: 125, fullC: 5, fullP: 50, fullTrW: 25, classes: 20},
	"resnet20":  {data: "cifar10", fullT: 250, fullC: 5, fullP: 52, fullTrW: 50, classes: 10},
	"lenet":     {data: "dvsgesture", fullT: 400, fullC: 10, fullP: 70, fullTrW: 40, classes: 11},
	"customnet": {data: "nmnist", fullT: 300, fullC: 4, fullP: 70, fullTrW: 40, classes: 10},
	"alexnet":   {data: "cifar10", fullT: 50, fullC: 4, fullP: 40, fullTrW: 10, classes: 10},
}

// statefulCount builds the model once to read its L_n.
func statefulCount(model string, width float64, classes int, data string) (int, error) {
	net, err := models.Build(model, models.Options{Width: width, Classes: classes, InShape: inShapeFor(data)})
	if err != nil {
		return 0, err
	}
	return net.StatefulCount(), nil
}

// WorkloadFor derives the scale-adjusted workload for one of the paper's
// network+dataset pairs, guaranteeing T/C > L_n and p within the Eq. 7
// bound.
func WorkloadFor(model string, sc Scale) (Workload, error) {
	spec, ok := paperWorkloads[model]
	if !ok {
		return Workload{}, fmt.Errorf("bench: no paper workload for model %q", model)
	}
	w := Workload{Model: model, Data: spec.data, Classes: spec.classes, Width: 0.5}
	ln, err := statefulCount(model, w.Width, w.Classes, w.Data)
	if err != nil {
		return Workload{}, err
	}
	switch sc {
	case Tiny:
		w.T = 3 * ln
		w.Batches = []int{2, 4}
	case Small:
		w.T = 6 * ln
		w.Batches = []int{2, 4, 8}
	default:
		w.T = spec.fullT
		w.Batches = []int{4, 8, 16, 32}
	}
	if w.T <= ln {
		w.T = ln + 2
	}
	// Largest admissible C no bigger than the paper's choice.
	w.C = spec.fullC
	for w.C > 1 && w.T/w.C <= ln {
		w.C--
	}
	// Skip percentile: the paper's value when admissible, else 85% of the
	// Eq. 7 bound.
	maxP := core.MaxSkipPercent(w.T, w.C, ln)
	w.P = spec.fullP
	if w.P > maxP {
		w.P = float64(int(0.85 * maxP))
	}
	// Truncation window: the paper's at full scale, else about T/4 but
	// strictly above L_n.
	w.TrW = spec.fullTrW
	if sc != Full {
		w.TrW = w.T / 4
	}
	if w.TrW <= ln {
		w.TrW = ln + 1
	}
	if w.TrW > w.T {
		w.TrW = w.T
	}
	return w, nil
}

// buildNet constructs the workload's network with the input shape its
// dataset produces.
func (w Workload) buildNet() (*layers.Network, error) {
	return models.Build(w.Model, models.Options{Width: w.Width, Classes: w.Classes, InShape: inShapeFor(w.Data)})
}

// inShapeFor maps a dataset name to its spike-tensor shape.
func inShapeFor(data string) []int {
	switch data {
	case "dvsgesture", "nmnist":
		return []int{2, 16, 16}
	case "imagenet":
		return []int{3, 32, 32}
	default:
		return []int{3, 16, 16}
	}
}

// Measurement is one (strategy, batch) cell of a sweep.
type Measurement struct {
	Strategy     string
	T, B         int
	TimePerBatch time.Duration
	PeakReserved int64
	PeakTensors  int64
	PeakByCat    map[mem.Category]int64
	Stats        core.StepStats
	OOM          bool
}

// measureOpts tunes a measurement run.
type measureOpts struct {
	batches int // measured batches after one warm-up
	devCfg  mem.Config
	seed    uint64
}

// memActivationsCat aliases the activations category for runner tables.
const memActivationsCat = mem.Activations

// measure runs a strategy for a few batches on a fresh trainer and device,
// reporting time per batch and peak memory "after warm start" (peaks are
// reset after the first batch, as the paper does).
func (w Workload) measure(strat core.Strategy, B int, o measureOpts) (Measurement, error) {
	m := Measurement{Strategy: strat.Name(), T: w.T, B: B}
	net, err := w.buildNet()
	if err != nil {
		return m, err
	}
	data, err := dataset.Open(w.Data, o.seed)
	if err != nil {
		return m, err
	}
	dev := mem.NewDevice(o.devCfg)
	cfg := core.Config{T: w.T, Batch: B, Seed: o.seed, Device: dev}
	tr, err := core.NewTrainer(net, data, strat, cfg)
	if err != nil {
		return m, err
	}
	defer tr.Close()

	idx := dataset.Indices(data, dataset.Train, o.seed, 0, true)
	batches := dataset.Batches(idx, B)
	n := o.batches
	if n < 1 {
		n = 1
	}
	if len(batches) < n+1 {
		n = len(batches) - 1
	}
	// Warm-up batch, then reset peaks ("second iteration onwards").
	if _, err := tr.TrainBatchIndices(dataset.Train, batches[0]); err != nil {
		m.OOM = isOOM(err)
		return m, err
	}
	dev.ResetPeaks()
	start := time.Now()
	for i := 1; i <= n; i++ {
		st, err := tr.TrainBatchIndices(dataset.Train, batches[i])
		if err != nil {
			m.OOM = isOOM(err)
			return m, err
		}
		m.Stats.Add(st)
	}
	m.TimePerBatch = time.Since(start) / time.Duration(n)
	m.PeakReserved = dev.PeakReserved()
	m.PeakTensors = dev.PeakAllocated()
	m.PeakByCat = map[mem.Category]int64{}
	for _, c := range mem.Categories() {
		m.PeakByCat[c] = dev.PeakBy(c)
	}
	return m, nil
}

func isOOM(err error) bool {
	_, ok := err.(*mem.OOMError)
	if ok {
		return true
	}
	for err != nil {
		if err == mem.ErrOutOfMemory {
			return true
		}
		u, okU := err.(interface{ Unwrap() error })
		if !okU {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// header prints an experiment banner.
func header(w io.Writer, id, title string, wk ...Workload) {
	fmt.Fprintf(w, "== %s: %s ==\n", id, title)
	for _, x := range wk {
		fmt.Fprintf(w, "   workload: %s + %s  T=%d C=%d p=%.0f trW=%d width=%.2g\n",
			x.Model, x.Data, x.T, x.C, x.P, x.TrW, x.Width)
	}
}

// gib renders bytes as mem.FormatBytes.
func gib(n int64) string { return mem.FormatBytes(n) }

// openData opens a dataset by name (shared helper for ablation runners).
func openData(name string, seed uint64) (dataset.Source, error) {
	return dataset.Open(name, seed)
}
