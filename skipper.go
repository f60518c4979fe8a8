// Package skipper is a from-scratch Go reproduction of "Skipper: Enabling
// efficient SNN training through activation-checkpointing and time-skipping"
// (Singh et al., MICRO 2022).
//
// It trains deep spiking neural networks with BPTT and surrogate gradients
// and provides the paper's two techniques — temporal activation
// checkpointing and Skipper (checkpointing + spike-activity-guided
// time-skipping) — alongside the baselines they are evaluated against
// (plain BPTT, truncated BPTT, and TBPTT-LBP). Every device-resident tensor
// is tracked by an instrumented memory model, so the paper's memory and
// compute trade-offs are measurable on any machine.
//
// Quick start — a Runtime is the shared execution context (parallel compute
// pool, root seed, metrics sink); everything built on it shares one pool, and
// results are bit-identical at every thread count:
//
//	rt := skipper.NewRuntime(skipper.WithSeed(1))
//	defer rt.Close()
//	net, _ := rt.BuildModel("vgg5", skipper.ModelOptions{})
//	data, _ := rt.OpenDataset("cifar10")
//	tr, _ := rt.NewTrainer(net, data, skipper.Skipper{C: 4, P: 40},
//	    skipper.Config{T: 48, Batch: 8})
//	defer tr.Close()
//	stats, _ := tr.TrainEpoch()
//
// The package-level BuildModel/OpenDataset/NewTrainer still work — they run
// on the process-wide DefaultRuntime (all cores) unless a Config carries an
// explicit Runtime.
//
// The exported names are a facade over the internal packages; see DESIGN.md
// for the system inventory and EXPERIMENTS.md for the paper-vs-measured
// record.
package skipper

import (
	"io"

	"skipper/internal/core"
	"skipper/internal/dataset"
	"skipper/internal/layers"
	"skipper/internal/mem"
	"skipper/internal/models"
	"skipper/internal/serialize"
	"skipper/internal/snn"
	"skipper/internal/stats"
	"skipper/internal/trace"
)

// Execution runtime.
type (
	// Runtime is the shared execution context: the parallel compute pool
	// all kernels run on, the default metrics sink, and the root seed.
	// Trainers, data-parallel replicas, and the serving subsystem all draw
	// from one Runtime, so the process never oversubscribes the machine.
	// Thread count never changes results: kernels partition output elements
	// with lane-independent arithmetic, so a run is bit-identical at
	// threads=1 and threads=N.
	Runtime = core.Runtime
	// RuntimeOption is a functional option for NewRuntime.
	RuntimeOption = core.RuntimeOption
)

// NewRuntime builds the shared execution context. With no options it uses
// all cores, no metrics sink, and a zero seed. Close it to release the
// pool's worker goroutines.
func NewRuntime(opts ...RuntimeOption) *Runtime { return core.NewRuntime(opts...) }

// DefaultRuntime returns the lazily-created process-wide runtime that
// package-level constructors and zero Configs resolve to.
func DefaultRuntime() *Runtime { return core.DefaultRuntime() }

// WithThreads sets the compute-pool width (<= 0 = all cores, 1 = serial).
func WithThreads(n int) RuntimeOption { return core.WithThreads(n) }

// WithMetrics sets the epoch-metrics sink every trainer on the runtime
// writes one JSON line per epoch to.
func WithMetrics(w io.Writer) RuntimeOption { return core.WithMetrics(w) }

// WithSeed sets the root seed trainers and datasets inherit when no
// explicit seed is given.
func WithSeed(seed uint64) RuntimeOption { return core.WithSeed(seed) }

// Tracer is the low-overhead span/event recorder behind -trace: trainer
// phase spans, serve request lifecycles, pool lane counters, and device
// high-water events all record into one. A nil *Tracer is valid everywhere
// and free (allocation-free no-ops), mirroring the nil-pool convention.
type Tracer = trace.Tracer

// NewTracer builds a tracer bounded at maxEvents (<= 0 = the default cap);
// past the cap events are counted as dropped, not stored.
func NewTracer(maxEvents int) *Tracer { return trace.New(maxEvents) }

// WithTracer attaches a span recorder to the runtime; every component built
// on the runtime reports into it. Nil (the default) disables tracing at
// zero cost.
func WithTracer(t *Tracer) RuntimeOption { return core.WithTracer(t) }

// Training engine.
type (
	// Trainer orchestrates strategy-driven training with memory accounting.
	Trainer = core.Trainer
	// Config holds shared training hyper-parameters.
	Config = core.Config
	// Strategy is one training regime (BPTT, Checkpoint, Skipper, ...).
	Strategy = core.Strategy
	// StepStats reports what one batch did.
	StepStats = core.StepStats
	// EpochStats aggregates an epoch.
	EpochStats = core.EpochStats

	// BPTT is the fully-unrolled baseline.
	BPTT = core.BPTT
	// Checkpoint is temporal activation checkpointing (paper Sec. V).
	Checkpoint = core.Checkpoint
	// Skipper is checkpointing with SAM-guided time-skipping (Sec. VI).
	Skipper = core.Skipper
	// TBPTT is truncated backpropagation through time.
	TBPTT = core.TBPTT
	// TBPTTLBP is truncated BPTT with locally-supervised blocks [28].
	TBPTTLBP = core.TBPTTLBP
	// AdaptiveSkipper is Skipper with activity-aware checkpoint placement
	// (an extension beyond the paper's uniform placement).
	AdaptiveSkipper = core.AdaptiveSkipper

	// SAMMetric scores per-timestep activity for the Spike Activity Monitor.
	SAMMetric = core.SAMMetric
	// SpikeSum is the paper's default SAM metric (Eq. 4).
	SpikeSum = core.SpikeSum
	// WeightedSpikeSum normalises per-layer spike counts by neuron count.
	WeightedSpikeSum = core.WeightedSpikeSum
	// MembraneL2 monitors the membrane-potential norm instead of spikes.
	MembraneL2 = core.MembraneL2

	// DataParallel trains lock-step replicas with gradient all-reduce.
	DataParallel = core.DataParallel
	// PretrainConfig tunes hybrid-style pre-initialisation.
	PretrainConfig = core.PretrainConfig
)

// Device memory model.
type (
	// Device is the instrumented memory accountant standing in for a GPU.
	Device = mem.Device
	// DeviceConfig configures budget, context overhead, and swap.
	DeviceConfig = mem.Config
	// MemCategory tags an allocation's purpose.
	MemCategory = mem.Category
)

// Model building.
type (
	// ModelOptions configures a topology build.
	ModelOptions = models.Options
	// Network is a built spiking network.
	Network = layers.Network
	// NeuronParams are the LIF constants (leak λ, threshold θ).
	NeuronParams = snn.Params
)

// Datasets.
type (
	// Dataset produces spike-train mini-batches.
	Dataset = dataset.Source
	// Split selects train or test data.
	Split = dataset.Split
)

// Memory categories (the paper's breakdown legend).
const (
	MemActivations = mem.Activations
	MemInput       = mem.Input
	MemWeights     = mem.Weights
	MemWeightGrads = mem.WeightGrads
	MemOptimizer   = mem.Optimizer
	MemWorkspace   = mem.Workspace
	MemOther       = mem.Other
)

// Dataset splits.
const (
	TrainSplit = dataset.Train
	TestSplit  = dataset.Test
)

// NewTrainer wires a network, dataset, and strategy together. Close the
// returned trainer to release its device memory. When cfg.Runtime is nil the
// trainer runs on DefaultRuntime's pool; prefer rt.NewTrainer to pin one.
func NewTrainer(net *Network, data Dataset, strat Strategy, cfg Config) (*Trainer, error) {
	return core.NewTrainer(net, data, strat, cfg)
}

// BuildModel constructs one of the paper's topologies by name: "vgg5",
// "vgg11", "resnet20", "lenet", "customnet", "alexnet", or "resnet34".
// The network's kernels run on DefaultRuntime's pool; prefer rt.BuildModel
// to pin a specific Runtime.
func BuildModel(name string, opts ModelOptions) (*Network, error) {
	return DefaultRuntime().BuildModel(name, opts)
}

// ModelNames lists the available topologies.
func ModelNames() []string { return models.Names() }

// OpenDataset opens a synthetic dataset by name: "cifar10", "cifar100",
// "dvsgesture", "nmnist", or "imagenet".
func OpenDataset(name string, seed uint64) (Dataset, error) {
	return dataset.Open(name, seed)
}

// DatasetNames lists the available datasets.
func DatasetNames() []string { return dataset.Names() }

// ErrOutOfMemory is returned (wrapped) when an allocation exceeds a
// device's budget; detect it with errors.Is.
var ErrOutOfMemory = mem.ErrOutOfMemory

// NewDevice creates a memory-accounting device. The zero config is an
// unlimited device.
func NewDevice(cfg DeviceConfig) *Device { return mem.NewDevice(cfg) }

// FormatBytes renders a byte count with binary units.
func FormatBytes(n int64) string { return mem.FormatBytes(n) }

// Pretrain brings a network to a non-random initialisation (the hybrid
// training protocol's fast-convergence starting point).
func Pretrain(net *Network, data Dataset, cfg PretrainConfig) error {
	return core.Pretrain(net, data, cfg)
}

// NewDataParallel builds synchronised training replicas.
func NewDataParallel(r int, factory func(replica int) (*Trainer, error)) (*DataParallel, error) {
	return core.NewDataParallel(r, factory)
}

// MaxSkipPercent returns the Eq. 7 bound on Skipper's skip percentile for a
// horizon T, checkpoint count C, and stateful-layer count Ln.
func MaxSkipPercent(T, C, Ln int) float64 { return core.MaxSkipPercent(T, C, Ln) }

// BestCheckpointCount returns the admissible C closest to the Eq. 3
// optimum √T for a horizon T and stateful-layer count Ln.
func BestCheckpointCount(T, Ln int) (int, error) { return core.BestCheckpointCount(T, Ln) }

// FitOptions tunes Trainer.Fit (epochs, early-stopping patience, callbacks).
type FitOptions = core.FitOptions

// FitResult reports a Trainer.Fit run.
type FitResult = core.FitResult

// Plan is AutoTune's strategy recommendation.
type Plan = core.Plan

// Confusion is a class-by-class confusion matrix (see
// Trainer.EvaluateConfusion).
type Confusion = stats.Confusion

// AutoTune picks the least approximate strategy (BPTT → Checkpoint →
// Skipper) predicted to fit the given device budget, applying the paper's
// Sec. V-A constraint and Eq. 7 bound.
func AutoTune(net *Network, inputShape []int, cfg Config, budget int64) (Plan, error) {
	return core.AutoTune(net, inputShape, cfg, budget)
}

// SaveWeights writes the network's parameters to path (atomic, checksummed).
func SaveWeights(path string, net *Network) error { return serialize.SaveFile(path, net) }

// LoadWeights restores parameters saved by SaveWeights into a network of
// the same topology.
func LoadWeights(path string, net *Network) error { return serialize.LoadFile(path, net) }
