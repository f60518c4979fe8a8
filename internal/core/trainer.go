package core

import (
	"encoding/json"
	"fmt"
	"time"

	"skipper/internal/dataset"
	"skipper/internal/layers"
	"skipper/internal/mem"
	"skipper/internal/opt"
	"skipper/internal/stats"
	"skipper/internal/tensor"
	"skipper/internal/trace"
)

// StepStats reports what one training batch did.
type StepStats struct {
	Loss    float64
	Correct int
	N       int

	// ForwardSteps counts first-pass timesteps, RecomputedSteps the
	// second-pass (checkpoint replay) timesteps, SkippedSteps the timesteps
	// Skipper dropped, and BackwardSteps the timesteps the δ recursion
	// visited. QuietSteps counts the first-pass and replay timesteps whose
	// input was zero for the whole batch, on a stack the leak-only step
	// covers (layers.Network.QuietCovered): the walk's kernels turn each such
	// image into a bias add, so the step costs a leak. It is the share of the
	// workload that has the property; a counter only, nothing reads it to
	// decide anything.
	ForwardSteps    int
	RecomputedSteps int
	SkippedSteps    int
	BackwardSteps   int
	QuietSteps      int

	ForwardTime   time.Duration
	RecomputeTime time.Duration
	BackwardTime  time.Duration

	// GradNorm is the pre-clip global gradient L2 norm of the optimizer
	// step (the divergence guard's explosion signal). Aggregation keeps
	// the maximum.
	GradNorm float64
}

// Add folds another batch's stats in.
func (s *StepStats) Add(o StepStats) {
	s.Loss += o.Loss
	s.Correct += o.Correct
	s.N += o.N
	s.ForwardSteps += o.ForwardSteps
	s.RecomputedSteps += o.RecomputedSteps
	s.SkippedSteps += o.SkippedSteps
	s.BackwardSteps += o.BackwardSteps
	s.QuietSteps += o.QuietSteps
	s.ForwardTime += o.ForwardTime
	s.RecomputeTime += o.RecomputeTime
	s.BackwardTime += o.BackwardTime
	if o.GradNorm > s.GradNorm {
		s.GradNorm = o.GradNorm
	}
}

// EpochStats aggregates one epoch (or a capped batch run).
type EpochStats struct {
	StepStats
	Batches  int
	Duration time.Duration
	// Divergences counts the guard events (NaN/Inf loss or gradient
	// explosion followed by rollback + LR halving) observed this epoch.
	Divergences int
}

// Accuracy returns the epoch's training accuracy in [0,1].
func (e EpochStats) Accuracy() float64 {
	if e.N == 0 {
		return 0
	}
	return float64(e.Correct) / float64(e.N)
}

// MeanLoss returns the mean per-batch loss.
func (e EpochStats) MeanLoss() float64 {
	if e.Batches == 0 {
		return 0
	}
	return e.Loss / float64(e.Batches)
}

// Strategy is one training regime: how the forward graph is stored,
// recomputed, and walked backward for a single batch. Implementations leave
// parameter gradients accumulated on the network.
type Strategy interface {
	// Name identifies the strategy for reports ("bptt", "ckpt", ...).
	Name() string
	// Validate rejects configurations that violate the strategy's boundary
	// conditions for the given network.
	Validate(cfg Config, net *layers.Network) error
	// TrainBatch consumes a T-step input spike train and labels.
	TrainBatch(tr *Trainer, input []*tensor.Tensor, labels []int) (StepStats, error)
}

// Trainer orchestrates epochs of strategy-driven training with full device
// memory accounting.
type Trainer struct {
	Net   *layers.Network
	Data  dataset.Source
	Strat Strategy
	Cfg   Config
	Opt   opt.Optimizer
	Dev   *mem.Device

	persistent []*mem.Block
	iteration  int
	epoch      int
	closed     bool

	// lossDenom, when > 0, replaces the local batch size as the loss-mean
	// denominator — a data-parallel shard divides by the global batch size
	// so plain rank-ordered summation of shard gradients reproduces the
	// serial full-batch mean (see ShardGrads). 0 outside shard computation.
	lossDenom int

	// lrScale is the divergence guard's cumulative learning-rate reduction
	// (1 = untouched); it survives checkpoint/resume via the manifest.
	lrScale float32
	// divLog records every divergence-guard event for telemetry and the
	// run-state manifest.
	divLog []DivergenceEvent
	// lastGood is the in-memory rollback point the guard restores to.
	lastGood *goodState
}

// NewTrainer wires a network, dataset, and strategy together, charging the
// persistent tensors (weights, gradients, optimizer state, kernel
// workspace) to the device.
func NewTrainer(net *layers.Network, data dataset.Source, strat Strategy, cfg Config) (*Trainer, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := strat.Validate(cfg, net); err != nil {
		return nil, err
	}
	optimizer, err := opt.New(cfg.Optimizer, net.Params(), cfg.LR)
	if err != nil {
		return nil, err
	}
	tr := &Trainer{Net: net, Data: data, Strat: strat, Cfg: cfg, Opt: optimizer, Dev: cfg.Device, lrScale: 1}
	// Every layer kernel runs on the runtime's shared pool from here on.
	// Pool size never changes results (see internal/parallel), so this does
	// not interact with seeding or resume determinism.
	net.SetPool(cfg.Runtime.Pool())
	// The device reports reserved-memory high-water marks into the runtime's
	// tracer (a no-op when tracing is off).
	tr.Dev.SetTracer(cfg.Runtime.Tracer())

	charge := func(cat mem.Category, n int64) error {
		if n <= 0 {
			return nil
		}
		b, err := tr.Dev.Alloc(cat, n)
		if err != nil {
			return err
		}
		tr.persistent = append(tr.persistent, b)
		return nil
	}
	pb := net.ParamBytes()
	if err := charge(mem.Weights, pb); err != nil {
		return nil, fmt.Errorf("core: charging weights: %w", err)
	}
	if err := charge(mem.WeightGrads, pb); err != nil {
		return nil, fmt.Errorf("core: charging weight gradients: %w", err)
	}
	// Optimizer state plus the non-trainable neuron constants.
	if err := charge(mem.Optimizer, optimizer.StateBytes()+256); err != nil {
		return nil, fmt.Errorf("core: charging optimizer state: %w", err)
	}
	if err := charge(mem.Workspace, net.WorkspaceBytes(cfg.Batch)); err != nil {
		return nil, fmt.Errorf("core: charging workspace: %w", err)
	}
	return tr, nil
}

// Close releases the trainer's persistent device memory, and the strategy's
// if it holds any (TBPTTLBP's auxiliary classifiers). Safe to call more than
// once.
func (tr *Trainer) Close() {
	if tr.closed {
		return
	}
	tr.closed = true
	for _, b := range tr.persistent {
		b.Release()
	}
	tr.persistent = nil
	if c, ok := tr.Strat.(interface{ Close() }); ok {
		c.Close()
	}
}

// tracer returns the runtime's span recorder; nil (tracing off) is valid and
// free to record into.
func (tr *Trainer) tracer() *trace.Tracer { return tr.Cfg.Runtime.Tracer() }

// phaseDone closes one timed training phase: the elapsed time folds into the
// StepStats duration field AND is recorded as a trace span with the exact
// same boundaries, which is what lets per-phase span sums reconcile with the
// EpochStats wall-clock timings.
func (tr *Trainer) phaseDone(dst *time.Duration, name string, start time.Time, attrs ...trace.Attr) {
	d := time.Since(start)
	*dst += d
	tr.tracer().SpanAt(trace.TrackTrain, name, start, d, attrs...)
}

// rngFor derives the deterministic stream for a purpose and the current
// iteration.
func (tr *Trainer) rngFor(purpose uint64) *tensor.RNG {
	return tensor.NewRNG(tensor.DeriveSeed(tr.Cfg.Seed, purpose, uint64(tr.iteration)))
}

// inputBytes is the device footprint of a T-step input train plus labels.
func (tr *Trainer) inputBytes(input []*tensor.Tensor, labels []int) int64 {
	var n int64
	for _, st := range input {
		n += st.Bytes()
	}
	return n + int64(len(labels))*8
}

// TrainBatchIndices runs one optimization step on the given sample indices.
// With Cfg.MicroBatch set, the batch is processed in micro-batches whose
// gradients accumulate before the single optimizer step (gradient
// accumulation), bounding the live activation footprint by the micro-batch
// size.
//
// Every micro-batch takes its loss mean over the full batch (lossDenom), so
// the accumulated gradient is the exact full-batch mean even when the last
// micro-batch is short — the old trailing 1/k rescale over-weighted a ragged
// remainder. Each micro-batch after the first computes into freshly zeroed
// gradients that are then folded into an accumulator with a single add per
// tensor: the same copy-first-then-add order ReduceGrads uses, which is what
// makes a MicroBatch=1 serial run bit-identical to a data-parallel run with
// one-sample shards (see ShardGrads).
func (tr *Trainer) TrainBatchIndices(split dataset.Split, indices []int) (StepStats, error) {
	tr.iteration++
	tr.Net.BeginIteration(tr.rngFor(0xD0))
	defer tr.Net.EndIteration()
	tr.Net.ZeroGrads()

	micro := tr.Cfg.MicroBatch
	if micro <= 0 || micro >= len(indices) {
		micro = len(indices)
	}
	tr.lossDenom = len(indices)
	defer func() { tr.lossDenom = 0 }()

	multi := micro < len(indices)
	var acc []*tensor.Tensor
	if multi {
		accBlock, err := tr.Dev.Alloc(mem.WeightGrads, tr.Net.ParamBytes())
		if err != nil {
			return StepStats{}, fmt.Errorf("core: charging gradient accumulator: %w", err)
		}
		defer accBlock.Release()
	}
	var total StepStats
	for start := 0; start < len(indices); start += micro {
		end := start + micro
		if end > len(indices) {
			end = len(indices)
		}
		if start > 0 {
			tr.Net.ZeroGrads()
		}
		encStart := time.Now()
		input, labels := tr.Data.SpikeBatch(split, indices[start:end], tr.Cfg.T)
		tr.tracer().SpanAt(trace.TrackTrain, "encode", encStart, time.Since(encStart),
			trace.Attr{Key: "n", Val: int64(end - start)})
		inBlock, err := tr.Dev.Alloc(mem.Input, tr.inputBytes(input, labels))
		if err != nil {
			return total, fmt.Errorf("core: charging input: %w", err)
		}
		st, err := tr.Strat.TrainBatch(tr, input, labels)
		inBlock.Release()
		if err != nil {
			return total, err
		}
		total.Add(st)
		if multi {
			if start == 0 {
				for _, p := range tr.Net.Params() {
					acc = append(acc, p.G.Clone())
				}
			} else {
				for j, p := range tr.Net.Params() {
					tensor.AXPY(acc[j], 1, p.G)
				}
			}
		}
	}
	if multi {
		for j, p := range tr.Net.Params() {
			tensor.Copy(p.G, acc[j])
		}
	}
	stepStart := time.Now()
	total.GradNorm = float64(opt.GradClip(tr.Net.Params(), tr.Cfg.GradClip))
	tr.Opt.Step()
	tr.tracer().SpanAt(trace.TrackTrain, "opt_step", stepStart, time.Since(stepStart))
	return total, nil
}

// TrainEpoch runs one shuffled pass over the training split (optionally
// capped at Cfg.MaxBatchesPerEpoch batches) and returns the aggregate stats.
func (tr *Trainer) TrainEpoch() (EpochStats, error) {
	tr.epoch++
	return tr.trainEpochFrom(0, EpochStats{})
}

// ResumeEpoch continues an interrupted epoch from a batch cursor with the
// partial aggregate restored — the crash-resume entry point. The trainer
// must be positioned with SetCursor first; ResumeEpoch advances into the
// epoch the cursor names, exactly as TrainEpoch would have.
func (tr *Trainer) ResumeEpoch(startBatch int, partial EpochStats) (EpochStats, error) {
	tr.epoch++
	return tr.trainEpochFrom(startBatch, partial)
}

// trainEpochFrom is the guarded epoch loop shared by TrainEpoch and
// ResumeEpoch: it walks the deterministic batch sequence from startBatch,
// marks restorable good states on the snapshot cadence, and rolls back on
// divergence.
func (tr *Trainer) trainEpochFrom(startBatch int, partial EpochStats) (EpochStats, error) {
	if err := tr.applyEpochLR(); err != nil {
		return EpochStats{}, err
	}
	idx := dataset.Indices(tr.Data, dataset.Train, tr.Cfg.Seed, tr.epoch, true)
	batches := dataset.Batches(idx, tr.Cfg.Batch)
	if tr.Cfg.MaxBatchesPerEpoch > 0 && len(batches) > tr.Cfg.MaxBatchesPerEpoch {
		batches = batches[:tr.Cfg.MaxBatchesPerEpoch]
	}
	if startBatch < 0 || startBatch > len(batches) {
		return EpochStats{}, fmt.Errorf("core: resume batch %d outside epoch of %d batches", startBatch, len(batches))
	}
	ep := partial
	start := time.Now()
	if err := tr.markGood(startBatch, ep); err != nil {
		return ep, err
	}
	for i := startBatch; i < len(batches); {
		st, err := tr.TrainBatchIndices(dataset.Train, batches[i])
		if err != nil {
			return ep, err
		}
		if reason := tr.guardTrip(st); reason != "" {
			back, restored, rerr := tr.divergenceRollback(i, st, reason)
			if rerr != nil {
				return ep, rerr
			}
			// The rollback resets the aggregate to the good state's, but
			// the event itself must stay visible in the epoch's stats.
			restored.Divergences = ep.Divergences + 1
			i, ep = back, restored
			continue
		}
		ep.StepStats.Add(st)
		ep.Batches++
		i++
		if k := tr.Cfg.SnapshotEvery; k > 0 && i < len(batches) && i%k == 0 {
			if err := tr.markGood(i, ep); err != nil {
				return ep, err
			}
		}
	}
	ep.Duration += time.Since(start)
	// The epoch-boundary mark: a resumed run restarts at the next epoch.
	if err := tr.markEpochDone(ep); err != nil {
		return ep, err
	}
	if tr.Cfg.Metrics != nil {
		if err := tr.emitMetrics(ep); err != nil {
			return ep, err
		}
	}
	return ep, nil
}

// epochMetrics is the JSON schema of one telemetry line.
type epochMetrics struct {
	Epoch           int     `json:"epoch"`
	Strategy        string  `json:"strategy"`
	Loss            float64 `json:"loss"`
	TrainAccuracy   float64 `json:"train_accuracy"`
	Batches         int     `json:"batches"`
	Samples         int     `json:"samples"`
	SkippedSteps    int     `json:"skipped_steps"`
	RecomputedSteps int     `json:"recomputed_steps"`
	ForwardMs       int64   `json:"forward_ms"`
	RecomputeMs     int64   `json:"recompute_ms"`
	BackwardMs      int64   `json:"backward_ms"`
	DurationMs      int64   `json:"duration_ms"`
	PeakReserved    int64   `json:"peak_reserved_bytes"`
	PeakActivations int64   `json:"peak_activation_bytes"`
	Divergences     int     `json:"divergences"`
	LRScale         float64 `json:"lr_scale"`
	Threads         int     `json:"threads"`
}

// emitMetrics writes one JSON line describing the epoch to Cfg.Metrics.
func (tr *Trainer) emitMetrics(ep EpochStats) error {
	m := epochMetrics{
		Epoch:           tr.epoch,
		Strategy:        tr.Strat.Name(),
		Loss:            ep.MeanLoss(),
		TrainAccuracy:   ep.Accuracy(),
		Batches:         ep.Batches,
		Samples:         ep.N,
		SkippedSteps:    ep.SkippedSteps,
		RecomputedSteps: ep.RecomputedSteps,
		ForwardMs:       ep.ForwardTime.Milliseconds(),
		RecomputeMs:     ep.RecomputeTime.Milliseconds(),
		BackwardMs:      ep.BackwardTime.Milliseconds(),
		DurationMs:      ep.Duration.Milliseconds(),
		PeakReserved:    tr.Dev.PeakReserved(),
		PeakActivations: tr.Dev.PeakBy(mem.Activations),
		Divergences:     ep.Divergences,
		LRScale:         float64(tr.lrScale),
		Threads:         tr.Cfg.Runtime.Threads(),
	}
	enc := json.NewEncoder(tr.Cfg.Metrics)
	if err := enc.Encode(m); err != nil {
		return fmt.Errorf("core: writing metrics: %w", err)
	}
	return nil
}

// Evaluate runs a forward-only pass over the test split (capped at
// maxBatches when > 0) and returns mean loss and accuracy.
func (tr *Trainer) Evaluate(maxBatches int) (loss float64, acc float64, err error) {
	var lossSum float64
	var correct, total int
	batches, err := tr.evalBatches(maxBatches, func(logits *tensor.Tensor, labels []int) {
		l, c := tensor.CrossEntropy(logits, labels, nil)
		lossSum += l
		correct += c
		total += len(labels)
	})
	if err != nil || batches == 0 {
		return 0, 0, err
	}
	return lossSum / float64(batches), float64(correct) / float64(total), nil
}

// EvaluateConfusion runs a forward-only pass over the test split (capped at
// maxBatches when > 0) and returns the full confusion matrix.
func (tr *Trainer) EvaluateConfusion(maxBatches int) (*stats.Confusion, error) {
	conf := stats.NewConfusion(tr.Net.OutShape()[0])
	_, err := tr.evalBatches(maxBatches, func(logits *tensor.Tensor, labels []int) {
		preds := tensor.Argmax(logits)
		for i, y := range labels {
			conf.Add(y, preds[i])
		}
	})
	if err != nil {
		return nil, err
	}
	return conf, nil
}

// evalBatches is the forward-only loop over the test split (capped at
// maxBatches when > 0): each batch's input is charged to the device while
// it runs, and its final-step logits and labels are handed to visit. It
// returns the number of batches visited.
func (tr *Trainer) evalBatches(maxBatches int, visit func(logits *tensor.Tensor, labels []int)) (int, error) {
	idx := dataset.Indices(tr.Data, dataset.Test, tr.Cfg.Seed, 0, false)
	batches := dataset.Batches(idx, tr.Cfg.Batch)
	if maxBatches > 0 && len(batches) > maxBatches {
		batches = batches[:maxBatches]
	}
	for _, b := range batches {
		input, labels := tr.Data.SpikeBatch(dataset.Test, b, tr.Cfg.T)
		inBlock, err := tr.Dev.Alloc(mem.Input, tr.inputBytes(input, labels))
		if err != nil {
			return 0, fmt.Errorf("core: charging eval input: %w", err)
		}
		logits, err := tr.forwardOnly(input)
		inBlock.Release()
		if err != nil {
			return 0, err
		}
		visit(logits, labels)
	}
	return len(batches), nil
}

// forwardOnly runs inference keeping only the rolling state (two records
// live at once), charging the transient footprint to the device.
func (tr *Trainer) forwardOnly(input []*tensor.Tensor) (*tensor.Tensor, error) {
	var states []*layers.LayerState
	var prevBlock *mem.Block
	for t := 0; t < len(input); t++ {
		states = tr.Net.ForwardStep(input[t], states)
		b, err := tr.Dev.Alloc(mem.Activations, stateBytes(states))
		if err != nil {
			prevBlock.Release()
			return nil, fmt.Errorf("core: eval forward t=%d: %w", t, err)
		}
		prevBlock.Release()
		prevBlock = b
	}
	logits := tr.Net.Logits(states).Clone()
	prevBlock.Release()
	return logits, nil
}

// stateBytes sums one timestep's record footprint.
func stateBytes(states []*layers.LayerState) int64 {
	var n int64
	for _, st := range states {
		n += st.Bytes()
	}
	return n
}

// recordStore charges and tracks stored timestep records. Records put
// packed hold bit-packed spike tensors and materialise lazily on the first
// get.
type recordStore struct {
	dev     *mem.Device
	records map[int]*record
}

// record is one stored timestep: its device charge and its states, which a
// record put packed only materialises from the packed copy when first read.
type record struct {
	block  *mem.Block
	states []*layers.LayerState
	packed []*packedState
}

// newRecordStore returns the trainer's record store.
func (tr *Trainer) newRecordStore() *recordStore {
	return &recordStore{dev: tr.Dev, records: map[int]*record{}}
}

// put charges and retains the record for timestep t — as given, or as a
// spike-compressed copy when packed.
func (rs *recordStore) put(t int, states []*layers.LayerState, packed bool) error {
	r := &record{states: states}
	bytes := stateBytes(states)
	if packed {
		r.states = nil
		r.packed, bytes = packStates(states)
	}
	var err error
	if r.block, err = rs.dev.Alloc(mem.Activations, bytes); err != nil {
		return err
	}
	rs.records[t] = r
	return nil
}

// get returns the record for timestep t (nil if absent), materialising a
// packed record on first access.
func (rs *recordStore) get(t int) []*layers.LayerState {
	r := rs.records[t]
	if r == nil {
		return nil
	}
	if r.states == nil {
		r.states = unpackStates(r.packed)
	}
	return r.states
}

// drop releases the record for timestep t.
func (rs *recordStore) drop(t int) {
	if r := rs.records[t]; r != nil {
		r.block.Release()
		delete(rs.records, t)
	}
}

// dropAll releases every stored record.
func (rs *recordStore) dropAll() {
	for t := range rs.records {
		rs.drop(t)
	}
}

// lossGrad computes cross-entropy loss, correct count, and ∂L/∂logits. A
// denom > 0 overrides the mean denominator (data-parallel shards pass the
// global batch size); 0 means the local batch size.
func lossGrad(logits *tensor.Tensor, labels []int, denom int) (float64, int, *tensor.Tensor) {
	dlogits := tensor.New(logits.Shape()...)
	loss, correct := tensor.CrossEntropyDenom(logits, labels, dlogits, denom)
	return loss, correct, dlogits
}

// lossAccumulator applies the (possibly windowed) readout loss during the
// first forward pass: cross-entropy at each of the last K timesteps,
// averaged, with the per-timestep gradients retained for injection during
// the backward walk. Accuracy is always judged at the final step.
type lossAccumulator struct {
	T, K    int
	denom   int
	labels  []int
	inject  map[int]*tensor.Tensor
	Loss    float64
	Correct int
}

func newLossAccumulator(cfg Config, denom int, labels []int) *lossAccumulator {
	return &lossAccumulator{T: cfg.T, K: cfg.lossWindow(), denom: denom, labels: labels, inject: map[int]*tensor.Tensor{}}
}

// covers reports whether timestep t carries a loss term.
func (la *lossAccumulator) covers(t int) bool { return t >= la.T-la.K }

// observe consumes the readout logits at timestep t.
func (la *lossAccumulator) observe(t int, logits *tensor.Tensor) {
	if !la.covers(t) {
		return
	}
	loss, correct, dl := lossGrad(logits, la.labels, la.denom)
	scale := 1 / float32(la.K)
	tensor.Scale(dl, dl, scale)
	la.inject[t] = dl
	la.Loss += loss / float64(la.K)
	if t == la.T-1 {
		la.Correct = correct
	}
}

// at returns the loss gradient to inject at timestep t (nil if none).
func (la *lossAccumulator) at(t int) *tensor.Tensor { return la.inject[t] }

// deltaScratch charges the transient backward-pass footprint (one record's
// worth of δ tensors) for the duration of a backward walk.
func (tr *Trainer) deltaScratch(batch int) (*mem.Block, error) {
	return tr.Dev.Alloc(mem.Workspace, tr.Net.RecordBytes(batch)/2)
}
