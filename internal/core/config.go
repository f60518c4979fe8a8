// Package core implements the paper's contribution: BPTT training of
// spiking networks with temporal activation checkpointing (Sec. V) and
// Skipper — checkpointing plus spike-activity-guided time-skipping (Sec. VI)
// — alongside the baselines it is evaluated against: full BPTT, truncated
// BPTT (Sec. III-C), and temporally-truncated local backpropagation
// (TBPTT-LBP, Guo et al. [28]).
//
// The engine runs a real forward/backward computation (so compute overheads
// are measured, not modelled) and charges every device-resident tensor to a
// mem.Device (so the paper's memory figures are measured from the same
// tensor lifecycle the reference PyTorch implementation has).
package core

import (
	"fmt"

	"skipper/internal/mem"
	"skipper/internal/opt"
)

// Config holds the training hyper-parameters shared by all strategies.
type Config struct {
	// Runtime is the execution context: compute pool, default metrics sink,
	// and default seed. Nil means the process-wide DefaultRuntime
	// (threads = NumCPU). Thread count never changes results — kernels are
	// bit-identical across pool sizes — so Runtime is a pure performance
	// knob.
	Runtime *Runtime
	// T is the number of simulation timesteps per sample.
	T int
	// Batch is the mini-batch size.
	Batch int
	// LR is the learning rate. Zero means 1e-3.
	LR float32
	// Optimizer is "adam" (default) or "sgd".
	Optimizer string
	// Seed drives all stochasticity (shuffling, dropout, encoding).
	//
	// Deprecated alias: prefer NewRuntime(WithSeed(...)) and leave Seed
	// zero — it then inherits the runtime's seed. A non-zero Seed still
	// wins, preserving the old per-config behaviour.
	Seed uint64
	// GradClip caps the global gradient norm; 0 disables.
	GradClip float32
	// Device is the memory accountant; nil means an unlimited device.
	Device *mem.Device
	// MaxBatchesPerEpoch caps an epoch for timing runs; 0 means the full
	// split (the paper measures on 40–100% of the training set).
	MaxBatchesPerEpoch int
	// Schedule optionally varies the learning rate per epoch; nil keeps LR
	// constant.
	Schedule opt.Schedule
	// LossWindow applies the cross-entropy loss to the readout at each of
	// the last LossWindow timesteps (averaged) instead of only the final
	// one — the rate-readout variant common in SNN training. 0 or 1 means
	// final-step-only, the paper's setting.
	LossWindow int
	// MicroBatch enables gradient accumulation: each optimisation step
	// processes the Batch samples in micro-batches of this size, so the
	// live activation footprint scales with MicroBatch while the gradient
	// quality matches the full batch — the batch-axis counterpart of the
	// paper's time-axis techniques. 0 disables (one pass per step).
	MicroBatch int
	// SnapshotEvery marks a restorable good state every K optimizer steps
	// within an epoch, in addition to the mark at every epoch boundary.
	// Good states feed the divergence guard's rollback and the OnSnapshot
	// durability hook. 0 means epoch boundaries only.
	SnapshotEvery int
	// OnSnapshot, when non-nil, is invoked at every good-state mark with
	// the resume cursor and the partial epoch aggregate so far. The
	// run-state layer uses it to persist a durable manifest; an error
	// aborts training (a run that cannot checkpoint is not durable).
	OnSnapshot func(cur Cursor, partial EpochStats) error
	// GuardRetries enables the divergence guard: on a NaN/Inf loss, a
	// NaN/Inf gradient norm, or a gradient-norm explosion past
	// GuardGradNorm, the trainer rolls back to the last good state, halves
	// the learning rate, and replays — at most GuardRetries times per run.
	// 0 disables the guard (the seed behaviour).
	GuardRetries int
	// GuardGradNorm is the pre-clip global gradient-norm explosion
	// threshold for the guard; 0 trips on NaN/Inf only.
	GuardGradNorm float32
}

func (c Config) withDefaults() Config {
	if c.Runtime == nil {
		c.Runtime = DefaultRuntime()
	}
	if c.LR == 0 {
		c.LR = 1e-3
	}
	if c.Optimizer == "" {
		c.Optimizer = "adam"
	}
	if c.Device == nil {
		c.Device = mem.Unlimited()
	}
	if c.Seed == 0 {
		c.Seed = c.Runtime.Seed()
	}
	if c.Seed == 0 {
		c.Seed = 0x5EED
	}
	return c
}

// Validate rejects impossible configurations.
func (c Config) Validate() error {
	if c.T < 1 {
		return fmt.Errorf("core: T = %d must be >= 1", c.T)
	}
	if c.Batch < 1 {
		return fmt.Errorf("core: batch = %d must be >= 1", c.Batch)
	}
	if c.LossWindow < 0 || c.LossWindow > c.T {
		return fmt.Errorf("core: loss window %d outside [0, T=%d]", c.LossWindow, c.T)
	}
	if c.MicroBatch < 0 || c.MicroBatch > c.Batch {
		return fmt.Errorf("core: micro-batch %d outside [0, batch=%d]", c.MicroBatch, c.Batch)
	}
	if c.SnapshotEvery < 0 {
		return fmt.Errorf("core: snapshot interval %d must be >= 0", c.SnapshotEvery)
	}
	if c.GuardRetries < 0 {
		return fmt.Errorf("core: guard retries %d must be >= 0", c.GuardRetries)
	}
	if c.GuardGradNorm < 0 {
		return fmt.Errorf("core: guard grad-norm threshold %v must be >= 0", c.GuardGradNorm)
	}
	return nil
}

// lossWindow returns the effective window length (>= 1).
func (c Config) lossWindow() int {
	if c.LossWindow < 1 {
		return 1
	}
	return c.LossWindow
}

// CheckpointTimes returns the checkpoint timesteps {0, T/C, 2T/C, ...} for C
// uniform temporal checkpoints over T steps (paper Sec. V). The remainder
// lands in the final segment.
func CheckpointTimes(T, C int) []int {
	ts := make([]int, C)
	seg := T / C
	for s := 0; s < C; s++ {
		ts[s] = s * seg
	}
	return ts
}

// SegmentBounds returns the [start, end) timestep range of checkpoint
// segment s out of C over T steps.
func SegmentBounds(T, C, s int) (start, end int) {
	seg := T / C
	start = s * seg
	end = start + seg
	if s == C-1 {
		end = T
	}
	return start, end
}

// EqualActivityBounds places C checkpoint starts so each segment holds
// roughly 1/C of the total activity mass, while keeping every segment
// strictly longer than minLen (the L_n constraint). The first bound is
// always 0.
func EqualActivityBounds(profile []float64, C, minLen int) []int {
	T := len(profile)
	bounds := make([]int, 1, C)
	bounds[0] = 0
	if C == 1 {
		return bounds
	}
	var total float64
	for _, v := range profile {
		total += v
	}
	if total <= 0 {
		return CheckpointTimes(T, C)
	}
	target := total / float64(C)
	var acc float64
	for t := 0; t < T && len(bounds) < C; t++ {
		acc += profile[t]
		if acc >= target*float64(len(bounds)) {
			next := t + 1
			// Enforce the minimum segment length on both sides.
			if next-bounds[len(bounds)-1] <= minLen {
				next = bounds[len(bounds)-1] + minLen + 1
			}
			remainingSegs := C - len(bounds)
			if next > T-remainingSegs*(minLen+1) {
				next = T - remainingSegs*(minLen+1)
			}
			if next <= bounds[len(bounds)-1] {
				continue
			}
			bounds = append(bounds, next)
		}
	}
	for len(bounds) < C {
		bounds = append(bounds, bounds[len(bounds)-1]+minLen+1)
	}
	return bounds
}

// ValidateCheckpoints enforces the paper's boundary conditions (Sec. V-A):
// 1 <= C <= T, and each time segment must be longer than the number of
// stateful layers so spikes can propagate through the whole stack within a
// segment: T/C > L_n, i.e. C < T/L_n.
func ValidateCheckpoints(T, C, Ln int) error {
	if C < 1 {
		return fmt.Errorf("core: checkpoints C = %d must be >= 1", C)
	}
	if C > T {
		return fmt.Errorf("core: checkpoints C = %d exceed timesteps T = %d", C, T)
	}
	if Ln > 0 && T/C <= Ln {
		return fmt.Errorf("core: segment length T/C = %d must exceed L_n = %d (choose C < T/L_n = %d)",
			T/C, Ln, T/Ln)
	}
	return nil
}

// MaxSkipPercent returns the paper's Eq. 7 upper bound on the skip
// percentile p for a network with Ln stateful layers checkpointed C times
// over T steps: p/100 <= 1 − Ln/(T/C). The result is clamped to [0, 100].
func MaxSkipPercent(T, C, Ln int) float64 {
	if T <= 0 || C <= 0 {
		return 0
	}
	seg := float64(T) / float64(C)
	p := 100 * (1 - float64(Ln)/seg)
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	return p
}

// ValidateSkip enforces Eq. 7 for a requested skip percentile.
func ValidateSkip(T, C, Ln int, p float64) error {
	if p < 0 || p > 100 {
		return fmt.Errorf("core: skip percentile %v outside [0,100]", p)
	}
	// A tiny tolerance absorbs the floating-point error of the bound
	// itself, so a p sitting exactly on it (e.g. 20 vs 100*(1-4/5)) passes.
	const eps = 1e-6
	if maxP := MaxSkipPercent(T, C, Ln); p > maxP+eps {
		return fmt.Errorf("core: skip percentile %v exceeds Eq.7 bound %.1f for T=%d C=%d L_n=%d",
			p, maxP, T, C, Ln)
	}
	return nil
}
