// Package snn implements the spiking-neuron substrate: the discrete-time
// leaky-integrate-and-fire (LIF) dynamics of paper Eq. 1 and the surrogate
// gradients that make the thresholding non-linearity differentiable for BPTT
// (paper Eq. 2, following Neftci et al.).
package snn

import (
	"fmt"
	"math"

	"skipper/internal/parallel"
	"skipper/internal/tensor"
)

// elemGrain floors per-lane work for the elementwise neuron kernels: below a
// few thousand neurons the goroutine handoff outweighs the arithmetic. Every
// element's update is self-contained, so the floor (like the pool size)
// cannot change results.
const elemGrain = 4096

// ResetMode selects how the membrane reacts to the neuron's own spike.
type ResetMode int

const (
	// ResetSubtract is the paper's Eq. 1 soft reset: θ is subtracted from
	// the membrane after a spike (the default).
	ResetSubtract ResetMode = iota
	// ResetZero is the hard reset used by some LIF variants: a spiking
	// neuron's membrane restarts from zero.
	ResetZero
)

// Params holds the non-trainable neuron parameters shared by a layer.
type Params struct {
	// Leak is λ in Eq. 1, the membrane potential decay per timestep (< 1).
	Leak float32
	// Threshold is θ in Eq. 1, the firing threshold.
	Threshold float32
	// Reset selects the post-spike reset behaviour (default: subtract θ).
	Reset ResetMode
}

// DefaultParams returns the neuron constants used throughout the evaluation:
// λ = 0.95, θ = 1.0 (typical for the hybrid-training recipe of Rathi et al.).
func DefaultParams() Params {
	return Params{Leak: 0.95, Threshold: 1.0}
}

// Validate returns an error when the parameters are outside the stable
// regime (0 < λ ≤ 1, θ > 0).
func (p Params) Validate() error {
	if p.Leak <= 0 || p.Leak > 1 {
		return fmt.Errorf("snn: leak %v outside (0,1]", p.Leak)
	}
	if p.Threshold <= 0 {
		return fmt.Errorf("snn: threshold %v must be positive", p.Threshold)
	}
	return nil
}

// StepLIF advances one LIF timestep per Eq. 1:
//
//	U_t = λ·U_{t-1} + I_t − θ·o_{t-1}
//	o_t = 1 if U_t > θ else 0
//
// where I_t is the layer's synaptic input current (W·o_t^{l-1}, already
// computed by the layer). u and o receive the new state; uPrev/oPrev are the
// previous state (pass nil for t = 0, meaning zero initial state). U is
// stored before the reset, so o is exactly Fire(u, θ): a caller may keep u
// alone and pass oPrev nil with uPrev set, and the step reads o_{t−1} back as
// uPrev > θ, bit for bit what it would read from the o it produced. u may
// alias current and o may alias oPrev; o must not alias u. Each product is
// rounded on its own, so u has the same bits on every architecture. The
// neuron range partitions across pool lanes (nil pool = serial); each
// neuron's update is self-contained, so results are bit-identical for every
// pool size.
func StepLIF(pool *parallel.Pool, u, o, uPrev, oPrev, current *tensor.Tensor, p Params) {
	n := u.Len()
	if o.Len() != n || current.Len() != n {
		panic(fmt.Sprintf("snn: StepLIF size mismatch u=%d o=%d current=%d", n, o.Len(), current.Len()))
	}
	var upd, opd []float32
	if uPrev != nil {
		if uPrev.Len() != n || oPrev != nil && oPrev.Len() != n {
			panic("snn: StepLIF previous-state size mismatch")
		}
		upd = uPrev.Data
		if oPrev != nil {
			opd = oPrev.Data
		}
	}
	ud, od, cd := u.Data, o.Data, current.Data
	pool.RunGrain(n, elemGrain, func(_, lo, hi int) {
		stepLIF(ud[lo:hi], od[lo:hi], cut(upd, lo, hi), cut(opd, lo, hi), cd[lo:hi], p)
	})
}

// ScanLIF is StepLIF over a run of k steps in one pool dispatch. us and os
// list the steps latest first: us[j] holds step j's synaptic current and
// receives its membrane, os[j] its spikes. uPrev is the membrane before the
// earliest step (nil: the zero state at t = 0), and each later step reads
// o_{t−1} back off the membrane before it. The neurons split across lanes
// once, k·grain of work to a lane, and each lane walks its neurons through
// every step in ascending t with StepLIF's expressions and roundings, so
// every u and o is bit for bit what k StepLIF calls write, at every pool
// size.
func ScanLIF(pool *parallel.Pool, us, os []*tensor.Tensor, uPrev *tensor.Tensor, p Params) {
	k := len(us)
	if k == 0 {
		return
	}
	n := us[0].Len()
	if len(os) != k || uPrev != nil && uPrev.Len() != n {
		panic("snn: ScanLIF size mismatch")
	}
	for j := range us {
		if us[j].Len() != n || os[j].Len() != n {
			panic("snn: ScanLIF size mismatch")
		}
	}
	var upd []float32
	if uPrev != nil {
		upd = uPrev.Data
	}
	pool.RunGrain(n, runGrain(k), func(_, lo, hi int) {
		prev := cut(upd, lo, hi)
		for j := k - 1; j >= 0; j-- {
			u := us[j].Data[lo:hi]
			stepLIF(u, os[j].Data[lo:hi], prev, nil, u, p)
			prev = u
		}
	})
}

// runGrain is the neuron floor per lane of a k-step scan: elemGrain neuron
// updates to a lane, as one step has.
func runGrain(k int) int {
	return max(1, elemGrain/k)
}

// cut is d[lo:hi], or nil for nil d.
func cut(d []float32, lo, hi int) []float32 {
	if d == nil {
		return nil
	}
	return d[lo:hi]
}

// stepLIF is one step of Eq. 1 over equal-length slices: the arithmetic of
// StepLIF, which upd nil starts from the zero state and opd nil reads off
// upd.
func stepLIF(ud, od, upd, opd, cd []float32, p Params) {
	theta, lam := p.Threshold, p.Leak
	switch {
	case upd == nil:
		for i, v := range cd {
			ud[i] = v
			od[i] = spike(v, theta)
		}
	case p.Reset == ResetZero:
		for i := range ud {
			v := float32(lam*upd[i]*(1-spikeAt(opd, upd, i, theta))) + cd[i]
			ud[i] = v
			od[i] = spike(v, theta)
		}
	default:
		for i := range ud {
			v := float32(lam*upd[i]) + cd[i] - float32(theta*spikeAt(opd, upd, i, theta))
			ud[i] = v
			od[i] = spike(v, theta)
		}
	}
}

// spikeAt is o_{t−1}[i]: opd's, or with opd nil read back off upd.
func spikeAt(opd, upd []float32, i int, theta float32) float32 {
	if opd != nil {
		return opd[i]
	}
	return spike(upd[i], theta)
}

// spike is 1 if v > θ and 0 otherwise (NaN included), computed as a
// select rather than a branch: spikes follow no pattern a branch predictor
// could learn.
func spike(v, theta float32) float32 {
	var bits uint32
	if v > theta {
		bits = 0x3f800000 // 1.0
	}
	return math.Float32frombits(bits)
}

// Fire computes o = 1[u > θ] elementwise without touching membrane state:
// the spikes StepLIF fired when it stored u.
func Fire(pool *parallel.Pool, o, u *tensor.Tensor, theta float32) {
	if o.Len() != u.Len() {
		panic("snn: Fire size mismatch")
	}
	od, ud := o.Data, u.Data
	pool.RunGrain(len(ud), elemGrain, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			od[i] = spike(ud[i], theta)
		}
	})
}

// FireCount returns the number of spikes Fire(u, θ) would write, without
// writing them.
func FireCount(u *tensor.Tensor, theta float32) int {
	n := 0
	for _, v := range u.Data {
		var c int
		if v > theta {
			c = 1
		}
		n += c
	}
	return n
}

// SpikeCount returns the number of spikes in o (sum of a binary tensor).
// This is the per-layer contribution to the SAM spike-sum s_t (paper Eq. 4).
func SpikeCount(o *tensor.Tensor) float64 {
	var s float64
	for _, v := range o.Data {
		s += float64(v)
	}
	return s
}
