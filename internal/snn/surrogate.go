package snn

import (
	"fmt"
	"math"

	"skipper/internal/parallel"
	"skipper/internal/tensor"
)

// Surrogate is a smooth stand-in for the derivative of the Heaviside spike
// function, evaluated at membrane potential u against threshold θ. Different
// choices trade gradient sharpness against stability; all peak at u = θ.
type Surrogate interface {
	// Grad returns σ'(u) given threshold theta.
	Grad(u, theta float32) float32
	// Name identifies the surrogate for configs and reports.
	Name() string
}

// Triangle is the piecewise-linear surrogate
// σ'(u) = max(0, 1 − |u−θ|/γ) / γ, the choice used by the STBP/hybrid
// training line of work the paper builds on.
type Triangle struct {
	// Gamma is the half-width of the triangle; 0 means θ.
	Gamma float32
}

// Grad implements Surrogate.
func (s Triangle) Grad(u, theta float32) float32 {
	g := s.Gamma
	if g == 0 {
		g = theta
	}
	d := u - theta
	if d < 0 {
		d = -d
	}
	v := 1 - d/g
	if v < 0 {
		return 0
	}
	return v / g
}

// Name implements Surrogate.
func (s Triangle) Name() string { return "triangle" }

// FastSigmoid is σ'(u) = 1 / (1 + k|u−θ|)², the SuperSpike surrogate
// (Zenke & Ganguli).
type FastSigmoid struct {
	// Slope is k; 0 means 10.
	Slope float32
}

// Grad implements Surrogate.
func (s FastSigmoid) Grad(u, theta float32) float32 {
	k := s.Slope
	if k == 0 {
		k = 10
	}
	d := u - theta
	if d < 0 {
		d = -d
	}
	den := 1 + float32(k*d)
	return 1 / (den * den)
}

// Name implements Surrogate.
func (s FastSigmoid) Name() string { return "fastsigmoid" }

// ATan is σ'(u) = α / (2(1 + (π α (u−θ)/2)²)), the arctangent surrogate.
type ATan struct {
	// Alpha controls sharpness; 0 means 2.
	Alpha float32
}

// Grad implements Surrogate.
func (s ATan) Grad(u, theta float32) float32 {
	a := s.Alpha
	if a == 0 {
		a = 2
	}
	x := float64(math.Pi) / 2 * float64(a) * float64(u-theta)
	return float32(float64(a) / 2 / (1 + float64(x*x)))
}

// Name implements Surrogate.
func (s ATan) Name() string { return "atan" }

// Rectangular is σ'(u) = 1[|u−θ| < w/2] / w, the boxcar surrogate.
type Rectangular struct {
	// Width is w; 0 means 1.
	Width float32
}

// Grad implements Surrogate.
func (s Rectangular) Grad(u, theta float32) float32 {
	w := s.Width
	if w == 0 {
		w = 1
	}
	d := u - theta
	if d < 0 {
		d = -d
	}
	if d < w/2 {
		return 1 / w
	}
	return 0
}

// Name implements Surrogate.
func (s Rectangular) Name() string { return "rectangular" }

// ByName returns the surrogate with default parameters for a config string.
func ByName(name string) (Surrogate, error) {
	switch name {
	case "", "triangle":
		return Triangle{}, nil
	case "fastsigmoid":
		return FastSigmoid{}, nil
	case "atan":
		return ATan{}, nil
	case "rectangular":
		return Rectangular{}, nil
	default:
		return nil, fmt.Errorf("snn: unknown surrogate %q", name)
	}
}

// SurrogateGrad fills dst[i] = s.Grad(u[i], theta) elementwise.
func SurrogateGrad(pool *parallel.Pool, dst, u *tensor.Tensor, theta float32, s Surrogate) {
	if dst.Len() != u.Len() {
		panic("snn: SurrogateGrad size mismatch")
	}
	dd, ud := dst.Data, u.Data
	pool.RunGrain(len(ud), elemGrain, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			dd[i] = s.Grad(ud[i], theta)
		}
	})
}

// SurrogateDelta is the fused BPTT membrane-delta kernel every spiking layer
// runs each backward timestep:
//
//	delta[i] = s.Grad(u[i], theta) · gradOut[i]            (deltaNext == nil)
//	delta[i] = s.Grad(u[i], theta)·gradOut[i] + leak·deltaNext[i]
//
// The second form adds the λ-decayed membrane path from the later timestep.
// The arithmetic per element is (surrogate·grad) then (+ leak·next) — the
// same two rounding steps the layers' former Grad-loop + AXPY pair produced,
// so checkpoint replays of old runs stay bit-identical. delta may alias
// deltaNext (the layers reuse one buffer across timesteps).
func SurrogateDelta(pool *parallel.Pool, delta, u, gradOut, deltaNext *tensor.Tensor, theta, leak float32, s Surrogate) {
	n := delta.Len()
	if u.Len() != n || gradOut.Len() != n || deltaNext != nil && deltaNext.Len() != n {
		panic("snn: SurrogateDelta size mismatch")
	}
	var nd []float32
	if deltaNext != nil {
		nd = deltaNext.Data
	}
	dd, ud, gd := delta.Data, u.Data, gradOut.Data
	pool.RunGrain(n, elemGrain, func(_, lo, hi int) {
		surrogateDelta(dd[lo:hi], ud[lo:hi], gd[lo:hi], cut(nd, lo, hi), theta, leak, s)
	})
}

// ScanDelta is SurrogateDelta over a run of k steps in one pool dispatch.
// deltas, us and gradOuts list the steps latest first, and next is δ from
// the step after the latest (nil: none). Each step's δ carries into the step
// before it. The neurons split across lanes once, k·grain of work to a lane,
// and each lane walks its neurons through every step in descending t with
// SurrogateDelta's expressions and roundings, so every δ is bit for bit what
// k SurrogateDelta calls write, at every pool size. deltas[j] may alias
// us[j] (δ_t overwriting the U_t it read) or next.
func ScanDelta(pool *parallel.Pool, deltas, us, gradOuts []*tensor.Tensor, next *tensor.Tensor, theta, leak float32, s Surrogate) {
	k := len(deltas)
	if k == 0 {
		return
	}
	n := deltas[0].Len()
	if len(us) != k || len(gradOuts) != k || next != nil && next.Len() != n {
		panic("snn: ScanDelta size mismatch")
	}
	for j := range deltas {
		if deltas[j].Len() != n || us[j].Len() != n || gradOuts[j].Len() != n {
			panic("snn: ScanDelta size mismatch")
		}
	}
	var nd []float32
	if next != nil {
		nd = next.Data
	}
	pool.RunGrain(n, runGrain(k), func(_, lo, hi int) {
		carry := cut(nd, lo, hi)
		for j := range deltas {
			d := deltas[j].Data[lo:hi]
			surrogateDelta(d, us[j].Data[lo:hi], gradOuts[j].Data[lo:hi], carry, theta, leak, s)
			carry = d
		}
	})
}

// surrogateDelta is SurrogateDelta's arithmetic over equal-length slices;
// nd nil is the form with no later step.
func surrogateDelta(dd, ud, gd, nd []float32, theta, leak float32, s Surrogate) {
	if nd == nil {
		for i := range dd {
			dd[i] = s.Grad(ud[i], theta) * gd[i]
		}
		return
	}
	for i := range dd {
		dd[i] = float32(s.Grad(ud[i], theta)*gd[i]) + float32(leak*nd[i])
	}
}
