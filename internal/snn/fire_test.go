package snn

import (
	"fmt"
	"math"
	"testing"

	"skipper/internal/parallel"
	"skipper/internal/tensor"
)

// edgeValues are membrane and current values at the edges of the threshold
// test: θ itself, its neighbours, ±0 and subnormals of both signs.
func edgeValues(theta float32) []float32 {
	sub := math.Float32frombits(1) // smallest positive subnormal
	return []float32{
		theta, math.Nextafter32(theta, 0), math.Nextafter32(theta, 2*theta), -theta,
		0, float32(math.Copysign(0, -1)), sub, -sub, math.Float32frombits(0x007fffff), 2 * theta,
	}
}

// identityInput fills a tensor with the edge values, then with values that
// straddle θ, so every lane of a pool sees both.
func identityInput(n int, theta float32, seed uint64) *tensor.Tensor {
	x := tensor.New(n)
	edge := edgeValues(theta)
	copy(x.Data, edge)
	equivFill(x.Data[len(edge):], seed)
	return x
}

func requireBits(t *testing.T, name string, want, got *tensor.Tensor) {
	t.Helper()
	for i, v := range want.Data {
		if math.Float32bits(v) != math.Float32bits(got.Data[i]) {
			t.Fatalf("%s: element %d: %v (%#08x), want %v (%#08x)", name, i,
				got.Data[i], math.Float32bits(got.Data[i]), v, math.Float32bits(v))
		}
	}
}

// A LIF record keeps U alone because o is a threshold view of it: StepLIF's
// o equals Fire(u, θ) bit for bit, and a step fed o_{t−1} read back as
// Fire(u_{t−1}, θ) — written into its own output, as the recurrent layer
// does — or given no oPrev at all, so that it reads u_{t−1} > θ itself,
// equals one fed the o that StepLIF produced. Checked at pools 1, 2, 4 and 5
// under both resets, with U == θ exactly, ±0 and subnormals among the
// inputs, and with a step from a membrane that sits exactly on θ.
func TestStepLIFOutputIsFireOfU(t *testing.T) {
	const n, steps = 3*elemGrain + 17, 6
	for _, lanes := range []int{1, 2, 4, 5} {
		pool := parallel.NewPool(lanes)
		t.Cleanup(pool.Close)
		for _, reset := range []ResetMode{ResetSubtract, ResetZero} {
			p := Params{Leak: 0.95, Threshold: 1, Reset: reset}
			t.Run(fmt.Sprintf("lanes=%d/reset=%d", lanes, reset), func(t *testing.T) {
				// The t = 0 current is the edge set itself, so U_0 hits θ,
				// ±0 and the subnormals exactly.
				cur := identityInput(n, p.Threshold, 1)
				u, o := tensor.New(n), tensor.New(n)
				StepLIF(pool, u, o, nil, nil, cur, p)
				fired := tensor.New(n)
				Fire(pool, fired, u, p.Threshold)
				requireBits(t, "t=0: o vs Fire(u)", o, fired)
				if got, want := FireCount(u, p.Threshold), int(SpikeCount(o)); got != want {
					t.Fatalf("t=0: FireCount %d, spikes %d", got, want)
				}

				uFed := u.Clone()
				for s := 1; s < steps; s++ {
					cur = identityInput(n, p.Threshold, uint64(s+1))
					if s == 1 {
						// From U_0 = ±0 a current of θ lands exactly on θ.
						cur.Data[4], cur.Data[5] = p.Threshold, p.Threshold
					}
					// Reference: o_{t−1} as StepLIF produced it.
					uNext, oNext := tensor.New(n), tensor.New(n)
					StepLIF(pool, uNext, oNext, u, o, cur, p)
					// Derived: o_{t−1} read back from U_{t−1} into the step's
					// own output, which StepLIF then overwrites in place.
					uD, oD := tensor.New(n), tensor.New(n)
					Fire(pool, oD, uFed, p.Threshold)
					StepLIF(pool, uD, oD, uFed, oD, cur, p)

					requireBits(t, fmt.Sprintf("t=%d: u fed Fire(u_{t-1})", s), uNext, uD)
					requireBits(t, fmt.Sprintf("t=%d: o fed Fire(u_{t-1})", s), oNext, oD)
					uN, oN := tensor.New(n), tensor.New(n)
					StepLIF(pool, uN, oN, uFed, nil, cur, p)
					requireBits(t, fmt.Sprintf("t=%d: u fed no oPrev", s), uNext, uN)
					requireBits(t, fmt.Sprintf("t=%d: o fed no oPrev", s), oNext, oN)
					Fire(pool, fired, uNext, p.Threshold)
					requireBits(t, fmt.Sprintf("t=%d: o vs Fire(u)", s), oNext, fired)
					u, o, uFed = uNext, oNext, uD
				}
			})
		}
	}
}
