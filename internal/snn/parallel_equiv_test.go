package snn

import (
	"fmt"
	"testing"

	"skipper/internal/parallel"
	"skipper/internal/tensor"
)

// The elementwise neuron kernels share the tensor kernels' contract: pooled
// runs are bit-identical to serial at every lane count, including sizes
// below the elemGrain work floor.

func equivFill(d []float32, seed uint64) {
	s := seed*0x9E3779B97F4A7C15 + 1
	for i := range d {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		d[i] = float32(s%4096)/1024 - 2 // spans both sides of θ = 1
	}
}

func requireBitEqual(t *testing.T, name string, serial, pooled *tensor.Tensor) {
	t.Helper()
	for i, v := range serial.Data {
		if v != pooled.Data[i] {
			t.Fatalf("%s: element %d differs: serial %v, pooled %v", name, i, v, pooled.Data[i])
		}
	}
}

func TestNeuronKernelsBitIdenticalAcrossPoolSizes(t *testing.T) {
	t.Run("run scans", runScansBitIdenticalToSteps)
	sizes := []int{1, 7, 100, elemGrain - 1, elemGrain + 3, 3*elemGrain + 17}
	for _, lanes := range []int{2, 3, 4} {
		pool := parallel.NewPool(lanes)
		defer pool.Close()
		for _, n := range sizes {
			label := fmt.Sprintf("[n=%d]@%d lanes", n, lanes)
			cur := tensor.New(n)
			uPrev := tensor.New(n)
			oPrev := tensor.New(n)
			equivFill(cur.Data, 3)
			equivFill(uPrev.Data, 5)
			Fire(nil, oPrev, uPrev, 0.5)

			for _, reset := range []ResetMode{ResetSubtract, ResetZero} {
				p := DefaultParams()
				p.Reset = reset
				uS, oS := tensor.New(n), tensor.New(n)
				uP, oP := tensor.New(n), tensor.New(n)
				StepLIF(nil, uS, oS, uPrev, oPrev, cur, p)
				StepLIF(pool, uP, oP, uPrev, oPrev, cur, p)
				requireBitEqual(t, fmt.Sprintf("StepLIF(reset=%d)%s u", reset, label), uS, uP)
				requireBitEqual(t, fmt.Sprintf("StepLIF(reset=%d)%s o", reset, label), oS, oP)

				// t = 0: zero initial state.
				StepLIF(nil, uS, oS, nil, nil, cur, p)
				StepLIF(pool, uP, oP, nil, nil, cur, p)
				requireBitEqual(t, "StepLIF(t=0)"+label, uS, uP)
			}

			gS, gP := tensor.New(n), tensor.New(n)
			SurrogateGrad(nil, gS, uPrev, 1.0, Triangle{})
			SurrogateGrad(pool, gP, uPrev, 1.0, Triangle{})
			requireBitEqual(t, "SurrogateGrad"+label, gS, gP)

			gradOut := tensor.New(n)
			next := tensor.New(n)
			equivFill(gradOut.Data, 7)
			equivFill(next.Data, 11)
			dS, dP := tensor.New(n), tensor.New(n)
			SurrogateDelta(nil, dS, uPrev, gradOut, next, 1.0, 0.95, Triangle{})
			SurrogateDelta(pool, dP, uPrev, gradOut, next, 1.0, 0.95, Triangle{})
			requireBitEqual(t, "SurrogateDelta"+label, dS, dP)
			SurrogateDelta(nil, dS, uPrev, gradOut, nil, 1.0, 0.95, Triangle{})
			SurrogateDelta(pool, dP, uPrev, gradOut, nil, 1.0, 0.95, Triangle{})
			requireBitEqual(t, "SurrogateDelta(nil next)"+label, dS, dP)
		}
	}
}

// runScansBitIdenticalToSteps checks the run-wide scans against k calls
// of the step kernels: ScanLIF against StepLIF, which reads o_{t−1} from the
// o it wrote, and ScanDelta against SurrogateDelta, at run lengths up to the
// events workload's 120 steps, serial and at every pool width, with a
// neuron count below, at and above the scan's per-lane floor.
func runScansBitIdenticalToSteps(t *testing.T) {
	pools := []*parallel.Pool{nil}
	for _, lanes := range []int{1, 2, 4, 5} {
		pool := parallel.NewPool(lanes)
		defer pool.Close()
		pools = append(pools, pool)
	}
	steps := func(k, n int, seed uint64) []*tensor.Tensor {
		ts := make([]*tensor.Tensor, k)
		for j := range ts {
			ts[j] = tensor.New(n)
			equivFill(ts[j].Data, seed+uint64(j))
		}
		return ts
	}
	clone := func(ts []*tensor.Tensor) []*tensor.Tensor {
		out := make([]*tensor.Tensor, len(ts))
		for j, v := range ts {
			out[j] = v.Clone()
		}
		return out
	}
	for _, k := range []int{1, 2, 20, 120} {
		g := runGrain(k)
		for _, n := range []int{1, 7, g - 1, g, 2*g + 1, 5*g + 17} {
			if n < 1 {
				continue
			}
			currents := steps(k, n, 13) // latest first, as a walk lists them
			carry := tensor.New(n)
			equivFill(carry.Data, 5)
			for _, reset := range []ResetMode{ResetSubtract, ResetZero} {
				p := DefaultParams()
				p.Reset = reset
				for _, uPrev := range []*tensor.Tensor{nil, carry} {
					// k StepLIF calls, earliest first, each from the u and o
					// the last one wrote.
					uRef, oRef := clone(currents), steps(k, n, 0)
					var prevU, prevO *tensor.Tensor = uPrev, nil
					if uPrev != nil {
						prevO = tensor.New(n)
						Fire(nil, prevO, uPrev, p.Threshold)
					}
					for j := k - 1; j >= 0; j-- {
						StepLIF(nil, uRef[j], oRef[j], prevU, prevO, uRef[j], p)
						prevU, prevO = uRef[j], oRef[j]
					}
					for pi, pool := range pools {
						label := fmt.Sprintf("ScanLIF[k=%d n=%d reset=%d carry=%v pool#%d]", k, n, reset, uPrev != nil, pi)
						us, os := clone(currents), steps(k, n, 0)
						ScanLIF(pool, us, os, uPrev, p)
						for j := range us {
							requireBitEqual(t, fmt.Sprintf("%s step %d u", label, j), uRef[j], us[j])
							requireBitEqual(t, fmt.Sprintf("%s step %d o", label, j), oRef[j], os[j])
						}
					}
				}
			}

			membranes := steps(k, n, 31)
			gradOuts := steps(k, n, 47)
			for _, next := range []*tensor.Tensor{nil, carry} {
				// k SurrogateDelta calls, latest first.
				ref := steps(k, n, 0)
				prev := next
				for j := range ref {
					SurrogateDelta(nil, ref[j], membranes[j], gradOuts[j], prev, 1.0, 0.95, Triangle{})
					prev = ref[j]
				}
				for pi, pool := range pools {
					label := fmt.Sprintf("ScanDelta[k=%d n=%d carry=%v pool#%d]", k, n, next != nil, pi)
					ds := steps(k, n, 0)
					ScanDelta(pool, ds, membranes, gradOuts, next, 1.0, 0.95, Triangle{})
					// As the walk runs it: δ_t overwrites the U_t it reads.
					aliased := clone(membranes)
					ScanDelta(pool, aliased, aliased, gradOuts, next, 1.0, 0.95, Triangle{})
					for j := range ds {
						requireBitEqual(t, fmt.Sprintf("%s step %d", label, j), ref[j], ds[j])
						requireBitEqual(t, fmt.Sprintf("%s aliased step %d", label, j), ref[j], aliased[j])
					}
				}
			}
		}
	}
}
