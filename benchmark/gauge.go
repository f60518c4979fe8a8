package main

import (
	"sync"
	"time"
)

// hostGauge times a fixed piece of the benchmark's own arithmetic, one lane
// per core, that shares nothing with the program under test. The reference
// box is a guest on a shared host, and what the host takes away shows in no
// counter the guest can read; the gauge's reading beside each block is the
// only record of how disturbed the box was while the block ran. It is printed
// with the run and corrects nothing.
type hostGauge struct {
	lanes [][]float32
	sink  float32
}

func newHostGauge(lanes int) *hostGauge {
	g := &hostGauge{}
	for l := 0; l < lanes; l++ {
		buf := make([]float32, 64<<10) // 256 KiB: stays in a core's own cache
		for i := range buf {
			buf[i] = float32(i%7) * 0.25
		}
		g.lanes = append(g.lanes, buf)
	}
	return g
}

// read runs the fixed work, about 10 ms on the reference box when the host
// leaves it alone, and returns how many milliseconds it took.
func (g *hostGauge) read() float64 {
	const passes = 500
	sums := make([]float32, len(g.lanes))
	var wg sync.WaitGroup
	t0 := time.Now()
	for l, buf := range g.lanes {
		wg.Add(1)
		go func(l int, buf []float32) {
			defer wg.Done()
			var acc float32
			for p := 0; p < passes; p++ {
				w := float32(p&3) * 0.5
				for i := 0; i+8 <= len(buf); i += 8 {
					acc += buf[i]*w + buf[i+1]*w + buf[i+2]*w + buf[i+3]*w + buf[i+4]*w + buf[i+5]*w + buf[i+6]*w + buf[i+7]*w
				}
			}
			sums[l] = acc
		}(l, buf)
	}
	wg.Wait()
	d := time.Since(t0)
	for _, s := range sums {
		g.sink += s // keeps the compiler from dropping the loop
	}
	return ms(d.Seconds())
}
