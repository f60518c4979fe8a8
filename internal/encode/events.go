package encode

import (
	"fmt"
	"sort"

	"skipper/internal/tensor"
)

// Event is one address event from a (simulated) neuromorphic sensor:
// spatial address (X, Y), polarity (true = ON / intensity increase), and a
// timestamp in abstract sensor ticks.
type Event struct {
	X, Y int
	On   bool
	T    int
}

// BinEvents rasterises a per-sample event list into a T-timestep spike
// train of shape [B, 2, H, W] per step (channel 0 = ON, channel 1 = OFF).
// Each sample's events are binned uniformly: events with timestamp in
// [t·dur/T, (t+1)·dur/T) land in step t, where dur is the sample duration
// in ticks. Multiple events in one (pixel, bin) collapse to a single spike,
// matching how DVS pre-processing accumulates frames.
func BinEvents(events [][]Event, durations []int, h, w, T int) []*tensor.Tensor {
	b := len(events)
	if len(durations) != b {
		panic(fmt.Sprintf("encode: %d durations for %d samples", len(durations), b))
	}
	train := newTrain(T, []int{b, 2, h, w})
	for i, evs := range events {
		dur := durations[i]
		if dur <= 0 {
			dur = 1
		}
		for _, ev := range evs {
			if ev.X < 0 || ev.X >= w || ev.Y < 0 || ev.Y >= h {
				continue
			}
			bin := ev.T * T / dur
			if bin < 0 {
				bin = 0
			}
			if bin >= T {
				bin = T - 1
			}
			ch := 0
			if !ev.On {
				ch = 1
			}
			train[bin].Set(1, i, ch, ev.Y, ev.X)
		}
	}
	return train
}

// FrameDiffEvents converts a sequence of intensity frames (values in [0,1],
// shape [H,W] flattened row-major) into DVS-style events: a pixel whose
// intensity rises by more than threshold since the last event emits an ON
// event, and a fall emits an OFF event — the standard log-intensity change
// model of event cameras, linearised. Frames are indexed by tick = their
// position in the slice. Events are returned in time order.
func FrameDiffEvents(framesSeq [][]float32, h, w int, threshold float32) []Event {
	if threshold <= 0 {
		threshold = 0.1
	}
	var out []Event
	if len(framesSeq) == 0 {
		return out
	}
	ref := make([]float32, h*w)
	copy(ref, framesSeq[0])
	for tick := 1; tick < len(framesSeq); tick++ {
		cur := framesSeq[tick]
		for p := 0; p < h*w; p++ {
			d := cur[p] - ref[p]
			for d > threshold {
				out = append(out, Event{X: p % w, Y: p / w, On: true, T: tick})
				ref[p] += threshold
				d -= threshold
			}
			for d < -threshold {
				out = append(out, Event{X: p % w, Y: p / w, On: false, T: tick})
				ref[p] -= threshold
				d += threshold
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].T < out[j].T })
	return out
}
