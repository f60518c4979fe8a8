package serialize

import (
	"bytes"
	"runtime"
	"testing"

	"skipper/internal/core"
	"skipper/internal/models"
	"skipper/internal/tensor"
)

// lenetStates is the membrane state of a lenet stream three steps in, the
// tensors a serving session snapshot carries, as a SaveTensors container.
func lenetStates(tb testing.TB) []byte {
	tb.Helper()
	net, err := models.Build("lenet", models.Options{Width: 0.5})
	if err != nil {
		tb.Fatal(err)
	}
	s := core.NewStreamState(net, 2)
	rng := tensor.NewRNG(5)
	for i := 0; i < 3; i++ {
		x := tensor.New(append([]int{2}, net.InShape...)...)
		for j := range x.Data {
			x.Data[j] = rng.Bernoulli(0.3)
		}
		s.StepInput(x)
	}
	var buf bytes.Buffer
	if err := SaveTensors(&buf, s.Capture()); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// LoadTensors never panics, allocates within a bound proportional to its
// input whatever its header fields claim, and writes back with SaveTensors
// to the very bytes it read.
func FuzzLoadTensors(f *testing.F) {
	raw := lenetStates(f)
	f.Add(raw)
	f.Add(raw[:len(raw)-5])
	f.Fuzz(func(t *testing.T, raw []byte) {
		var ts []tensor.Named
		var err error
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ts, err = LoadTensors(bytes.NewReader(raw))
		runtime.ReadMemStats(&after)
		if n, bound := after.TotalAlloc-before.TotalAlloc, 16*uint64(len(raw))+64<<10; n > bound {
			t.Fatalf("loading %d bytes allocated %d", len(raw), n)
		}
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := SaveTensors(&out, ts); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), raw) {
			t.Fatalf("load→save changed the container: %d bytes in, %d out", len(raw), out.Len())
		}
	})
}
