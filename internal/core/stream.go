package core

import (
	"fmt"

	"skipper/internal/layers"
	"skipper/internal/tensor"
)

// StreamState is the one forward-only stepper: the rolling per-layer state
// of an inference pass, O(1) in T. Evaluation and InferStream step one per
// batch; a serving session holds one across requests, snapshots it to a
// durable record, ships it to another replica and resumes bit-identically.
// StepInput advances on an input tensor and StepQuiet on an all-zero one.
// Both run the same forward, in which an all-zero image costs a bias add.
type StreamState struct {
	net    *layers.Network
	batch  int
	states []*layers.LayerState
	steps  int
	zeroIn *tensor.Tensor

	// QuietSteps / FullSteps count the timesteps advanced by StepQuiet and
	// StepInput, for trace counters and the bench's skip accounting.
	QuietSteps int64
	FullSteps  int64
}

// NewStreamState starts an empty stream (no timesteps seen) over net at a
// fixed batch size. The network's weights are read on every step; the
// caller owns keeping them stable for the stream's lifetime.
func NewStreamState(net *layers.Network, batch int) *StreamState {
	return &StreamState{net: net, batch: batch}
}

// Steps returns how many timesteps the stream has advanced since t = 0.
func (s *StreamState) Steps() int { return s.steps }

// Batch returns the stream's fixed batch size.
func (s *StreamState) Batch() int { return s.batch }

// StepInput advances one timestep on input x [batch, InShape...].
func (s *StreamState) StepInput(x *tensor.Tensor) {
	s.step(x)
	s.FullSteps++
}

// StepQuiet advances one timestep under an all-zero input, bitwise
// identically to StepInput on a zero tensor.
func (s *StreamState) StepQuiet() {
	if s.zeroIn == nil {
		s.zeroIn = tensor.New(append([]int{s.batch}, s.net.InShape...)...)
	}
	s.step(s.zeroIn)
	s.QuietSteps++
}

func (s *StreamState) step(x *tensor.Tensor) {
	s.states = s.net.Forward([]*tensor.Tensor{x}, s.states)[0]
	s.steps++
}

// Logits returns the readout output at the current timestep (nil before the
// first step). The returned tensor aliases live state; clone to keep it.
func (s *StreamState) Logits() *tensor.Tensor {
	if s.states == nil {
		return nil
	}
	return s.net.Logits(s.states)
}

// Capture snapshots the stream's membrane state as named tensors, cloned so
// the record stays stable while the stream keeps advancing. Stateful layers
// contribute "layerNN.u", their whole record: the next step reads o_{t−1}
// back off U; composite layers recurse into "layerNN.subK.u". Stateless
// layers contribute nothing and are rebuilt as nil states on restore.
func (s *StreamState) Capture() []tensor.Named {
	var out []tensor.Named
	for i, st := range s.states {
		if !s.net.Layers[i].Stateful() {
			continue
		}
		captureState(fmt.Sprintf("layer%02d", i), st, &out)
	}
	return out
}

func captureState(prefix string, st *layers.LayerState, out *[]tensor.Named) {
	if st == nil {
		return
	}
	*out = append(*out, tensor.Named{Name: prefix + ".u", T: st.U.Clone()})
	for k, sub := range st.Sub {
		captureState(fmt.Sprintf("%s.sub%d", prefix, k), sub, out)
	}
}

// Restore rebuilds the stream's per-layer state from a Capture record. The
// record must hold, tensor for tensor and shape for shape, the state tree a
// step of this network produces, sub-states included, and nothing else: the
// guard that refuses to graft a snapshot onto an architecturally different
// (or differently sized) model. steps restores the timestep cursor.
func (s *StreamState) Restore(named []tensor.Named, steps int) error {
	byName := make(map[string]*tensor.Tensor, len(named))
	for _, n := range named {
		if _, dup := byName[n.Name]; dup {
			return fmt.Errorf("core: stream restore: duplicate state tensor %q", n.Name)
		}
		byName[n.Name] = n.T
	}
	want := NewStreamState(s.net, s.batch)
	want.StepQuiet()
	used := 0
	states := make([]*layers.LayerState, len(s.net.Layers))
	for i, l := range s.net.Layers {
		if !l.Stateful() {
			continue
		}
		st, err := restoreLike(fmt.Sprintf("layer%02d", i), want.states[i], byName, &used)
		if err != nil {
			return fmt.Errorf("core: stream restore: layer %s: %w", l.Name(), err)
		}
		states[i] = st
	}
	if used != len(named) {
		return fmt.Errorf("core: stream restore: %d of %d state tensors did not match any layer (model mismatch)",
			len(named)-used, len(named))
	}
	s.states = states
	s.steps = steps
	return nil
}

// restoreLike rebuilds one layer's state tree from the record, shaped like
// want, the tree a step produces: every tensor of want must be in the
// record under prefix with want's shape. used counts the entries taken.
func restoreLike(prefix string, want *layers.LayerState, byName map[string]*tensor.Tensor, used *int) (*layers.LayerState, error) {
	name := prefix + ".u"
	got, ok := byName[name]
	if !ok {
		return nil, fmt.Errorf("missing %s", name)
	}
	if !shapeEq(got.Shape(), want.U.Shape()) {
		return nil, fmt.Errorf("%s shape %v, want %v", name, got.Shape(), want.U.Shape())
	}
	*used++
	st := &layers.LayerState{U: got.Clone()}
	for k, sub := range want.Sub {
		r, err := restoreLike(fmt.Sprintf("%s.sub%d", prefix, k), sub, byName, used)
		if err != nil {
			return nil, err
		}
		st.Sub = append(st.Sub, r)
	}
	return st, nil
}

func shapeEq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
