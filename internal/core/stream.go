package core

import (
	"fmt"
	"strings"

	"skipper/internal/layers"
	"skipper/internal/tensor"
)

// StreamState is a resumable inference stream: the rolling per-layer state
// that InferStream keeps internally, extracted so a serving session can hold
// it across requests, snapshot it to a durable record, ship it to another
// replica, and resume bit-identically. Timesteps advance one of two ways:
// StepInput runs the full forward on an event tensor, StepQuiet advances the
// membranes by the leak-only fast path (layers.QuietState), falling back to
// a full zero-input forward when the stack is outside the quiet model.
type StreamState struct {
	net    *layers.Network
	batch  int
	states []*layers.LayerState
	steps  int

	quiet  *layers.QuietState
	zeroIn *tensor.Tensor

	// QuietSteps / FullSteps / QuietFallbacks count how timesteps were
	// advanced, for trace counters and the bench's skip accounting.
	QuietSteps     int64
	FullSteps      int64
	QuietFallbacks int64
}

// NewStreamState starts an empty stream (no timesteps seen) over net at a
// fixed batch size. The network's weights are read on every step; the
// caller owns keeping them stable for the stream's lifetime.
func NewStreamState(net *layers.Network, batch int) *StreamState {
	s := &StreamState{net: net, batch: batch}
	if q := layers.NewQuietState(net, batch); q.Supported() {
		s.quiet = q
	}
	return s
}

// Steps returns how many timesteps the stream has advanced since t = 0.
func (s *StreamState) Steps() int { return s.steps }

// Batch returns the stream's fixed batch size.
func (s *StreamState) Batch() int { return s.batch }

// QuietSupported reports whether the leak-only fast path covers this
// network (false falls back to full zero-input forwards, still correct).
func (s *StreamState) QuietSupported() bool { return s.quiet != nil }

// StepInput advances one timestep on input x [batch, InShape...].
func (s *StreamState) StepInput(x *tensor.Tensor) {
	s.states = s.net.ForwardStep(x, s.states)
	s.steps++
	s.FullSteps++
}

// StepQuiet advances one timestep under an all-zero input, via the
// leak-only fast path when supported and a full zero-input forward
// otherwise. Both are bitwise identical to StepInput on a zero tensor.
func (s *StreamState) StepQuiet() {
	if s.quiet != nil {
		if st, ok := s.quiet.Step(s.states); ok {
			s.states = st
			s.steps++
			s.QuietSteps++
			return
		}
		s.QuietFallbacks++
	}
	if s.zeroIn == nil {
		s.zeroIn = tensor.New(append([]int{s.batch}, s.net.InShape...)...)
	}
	s.StepInput(s.zeroIn)
}

// Logits returns the readout output at the current timestep (nil before the
// first step). The returned tensor aliases live state; clone to keep it.
func (s *StreamState) Logits() *tensor.Tensor {
	if s.states == nil {
		return nil
	}
	return s.net.Logits(s.states)
}

// InvalidateQuietCache rebuilds the cached zero-input currents on next use;
// call after the network's weights are rewritten in place.
func (s *StreamState) InvalidateQuietCache() {
	if s.quiet != nil {
		s.quiet.Invalidate()
	}
}

// Capture snapshots the stream's membrane state as named tensors, cloned so
// the record stays stable while the stream keeps advancing. Stateful layers
// contribute "layerNN.u" and "layerNN.o" (both sides of the LIF recurrence
// — the reset term needs o_{t−1} too); composite layers recurse into
// "layerNN.subK.*". Stateless layers contribute nothing and are rebuilt as
// nil states on restore.
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
	if st.U != nil {
		*out = append(*out, tensor.Named{Name: prefix + ".u", T: st.U.Clone()})
	}
	if st.O != nil {
		*out = append(*out, tensor.Named{Name: prefix + ".o", T: st.O.Clone()})
	}
	for k, sub := range st.Sub {
		captureState(fmt.Sprintf("%s.sub%d", prefix, k), sub, out)
	}
}

// Restore rebuilds the stream's per-layer state from a Capture record,
// validating every tensor against the network's layer shapes — the guard
// that refuses to graft a snapshot onto a architecturally different (or
// differently sized) model. steps restores the timestep cursor.
func (s *StreamState) Restore(named []tensor.Named, steps int) error {
	byName := make(map[string]*tensor.Tensor, len(named))
	for _, n := range named {
		if _, dup := byName[n.Name]; dup {
			return fmt.Errorf("core: stream restore: duplicate state tensor %q", n.Name)
		}
		byName[n.Name] = n.T
	}
	used := 0
	outShapes := s.net.OutShapes()
	states := make([]*layers.LayerState, len(s.net.Layers))
	for i, l := range s.net.Layers {
		prefix := fmt.Sprintf("layer%02d", i)
		st, n, err := restoreState(prefix, byName)
		if err != nil {
			return err
		}
		used += n
		if !l.Stateful() {
			if st != nil {
				return fmt.Errorf("core: stream restore: state %q for stateless layer %s", prefix, l.Name())
			}
			continue
		}
		if st == nil {
			return fmt.Errorf("core: stream restore: missing state for stateful layer %s (%s)", l.Name(), prefix)
		}
		want := append([]int{s.batch}, outShapes[i]...)
		for _, tt := range []*tensor.Tensor{st.U, st.O} {
			if tt == nil {
				return fmt.Errorf("core: stream restore: %s needs both .u and .o", prefix)
			}
			if !shapeEq(tt.Shape(), want) {
				return fmt.Errorf("core: stream restore: %s shape %v does not fit layer %s (want %v)",
					prefix, tt.Shape(), l.Name(), want)
			}
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

// restoreState assembles one layer's state (or nil) from the name map and
// reports how many record entries it consumed.
func restoreState(prefix string, byName map[string]*tensor.Tensor) (*layers.LayerState, int, error) {
	u, okU := byName[prefix+".u"]
	o, okO := byName[prefix+".o"]
	// Base case: nothing in the record under this prefix. Without this the
	// sub recursion below would descend ".sub0.sub0..." forever.
	if !okU && !okO && !hasSub(prefix, byName) {
		return nil, 0, nil
	}
	used := 0
	if okU {
		used++
	}
	if okO {
		used++
	}
	var sub []*layers.LayerState
	for k := 0; ; k++ {
		s, n, err := restoreState(fmt.Sprintf("%s.sub%d", prefix, k), byName)
		if err != nil {
			return nil, used, err
		}
		if s == nil {
			break
		}
		used += n
		sub = append(sub, s)
	}
	st := &layers.LayerState{Sub: sub}
	if okU {
		st.U = u.Clone()
	}
	if okO {
		st.O = o.Clone()
	}
	return st, used, nil
}

// hasSub reports whether any record entry lives under prefix's sub tree.
func hasSub(prefix string, byName map[string]*tensor.Tensor) bool {
	p := prefix + ".sub"
	for name := range byName {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
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
