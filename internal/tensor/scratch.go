package tensor

// Scratch holds per-lane kernel workspace: im2col columns and the nonzero
// lists of the gather convolution. Each layer owns one Scratch; the parallel
// kernels grow each lane's slots on first use, so concurrent lanes of one
// kernel call never share a buffer. A Scratch must not be shared between
// layer instances that can run concurrently — the serving worker replicas
// each build a private network (and therefore private Scratches) for
// exactly this reason.
//
// The zero value is ready to use; nil is accepted by every kernel and makes
// the call allocate a throwaway workspace.
type Scratch struct {
	lanes []laneSlots
}

// laneSlots is one lane's workspace, one slot per element type.
type laneSlots struct {
	floats []float32
	ints   []int32
}

// NewScratch returns an empty per-lane workspace.
func NewScratch() *Scratch { return &Scratch{} }

// reserve grows the lane table to at least n slots. It must run on the
// submitting goroutine before lanes are dispatched: the table itself is
// only ever resized here, so concurrent lane calls touch disjoint elements.
func (s *Scratch) reserve(n int) {
	if len(s.lanes) < n {
		grown := make([]laneSlots, n)
		copy(grown, s.lanes)
		s.lanes = grown
	}
}

// grow returns buf if it holds at least n elements, else a new buffer of n.
func grow[E any](buf []E, n int) []E {
	if len(buf) < n {
		return make([]E, n)
	}
	return buf
}

// lane returns lane's float buffer with at least n elements, growing only
// that lane's slot. Contents are unspecified; kernels overwrite before
// reading.
func (s *Scratch) lane(lane, n int) []float32 {
	l := &s.lanes[lane]
	l.floats = grow(l.floats, n)
	return l.floats[:n]
}

// laneInts is lane for int32 workspace — the gather convolution's
// positions and tap tables.
func (s *Scratch) laneInts(lane, n int) []int32 {
	l := &s.lanes[lane]
	l.ints = grow(l.ints, n)
	return l.ints[:n]
}
