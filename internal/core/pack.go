package core

import (
	"skipper/internal/layers"
	"skipper/internal/tensor"
)

// packedState is a storage-optimised timestep record: membrane potentials
// stay as float32 (they are dense reals), while binary spike tensors are
// bit-packed 32×. Enabled by Config.CompressSpikes for the long-lived
// checkpoint boundary records, a storage format beyond the paper. Packing
// is lossless for binary tensors, so gradient exactness is unaffected (a
// tested invariant).
type packedState struct {
	u       *tensor.Tensor
	oPacked *tensor.PackedSpikes
	oRaw    *tensor.Tensor
	sub     []*packedState
}

// packState converts a record, packing every exactly-binary output tensor.
func packState(st *layers.LayerState) *packedState {
	if st == nil {
		return nil
	}
	ps := &packedState{u: st.U}
	if st.O != nil {
		if p, ok := tensor.PackSpikes(st.O); ok {
			ps.oPacked = p
		} else {
			ps.oRaw = st.O
		}
	}
	for _, sub := range st.Sub {
		ps.sub = append(ps.sub, packState(sub))
	}
	return ps
}

// unpack rebuilds the record exactly: every packed spike plane expands back
// to floats. Non-binary outputs (readout membranes) were never packed.
func (ps *packedState) unpack() *layers.LayerState {
	if ps == nil {
		return nil
	}
	st := &layers.LayerState{U: ps.u, O: ps.oRaw}
	if ps.oPacked != nil {
		st.O = ps.oPacked.Unpack()
	}
	for _, sub := range ps.sub {
		st.Sub = append(st.Sub, sub.unpack())
	}
	return st
}

// bytes is the storage footprint charged to the device.
func (ps *packedState) bytes() int64 {
	if ps == nil {
		return 0
	}
	var n int64
	if ps.u != nil {
		n += ps.u.Bytes()
	}
	if ps.oPacked != nil {
		n += ps.oPacked.Bytes()
	} else if ps.oRaw != nil {
		n += ps.oRaw.Bytes()
	}
	for _, sub := range ps.sub {
		n += sub.bytes()
	}
	return n
}

// packStates converts a whole timestep record set.
func packStates(states []*layers.LayerState) ([]*packedState, int64) {
	out := make([]*packedState, len(states))
	var bytes int64
	for i, st := range states {
		out[i] = packState(st)
		bytes += out[i].bytes()
	}
	return out, bytes
}

// unpackStates reconstructs the record set.
func unpackStates(ps []*packedState) []*layers.LayerState {
	out := make([]*layers.LayerState, len(ps))
	for i, p := range ps {
		out[i] = p.unpack()
	}
	return out
}
