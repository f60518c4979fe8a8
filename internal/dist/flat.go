package dist

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"skipper/internal/layers"
	"skipper/internal/snn"
	"skipper/internal/tensor"
)

// flatGrads is a flat float vector view over a gradient set in canonical
// parameter order — the data plane both collectives move. The view aliases
// the underlying tensors: copyIn/addIn mutate the network's gradients
// directly, snapshot copies them out. Every rank builds the view from the
// identical parameter order, and the per-element accumulation order is
// exactly the order core.ReduceGrads walks — which is what keeps the wire
// paths bit-identical to the in-process reduction.
type flatGrads struct {
	tensors []*tensor.Tensor
	offs    []int // offs[i] = flat start of tensor i; offs[len] = total
}

// newFlatGrads builds the view over named gradients in their given
// (canonical) order.
func newFlatGrads(grads []tensor.Named) *flatGrads {
	f := &flatGrads{offs: make([]int, len(grads)+1)}
	for i, g := range grads {
		f.tensors = append(f.tensors, g.T)
		f.offs[i+1] = f.offs[i] + g.T.Len()
	}
	return f
}

// size returns the total float count of the view.
func (f *flatGrads) size() int { return f.offs[len(f.offs)-1] }

// snapshot copies the gradients out into a fresh flat vector.
func (f *flatGrads) snapshot() []float32 {
	dst := make([]float32, f.size())
	for i, t := range f.tensors {
		copy(dst[f.offs[i]:], t.Data)
	}
	return dst
}

// copyIn overwrites the gradients from src (len size()).
func (f *flatGrads) copyIn(src []float32) {
	for i, t := range f.tensors {
		copy(t.Data, src[f.offs[i]:f.offs[i+1]])
	}
}

// addIn accumulates src (len size()) into the gradients: data[i] += src[i],
// the same per-element fadd core.ReduceGrads' AXPY performs.
func (f *flatGrads) addIn(src []float32) {
	for i, t := range f.tensors {
		s := src[f.offs[i]:f.offs[i+1]]
		for j := range t.Data {
			t.Data[j] += s[j]
		}
	}
}

// paramSig fingerprints a parameter set's names, shapes, and order. Ranks
// compare signatures once at handshake instead of shipping per-round name
// tables; any mismatch is a permanent config error.
func paramSig(grads []tensor.Named) string {
	h := fnv.New64a()
	for _, g := range grads {
		fmt.Fprintf(h, "%s:%v;", g.Name, g.T.Shape())
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// neuronSig fingerprints what paramSig cannot see and a rank's gradient
// still depends on: per stateful layer, the surrogate (type and parameters)
// and the neuron constants (leak, threshold, reset mode). Ranks that differ
// here would exchange same-shaped gradients of different functions.
func neuronSig(net *layers.Network) string {
	h := fnv.New64a()
	for i, l := range net.Layers {
		var p snn.Params
		var s snn.Surrogate
		switch l := l.(type) {
		case *layers.SpikingConv2D:
			p, s = l.Neuron, l.Surrogate
		case *layers.SpikingLinear:
			p, s = l.Neuron, l.Surrogate
		case *layers.RecurrentSpikingLinear:
			p, s = l.Neuron, l.Surrogate
		case *layers.ResidualBlock:
			p, s = l.Neuron, l.Surrogate
		default:
			continue
		}
		fmt.Fprintf(h, "%d:%T%+v:%+v;", i, s, s, p)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Float codec: every gradient payload on the wire is one contiguous float
// range in a self-describing layout.
//
//	u8 0 | u32 n | n × f32 (raw little-endian bits)
//
// Values travel as raw bit patterns, so −0.0, denormals, and NaNs round-trip
// exactly — the wire can never change a training result.
const wireDense byte = 0

// floatsWireLen is the encoded size of a float section holding n values.
func floatsWireLen(n int) int { return 5 + 4*n }

// encodeFloats serializes vals.
func encodeFloats(vals []float32) []byte {
	buf := make([]byte, 0, floatsWireLen(len(vals)))
	buf = append(buf, wireDense)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(vals)))
	for _, v := range vals {
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
	}
	return buf
}

// decodeFloats parses a float section into dst, which must already have the
// expected length — the caller always knows its range size, so a length
// disagreement is a protocol error, not an allocation hint.
func decodeFloats(buf []byte, dst []float32) error {
	if len(buf) < 5 {
		return fmt.Errorf("dist: float payload %d bytes, want >= 5", len(buf))
	}
	n := int(binary.LittleEndian.Uint32(buf[1:]))
	if n != len(dst) {
		return fmt.Errorf("dist: float payload holds %d values, want %d", n, len(dst))
	}
	if mode := buf[0]; mode != wireDense {
		return fmt.Errorf("dist: unknown float payload mode %d", mode)
	}
	body := buf[5:]
	if len(body) != 4*n {
		return fmt.Errorf("dist: dense payload %d bytes, want %d", len(body), 4*n)
	}
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(body[4*i:]))
	}
	return nil
}
