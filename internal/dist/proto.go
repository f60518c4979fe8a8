package dist

import (
	"encoding/binary"
	"encoding/json"
	"fmt"

	"skipper/internal/frame"
)

// protoVersion gates the handshake; bump on any wire-visible change.
// v3: flat-float gradient payloads, one frame per rank per direction
// (chunked on the ring); parameter and neuron signatures at the handshake
// instead of per-round name tables; stats/commit messages for the ring.
const protoVersion = 3

// helloMsg opens a worker's session. Everything that must match for the
// lock-step invariant to hold is validated here, before a rank is assigned:
// a worker with a different seed, horizon, learning rate, clip threshold,
// parameter layout, surrogate, neuron constants, or topology would compute
// correct-looking but diverging steps.
type helloMsg struct {
	Proto     int     `json:"proto"`
	Strategy  string  `json:"strategy"`
	Optimizer string  `json:"optimizer"`
	Seed      uint64  `json:"seed"`
	T         int     `json:"t"`
	LR        float64 `json:"lr"`
	GradClip  float64 `json:"grad_clip"`
	// ParamSig fingerprints the parameter names/shapes/order (see paramSig),
	// replacing the per-round name tables v1 shipped with every upload.
	ParamSig string `json:"param_sig"`
	// NeuronSig fingerprints each stateful layer's surrogate and neuron
	// constants, which ParamSig cannot see (see neuronSig).
	NeuronSig string `json:"neuron_sig"`
	// Topology must match the coordinator's Options.
	Topology string `json:"topology"`
	// RingAddr is the worker's ring-data listener address (ring topology
	// only; its successor's dial target).
	RingAddr string `json:"ring_addr,omitempty"`
}

// welcomeMsg assigns the joining worker its seat.
type welcomeMsg struct {
	Rank  int `json:"rank"`
	World int `json:"world"`
	// Round is the next round the coordinator will run; the msgState
	// manifest that follows carries the matching trainer state.
	Round int `json:"round"`
}

// ringMsg announces the ring membership: Addrs[r] is rank r's ring-data
// listener. Sent to every worker whenever membership changes; Version bumps
// on every change AND on every round abort, so chunks buffered in a
// poisoned connection can never leak into a rebuilt ring.
type ringMsg struct {
	Version int      `json:"version"`
	Addrs   []string `json:"addrs"`
}

// assignMsg dispatches one round's shard. Iteration is assigned by the
// coordinator so every rank derives identical RNG streams and a replayed
// round recomputes bit-identical gradients. Attempt distinguishes replays of
// the same round: a worker whose upload for attempt k was in flight when the
// round aborted leaves that upload buffered in the coordinator's stream, and
// the gather loop must be able to drain it without mistaking it for attempt
// k+1's (bitwise-identical) gradients.
type assignMsg struct {
	Round     int   `json:"round"`
	Attempt   int   `json:"attempt"`
	Epoch     int   `json:"epoch"`
	Iteration int   `json:"iteration"`
	GlobalN   int   `json:"global_n"`
	Split     int   `json:"split"`
	Indices   []int `json:"indices"`
	// RingVersion names the ring membership this round runs on (ring
	// topology only); a worker rebuilds its ring connections when its
	// current ones are older.
	RingVersion int `json:"ring_version,omitempty"`
}

// gradsMeta heads a rank's gradient upload (star topology). The payload
// after the meta is the flat gradient (see encodeFloats), absent when the
// rank sat the round out. The stats ride on the same frame, so a round needs
// exactly one frame per rank.
type gradsMeta struct {
	Round   int     `json:"round"`
	Attempt int     `json:"attempt"`
	Rank    int     `json:"rank"`
	Count   int     `json:"count"` // shard size; 0 = sat the round out
	Loss    float64 `json:"loss,omitempty"`
	Correct int     `json:"correct,omitempty"`
	N       int     `json:"n,omitempty"`
	// ComputeSeconds is the shard's TrainBatch wall time, reported so the
	// coordinator can attribute round latency to compute vs. exchange.
	ComputeSeconds float64 `json:"compute_seconds,omitempty"`
}

// statsMsg reports a ring-topology worker's round results on the control
// connection once its ring exchange completed — the coordinator's signal
// that the rank is ready to commit.
type statsMsg struct {
	Round          int     `json:"round"`
	Attempt        int     `json:"attempt"`
	Rank           int     `json:"rank"`
	Count          int     `json:"count"`
	Loss           float64 `json:"loss"`
	Correct        int     `json:"correct"`
	N              int     `json:"n"`
	ComputeSeconds float64 `json:"compute_seconds"`
	// WireBytes is what the rank's ring sends moved this round: only the
	// rank itself sees its ring link, and the reduce-bytes metric sums them.
	WireBytes int64 `json:"wire_bytes"`
}

// reducedMeta heads the coordinator's reduced-gradient broadcast (star).
type reducedMeta struct {
	Round int `json:"round"`
}

// commitMsg is the ring topology's round go-ahead: every rank already holds
// the reduced gradient from the distribution trip, so commit is metadata
// only.
type commitMsg struct {
	Round int `json:"round"`
}

// ringHelloMsg opens a ring-data connection: the dialing rank names itself
// and the membership version it is joining under.
type ringHelloMsg struct {
	Version int `json:"version"`
	From    int `json:"from"`
}

// ringChunkMeta heads one ring-data chunk. Final distinguishes the
// distribution trip from the reduce trip; Have reports whether the payload
// carries any contribution yet (false until the first non-empty shard on
// the reduce path, so empty-shard ranks never perturb the sum).
type ringChunkMeta struct {
	Round   int  `json:"round"`
	Attempt int  `json:"attempt"`
	Version int  `json:"version"`
	Chunk   int  `json:"chunk"`
	Final   bool `json:"final,omitempty"`
	Have    bool `json:"have,omitempty"`
}

// abortMsg cancels an in-flight round before anyone has stepped.
type abortMsg struct {
	Round  int    `json:"round"`
	Reason string `json:"reason"`
}

// doneMsg ends training cleanly.
type doneMsg struct {
	Reason string `json:"reason"`
}

// errorMsg reports a failure to the peer. Permanent tells a worker not to
// bother reconnecting (e.g. a handshake validation mismatch).
type errorMsg struct {
	Message   string `json:"message"`
	Permanent bool   `json:"permanent"`
}

// encodeJSON renders a JSON-payload message.
func encodeJSON(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("dist: encoding message: %w", err)
	}
	return b, nil
}

// decodeJSON parses a JSON-payload message.
func decodeJSON(payload []byte, v any) error {
	if err := json.Unmarshal(payload, v); err != nil {
		return fmt.Errorf("dist: decoding message: %w", err)
	}
	return nil
}

// encodeFlat renders a gradient message payload:
//
//	meta len u32 | meta JSON | float section (see encodeFloats)
//
// vals may be nil for meta-only frames.
func encodeFlat(meta any, vals []float32) ([]byte, error) {
	mb, err := json.Marshal(meta)
	if err != nil {
		return nil, fmt.Errorf("dist: encoding payload meta: %w", err)
	}
	buf := make([]byte, 4, 4+len(mb))
	binary.LittleEndian.PutUint32(buf, uint32(len(mb)))
	buf = append(buf, mb...)
	if vals != nil {
		buf = append(buf, encodeFloats(vals)...)
	}
	return buf, nil
}

// decodeFlat parses a gradient message payload into meta and returns the
// float section (possibly empty), ready for decodeFloats. The meta length is
// capped against the payload before it sizes anything — this reads from the
// network.
func decodeFlat(payload []byte, meta any) ([]byte, error) {
	if len(payload) < 4 {
		return nil, fmt.Errorf("%w: flat payload %d bytes", frame.ErrBad, len(payload))
	}
	n := binary.LittleEndian.Uint32(payload)
	if int64(n) > int64(len(payload)-4) {
		return nil, fmt.Errorf("%w: flat meta length %d with %d bytes remaining", frame.ErrBad, n, len(payload)-4)
	}
	if err := json.Unmarshal(payload[4:4+n], meta); err != nil {
		return nil, fmt.Errorf("dist: decoding payload meta: %w", err)
	}
	return payload[4+n:], nil
}
